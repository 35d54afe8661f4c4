//! Pinning threads to cores, from outside the program, as `taskset` would.
//!
//! Left alone, the kernel moves the two pool workers and the driver thread
//! between the two cores as it pleases, and a step's wake-up latency depends
//! on where they happen to sit: the same `train_sync` binary ran a step in
//! 0.20 ms or 0.32 ms for a whole process lifetime. With worker `i` held on
//! core `i` the fast-quartile step time of six runs stayed within 2 %.

use std::time::{Duration, Instant};

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// Restrict thread `tid` (0: the calling thread) to `cpu`. False when the
/// platform refuses; the run goes on unpinned and says so.
fn pin_tid(tid: i32, cpu: usize) -> bool {
    #[cfg(target_os = "linux")]
    {
        let mask: u64 = 1 << (cpu % 64);
        // SAFETY: `mask` is a live 8-byte CPU set and 8 is its size in
        // bytes; the call reads it and keeps no pointer.
        unsafe { sched_setaffinity(tid, std::mem::size_of::<u64>(), &mask) == 0 }
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = (tid, cpu);
        false
    }
}

pub fn current_thread(cpu: usize) -> bool {
    pin_tid(0, cpu)
}

/// Pin every live pool worker thread (`esw-dev<i>`) to core `i`. A thread
/// names itself once it starts, so wait until `expected` of them show up.
/// Returns how many were pinned.
pub fn pool_workers(expected: usize) -> usize {
    let cores = crate::host::cores();
    let deadline = Instant::now() + Duration::from_millis(200);
    loop {
        let mut pinned = 0;
        let tasks = std::fs::read_dir("/proc/self/task").into_iter().flatten().flatten();
        for task in tasks {
            let comm = std::fs::read_to_string(task.path().join("comm")).unwrap_or_default();
            let slot = comm.trim().strip_prefix("esw-dev").and_then(|i| i.parse::<usize>().ok());
            let tid = task.file_name().to_string_lossy().parse::<i32>().ok();
            if let (Some(slot), Some(tid)) = (slot, tid) {
                if pin_tid(tid, slot % cores) {
                    pinned += 1;
                }
            }
        }
        if pinned >= expected || Instant::now() >= deadline {
            return pinned;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn a_named_thread_is_found_and_pinned() {
        let (tx, rx) = std::sync::mpsc::sync_channel::<()>(0);
        let worker = std::thread::Builder::new()
            .name("esw-dev0".to_string())
            .spawn(move || rx.recv().is_ok())
            .unwrap();
        assert!(pool_workers(1) >= 1);
        tx.send(()).unwrap();
        assert!(worker.join().unwrap());
    }
}
