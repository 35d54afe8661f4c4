//! Allocation budget of the local step (ROADMAP item 8): what one steady
//! EST step asks of the system allocator — calls, bytes — and how many minor
//! page faults it takes, pinned per proxy and per thread.
//!
//! `kernel_golden.rs` notices a kernel change that moves a bit; nothing
//! notices one that keeps every bit and puts a `clone()` or a per-element
//! `Vec` back into the step. This file does: the three training jobs of the
//! benchmark (ResNet18 batch 8 under D1, Bert batch 8 under D1+D2, NeuMF
//! batch 1 under D1; 8 ESTs, the four of them a two-worker placement gives
//! worker 0), `WARM_ROUNDS` rounds of `run_local_steps()` to reach the steady
//! state, then `ROUNDS` measured ones, on the thread the test starts on and
//! again on a thread spawned from it (a pool worker's situation: a fresh
//! malloc arena and nothing cached). The counters are process-global, which
//! is sound only while nothing else allocates: **this must stay the only
//! test in its binary** (docs/CI.md).
//!
//! A row may only ever go down. On a row that went up the test prints the
//! whole table it measured, ready to paste — but a higher number is an
//! allocation somebody added to the hot path and has to be explained, not
//! pasted. Faults are the minimum over `WINDOWS` windows (a reclaimed page
//! of the test binary's own text is not the step's doing) and are only
//! measured on Linux.

use device::GpuType;
use easyscale::{Determinism, EasyScaleWorker, JobConfig, Placement};
use models::Workload;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

struct Counting;

static CALLS: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);

fn count(bytes: usize) {
    CALLS.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, whose
// contract is the one the caller was given; the counters are plain atomics
// and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, passed on as is.
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller's layout, passed on as is.
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller's pointer, layout and size, passed on as is.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's pointer and layout, passed on as is.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

const WARM_ROUNDS: usize = 4;
const ROUNDS: usize = 4;
const WINDOWS: usize = 3;

/// Minor faults taken so far by the calling thread (`minflt`, the tenth
/// field of its `stat` line), read into a stack buffer so that the reading
/// neither allocates nor faults a fresh heap page. 0 where there is no
/// `/proc`.
fn minor_faults() -> u64 {
    use std::io::Read;
    let mut buf = [0u8; 1024];
    let n = std::fs::File::open("/proc/thread-self/stat")
        .and_then(|mut f| f.read(&mut buf))
        .unwrap_or(0);
    let line = std::str::from_utf8(&buf[..n]).unwrap_or("");
    // The second field is `(comm)` and may hold spaces: count from its end.
    let after_comm = line.rsplit_once(") ").map_or("", |(_, rest)| rest);
    after_comm.split(' ').nth(7).and_then(|f| f.parse().ok()).unwrap_or(0)
}

/// `(calls, bytes, faults)` per steady EST step, each rounded up.
fn steady_step(cfg: &JobConfig) -> (u64, u64, u64) {
    let placement = Placement::homogeneous(cfg.n_ests, 2, GpuType::V100);
    let mut worker = EasyScaleWorker::new(cfg, &placement.slots[0]);
    for _ in 0..WARM_ROUNDS {
        drop(worker.run_local_steps());
    }
    let steps = (ROUNDS * placement.slots[0].vranks.len()) as u64;
    let mut best = (u64::MAX, u64::MAX, u64::MAX);
    for _ in 0..WINDOWS {
        let before = (CALLS.load(Relaxed), BYTES.load(Relaxed), minor_faults());
        for _ in 0..ROUNDS {
            drop(worker.run_local_steps());
        }
        let after = (CALLS.load(Relaxed), BYTES.load(Relaxed), minor_faults());
        best = (
            best.0.min((after.0 - before.0).div_ceil(steps)),
            best.1.min((after.1 - before.1).div_ceil(steps)),
            best.2.min((after.2 - before.2).div_ceil(steps)),
        );
    }
    best
}

fn measure_all() -> Vec<(Workload, (u64, u64, u64))> {
    let job = |w, batch, dataset, det| {
        JobConfig::new(w, 20230811, 8)
            .with_dataset_len(dataset)
            .with_batch_size(batch)
            .with_determinism(det)
    };
    [
        job(Workload::ResNet18, 8, 4096, Determinism::d1()),
        job(Workload::Bert, 8, 2048, Determinism::d1_d2()),
        job(Workload::NeuMF, 1, 2048, Determinism::d1()),
    ]
    .iter()
    .map(|cfg| (cfg.workload, steady_step(cfg)))
    .collect()
}

/// Per steady EST step: allocator calls, bytes requested, minor faults;
/// release and debug alike. On the parent of the buffer cache (f234329, the
/// first version of this file) the rows read 381 / 824368 / 22 (32 on the
/// spawned thread), 816 / 431776 / 0 and 71 / 36468 / 0. What is left is
/// what leaves the worker — `LocalStep::grad` (a `Vec<f32>` of the
/// parameter count: 23336 of NeuMF's bytes), a batch's labels and indices —
/// MaxPool2's argmax and attention's five `Vec<Tensor>`.
const PINNED: &[(&str, u64, u64, u64)] = &[
    ("ResNet18 started-on thread", 5, 17144, 0),
    ("Bert started-on thread", 9, 26904, 0),
    ("NeuMF started-on thread", 4, 23392, 0),
    ("ResNet18 spawned thread", 5, 17144, 0),
    ("Bert spawned thread", 9, 26904, 0),
    ("NeuMF spawned thread", 4, 23392, 0),
];

#[test]
fn a_steady_est_step_stays_inside_its_allocation_budget() {
    let started_on = measure_all();
    let spawned =
        std::thread::scope(|s| s.spawn(measure_all).join()).expect("the measuring thread panicked");
    let actual: Vec<(String, u64, u64, u64)> = [("started-on", started_on), ("spawned", spawned)]
        .into_iter()
        .flat_map(|(thread, rows)| {
            rows.into_iter()
                .map(move |(w, (c, b, f))| (format!("{} {thread} thread", w.name()), c, b, f))
        })
        .collect();
    let rows: String = actual
        .iter()
        .map(|(name, c, b, f)| format!("    (\"{name}\", {c}, {b}, {f}),\n"))
        .collect();
    println!("alloc_budget, per steady EST step (calls, bytes, minor faults):\n{rows}");
    let inside = PINNED.len() == actual.len()
        && PINNED
            .iter()
            .zip(&actual)
            .all(|(p, a)| p.0 == a.0 && a.1 <= p.1 && a.2 <= p.2 && a.3 <= p.3);
    assert!(inside, "alloc_budget: a row rose above its pin. Measured:\n{rows}");
}
