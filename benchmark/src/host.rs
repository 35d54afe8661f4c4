//! What the run sat on: cores, a fixed calibration loop, peak memory, and
//! the toolchain and commit the numbers belong to.

use crate::stats::{summarize, Summary};
use std::path::Path;
use std::time::Instant;

pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// 256 KiB of f32.
const CALIB_LEN: usize = 64 * 1024;
const CALIB_PASSES: usize = 16;

/// One calibration sample: `CALIB_PASSES` passes of an 8-lane multiply-add
/// over 256 KiB. The work is fixed, so two samples differ only by the state
/// of the host.
fn calib_once(data: &[f32]) -> f32 {
    let mut lanes = [0.0f32; 8];
    for pass in 0..CALIB_PASSES {
        let scale = 1.0 + pass as f32 * 1e-3;
        for chunk in data.chunks_exact(8) {
            for (lane, &x) in lanes.iter_mut().zip(chunk) {
                *lane = lane.mul_add(0.999, x * scale);
            }
        }
    }
    lanes.iter().sum()
}

/// Wall time of the calibration loop over `samples` samples, milliseconds.
pub fn calibrate(samples: usize) -> Summary {
    let data: Vec<f32> = (0..CALIB_LEN).map(|i| ((i * 31) as f32).sin()).collect();
    std::hint::black_box(calib_once(&data));
    let ms: Vec<f64> = (0..samples)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(calib_once(std::hint::black_box(&data)));
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    summarize(&ms)
}

/// `VmHWM` of this process in MiB: the most resident memory it ever held.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse::<f64>().ok());
    kb.map_or(f64::NAN, |kb| kb / 1024.0)
}

pub fn rustc_version() -> String {
    std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The commit checked out under `root`, read from `.git` without running
/// git. The driver's checkout is not a repository: that reads "none".
pub fn git_commit(root: &Path) -> String {
    let head = match std::fs::read_to_string(root.join(".git/HEAD")) {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "none".to_string(),
    };
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(root.join(".git").join(reference))
            .map(|s| s.trim().to_string())
            .unwrap_or(head),
        None => head,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_facts_are_readable() {
        assert!(cores() >= 1);
        assert!(peak_rss_mb() > 0.0);
        let c = calibrate(5);
        assert!(c.n == 5 && c.p25 > 0.0 && c.median >= c.p25);
    }
}
