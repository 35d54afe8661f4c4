//! The tentpole invariant, end to end: an N-thread run is **byte-identical**
//! to the 1-thread run — params, health log, and simulated time — for every
//! fault schedule in the chaos matrix and for randomized worker counts,
//! fault schedules, and rescale points.
//!
//! Why this is the right correctness statement: the persistent worker pool
//! (`core::pool`) runs local steps and merge-side reductions concurrently,
//! so OS scheduling is free to interleave them any way it likes. Every
//! channel the results cross back on is drained in canonical order
//! (docs/PARALLELISM.md), so the *only* observable difference between
//! `ExecMode::Pool` and `ExecMode::SingleThread` should be wall-clock —
//! which nothing here measures. If any bit of thread-completion order ever
//! leaked into the math, these comparisons would catch it.

mod common;

use common::{assert_pool_eq_single, store_dir, wide_cfg};
use easyscale::ExecMode;
use faultsim::{run_fault_free, FaultEvent, FaultHarness, FaultKind, FaultSchedule, HarnessConfig};
use proptest::proptest;

// ---- the chaos matrix, swept across thread counts ----------------------

#[test]
fn nthread_eq_single_on_hand_authored_schedules() {
    let matrix: [(&str, Vec<FaultEvent>); 3] = [
        (
            "ckpt-damage",
            vec![
                FaultEvent { step: 2, kind: FaultKind::WorkerCrash },
                FaultEvent { step: 5, kind: FaultKind::TornCheckpoint { keep_frac_milli: 400 } },
                FaultEvent { step: 8, kind: FaultKind::BitFlippedCheckpoint { bit_index: 100 } },
            ],
        ),
        (
            "elastic",
            vec![
                FaultEvent { step: 2, kind: FaultKind::ScaleOut { gpus: 2 } },
                FaultEvent { step: 5, kind: FaultKind::Preemption { gpus: 3 } },
                FaultEvent { step: 8, kind: FaultKind::ScaleIn { gpus: 2 } },
            ],
        ),
        (
            "comm",
            vec![
                FaultEvent { step: 2, kind: FaultKind::CommFailure { failures: 2 } },
                FaultEvent {
                    step: 4,
                    kind: FaultKind::Straggler { worker: 1, factor_milli: 2500, steps: 2 },
                },
                FaultEvent { step: 7, kind: FaultKind::CommFailure { failures: 5 } },
            ],
        ),
    ];
    for (tag, events) in matrix {
        assert_pool_eq_single(
            tag,
            HarnessConfig::default_chaos,
            &FaultSchedule::from_events(events),
        );
    }
}

#[test]
fn nthread_eq_single_on_seeded_schedules() {
    for seed in [11, 22, 33, 44, 55, 66] {
        assert_pool_eq_single(
            &format!("seed{seed}"),
            HarnessConfig::default_chaos,
            &FaultSchedule::generate(seed, 10, 6),
        );
    }
}

#[test]
fn nthread_pool_also_converges_to_fault_free_reference() {
    // Belt and braces: the pool run doesn't just match the single-thread
    // run — both match the fault-free reference (itself run on the pool).
    let dir = store_dir("nthread", "pool-vs-reference");
    let cfg = HarnessConfig::default_chaos(dir.clone());
    assert_eq!(cfg.exec_mode, ExecMode::Pool, "the pool is the production default");
    let reference: Vec<u32> = run_fault_free(&cfg).iter().map(|p| p.to_bits()).collect();
    let report = FaultHarness::new(cfg, FaultSchedule::generate(77, 10, 5)).run();
    assert_eq!(report.params_bits(), reference);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- randomized worker counts, fault schedules, rescale points ---------

proptest! {
    #[test]
    fn nthread_eq_single_randomized(
        gpus in 1u32..=8,
        fault_seed in 0u64..10_000,
        n_faults in 0usize..=3,
        rescale_step in 1u64..=4,
        scale_out in proptest::strategy::any::<bool>(),
    ) {
        // A seeded fault burst plus one explicit rescale point: the drawn
        // worker count changes at `rescale_step`, so the equivalence holds
        // across a thread-pool teardown/respawn too.
        let mut events = FaultSchedule::generate(fault_seed, 5, n_faults).events;
        let kind = if scale_out {
            FaultKind::ScaleOut { gpus: 1 }
        } else {
            FaultKind::ScaleIn { gpus: 1 }
        };
        events.push(FaultEvent { step: rescale_step, kind });
        events.sort_by_key(|e| e.step);
        let tag = format!("rand-g{gpus}-s{fault_seed}-f{n_faults}-r{rescale_step}");
        assert_pool_eq_single(&tag, wide_cfg(gpus), &FaultSchedule::from_events(events));
    }
}
