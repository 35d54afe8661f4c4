//! The one table of workloads and metrics. `BENCHMARK.json`, the README's
//! catalogue and the checks in `smoke` are all generated from it, so a
//! metric cannot be printed under one name and documented under another.

use crate::report::obj;
use serde_json::Value;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

pub struct WorkloadInfo {
    pub name: &'static str,
    /// One line: why the workload exists (goes into `BENCHMARK.json`).
    pub why: &'static str,
    /// Which layer does most of the work.
    pub heavy_layer: &'static str,
    /// What one unit of `work_per_s` is.
    pub work_unit: &'static str,
}

pub const TRAIN_COMPUTE: &str = "train_compute";
pub const TRAIN_SYNC: &str = "train_sync";
pub const ELASTIC_CHURN: &str = "elastic_churn";
pub const SCHED_TRACE: &str = "sched_trace";

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: TRAIN_COMPUTE,
        why: "ResNet18 proxy, 8 ESTs on 2 pool workers, batch 8: over 95% of a step is worker/models/tensor/data compute, so kernel, model and loader changes show here and pool/comm/optimizer ones should not",
        heavy_layer: "core::worker, models, tensor, data",
        work_unit: "global step",
    },
    WorkloadInfo {
        name: TRAIN_SYNC,
        why: "NeuMF proxy at batch 1: compute is ~10 us per EST, so fan-out, StepBatch publish/drain, snapshot capture, gradient hand-off, partitioned reduce, Sgd::step and apply are most of the step",
        heavy_layer: "core::pool, comm, optim",
        work_unit: "global step",
    },
    WorkloadInfo {
        name: ELASTIC_CHURN,
        why: "Bert proxy, D1+D2: 20 steps, then checkpoint, store save/load, rebuild on the next of 3 placements; a worker panic every 5th cycle. A steady-state gain bought with fatter workers shows as a loss",
        heavy_layer: "core::store, core::engine rebuild, core::pool supervisor",
        work_unit: "global step, rescales included, over fault-free cycles",
    },
    WorkloadInfo {
        name: SCHED_TRACE,
        why: "No engine: a pass simulates a 500-job trace under YARN-CS, EasyScale homo, heter, and heter beside a serving load. Engine and kernel changes predict no change; ClusterSim's rescan shows only here",
        heavy_layer: "sched::sim, sched::intra, sched::companion",
        work_unit: "simulated job (500 jobs x 4 simulations per pass; a run cycles through 4 traces)",
    },
];

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    pub definition: &'static str,
    /// What the metric measures on `sched_trace`, which runs no engine.
    pub on_sched_trace: &'static str,
}

pub const WORK_PER_S: &str = "work_per_s";
pub const RESCALE_STALL_MS: &str = "rescale_stall_ms";
pub const FAULT_STALL_MS: &str = "fault_stall_ms";
pub const SETUP_S: &str = "setup_s";
pub const PEAK_RSS_MB: &str = "peak_rss_mb";

pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: WORK_PER_S,
        unit: "1/s",
        better: Better::Higher,
        bound: 0.20,
        definition: "units of work in a block / fast-quartile (p25) block wall time; the unit is the workload's (global steps, or simulated jobs)",
        on_sched_trace: "simulated jobs per second (the issue's `sim_jobs_per_s`)",
    },
    EndToEnd {
        name: RESCALE_STALL_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        definition: "p25 over rescales of wall time from the `Engine::checkpoint` call, through `CheckpointStore::save`, `load_latest_valid` and `Engine::from_checkpoint_opts`, to the return of the first step on the new placement",
        on_sched_trace: "the control plane's share of a rescale: p25 wall time of one scale-out decision (`IntraJobScheduler::proposals` -> `InterJobScheduler::decide` -> `apply_allocation` -> `current_placement`)",
    },
    EndToEnd {
        name: FAULT_STALL_MS,
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
        definition: "p25 over injected worker panics of (wall time of the faulted step - median clean step beside it)",
        on_sched_trace: "the control plane's share of a recovery: p25 wall time for `Supervisor` to turn three missed leases into an eviction and for `apply_preemption` -> `current_placement` to re-place the job",
    },
    EndToEnd {
        name: SETUP_S,
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        definition: "median over repeated set-ups of the time to build the job as a user would (datasets, models, workers, pool threads, store; or cluster, trace and simulators) and run its first step",
        on_sched_trace: "cluster, trace generation, simulator construction and one YARN-CS simulation",
    },
    EndToEnd {
        name: PEAK_RSS_MB,
        unit: "MiB",
        better: Better::Lower,
        bound: 0.15,
        definition: "`VmHWM` of the benchmark process when the run ends",
        on_sched_trace: "same",
    },
];

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub layer: &'static str,
    /// The public call timed, or how the count is made.
    pub call: &'static str,
    /// The end-to-end metric this one should move.
    pub moves: &'static str,
    /// Workloads whose traced section measures it; the first is where the
    /// value comes from when the requested workload is not in the list.
    pub on: &'static [&'static str],
}

const fn lower(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    call: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, layer, call, moves, on }
}

const fn higher(
    name: &'static str,
    unit: &'static str,
    layer: &'static str,
    call: &'static str,
    moves: &'static str,
    on: &'static [&'static str],
) -> PerLayer {
    PerLayer { name, unit, better: Better::Higher, layer, call, moves, on }
}

const TRAIN: &[&str] = &[TRAIN_COMPUTE, TRAIN_SYNC];
const SYNC_FIRST: &[&str] = &[TRAIN_SYNC, TRAIN_COMPUTE];
const TRAINING: &[&str] = &[TRAIN_COMPUTE, TRAIN_SYNC, ELASTIC_CHURN];
const CHURN: &[&str] = &[ELASTIC_CHURN];
const CHURN_FIRST: &[&str] = &[ELASTIC_CHURN, TRAIN_SYNC, TRAIN_COMPUTE];
const SCHED: &[&str] = &[SCHED_TRACE];
const ALL: &[&str] = &[TRAIN_COMPUTE, TRAIN_SYNC, ELASTIC_CHURN, SCHED_TRACE];

pub const PER_LAYER: &[PerLayer] = &[
    lower("engine.step_ms_p50", "ms", "core::engine", "`Engine::step`, untraced blocks of the traced run", WORK_PER_S, TRAIN),
    lower("engine.step_ms_tail", "ms", "core::engine", "`Engine::step`: highest of p99.9/p99/p95/p90/p75 with >= 10 samples beyond it (which one, and the sample count, are in the result file)", WORK_PER_S, TRAIN),
    lower("engine.est_step_us", "us", "core::engine", "p25 step / `n_ests` (work-normalised)", WORK_PER_S, TRAIN),
    lower("engine.new_ms", "ms", "core::engine", "`Engine::new_opts`", SETUP_S, TRAINING),
    lower("engine.checkpoint_ms", "ms", "core::engine", "`Engine::checkpoint`", RESCALE_STALL_MS, CHURN),
    lower("engine.rebuild_ms", "ms", "core::engine", "`Engine::from_checkpoint_opts`", RESCALE_STALL_MS, CHURN),
    lower("engine.teardown_ms", "ms", "core::engine", "drop of the old `Engine` (joins its pool threads)", RESCALE_STALL_MS, CHURN),
    lower("engine.first_step_ms", "ms", "core::engine", "first `Engine::step` after a rebuild (cold prefetch)", RESCALE_STALL_MS, CHURN),
    lower("pool.run_steps_ms", "ms", "core::pool", "`WorkerPool::run_steps_supervised`", WORK_PER_S, TRAIN),
    lower("pool.reduce_ms", "ms", "core::pool", "`WorkerPool::reduce_supervised`", WORK_PER_S, SYNC_FIRST),
    lower("pool.apply_us", "us", "core::pool", "`WorkerPool::apply` (send side)", WORK_PER_S, SYNC_FIRST),
    lower("pool.sync_us", "us", "core::pool", "`pool.run_steps_ms` - the slowest worker's round in `worker.contended_step_us`: time work waited for the pool", WORK_PER_S, SYNC_FIRST),
    higher("pool.speedup_vs_single", "ratio", "core::pool", "`ExecMode::SingleThread` p25 block time / `ExecMode::Pool` p25 block time, same job, alternating blocks", WORK_PER_S, TRAIN),
    lower("pool.spawn_ms", "ms", "core::pool", "`WorkerPool::spawn` + drop", RESCALE_STALL_MS, CHURN),
    lower("pool.snapshot_capture_us", "us", "core::pool", "`WorkerSnapshot::capture` per worker", WORK_PER_S, SYNC_FIRST),
    lower("pool.detect_ms", "ms", "core::pool", "`Exchange::drain_deadline` running into its deadline under the pool's drain policy: the share of a fault stall spent detecting", FAULT_STALL_MS, CHURN),
    lower("pool.recover_ms", "ms", "core::pool", "p25 wall time of the faulted step - `pool.detect_ms`: respawn and replay of the step", FAULT_STALL_MS, CHURN),
    lower("pool.respawns", "count", "core::pool", "`Engine::take_pool_recoveries().len()`; equals the faults injected", FAULT_STALL_MS, CHURN),
    lower("pool.drain_timeouts", "count", "core::pool", "obs counter `engine.drain_timeout`; equals the faults injected", FAULT_STALL_MS, CHURN),
    lower("worker.local_step_us", "us", "core::worker", "`EasyScaleWorker::run_local_steps` / ESTs hosted, one worker at a time on the driver thread", WORK_PER_S, TRAIN),
    lower("worker.contended_step_us", "us", "core::worker", "`run_local_steps` / ESTs hosted with every worker of the placement stepping at once, one scoped thread each, no pool", WORK_PER_S, TRAIN),
    lower("worker.ctx_switch_us", "us", "core::worker", "`run_local_steps_opts(true)` - `(false)` per EST on a scratch worker", WORK_PER_S, CHURN_FIRST),
    lower("worker.new_ms", "ms", "core::worker", "`EasyScaleWorker::new`", RESCALE_STALL_MS, CHURN_FIRST),
    lower("data.next_batch_us", "us", "data", "`DataWorkerPool::next_batch`: time a step waits for data", WORK_PER_S, TRAIN),
    lower("data.dataset_build_ms", "ms", "data", "`easyscale::worker::make_dataset` (rebuilt per worker at every rescale)", RESCALE_STALL_MS, CHURN_FIRST),
    lower("models.forward_us", "us", "models", "`Model::forward` on one mini-batch", WORK_PER_S, TRAIN),
    lower("models.backward_us", "us", "models", "`Model::backward` on one mini-batch", WORK_PER_S, TRAIN),
    lower("models.apply_delta_us", "us", "models", "`Model::apply_flat_delta`", WORK_PER_S, SYNC_FIRST),
    lower("tensor.sum_us_64k", "us", "tensor", "`kernels::blocked_sum`, 65536 f32 (bench_gate `kernel_sum_b128_a0_len65536`)", WORK_PER_S, TRAIN),
    lower("tensor.dot_us_64k", "us", "tensor", "`ops::dot`, 65536 f32 (bench_gate `kernel_dot_t16_len65536`)", WORK_PER_S, TRAIN),
    lower("tensor.axpy_us_64k", "us", "tensor", "`Tensor::axpy_`, 65536 f32 (bench_gate `kernel_axpy_len65536`)", WORK_PER_S, TRAIN),
    lower("comm.allreduce_us", "us", "comm", "`ElasticDdp::allreduce_avg` on that step's gradients", WORK_PER_S, SYNC_FIRST),
    lower("comm.allreduce_bytes_per_step", "bytes", "comm", "`vworld * n_params * 4` (computed)", WORK_PER_S, SYNC_FIRST),
    lower("comm.buckets_per_step", "count", "comm", "`ElasticDdp::layout().num_buckets()`", WORK_PER_S, SYNC_FIRST),
    lower("comm.reduce_calls_per_step", "count", "comm", "bucket partitions reduced per step (= pool workers)", WORK_PER_S, SYNC_FIRST),
    lower("comm.exchange_roundtrip_us", "us", "comm", "`ExchangeTx::publish` to a second thread and back through `Exchange::drain_deadline`", WORK_PER_S, SYNC_FIRST),
    lower("optim.step_us", "us", "optim", "`Sgd::step`", WORK_PER_S, SYNC_FIRST),
    lower("store.save_ms", "ms", "core::store", "`CheckpointStore::save`", RESCALE_STALL_MS, CHURN),
    lower("store.load_ms", "ms", "core::store", "`CheckpointStore::load_latest_valid`", RESCALE_STALL_MS, CHURN),
    lower("store.file_bytes", "bytes", "core::store", "length of the checkpoint file", RESCALE_STALL_MS, CHURN),
    lower("checkpoint.approx_bytes", "bytes", "core::checkpoint", "`JobCheckpoint::approx_bytes`", RESCALE_STALL_MS, CHURN),
    lower("sched.sim_ms.yarn", "ms", "sched::sim", "`ClusterSim::run`, `Policy::YarnCapacity`", WORK_PER_S, SCHED),
    lower("sched.sim_ms.homo", "ms", "sched::sim", "`ClusterSim::run`, `Policy::EasyScaleHomo`", WORK_PER_S, SCHED),
    lower("sched.sim_ms.heter", "ms", "sched::sim", "`ClusterSim::run`, `Policy::EasyScaleHeter`", WORK_PER_S, SCHED),
    lower("sched.sim_ms.colocate", "ms", "sched::sim", "`ClusterSim::run`, heter + `with_serving(ServingLoad::small)`", WORK_PER_S, SCHED),
    lower("sched.sim_events", "count", "sched::sim", "`SimOutcome::timeline.len()` summed over the four simulations", WORK_PER_S, SCHED),
    lower("sched.us_per_event", "us", "sched::sim", "simulation time / events", WORK_PER_S, SCHED),
    lower("sched.companion_plan_us", "us", "sched::companion", "`Companion::plan`, 16 ESTs on 16 mixed GPUs (bench_gate `companion_plan_16_ests_16_gpus`)", RESCALE_STALL_MS, SCHED),
    lower("sched.intra_proposals_us", "us", "sched::intra", "`IntraJobScheduler::proposals` against a full free pool (bench_gate `intra_job_proposals`)", RESCALE_STALL_MS, SCHED),
    lower("trace.generate_ms", "ms", "trace", "`TraceGenerator::generate`, 500 jobs", SETUP_S, SCHED),
    lower("faultsim.chaos_run_ms", "ms", "faultsim", "`FaultHarness::run` on `FaultSchedule::generate(seed, 60, 12)`, final parameters compared with `run_fault_free`", "none: guards the harness", CHURN),
    lower("faultsim.replayed_steps", "count", "faultsim", "`RunReport::replayed_steps` of that run", "none: guards the harness", CHURN),
    lower("obs.enabled_step_ratio", "ratio", "obs", "block time with `obs::enable(MemorySink)` / disabled, alternating blocks", WORK_PER_S, SYNC_FIRST),
    lower("trace.overhead_frac", "fraction", "benchmark", "p25 of the traced, decomposed step / p25 of the untraced `Engine::step` - 1", "none", TRAIN),
    higher("trace.parts_over_whole", "ratio", "benchmark", "time in child spans / time in the step, cycle or pass spans; the run fails outside 0.95-1.05", "none", ALL),
    higher("host.cores", "count", "host", "`std::thread::available_parallelism`", "none", ALL),
    lower("host.calib_ms", "ms", "host", "p50 of a fixed 8-lane f32 FMA loop over 256 KiB, in the benchmark's own source", "none", ALL),
    lower("host.calib_iqr_ms", "ms", "host", "inter-quartile range of that loop: two runs that differ here sat on different host states", "none", ALL),
];

pub fn workload(name: &str) -> Option<&'static WorkloadInfo> {
    WORKLOADS.iter().find(|w| w.name == name)
}

fn s(text: &str) -> Value {
    Value::Str(text.to_string())
}

/// The whole of `BENCHMARK.json`.
pub fn benchmark_json(run_seconds: u64) -> Value {
    let command =
        ["cargo", "run", "--release", "--quiet", "--manifest-path", "benchmark/Cargo.toml", "--"];
    obj(vec![
        ("command", Value::Seq(command.iter().map(|c| s(c)).collect())),
        ("paths", Value::Seq(vec![s("benchmark")])),
        ("run_seconds", Value::U64(run_seconds)),
        (
            "workloads",
            Value::Seq(
                WORKLOADS
                    .iter()
                    .map(|w| obj(vec![("name", s(w.name)), ("why", s(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Seq(
                END_TO_END
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                            ("bound", Value::F64(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Seq(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        obj(vec![
                            ("name", s(m.name)),
                            ("unit", s(m.unit)),
                            ("better", s(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The README's catalogue section, as markdown.
pub fn catalogue_markdown() -> String {
    let mut out = String::new();
    out.push_str("### Workloads\n\n| workload | unit of `work_per_s` | layer doing most of the work | why |\n|---|---|---|---|\n");
    for w in WORKLOADS {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            w.name, w.work_unit, w.heavy_layer, w.why
        ));
    }
    out.push_str("\n### End-to-end metrics (untraced run, `--trace 0`)\n\n| metric | unit | better | bound | definition | on `sched_trace` |\n|---|---|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} | {} |\n",
            m.name,
            m.unit,
            m.better.as_str(),
            m.bound * 100.0,
            m.definition,
            m.on_sched_trace
        ));
    }
    out.push_str("\n### Per-layer metrics (traced run, `--trace 1`)\n\n| metric | unit | layer | timed call | should move | measured on |\n|---|---|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} | `{}` | {} |\n",
            m.name,
            m.unit,
            m.layer,
            m.call,
            m.moves,
            m.on.join(", ")
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn name_ok(n: &str) -> bool {
        n.len() <= 64
            && n.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && n.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(u: &str) -> bool {
        !u.is_empty()
            && u.len() <= 16
            && u.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn table_meets_the_benchmark_file_limits() {
        let mut names = BTreeSet::new();
        for w in WORKLOADS {
            assert!(name_ok(w.name) && names.insert(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}: {}", w.name, w.why.len());
        }
        for m in END_TO_END {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        for m in PER_LAYER {
            assert!(name_ok(m.name) && names.insert(m.name), "{}", m.name);
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(!m.on.is_empty() && m.on.iter().all(|w| workload(w).is_some()), "{}", m.name);
        }
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        let setup = END_TO_END.iter().find(|m| m.name == SETUP_S).expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
        assert!(serde_json::to_string_pretty(&benchmark_json(20)).unwrap().len() <= 64 * 1024);
    }

    #[test]
    fn committed_files_are_generated_from_this_table() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).parent().unwrap().to_path_buf();
        let text = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        let on_disk: Value = serde_json::from_str(&text).unwrap();
        let run_seconds = match on_disk.get_field("run_seconds") {
            Some(Value::U64(n)) => *n,
            other => panic!("run_seconds: {other:?}"),
        };
        assert_eq!(
            on_disk,
            benchmark_json(run_seconds),
            "regenerate with `esbench catalog --json`"
        );
        let readme = std::fs::read_to_string(root.join("benchmark/README.md")).unwrap();
        assert!(
            readme.contains(&catalogue_markdown()),
            "README catalogue is stale: regenerate with `esbench catalog`"
        );
    }
}
