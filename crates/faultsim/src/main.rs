//! faultsim CLI: run one chaos schedule against the fault-free reference
//! and report whether the byte-identity invariant held.
//!
//! ```text
//! faultsim [--seed N] [--steps N] [--events N]
//!          [--schedule PATH] [--emit-schedule PATH] [--json]
//! faultsim --detect [--seed N] [--json]
//! faultsim --detect-matrix [--out PATH]
//! ```
//!
//! `--schedule` replays a JSON schedule (e.g. a CI artifact) instead of
//! generating one from the seed; `--emit-schedule` writes the schedule used
//! so a failure is replayable. `--detect` runs one seeded *silent* fault
//! schedule on the detection matrix's configuration. Either way the run
//! prints every injected event, the supervisor's health-event log and the
//! detection outcomes (or, with `--json`, the run's summary).
//! `--detect-matrix` runs the full silent-fault detection matrix
//! (optionally writing the JSON report to `--out`). Exit status 1 means an
//! invariant broke: byte divergence, or (detect modes) a missed
//! detection-latency bound; 2 means the command line or the schedule file
//! was bad.

use faultsim::{run_judged, FaultSchedule, HarnessConfig, RunReport, RunSummary, DETECT_STEPS};

fn usage() -> ! {
    eprintln!(
        "usage: faultsim [--seed N] [--steps N>=2] [--events N] \
         [--schedule PATH] [--emit-schedule PATH] [--json]\n\
         \x20      faultsim --detect [--seed N] [--json]\n\
         \x20      faultsim --detect-matrix [--out PATH]"
    );
    std::process::exit(2)
}

/// The human-readable account of one run: what was injected, what the
/// supervisor saw and did, which armed detections resolved, the verdict.
fn print_run(report: &RunReport, s: &RunSummary) {
    println!(
        "faultsim {} seed={} steps={} events={} kinds=[{}]",
        s.name,
        s.seed,
        s.steps,
        s.events,
        s.kinds.join(", ")
    );
    for ev in &report.injected {
        println!("  step {:>3}  {:<18} {}", ev.step, ev.kind, ev.outcome);
    }
    println!(
        "  crashes={} recoveries={} replayed={} torn_skipped={} sim_elapsed={}us final_gpus={} \
         evictions={} readmissions={}",
        s.crashes,
        s.recoveries,
        s.replayed_steps,
        s.torn_files_skipped,
        s.sim_elapsed_us,
        s.final_gpus,
        s.evictions,
        s.readmissions
    );
    for ev in &s.health_events {
        println!(
            "  t={:>12}us  device {}  {} -> {}  ({})",
            ev.at_us,
            ev.device,
            ev.from.name(),
            ev.to.name(),
            ev.cause.name()
        );
    }
    for d in &s.detections {
        let latency = d.latency_us.map(|l| format!("{l}us")).unwrap_or_else(|| "never".to_string());
        println!(
            "  device {}  {:<18} injected={}us latency={} bound={}us {}",
            d.device,
            d.kind,
            d.injected_at_us,
            latency,
            d.bound_us,
            if d.superseded {
                "(superseded)"
            } else if d.within_bound {
                "OK"
            } else {
                "MISSED BOUND"
            }
        );
    }
    println!(
        "  invariant: final params {} the fault-free run; detection bounds {}",
        if s.bitwise_identical { "BYTE-IDENTICAL to" } else { "DIVERGED from" },
        if s.all_detected_within_bound { "held" } else { "VIOLATED" }
    );
}

/// `--detect-matrix`: run the full silent-fault matrix, optionally writing
/// the JSON report, and gate on it.
fn run_detect_matrix(out: Option<&str>) -> ! {
    let base =
        std::env::temp_dir().join(format!("easyscale-faultsim-matrix-{}", std::process::id()));
    let report = faultsim::run_matrix(&base);
    let _ = std::fs::remove_dir_all(&base);

    for case in &report.cases {
        println!(
            "  {:<22} seed={:<4} bitwise={} bounds={} detections={} evictions={} readmissions={}",
            case.name,
            case.seed,
            if case.bitwise_identical { "ok" } else { "DIVERGED" },
            if case.all_detected_within_bound { "ok" } else { "MISSED" },
            case.detections.len(),
            case.evictions,
            case.readmissions
        );
    }
    println!("detect matrix: {}", report.status);
    if let Some(path) = out {
        if let Some(parent) = std::path::Path::new(path).parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        std::fs::write(path, serde_json::to_string_pretty(&report).expect("report json"))
            .unwrap_or_else(|e| panic!("cannot write report {path}: {e}"));
        println!("report written to {path}");
    }
    std::process::exit(if report.passed() { 0 } else { 1 })
}

/// Load a `--schedule` JSON artifact. Any problem — missing file, unknown
/// fault kind, out-of-range field — is a clear one-line error and exit 2,
/// never a panic: a malformed CI artifact should read as "your input is
/// bad", not as a faultsim crash.
fn load_schedule(path: &str) -> FaultSchedule {
    let loaded = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| FaultSchedule::from_json(&text).map_err(|e| e.to_string()));
    loaded.unwrap_or_else(|msg| {
        eprintln!("faultsim: invalid schedule {path}: {msg}");
        std::process::exit(2)
    })
}

fn main() {
    let mut seed: u64 = 4242;
    let mut steps: u64 = 10;
    let mut events: usize = 5;
    let mut schedule_path: Option<String> = None;
    let mut emit_path: Option<String> = None;
    let mut json = false;
    let mut detect = false;
    let mut detect_matrix = false;
    let mut out_path: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let take = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--seed" => seed = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--steps" => steps = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--events" => events = take(&mut i).parse().unwrap_or_else(|_| usage()),
            "--schedule" => schedule_path = Some(take(&mut i)),
            "--emit-schedule" => emit_path = Some(take(&mut i)),
            "--json" => json = true,
            "--detect" => detect = true,
            "--detect-matrix" => detect_matrix = true,
            "--out" => out_path = Some(take(&mut i)),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag: {other}");
                usage()
            }
        }
        i += 1;
    }

    if detect_matrix {
        run_detect_matrix(out_path.as_deref());
    }

    let (name, schedule) = if detect {
        steps = DETECT_STEPS;
        (format!("detect-{seed}"), FaultSchedule::generate_silent(seed, steps, 2))
    } else if let Some(path) = &schedule_path {
        ("replay".to_string(), load_schedule(path))
    } else if steps < 2 {
        // The generator needs a step to schedule a fault before.
        eprintln!("--steps must be at least 2 to generate a schedule, got {steps}");
        usage()
    } else {
        (format!("chaos-{seed}"), FaultSchedule::generate(seed, steps, events))
    };
    if let Some(path) = &emit_path {
        std::fs::write(path, schedule.to_json())
            .unwrap_or_else(|e| panic!("cannot write schedule {path}: {e}"));
    }

    // Unique per-invocation store dir: run name + pid (no wall clock).
    let dir =
        std::env::temp_dir().join(format!("easyscale-faultsim-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut cfg = HarnessConfig::default_chaos(dir.clone());
    cfg.total_steps = steps;
    let (report, summary) = run_judged(&name, cfg, &schedule);
    let _ = std::fs::remove_dir_all(&dir);

    if json {
        println!("{}", serde_json::to_string_pretty(&summary).expect("summary json"));
    } else {
        print_run(&report, &summary);
    }
    // A chaos run answers for its bits; a detect run for its bounds too.
    if !summary.bitwise_identical || (detect && !summary.all_detected_within_bound) {
        std::process::exit(1);
    }
}
