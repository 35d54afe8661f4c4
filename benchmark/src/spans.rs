//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The recorder lives in the driver thread only: it brackets public calls
//! (`WorkerPool::run_steps_supervised`, `CheckpointStore::save`, …) from
//! outside, keeps the spans in memory, and writes them out once, when the
//! run ends. A layer's self time is its span minus the part of that
//! interval its child spans cover.

use serde_json::Value;
use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded interval. `parent` indexes the span that was open when this
/// one began; `op` is the step, cycle or pass every span of one operation
/// shares.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub op: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Tracer::enter`], consumed by [`Tracer::exit`].
pub struct Open(usize);

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op,
        });
        self.open.push(id);
        Open(id)
    }

    pub fn exit(&mut self, open: Open) {
        let end_ns = self.now_ns();
        let top = self.open.pop();
        assert_eq!(top, Some(open.0), "spans must close innermost first");
        self.spans[open.0].end_ns = end_ns;
    }

    /// Record `f` as one span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, op);
        let r = f();
        self.exit(open);
        r
    }

    pub fn spans(&self) -> &[Span] {
        assert!(self.open.is_empty(), "a span is still open");
        &self.spans
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Self times grouped by span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, Vec<f64>> {
    let mut out: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        out.entry(s.name).or_default().push(own as f64 / 1e6);
    }
    out
}

/// Whole durations (children included) of the spans called `name`, in
/// milliseconds.
pub fn dur_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64 / 1e6).collect()
}

/// Time the children of the root spans account for, over the root spans'
/// own duration. Every descendant's self time is inside its root's direct
/// children, so this is Σ child self times ÷ Σ parent spans. A value well
/// under 1 means the driver does work between the calls it brackets and
/// the per-layer numbers no longer add up to the operation.
pub fn parts_over_whole(spans: &[Span]) -> f64 {
    let whole: u64 = spans.iter().filter(|s| s.parent.is_none()).map(Span::dur_ns).sum();
    let parts: u64 = spans
        .iter()
        .filter(|s| s.parent.is_some_and(|p| spans[p].parent.is_none()))
        .map(Span::dur_ns)
        .sum();
    parts as f64 / whole as f64
}

/// What a traced section keeps of its spans once they are written out.
pub struct Breakdown {
    self_ms: BTreeMap<&'static str, Vec<f64>>,
    /// [`parts_over_whole`] of the section.
    pub parts_over_whole: f64,
}

impl Breakdown {
    /// Median self time of the spans called `name`, milliseconds; NaN when
    /// the section recorded none.
    pub fn self_p50_ms(&self, name: &str) -> f64 {
        self.self_ms.get(name).map_or(f64::NAN, |v| crate::stats::median(v))
    }
}

/// End a traced section: write its spans to `out/trace-<workload>.jsonl`,
/// and check that the calls bracketed add up to the operations (the run
/// fails outside 0.95-1.05).
pub fn finish(
    tracer: &Tracer,
    out: &Path,
    workload: &str,
    ops: &mut crate::report::Ops,
) -> Result<Breakdown, String> {
    let spans = tracer.spans();
    write_jsonl(spans, &out.join(format!("trace-{workload}.jsonl")))
        .map_err(|e| format!("writing spans: {e}"))?;
    let ratio = parts_over_whole(spans);
    ops.check((0.95..=1.05).contains(&ratio), || {
        format!("{workload}: child spans cover {ratio:.3} of their operations")
    });
    Ok(Breakdown { self_ms: self_ms_by_name(spans), parts_over_whole: ratio })
}

/// One JSON object per line: name, start, end, parent, op.
pub fn write_jsonl(spans: &[Span], path: &Path) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (id, s) in spans.iter().enumerate() {
        let line = Value::Map(vec![
            ("id".to_string(), Value::U64(id as u64)),
            ("name".to_string(), Value::Str(s.name.to_string())),
            ("start_ns".to_string(), Value::U64(s.start_ns)),
            ("end_ns".to_string(), Value::U64(s.end_ns)),
            ("parent".to_string(), s.parent.map_or(Value::Null, |p| Value::U64(p as u64))),
            ("op".to_string(), Value::U64(s.op)),
        ]);
        let text = serde_json::to_string(&line).map_err(std::io::Error::other)?;
        writeln!(out, "{text}")?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, op: 0 }
    }

    /// step [0,100) ⊃ run [0,60) ⊃ wait [10,50); step ⊃ reduce [60,90).
    fn step() -> Vec<Span> {
        vec![
            span("step", 0, 100, None),
            span("run", 0, 60, Some(0)),
            span("wait", 10, 50, Some(1)),
            span("reduce", 60, 90, Some(0)),
        ]
    }

    #[test]
    fn self_time_subtracts_what_children_cover() {
        assert_eq!(self_times_ns(&step()), vec![10, 20, 40, 30]);
        let by_name = self_ms_by_name(&step());
        assert_eq!(by_name["run"], vec![20.0 / 1e6]);
        assert_eq!(dur_ms(&step(), "run"), vec![60.0 / 1e6]);
    }

    #[test]
    fn parts_over_whole_counts_direct_children_of_roots_once() {
        // run (60) + reduce (30) over step (100); wait is inside run.
        assert_eq!(parts_over_whole(&step()), 0.9);
        let mut two = step();
        two.push(span("step", 100, 200, None));
        two.push(span("run", 100, 200, Some(4)));
        assert_eq!(parts_over_whole(&two), 190.0 / 200.0);
    }

    #[test]
    fn tracer_nests_spans_under_the_open_one() {
        let mut tr = Tracer::new();
        let root = tr.enter("step", 7);
        tr.time("run", 7, || std::hint::black_box(1 + 1));
        tr.exit(root);
        let spans = tr.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].parent, spans[1].parent), (None, Some(0)));
        assert!(spans[1].start_ns >= spans[0].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(spans[1].op, 7);
    }

    #[test]
    fn jsonl_has_one_parsable_line_per_span() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("out/test-spans-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_jsonl(&step(), &path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<Value> =
            text.lines().map(|l| serde_json::from_str::<Value>(l).unwrap()).collect();
        assert_eq!(lines.len(), 4);
        assert_eq!(lines[2].get_field("name").and_then(Value::as_str), Some("wait"));
        assert_eq!(lines[2].get_field("parent"), Some(&Value::U64(1)));
        assert_eq!(lines[0].get_field("parent"), Some(&Value::Null));
    }
}
