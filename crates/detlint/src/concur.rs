//! Static concurrency analysis over the workspace call graph — the checks
//! that keep the pool engine's threading model honest (docs/PARALLELISM.md).
//!
//! Three passes share one token/event scan and the cross-crate call graph
//! ([`crate::callgraph`]):
//!
//! 1. **Channel lifecycle.** [`Exchange`](../../comm/src/exchange.rs)
//!    endpoints are tracked per binding: a `drain_sorted` on an exchange
//!    nothing ever `seal()`s can hang forever when a publisher dies
//!    (`unsealed-drain`); a `handle()` minted after `seal()` panics at
//!    runtime (`send-after-seal`); raw `mpsc`/`crossbeam` channel
//!    construction outside the audited `comm::exchange`/`core::pool` files
//!    re-introduces the primitive the exchanges exist to fence
//!    (`raw-channel`); and a `recv()` outside a declared drain fn consumes
//!    messages in thread-completion order (`order-leak`).
//!
//! 2. **Blocking cycles.** Thread *roles* are inferred from the graph:
//!    everything reachable from a thread-entry fn (`worker_main`) is worker
//!    role; everything reachable from the `Engine`/`WorkerPool` driver
//!    methods — without entering a thread entry — is engine role. Blocking
//!    operations (`recv`, zero-arg `join`, `park`, calls into drain fns)
//!    are collected per role with call-path witnesses. The engine blocking
//!    while a worker-exclusive fn also blocks on something the engine must
//!    feed is the deadlock shape PR 6's protocol is designed to exclude, so
//!    both sides waiting is reported as a `blocking-cycle`. Lock
//!    acquisitions are inventoried with roles but never form cycle edges —
//!    the shared obs registry mutex is held only for short observational
//!    sections and would otherwise fabricate engine/worker cycles.
//!
//! 3. **Lock order + barrier conformance.** Interprocedural lock-acquisition
//!    order is summarized per fn (held lock → locks taken by callees at or
//!    after the acquisition line); a pair acquired in both orders is a
//!    `lock-inversion`. And — closing the PR 5 trust gap where taint
//!    barriers were *declared, never verified* — every fn named in the
//!    drain list must show canonical-order evidence in its body: a
//!    sort-family call, an indexed `recv` (`replies[i].recv()`), or
//!    delegation to another verified drain. A barrier without evidence is a
//!    `barrier-unverified` finding, demotable to a warning by an audited
//!    `detlint::allow(barrier-unverified): reason` on the fn definition.
//!
//! Suppressions use the same comment form as the other analyses with the
//! finding's rule id as the token; stale allows are settled by the shared
//! ledger. The whole analysis is deterministic under file visit order
//! (pinned by a proptest).

use crate::callgraph::Graph;
use crate::lexer::{in_regions, match_delim, Tok, TokKind};
use crate::suppress::Emitter;
use crate::{Model, ModelFile, Policy, Related, Severity};
use std::collections::{BTreeMap, BTreeSet};

/// One blocking operation in the role-tagged inventory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BlockingOp {
    /// `worker`, `engine`, or `other` (worker wins for fns both roles
    /// reach — the satellite role-inference contract).
    pub role: &'static str,
    /// What blocks: `recv`, `join`, `park`, `drain:<fn>`, `lock:<name>`.
    pub op: String,
    /// Qualified fn containing the op.
    pub func: String,
    /// Workspace-relative file.
    pub file: String,
    /// 1-based line of the op.
    pub line: u32,
    /// A thread entry's command-channel wait (the worker's normal parked
    /// state, never a deadlock edge).
    pub idle: bool,
}

/// Sort-family methods that count as canonical-order evidence inside a
/// declared drain.
const SORT_EVIDENCE: &[&str] = &[
    "sort",
    "sort_by",
    "sort_by_key",
    "sort_unstable",
    "sort_unstable_by",
    "sort_unstable_by_key",
    "sort_by_cached_key",
];

/// One token-level observation the passes consume.
#[derive(Debug, Clone)]
enum EventKind {
    /// `.recv()` / `.try_recv()`. `indexed` when the receiver expression
    /// ends in `]` (per-slot channel read in explicit order).
    Recv { indexed: bool, blocking: bool },
    /// Zero-arg `.join()` (thread join; `join(", ")` string joins have
    /// arguments and never match).
    Join,
    /// `park(…)`.
    Park,
    /// `.lock()` with the receiver's final ident as the lock identity.
    Lock { lock: String },
    /// A sort-family call (barrier evidence only).
    Sort,
    /// A call to a (non-entry) drain fn — the caller blocks until the
    /// drain's expected count arrives.
    DrainCall { callee: String },
    /// Raw channel construction vocabulary outside the audited files.
    RawChannel { what: String },
    /// `binding.seal()` on a tracked exchange binding.
    Seal { binding: String },
    /// `binding.handle()` on a tracked exchange binding.
    Handle { binding: String },
    /// `binding.drain_sorted(…)` on a tracked exchange binding.
    Drain { binding: String },
}

#[derive(Debug, Clone)]
struct Event {
    file: String,
    line: u32,
    /// Token index — intra-file ordering (seal-before-handle checks).
    tok: usize,
    /// Graph id of the fn holding the token, if any.
    fn_id: Option<usize>,
    kind: EventKind,
}

/// `let [mut] name = Exchange::new()` / `ExchangeTx` bindings in one file.
/// Field assignments (`self.steps = …`) are not tracked — the walk-back
/// stops at the statement boundary, so only genuine `let` bindings qualify.
fn exchange_bindings(toks: &[Tok]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || (t.text != "Exchange" && t.text != "ExchangeTx") {
            continue;
        }
        let txt = |j: usize| toks.get(j).map_or("", |t| t.text.as_str());
        if txt(i + 1) != "::" {
            continue;
        }
        // Optional turbofish: `Exchange::<T>::new(`.
        let mut j = i + 1;
        if txt(j + 1) == "<" {
            j = match_delim(toks, j + 1) + 1;
            if txt(j) != "::" {
                continue;
            }
        }
        if txt(j + 1) != "new" || txt(j + 2) != "(" {
            continue;
        }
        if let Some(name) = let_binding_before(toks, i) {
            out.insert(name);
        }
    }
    out
}

/// The `let [mut] name` pattern opening the statement containing token `i`,
/// if any.
fn let_binding_before(toks: &[Tok], i: usize) -> Option<String> {
    let mut k = i;
    while k > 0 {
        k -= 1;
        match toks[k].text.as_str() {
            ";" | "{" | "}" => return None,
            "let" => {
                let mut j = k + 1;
                if toks.get(j).is_some_and(|t| t.text == "mut") {
                    j += 1;
                }
                return toks.get(j).filter(|t| t.kind == TokKind::Ident).map(|t| t.text.clone());
            }
            _ => {}
        }
    }
    None
}

/// One pass over a file's tokens collecting every event, skipping
/// `#[cfg(test)]` regions.
fn scan_events(mf: &ModelFile, policy: &Policy) -> Vec<Event> {
    let toks = &mf.lexed.toks;
    let audited = policy.audited_channel_files.iter().any(|s| mf.file.ends_with(s));
    let bindings = exchange_bindings(toks);
    let drain_calls: Vec<&str> =
        policy.drain_fns.iter().copied().filter(|f| !policy.thread_entry_fns.contains(f)).collect();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_regions(&mf.test_regions, t.line) {
            continue;
        }
        let txt = |j: usize| toks.get(j).map_or("", |t: &Tok| t.text.as_str());
        let prev1 = if i >= 1 { txt(i - 1) } else { "" };
        let prev2 = if i >= 2 { txt(i - 2) } else { "" };
        let next1 = txt(i + 1);
        let next2 = txt(i + 2);
        let mut push = |kind: EventKind| {
            out.push(Event {
                file: mf.file.clone(),
                line: t.line,
                tok: i,
                fn_id: mf.owner[i],
                kind,
            });
        };
        match t.text.as_str() {
            "mpsc" | "sync_channel" if !audited => {
                push(EventKind::RawChannel { what: t.text.clone() });
            }
            "crossbeam" if !audited && next1 == "::" && next2 == "channel" => {
                push(EventKind::RawChannel { what: "crossbeam::channel".to_string() });
            }
            "recv" | "try_recv" | "recv_timeout" if prev1 == "." && next1 == "(" => {
                // `recv_timeout` still blocks (up to the deadline window):
                // a supervised drain waiting on a wedged worker is a real
                // cycle unless the declared drain fn owns the wait.
                push(EventKind::Recv { indexed: prev2 == "]", blocking: t.text != "try_recv" });
            }
            "join" if prev1 == "." && next1 == "(" && next2 == ")" => push(EventKind::Join),
            "park" if next1 == "(" => push(EventKind::Park),
            "lock" if prev1 == "." && next1 == "(" => {
                let lock = if i >= 2 && toks[i - 2].kind == TokKind::Ident {
                    toks[i - 2].text.clone()
                } else {
                    "<expr>".to_string()
                };
                push(EventKind::Lock { lock });
            }
            _ => {}
        }
        if SORT_EVIDENCE.contains(&t.text.as_str()) && prev1 == "." && next1 == "(" {
            push(EventKind::Sort);
        }
        if drain_calls.contains(&t.text.as_str()) && next1 == "(" && prev1 != "fn" {
            push(EventKind::DrainCall { callee: t.text.clone() });
        }
        if prev1 == "." && next1 == "(" && bindings.contains(prev2) {
            match t.text.as_str() {
                "seal" => push(EventKind::Seal { binding: prev2.to_string() }),
                "handle" => push(EventKind::Handle { binding: prev2.to_string() }),
                "drain_sorted" => push(EventKind::Drain { binding: prev2.to_string() }),
                _ => {}
            }
        }
    }
    out
}

/// Witness path from a role root down to the fn holding a blocking op,
/// using the forward-BFS parents. Every hop's line is in that hop's own
/// file: where it calls the next hop, or (last hop) where the op is.
fn witness(g: &Graph, parent: &[Option<(usize, u32)>], fn_id: usize, op_line: u32) -> Vec<Related> {
    let hop =
        |f: usize, line| Related { file: g.fns[f].file.clone(), line, label: g.fns[f].qualified() };
    let mut rev = vec![hop(fn_id, op_line)];
    let mut f = fn_id;
    while let Some((caller, line)) = parent[f] {
        rev.push(hop(caller, line));
        f = caller;
    }
    rev.reverse();
    rev
}

/// Run the concurrency analysis over the shared model, reporting through
/// `em`. Returns the role inventory: worker-role fns, engine-role fns
/// (disjoint — worker wins a fn both roles reach), and the role-tagged
/// blocking ops sorted by `(file, line, op)`.
pub fn analyze(
    model: &Model,
    policy: &Policy,
    em: &mut Emitter,
) -> (Vec<String>, Vec<String>, Vec<BlockingOp>) {
    // Per file: reuse the model's shared token stream for the event scan.
    let events: Vec<Event> = model.files.iter().flat_map(|mf| scan_events(mf, policy)).collect();

    let g = &model.graph;
    let n = g.fns.len();
    let is_drain = |f: usize| policy.drain_fns.contains(&g.fns[f].name.as_str());
    let is_entry = |f: usize| policy.thread_entry_fns.contains(&g.fns[f].name.as_str());

    // -- Pass 1: channel lifecycle ---------------------------------------
    let sealed: BTreeSet<(&str, &str)> = events
        .iter()
        .filter_map(|e| match &e.kind {
            EventKind::Seal { binding } => Some((e.file.as_str(), binding.as_str())),
            _ => None,
        })
        .collect();
    for e in &events {
        if let EventKind::Drain { binding } = &e.kind {
            if !sealed.contains(&(e.file.as_str(), binding.as_str())) {
                em.emit(
                    "unsealed-drain",
                    &e.file,
                    e.line,
                    format!(
                        "`{binding}` is drained but nothing in this file ever seals it; a \
                         publisher that dies before publishing hangs this drain forever — \
                         call `{binding}.seal()` once every handle is minted"
                    ),
                    Vec::new(),
                );
            }
        }
    }
    for e in &events {
        let EventKind::Handle { binding } = &e.kind else { continue };
        let seal = events.iter().find(|s| {
            matches!(&s.kind, EventKind::Seal { binding: sb } if sb == binding)
                && s.file == e.file
                && s.fn_id == e.fn_id
                && e.fn_id.is_some()
                && s.tok < e.tok
        });
        if let Some(s) = seal {
            em.emit(
                "send-after-seal",
                &e.file,
                e.line,
                format!(
                    "publisher handle minted on `{binding}` after `seal()` (sealed at \
                     {}:{}); `handle()` panics once the exchange is sealed",
                    s.file, s.line
                ),
                Vec::new(),
            );
        }
    }
    for e in &events {
        match &e.kind {
            EventKind::Recv { .. } if !e.fn_id.is_some_and(is_drain) => {
                em.emit(
                    "order-leak",
                    &e.file,
                    e.line,
                    "receive outside a declared drain fn consumes messages in \
                     thread-completion order; route it through a canonical drain \
                     (drain_sorted / drain_deadline)"
                        .to_string(),
                    Vec::new(),
                );
            }
            EventKind::RawChannel { what } => {
                em.emit(
                    "raw-channel",
                    &e.file,
                    e.line,
                    format!(
                        "raw channel construction (`{what}`) outside the audited \
                         comm::exchange / core::pool modules; publish through \
                         comm::exchange::Exchange so arrival order stays fenced"
                    ),
                    Vec::new(),
                );
            }
            _ => {}
        }
    }

    // -- Pass 2: roles and blocking cycles -------------------------------
    let worker_roots: Vec<usize> = (0..n).filter(|&i| !g.fns[i].in_test && is_entry(i)).collect();
    let (worker_vis, worker_par) = g.reachable_from(&worker_roots, &|f| f.in_test);
    let engine_root_ids: Vec<usize> = (0..n)
        .filter(|&i| {
            let f = &g.fns[i];
            !f.in_test
                && policy
                    .engine_roots
                    .iter()
                    .any(|(ty, m)| f.self_ty.as_deref() == Some(ty) && f.name == *m)
        })
        .collect();
    let (engine_vis, engine_par) = g.reachable_from(&engine_root_ids, &|f| {
        f.in_test || policy.thread_entry_fns.contains(&f.name.as_str())
    });

    struct OpRef {
        fn_id: usize,
        role: &'static str,
        op: String,
        file: String,
        line: u32,
        idle: bool,
        /// Does this op kind form wait-for edges (locks do not)?
        waits: bool,
    }
    let mut ops: Vec<OpRef> = Vec::new();
    for e in &events {
        let kind = match &e.kind {
            EventKind::Recv { blocking: true, .. } => Some(("recv".to_string(), true)),
            EventKind::Join => Some(("join".to_string(), true)),
            EventKind::Park => Some(("park".to_string(), true)),
            EventKind::DrainCall { callee } => Some((format!("drain:{callee}"), true)),
            EventKind::Lock { lock } => Some((format!("lock:{lock}"), false)),
            _ => None,
        };
        let Some((op, waits)) = kind else { continue };
        let Some(f) = e.fn_id else { continue };
        let idle = is_entry(f);
        if !idle && is_drain(f) {
            // A drain's own internals are the audited wait — callers see it
            // as a DrainCall op instead, so nothing is lost.
            continue;
        }
        let role = if worker_vis[f] {
            "worker"
        } else if engine_vis[f] {
            "engine"
        } else {
            "other"
        };
        ops.push(OpRef { fn_id: f, role, op, file: e.file.clone(), line: e.line, idle, waits });
    }
    ops.sort_by(|a, b| (&a.file, a.line, &a.op, a.fn_id).cmp(&(&b.file, b.line, &b.op, b.fn_id)));

    // The role-level wait-for graph has two nodes. Engine→worker edges are
    // every engine-role wait (the engine only ever waits *for workers*);
    // worker→engine edges are waits in worker-exclusive fns that are not
    // the idle command receive (the engine must act for them to resolve).
    // Both edge sets non-empty ⇒ a cycle.
    let engine_wait = ops.iter().find(|o| o.role == "engine" && o.waits);
    let worker_waits =
        ops.iter().filter(|o| o.role == "worker" && o.waits && !o.idle && !engine_vis[o.fn_id]);
    if let Some(ew) = engine_wait {
        for w in worker_waits {
            // Witnesses: the engine wait path, then the worker wait path.
            let mut paths = witness(g, &engine_par, ew.fn_id, ew.line);
            paths.extend(witness(g, &worker_par, w.fn_id, w.line));
            em.emit(
                "blocking-cycle",
                &w.file,
                w.line,
                format!(
                    "engine<->worker wait cycle: worker-side `{}` in `{}` blocks while the \
                     engine blocks in `{}` ({}:{}); if the engine's wait is on this worker, \
                     neither side makes progress",
                    w.op,
                    g.fns[w.fn_id].qualified(),
                    g.fns[ew.fn_id].qualified(),
                    ew.file,
                    ew.line
                ),
                paths,
            );
        }
    }

    // -- Pass 3a: interprocedural lock order -----------------------------
    let mut direct: BTreeMap<usize, Vec<(String, u32)>> = BTreeMap::new();
    for e in &events {
        if let EventKind::Lock { lock } = &e.kind {
            if let Some(f) = e.fn_id {
                direct.entry(f).or_default().push((lock.clone(), e.line));
            }
        }
    }
    // Transitive summary: every lock a fn (or anything it calls) can take,
    // with one deterministic representative site each.
    let mut summary: Vec<BTreeMap<String, (String, u32)>> = vec![BTreeMap::new(); n];
    for (f, locks) in &direct {
        for (name, line) in locks {
            summary[*f].entry(name.clone()).or_insert((g.fns[*f].file.clone(), *line));
        }
    }
    loop {
        let mut changed = false;
        for f in 0..n {
            let inherited: Vec<(String, (String, u32))> = g.edges[f]
                .iter()
                .flat_map(|e| summary[e.callee].iter().map(|(k, v)| (k.clone(), v.clone())))
                .collect();
            for (k, v) in inherited {
                if let std::collections::btree_map::Entry::Vacant(slot) = summary[f].entry(k) {
                    slot.insert(v);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    /// `(file, line)` of the first and of the second acquisition.
    type PairWitness = ((String, u32), (String, u32));
    let mut pairs: BTreeMap<(String, String), PairWitness> = BTreeMap::new();
    for (f, locks) in &direct {
        let file = &g.fns[*f].file;
        for (i, (na, la)) in locks.iter().enumerate() {
            let first = (file.clone(), *la);
            // Later acquisitions in the same fn (the guard is assumed live —
            // over-approximate on purpose; suppress drop-scoped pairs).
            for (nb, lb) in locks.iter().skip(i + 1).filter(|(nb, _)| nb != na) {
                pairs
                    .entry((na.clone(), nb.clone()))
                    .or_insert_with(|| (first.clone(), (file.clone(), *lb)));
            }
            // Locks any callee invoked at/after the acquisition can take.
            for e in g.edges[*f].iter().filter(|e| e.line >= *la) {
                for (nb, second) in summary[e.callee].iter().filter(|(nb, _)| *nb != na) {
                    pairs
                        .entry((na.clone(), nb.clone()))
                        .or_insert_with(|| (first.clone(), second.clone()));
                }
            }
        }
    }
    for ((a, b), ((fa, la), (fb, lb))) in &pairs {
        if a >= b {
            continue; // one finding per unordered pair
        }
        let Some(((rfa, rla), (rfb, rlb))) = pairs.get(&(b.clone(), a.clone())) else { continue };
        em.emit(
            "lock-inversion",
            fa,
            *la,
            format!(
                "lock order inversion between `{a}` and `{b}`: `{a}` -> `{b}` ({fa}:{la} then \
                 {fb}:{lb}) but `{b}` -> `{a}` ({rfa}:{rla} then {rfb}:{rlb}); two threads \
                 interleaving these paths deadlock"
            ),
            Vec::new(),
        );
    }

    // -- Pass 3b: barrier conformance ------------------------------------
    let subjects: Vec<usize> = (0..n).filter(|&i| !g.fns[i].in_test && is_drain(i)).collect();
    let mut verified = vec![false; n];
    for &s in &subjects {
        verified[s] = events.iter().any(|e| {
            e.fn_id == Some(s)
                && matches!(&e.kind, EventKind::Sort | EventKind::Recv { indexed: true, .. })
        });
    }
    // Delegation closure: a drain that hands the work to a verified drain
    // is itself verified.
    loop {
        let mut changed = false;
        for &s in &subjects {
            if !verified[s] && g.edges[s].iter().any(|e| verified[e.callee] && is_drain(e.callee)) {
                verified[s] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for &s in subjects.iter().filter(|&&s| !verified[s]) {
        let f = &g.fns[s];
        let unaudited = em.emit(
            "barrier-unverified",
            &f.file,
            f.line,
            format!(
                "declared barrier `{}` shows no canonical-order evidence (no sort-family \
                 call, no indexed `recv`, no delegation to a verified drain); make the \
                 drain canonical or audit it with `detlint::allow(barrier-unverified)`",
                f.qualified()
            ),
            Vec::new(),
        );
        if !unaudited {
            em.push(
                "barrier-unverified",
                Severity::Warning,
                &f.file,
                f.line,
                format!(
                    "declared barrier `{}` shows no canonical-order evidence; demoted to a \
                     warning by an audited `barrier-unverified` allow",
                    f.qualified()
                ),
                Vec::new(),
            );
        }
    }

    let qualified = |i: usize| g.fns[i].qualified();
    let worker_fns = (0..n).filter(|&i| worker_vis[i]).map(qualified).collect();
    let engine_fns = (0..n).filter(|&i| engine_vis[i] && !worker_vis[i]).map(qualified).collect();
    let blocking = ops
        .iter()
        .map(|o| BlockingOp {
            role: o.role,
            op: o.op.clone(),
            func: qualified(o.fn_id),
            file: o.file.clone(),
            line: o.line,
            idle: o.idle,
        })
        .collect();
    (worker_fns, engine_fns, blocking)
}

#[cfg(test)]
mod tests {
    use crate::testutil::{file, findings};
    use crate::{Diagnostic, Mode, Report, SourceFile};

    fn run(files: &[SourceFile]) -> Report {
        crate::testutil::run(files, &[])
    }

    fn concur(r: &Report) -> Vec<&Diagnostic> {
        findings(r, Mode::Concur)
    }

    fn kinds(r: &Report) -> Vec<&'static str> {
        concur(r).iter().map(|f| f.rule).collect()
    }

    #[test]
    fn a_declared_drain_is_both_a_taint_barrier_and_a_conformance_subject() {
        // One `drain_fns` list: the fn taint trusts to absorb arrival order
        // is exactly the fn the conformance pass demands evidence from.
        let r = run(&[file(
            "comm",
            "lib.rs",
            "fn collect() -> u64 { let (tx, rx) = channel(); rx.try_recv().unwrap() }\n\
             pub fn drain_deadline() -> u64 { collect() }\n\
             pub fn allreduce_avg(x: u64) -> u64 { drain_deadline() }\n",
        )]);
        assert!(r.flows.is_empty(), "the drain absorbs the thread-order source: {:?}", r.flows);
        assert!(kinds(&r).contains(&"barrier-unverified"), "…and must earn it: {:?}", kinds(&r));
    }

    #[test]
    fn raw_channels_flag_only_outside_audited_files() {
        let bad = run(&[file(
            "sched",
            "lib.rs",
            "fn side() { let (tx, rx) = std::sync::mpsc::channel(); }\n",
        )]);
        assert_eq!(kinds(&bad), vec!["raw-channel"]);
        // Same token in the audited exchange module: fine.
        let good = run(&[SourceFile {
            crate_name: "comm".to_string(),
            file: "crates/comm/src/exchange.rs".to_string(),
            src: "fn inside() { let (tx, rx) = std::sync::mpsc::channel(); }\n".to_string(),
        }]);
        assert!(kinds(&good).is_empty(), "{:?}", concur(&good));
    }

    #[test]
    fn the_clean_neighbours_of_the_planted_shapes_stay_clean() {
        // The fixture tree plants each violation; one edit away from them, a
        // handle minted before the seal, a drain after it and two locks
        // always taken in one order must not fire.
        let r = run(&[file(
            "comm",
            "lib.rs",
            "fn collect() { let mut ex = Exchange::new(); ex.handle(); ex.seal(); \
             ex.drain_sorted(1); }\n\
             fn refresh(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n",
        )]);
        assert!(kinds(&r).is_empty(), "{:?}", concur(&r));
    }

    #[test]
    fn recv_outside_a_drain_fn_leaks_order() {
        let bad = run(&[file("core", "lib.rs", "fn first_come(rx: R) { let v = rx.recv(); }\n")]);
        assert_eq!(kinds(&bad), vec!["order-leak"]);
        // Inside a declared drain with sort evidence: exempt and verified.
        let good = run(&[file(
            "core",
            "lib.rs",
            "fn drain_sorted(rx: R) -> Vec<u32> { let mut o = vec![rx.recv()]; o.sort(); o }\n",
        )]);
        assert!(kinds(&good).is_empty(), "{:?}", concur(&good));
    }

    #[test]
    fn recv_timeout_is_a_blocking_receive_to_the_scanner() {
        // A deadline recv outside any declared drain leaks arrival order
        // exactly like a blocking recv.
        let bad = run(&[file(
            "comm",
            "lib.rs",
            "fn waity(rx: R) { let v = rx.recv_timeout(window); }\n",
        )]);
        assert_eq!(kinds(&bad), vec!["order-leak"]);
        // And it still registers as a *blocking* wait, unlike try_recv
        // (drain internals are elided from the inventory, so check here).
        assert!(
            bad.blocking.iter().any(|o| o.func.contains("waity") && o.op == "recv"),
            "recv_timeout must count as a blocking wait: {:?}",
            bad.blocking
        );
        // Inside the declared deadline drain with inline sort evidence:
        // exempt, and the barrier verifies.
        let good = run(&[file(
            "comm",
            "lib.rs",
            "fn drain_deadline(rx: R) -> V { let mut o = vec![rx.recv_timeout(w)]; \
             o.sort_by_key(|x| *x); o }\n",
        )]);
        assert!(kinds(&good).is_empty(), "{:?}", concur(&good));
    }

    #[test]
    fn blocking_cycle_needs_both_sides_waiting() {
        let worker_side = "pub fn worker_main(cmds: R) { handle_cmd(); }\n\
                           fn handle_cmd() { wait_ack(); }\n\
                           fn wait_ack() { acks.recv(); }\n";
        // Engine waits (a drain call) + a worker-exclusive recv: cycle.
        let both = run(&[
            file("core", "a.rs", worker_side),
            file(
                "core",
                "b.rs",
                "struct Engine;\nimpl Engine { pub fn step(&self) { self.drain_deadline(); }\n\
                 fn drain_deadline(&self) { self.replies[0].recv(); } }\n",
            ),
        ]);
        let found = concur(&both);
        let cycles: Vec<_> = found.iter().filter(|f| f.rule == "blocking-cycle").collect();
        assert_eq!(cycles.len(), 1, "{found:?}");
        // Engine witness, then worker witness.
        let hops: Vec<&str> = cycles[0].related.iter().map(|h| h.label.as_str()).collect();
        assert_eq!(
            hops,
            vec!["core::Engine::step", "core::worker_main", "core::handle_cmd", "core::wait_ack"]
        );
        // Worker side alone (no engine wait anywhere): only the order leak.
        let alone = run(&[file("core", "a.rs", worker_side)]);
        assert!(!kinds(&alone).contains(&"blocking-cycle"), "{:?}", concur(&alone));
    }

    #[test]
    fn thread_entry_receive_is_idle_not_a_cycle_edge() {
        let r = run(&[
            file("core", "a.rs", "pub fn worker_main(cmds: R) { cmds.recv(); }\n"),
            file(
                "core",
                "b.rs",
                "struct Engine;\nimpl Engine { pub fn step(&self) { self.replies[0].recv(); } }\n",
            ),
        ]);
        assert!(
            !kinds(&r).contains(&"blocking-cycle"),
            "idle command wait must not close a cycle: {:?}",
            concur(&r)
        );
        let idle: Vec<_> = r.blocking.iter().filter(|o| o.idle).collect();
        assert_eq!(idle.len(), 1);
        assert_eq!(idle[0].role, "worker");
        // The engine-side indexed recv sits in `step`, which is not a
        // declared drain: that is a real order leak.
        assert!(kinds(&r).contains(&"order-leak"));
    }

    #[test]
    fn role_inference_worker_reachable_is_never_engine() {
        let r = run(&[file(
            "core",
            "lib.rs",
            "struct Engine;\n\
             impl Engine { pub fn step(&self) { shared(); } }\n\
             pub fn worker_main(c: R) { helper(); shared(); }\n\
             fn helper() {}\n\
             fn shared() {}\n",
        )]);
        for w in &r.worker_fns {
            assert!(!r.engine_fns.contains(w), "`{w}` is in both roles");
        }
        assert!(r.worker_fns.iter().any(|f| f == "core::helper"));
        assert!(r.worker_fns.iter().any(|f| f == "core::shared"), "worker wins shared fns");
        assert!(r.engine_fns.iter().any(|f| f == "core::Engine::step"));
        assert!(!r.engine_fns.iter().any(|f| f == "core::worker_main"));
    }

    #[test]
    fn barriers_verify_by_sort_index_or_delegation() {
        // Sort evidence.
        let sorted = run(&[file(
            "comm",
            "a.rs",
            "fn drain_sorted(rx: R) -> V { let mut o = vec![rx.recv()]; o.sort_by_key(|x| *x); o }\n",
        )]);
        assert!(kinds(&sorted).is_empty(), "{:?}", concur(&sorted));
        // Indexed-recv evidence.
        let indexed = run(&[file(
            "core",
            "b.rs",
            "impl P { fn drain_deadline(&self) { self.replies[0].recv(); } }\n",
        )]);
        assert!(kinds(&indexed).is_empty(), "{:?}", concur(&indexed));
        // Delegation to a verified drain.
        let delegated = run(&[file(
            "comm",
            "c.rs",
            "fn drain_sorted(rx: R) -> V { let mut o = vec![rx.recv()]; o.sort(); o }\n\
             fn drain_deadline(rx: R) -> V { drain_sorted(rx) }\n",
        )]);
        assert!(kinds(&delegated).is_empty(), "{:?}", concur(&delegated));
        // No evidence at all: finding.
        let fake =
            run(&[file("comm", "d.rs", "fn drain_sorted(rx: R) -> V { vec![rx.recv()] }\n")]);
        assert_eq!(kinds(&fake), vec!["barrier-unverified"]);
    }
}
