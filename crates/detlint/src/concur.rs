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
//! Suppressions use the same comment form as the other modes with the kind
//! tokens in [`ALLOW_KINDS`]; stale allows are reported, mirroring the
//! taint pass's accounting. The whole analysis is deterministic under file
//! visit order (pinned by a proptest).

use crate::callgraph::Graph;
use crate::items;
use crate::lexer::{Tok, TokKind};
use crate::suppress::{phrase, AllowSet, Domain};
use crate::taint::Hop;
use crate::{Finding, Model, SourceFile};
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

/// Every suppression kind the concurrency mode owns. The leaf rule pass
/// exempts these tokens from its own stale-allow reporting (this pass does
/// the accounting), exactly like the `taint`/`taint-*` tokens.
pub const ALLOW_KINDS: &[&str] = &[
    "unsealed-drain",
    "send-after-seal",
    "raw-channel",
    "order-leak",
    "blocking-cycle",
    "lock-inversion",
    "barrier-unverified",
];

/// Policy for one concurrency run: which files may construct raw channels,
/// which fn names are drains/thread entries, and which methods root the
/// engine role.
#[derive(Debug, Clone)]
pub struct ConcurConfig {
    /// File-path suffixes allowed to construct raw channels (the audited
    /// fence modules).
    pub audited_channel_files: Vec<String>,
    /// Fn names that are declared canonical drains. This list is the
    /// barrier-conformance subject set, the order-leak exemption, and the
    /// blocking-op attribution boundary — and it must stay equal to
    /// `TaintConfig::workspace_default().barrier_fns` (pinned by a test):
    /// a fn trusted to absorb taint must be exactly a fn this pass
    /// verifies.
    pub drain_fns: Vec<String>,
    /// Fn names that are thread bodies: forward reachability from them
    /// defines the worker role, and their own blocking receive is the idle
    /// wait, not a deadlock edge.
    pub thread_entry_fns: Vec<String>,
    /// `(impl type, method)` pairs that root the engine role.
    pub engine_roots: Vec<(String, String)>,
}

fn strs(v: &[&str]) -> Vec<String> {
    v.iter().map(|s| s.to_string()).collect()
}

impl ConcurConfig {
    /// The policy for this workspace (docs/DETLINT.md).
    pub fn workspace_default() -> Self {
        let engine = [
            "new",
            "new_opts",
            "from_checkpoint",
            "from_checkpoint_opts",
            "step",
            "try_step",
            "run",
            "checkpoint",
            "rescale",
            "rescale_opts",
            "evaluate",
            "eval_dataset",
        ];
        let mut engine_roots: Vec<(String, String)> =
            engine.iter().map(|m| ("Engine".to_string(), m.to_string())).collect();
        engine_roots.push(("WorkerPool".to_string(), "spawn".to_string()));
        engine_roots.push(("WorkerPool".to_string(), "drop".to_string()));
        ConcurConfig {
            audited_channel_files: strs(&["comm/src/exchange.rs", "core/src/pool.rs"]),
            drain_fns: strs(&[
                "drain_sorted",
                "drain_deadline",
                "worker_main",
                // Not in the live tree any more; the planted `concur_fixtures`
                // workspace keys on it.
                "recv_ordered",
            ]),
            thread_entry_fns: strs(&["worker_main"]),
            engine_roots,
        }
    }
}

/// One concurrency finding (or warning): the kind token doubles as the
/// suppression name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConcurFinding {
    /// Finding kind (one of [`ALLOW_KINDS`]).
    pub kind: &'static str,
    /// Workspace-relative file the finding anchors to.
    pub file: String,
    /// 1-based anchor line.
    pub line: u32,
    /// Human explanation with the witness sites inline.
    pub message: String,
    /// Call-path witnesses (for `blocking-cycle`: the engine wait path,
    /// then the worker wait path). Each path starts at a role root; every
    /// hop's line is where that fn calls the next hop (or performs the op,
    /// for the last hop).
    pub paths: Vec<Vec<Hop>>,
}

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

/// Everything one concurrency run produced.
#[derive(Debug, Default)]
pub struct ConcurReport {
    /// Gate-failing findings, sorted by `(file, line, kind)`.
    pub findings: Vec<ConcurFinding>,
    /// Demoted findings (audited `barrier-unverified` allows). Reported,
    /// never gate.
    pub warnings: Vec<ConcurFinding>,
    /// Concurrency-level `detlint::allow` comments that blocked nothing.
    pub unused_suppressions: Vec<Finding>,
    /// Qualified names of every worker-role fn (reachable from a thread
    /// entry).
    pub worker_fns: Vec<String>,
    /// Qualified names of every engine-role fn (reachable from an engine
    /// root, minus the worker set — the roles are disjoint by
    /// construction).
    pub engine_fns: Vec<String>,
    /// The role-tagged blocking-op inventory, sorted by `(file, line, op)`.
    pub blocking: Vec<BlockingOp>,
}

/// Mark-and-test against the shared suppression ledger: does an allow
/// cover `(file, line)` for `kind`?
fn allow_blocks(allows: &mut AllowSet, file: &str, line: u32, kind: &str) -> bool {
    allows.consume(file, line, kind)
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
            let mut depth = 0i32;
            let mut k = j + 1;
            while k < toks.len() {
                match toks[k].text.as_str() {
                    "<" => depth += 1,
                    ">" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                k += 1;
            }
            j = k + 1;
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
fn scan_events(
    toks: &[Tok],
    file: &str,
    audited: bool,
    ccfg: &ConcurConfig,
    test_regions: &[(u32, u32)],
) -> Vec<Event> {
    let in_test = |line: u32| test_regions.iter().any(|&(a, b)| (a..=b).contains(&line));
    let bindings = exchange_bindings(toks);
    let drain_calls: Vec<&str> = ccfg
        .drain_fns
        .iter()
        .filter(|f| !ccfg.thread_entry_fns.contains(f))
        .map(|s| s.as_str())
        .collect();
    let mut out = Vec::new();
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || in_test(t.line) {
            continue;
        }
        let txt = |j: usize| toks.get(j).map_or("", |t: &Tok| t.text.as_str());
        let prev1 = if i >= 1 { txt(i - 1) } else { "" };
        let prev2 = if i >= 2 { txt(i - 2) } else { "" };
        let next1 = txt(i + 1);
        let next2 = txt(i + 2);
        let mut push = |kind: EventKind| {
            out.push(Event { file: file.to_string(), line: t.line, tok: i, kind });
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
        let mut push = |kind: EventKind| {
            out.push(Event { file: file.to_string(), line: t.line, tok: i, kind });
        };
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
fn witness(g: &Graph, parent: &[Option<(usize, u32)>], fn_id: usize, op_line: u32) -> Vec<Hop> {
    let mut rev = vec![Hop {
        func: g.fns[fn_id].qualified(),
        file: g.fns[fn_id].file.clone(),
        line: op_line,
    }];
    let mut f = fn_id;
    while let Some((caller, line)) = parent[f] {
        rev.push(Hop { func: g.fns[caller].qualified(), file: g.fns[caller].file.clone(), line });
        f = caller;
    }
    rev.reverse();
    rev
}

/// Run the concurrency analysis over a prebuilt [`Model`], consuming
/// suppressions from the shared ledger `allows` (already scanned by the
/// caller). Stale accounting is the caller's job — the returned report's
/// `unused_suppressions` is empty.
pub fn analyze_model(model: &Model, ccfg: &ConcurConfig, allows: &mut AllowSet) -> ConcurReport {
    // Per file: reuse the model's shared token stream for the event scan.
    let mut events: Vec<Event> = Vec::new();
    for mf in &model.files {
        let audited = ccfg.audited_channel_files.iter().any(|s| mf.file.ends_with(s.as_str()));
        events.extend(scan_events(&mf.lexed.toks, &mf.file, audited, ccfg, &mf.test_regions));
    }

    let g = &model.graph;
    let n = g.fns.len();
    let fn_of: Vec<Option<usize>> =
        events.iter().map(|e| items::innermost_fn_at(&g.fns, &e.file, e.line)).collect();

    let mut findings: Vec<ConcurFinding> = Vec::new();
    let mut warnings: Vec<ConcurFinding> = Vec::new();

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
            if !sealed.contains(&(e.file.as_str(), binding.as_str()))
                && !allow_blocks(allows, &e.file, e.line, "unsealed-drain")
            {
                findings.push(ConcurFinding {
                    kind: "unsealed-drain",
                    file: e.file.clone(),
                    line: e.line,
                    message: format!(
                        "`{binding}` is drained but nothing in this file ever seals it; a \
                         publisher that dies before publishing hangs this drain forever — \
                         call `{binding}.seal()` once every handle is minted"
                    ),
                    paths: Vec::new(),
                });
            }
        }
    }
    for (ei, e) in events.iter().enumerate() {
        let EventKind::Handle { binding } = &e.kind else { continue };
        let seal = events.iter().enumerate().find(|(si, s)| {
            matches!(&s.kind, EventKind::Seal { binding: sb } if sb == binding)
                && s.file == e.file
                && fn_of[*si] == fn_of[ei]
                && fn_of[ei].is_some()
                && s.tok < e.tok
        });
        if let Some((_, s)) = seal {
            if !allow_blocks(allows, &e.file, e.line, "send-after-seal") {
                findings.push(ConcurFinding {
                    kind: "send-after-seal",
                    file: e.file.clone(),
                    line: e.line,
                    message: format!(
                        "publisher handle minted on `{binding}` after `seal()` (sealed at \
                         {}:{}); `handle()` panics once the exchange is sealed",
                        s.file, s.line
                    ),
                    paths: Vec::new(),
                });
            }
        }
    }
    for (ei, e) in events.iter().enumerate() {
        match &e.kind {
            EventKind::Recv { .. } => {
                let in_drain = fn_of[ei].is_some_and(|f| ccfg.drain_fns.contains(&g.fns[f].name));
                if !in_drain && !allow_blocks(allows, &e.file, e.line, "order-leak") {
                    findings.push(ConcurFinding {
                        kind: "order-leak",
                        file: e.file.clone(),
                        line: e.line,
                        message: "receive outside a declared drain fn consumes messages in \
                                  thread-completion order; route it through a canonical drain \
                                  (drain_sorted / recv_ordered)"
                            .to_string(),
                        paths: Vec::new(),
                    });
                }
            }
            EventKind::RawChannel { what }
                if !allow_blocks(allows, &e.file, e.line, "raw-channel") =>
            {
                findings.push(ConcurFinding {
                    kind: "raw-channel",
                    file: e.file.clone(),
                    line: e.line,
                    message: format!(
                        "raw channel construction (`{what}`) outside the audited \
                         comm::exchange / core::pool modules; publish through \
                         comm::exchange::Exchange so arrival order stays fenced"
                    ),
                    paths: Vec::new(),
                });
            }
            _ => {}
        }
    }

    // -- Pass 2: roles and blocking cycles -------------------------------
    let worker_roots: Vec<usize> = (0..n)
        .filter(|&i| !g.fns[i].in_test && ccfg.thread_entry_fns.contains(&g.fns[i].name))
        .collect();
    let (worker_vis, worker_par) = g.reachable_from(&worker_roots, &|f| f.in_test);
    let engine_root_ids: Vec<usize> = (0..n)
        .filter(|&i| {
            let f = &g.fns[i];
            !f.in_test
                && ccfg
                    .engine_roots
                    .iter()
                    .any(|(ty, m)| f.self_ty.as_deref() == Some(ty.as_str()) && &f.name == m)
        })
        .collect();
    let (engine_vis, engine_par) = g.reachable_from(&engine_root_ids, &|f| {
        f.in_test || ccfg.thread_entry_fns.contains(&f.name)
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
    for (ei, e) in events.iter().enumerate() {
        let kind = match &e.kind {
            EventKind::Recv { blocking: true, .. } => Some(("recv".to_string(), true)),
            EventKind::Join => Some(("join".to_string(), true)),
            EventKind::Park => Some(("park".to_string(), true)),
            EventKind::DrainCall { callee } => Some((format!("drain:{callee}"), true)),
            EventKind::Lock { lock } => Some((format!("lock:{lock}"), false)),
            _ => None,
        };
        let Some((op, waits)) = kind else { continue };
        let Some(f) = fn_of[ei] else { continue };
        let name = &g.fns[f].name;
        let idle = ccfg.thread_entry_fns.contains(name);
        if !idle && ccfg.drain_fns.contains(name) {
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
    let engine_waits: Vec<&OpRef> = ops.iter().filter(|o| o.role == "engine" && o.waits).collect();
    let worker_waits: Vec<&OpRef> = ops
        .iter()
        .filter(|o| o.role == "worker" && o.waits && !o.idle && !engine_vis[o.fn_id])
        .collect();
    if let Some(ew) = engine_waits.first() {
        for w in &worker_waits {
            if allow_blocks(allows, &w.file, w.line, "blocking-cycle") {
                continue;
            }
            findings.push(ConcurFinding {
                kind: "blocking-cycle",
                file: w.file.clone(),
                line: w.line,
                message: format!(
                    "engine<->worker wait cycle: worker-side `{}` in `{}` blocks while the \
                     engine blocks in `{}` ({}:{}); if the engine's wait is on this worker, \
                     neither side makes progress",
                    w.op,
                    g.fns[w.fn_id].qualified(),
                    g.fns[ew.fn_id].qualified(),
                    ew.file,
                    ew.line
                ),
                paths: vec![
                    witness(g, &engine_par, ew.fn_id, ew.line),
                    witness(g, &worker_par, w.fn_id, w.line),
                ],
            });
        }
    }

    // -- Pass 3a: interprocedural lock order -----------------------------
    let mut direct: BTreeMap<usize, Vec<(String, u32, usize)>> = BTreeMap::new();
    for (ei, e) in events.iter().enumerate() {
        if let EventKind::Lock { lock } = &e.kind {
            if let Some(f) = fn_of[ei] {
                direct.entry(f).or_default().push((lock.clone(), e.line, e.tok));
            }
        }
    }
    // Transitive summary: every lock a fn (or anything it calls) can take,
    // with one deterministic representative site each.
    let mut summary: Vec<BTreeMap<String, (String, u32)>> = vec![BTreeMap::new(); n];
    for (f, locks) in &direct {
        for (name, line, _) in locks {
            summary[*f].entry(name.clone()).or_insert((g.fns[*f].file.clone(), *line));
        }
    }
    loop {
        let mut changed = false;
        for f in 0..n {
            let inherited: Vec<(String, (String, u32))> = g.edges[f]
                .iter()
                .flat_map(|e| {
                    summary[e.callee]
                        .iter()
                        .map(|(k, v)| (k.clone(), v.clone()))
                        .collect::<Vec<_>>()
                })
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
    struct PairWitness {
        file_a: String,
        line_a: u32,
        file_b: String,
        line_b: u32,
    }
    let mut pairs: BTreeMap<(String, String), PairWitness> = BTreeMap::new();
    for (f, locks) in &direct {
        let file = g.fns[*f].file.clone();
        for (i, (na, la, _)) in locks.iter().enumerate() {
            // Later acquisitions in the same fn (the guard is assumed live —
            // over-approximate on purpose; suppress drop-scoped pairs).
            for (nb, lb, _) in locks.iter().skip(i + 1) {
                if na != nb {
                    pairs.entry((na.clone(), nb.clone())).or_insert(PairWitness {
                        file_a: file.clone(),
                        line_a: *la,
                        file_b: file.clone(),
                        line_b: *lb,
                    });
                }
            }
            // Locks any callee invoked at/after the acquisition can take.
            for e in &g.edges[*f] {
                if e.line < *la {
                    continue;
                }
                for (nb, (fb, lb)) in &summary[e.callee] {
                    if nb != na {
                        pairs.entry((na.clone(), nb.clone())).or_insert(PairWitness {
                            file_a: file.clone(),
                            line_a: *la,
                            file_b: fb.clone(),
                            line_b: *lb,
                        });
                    }
                }
            }
        }
    }
    for ((a, b), w) in &pairs {
        if a >= b {
            continue; // one finding per unordered pair
        }
        let Some(rev) = pairs.get(&(b.clone(), a.clone())) else { continue };
        if allow_blocks(allows, &w.file_a, w.line_a, "lock-inversion") {
            continue;
        }
        findings.push(ConcurFinding {
            kind: "lock-inversion",
            file: w.file_a.clone(),
            line: w.line_a,
            message: format!(
                "lock order inversion between `{a}` and `{b}`: `{a}` -> `{b}` ({}:{} then \
                 {}:{}) but `{b}` -> `{a}` ({}:{} then {}:{}); two threads interleaving \
                 these paths deadlock",
                w.file_a,
                w.line_a,
                w.file_b,
                w.line_b,
                rev.file_a,
                rev.line_a,
                rev.file_b,
                rev.line_b
            ),
            paths: Vec::new(),
        });
    }

    // -- Pass 3b: barrier conformance ------------------------------------
    let subjects: Vec<usize> =
        (0..n).filter(|&i| !g.fns[i].in_test && ccfg.drain_fns.contains(&g.fns[i].name)).collect();
    let mut verified = vec![false; n];
    for &s in &subjects {
        verified[s] = events.iter().enumerate().any(|(ei, e)| {
            fn_of[ei] == Some(s)
                && matches!(&e.kind, EventKind::Sort | EventKind::Recv { indexed: true, .. })
        });
    }
    // Delegation closure: a drain that hands the work to a verified drain
    // is itself verified.
    loop {
        let mut changed = false;
        for &s in &subjects {
            if !verified[s]
                && g.edges[s]
                    .iter()
                    .any(|e| verified[e.callee] && ccfg.drain_fns.contains(&g.fns[e.callee].name))
            {
                verified[s] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    for &s in &subjects {
        if verified[s] {
            continue;
        }
        let f = &g.fns[s];
        if allow_blocks(allows, &f.file, f.line, "barrier-unverified") {
            warnings.push(ConcurFinding {
                kind: "barrier-unverified",
                file: f.file.clone(),
                line: f.line,
                message: format!(
                    "declared barrier `{}` shows no canonical-order evidence; demoted to a \
                     warning by an audited `barrier-unverified` allow",
                    f.qualified()
                ),
                paths: Vec::new(),
            });
        } else {
            findings.push(ConcurFinding {
                kind: "barrier-unverified",
                file: f.file.clone(),
                line: f.line,
                message: format!(
                    "declared barrier `{}` shows no canonical-order evidence (no sort-family \
                     call, no indexed `recv`, no delegation to a verified drain); make the \
                     drain canonical or audit it with `detlint::allow(barrier-unverified)`",
                    f.qualified()
                ),
                paths: Vec::new(),
            });
        }
    }

    findings.sort_by(|a, b| (&a.file, a.line, a.kind).cmp(&(&b.file, b.line, b.kind)));
    warnings.sort_by(|a, b| (&a.file, a.line, a.kind).cmp(&(&b.file, b.line, b.kind)));

    ConcurReport {
        findings,
        warnings,
        unused_suppressions: Vec::new(),
        worker_fns: (0..n).filter(|&i| worker_vis[i]).map(|i| g.fns[i].qualified()).collect(),
        engine_fns: (0..n)
            .filter(|&i| engine_vis[i] && !worker_vis[i])
            .map(|i| g.fns[i].qualified())
            .collect(),
        blocking: ops
            .iter()
            .map(|o| BlockingOp {
                role: o.role,
                op: o.op.clone(),
                func: g.fns[o.fn_id].qualified(),
                file: o.file.clone(),
                line: o.line,
                idle: o.idle,
            })
            .collect(),
    }
}

/// [`analyze_model`] with a private suppression ledger: scan every file's
/// allows, run the passes, and report concurrency-only stale allows.
pub fn analyze_model_standalone(model: &Model, ccfg: &ConcurConfig) -> ConcurReport {
    let mut allows = AllowSet::new();
    for mf in &model.files {
        allows.scan_file(&mf.lexed, &mf.file, &mf.test_regions);
    }
    let mut rep = analyze_model(model, ccfg, &mut allows);
    rep.unused_suppressions = allows.stale(&[Domain::Concur], false, phrase::CONCUR);
    rep
}

/// Run the concurrency analysis over a set of source files with a private
/// suppression ledger. Input order does not matter — files are sorted
/// internally and the report is byte-identical under any permutation
/// (pinned by a proptest).
pub fn analyze_files(files: &[SourceFile], ccfg: &ConcurConfig) -> ConcurReport {
    analyze_model_standalone(&crate::build_model(files, &[]), ccfg)
}

/// [`analyze_files`] over every `crates/*/src/**/*.rs` under `root`.
pub fn analyze_workspace_concur(root: &Path, ccfg: &ConcurConfig) -> std::io::Result<ConcurReport> {
    let files = crate::workspace_sources(root)?;
    Ok(analyze_files(&files, ccfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::taint::TaintConfig;

    fn file(crate_name: &str, name: &str, src: &str) -> SourceFile {
        SourceFile {
            crate_name: crate_name.to_string(),
            file: format!("crates/{crate_name}/src/{name}"),
            src: src.to_string(),
        }
    }

    fn run(files: &[SourceFile]) -> ConcurReport {
        analyze_files(files, &ConcurConfig::workspace_default())
    }

    fn kinds(r: &ConcurReport) -> Vec<&'static str> {
        r.findings.iter().map(|f| f.kind).collect()
    }

    #[test]
    fn drain_set_equals_the_declared_taint_barrier_fns() {
        // The conformance pass verifies exactly the fns taint trusts.
        assert_eq!(
            ConcurConfig::workspace_default().drain_fns,
            TaintConfig::workspace_default().barrier_fns
        );
    }

    #[test]
    fn unsealed_drain_fires_and_seal_clears_it() {
        let bad = run(&[file(
            "comm",
            "lib.rs",
            "fn collect() { let ex = Exchange::new(); ex.handle(); ex.drain_sorted(1); }\n",
        )]);
        assert_eq!(kinds(&bad), vec!["unsealed-drain"]);
        let good = run(&[file(
            "comm",
            "lib.rs",
            "fn collect() { let mut ex = Exchange::new(); ex.handle(); ex.seal(); \
             ex.drain_sorted(1); }\n",
        )]);
        assert!(kinds(&good).is_empty(), "{:?}", good.findings);
    }

    #[test]
    fn handle_after_seal_is_a_finding_handle_before_is_not() {
        let bad = run(&[file(
            "comm",
            "lib.rs",
            "fn mint() { let mut ex = Exchange::new(); ex.seal(); ex.handle(); }\n",
        )]);
        assert_eq!(kinds(&bad), vec!["send-after-seal"]);
        let good = run(&[file(
            "comm",
            "lib.rs",
            "fn mint() { let mut ex = Exchange::new(); ex.handle(); ex.seal(); }\n",
        )]);
        assert!(kinds(&good).is_empty(), "{:?}", good.findings);
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
        assert!(kinds(&good).is_empty(), "{:?}", good.findings);
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
        assert!(kinds(&good).is_empty(), "{:?}", good.findings);
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
        assert!(kinds(&good).is_empty(), "{:?}", good.findings);
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
                "struct Engine;\nimpl Engine { pub fn step(&self) { self.recv_ordered(); }\n\
                 fn recv_ordered(&self) { self.replies[0].recv(); } }\n",
            ),
        ]);
        let cycles: Vec<_> = both.findings.iter().filter(|f| f.kind == "blocking-cycle").collect();
        assert_eq!(cycles.len(), 1, "{:?}", both.findings);
        assert_eq!(cycles[0].paths.len(), 2, "engine witness + worker witness");
        let worker_path: Vec<&str> = cycles[0].paths[1].iter().map(|h| h.func.as_str()).collect();
        assert_eq!(worker_path, vec!["core::worker_main", "core::handle_cmd", "core::wait_ack"]);
        // Worker side alone (no engine wait anywhere): only the order leak.
        let alone = run(&[file("core", "a.rs", worker_side)]);
        assert!(!alone.findings.iter().any(|f| f.kind == "blocking-cycle"), "{:?}", alone.findings);
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
            !r.findings.iter().any(|f| f.kind == "blocking-cycle"),
            "idle command wait must not close a cycle: {:?}",
            r.findings
        );
        let idle: Vec<_> = r.blocking.iter().filter(|o| o.idle).collect();
        assert_eq!(idle.len(), 1);
        assert_eq!(idle[0].role, "worker");
        // The engine-side indexed recv sits in `step`, which is not a
        // declared drain: that is a real order leak.
        assert!(r.findings.iter().any(|f| f.kind == "order-leak"));
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
    fn lock_inversion_is_found_interprocedurally() {
        let r = run(&[file(
            "obs",
            "lib.rs",
            "impl Store {\n\
             fn refresh_a(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             fn refresh_b(&self) { let b = self.beta.lock(); lock_alpha(self); }\n\
             }\n\
             fn lock_alpha(s: &Store) { s.alpha.lock(); }\n",
        )]);
        assert_eq!(kinds(&r), vec!["lock-inversion"]);
        assert!(r.findings[0].message.contains("`alpha` -> `beta`"));
        assert!(r.findings[0].message.contains("`beta` -> `alpha`"));
        // One direction only: clean.
        let clean = run(&[file(
            "obs",
            "lib.rs",
            "impl Store {\n\
             fn refresh_a(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }\n\
             }\n",
        )]);
        assert!(kinds(&clean).is_empty(), "{:?}", clean.findings);
    }

    #[test]
    fn barriers_verify_by_sort_index_or_delegation() {
        // Sort evidence.
        let sorted = run(&[file(
            "comm",
            "a.rs",
            "fn drain_sorted(rx: R) -> V { let mut o = vec![rx.recv()]; o.sort_by_key(|x| *x); o }\n",
        )]);
        assert!(kinds(&sorted).is_empty(), "{:?}", sorted.findings);
        // Indexed-recv evidence.
        let indexed = run(&[file(
            "core",
            "b.rs",
            "impl P { fn recv_ordered(&self) { self.replies[0].recv(); } }\n",
        )]);
        assert!(kinds(&indexed).is_empty(), "{:?}", indexed.findings);
        // Delegation to a verified drain.
        let delegated = run(&[file(
            "comm",
            "c.rs",
            "fn drain_sorted(rx: R) -> V { let mut o = vec![rx.recv()]; o.sort(); o }\n\
             fn recv_ordered(rx: R) -> V { drain_sorted(rx) }\n",
        )]);
        assert!(kinds(&delegated).is_empty(), "{:?}", delegated.findings);
        // No evidence at all: finding.
        let fake =
            run(&[file("comm", "d.rs", "fn drain_sorted(rx: R) -> V { vec![rx.recv()] }\n")]);
        assert_eq!(kinds(&fake), vec!["barrier-unverified"]);
    }

    #[test]
    fn barrier_allow_demotes_to_warning_and_counts_as_used() {
        let r = run(&[file(
            "comm",
            "lib.rs",
            "// detlint::allow(barrier-unverified): audited fixture\n\
             fn drain_sorted(rx: R) -> V { vec![rx.recv()] }\n",
        )]);
        assert!(kinds(&r).is_empty(), "{:?}", r.findings);
        assert_eq!(r.warnings.len(), 1);
        assert_eq!(r.warnings[0].kind, "barrier-unverified");
        assert!(r.unused_suppressions.is_empty(), "the allow was used");
    }

    #[test]
    fn stale_concur_allow_is_reported() {
        let r = run(&[file(
            "comm",
            "lib.rs",
            "// detlint::allow(unsealed-drain): nothing here drains\n\
             fn tidy() {}\n",
        )]);
        assert!(r.findings.is_empty());
        assert_eq!(r.unused_suppressions.len(), 1);
        assert_eq!(r.unused_suppressions[0].rule, "unused-suppression");
    }

    #[test]
    fn result_is_invariant_under_file_order() {
        let a = file("core", "a.rs", "pub fn worker_main(c: R) { leak(); }\n");
        let b = file("core", "b.rs", "pub fn leak(rx: R) { rx.recv(); }\n");
        let fwd = run(&[a.clone(), b.clone()]);
        let rev = run(&[b, a]);
        assert_eq!(fwd.findings, rev.findings);
        assert_eq!(fwd.blocking, rev.blocking);
        assert_eq!(fwd.worker_fns, rev.worker_fns);
    }
}
