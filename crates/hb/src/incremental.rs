//! Incremental (suffix-extending) happens-before construction.
//!
//! The batch pipeline ([`base_graph`](crate::base_graph) +
//! [`derive`](crate::derive)) needs the whole trace up front. A
//! streaming ingester instead learns the trace in order: the complete
//! task table first, then each task's body, one completed task at a
//! time. [`IncrementalHb`] mirrors that shape:
//!
//! 1. [`IncrementalHb::new`] — called once the tables are known —
//!    builds the skeleton graph (begin/end nodes for every task) and
//!    installs the table-derived base edges (external-input chain,
//!    baseline total order);
//! 2. [`ingest`](IncrementalHb::ingest) appends a task's newly arrived
//!    records: sync nodes, program edges, and cross-task base edges
//!    paired against everything already ingested;
//! 3. [`derive_now`](IncrementalHb::derive_now) extends the rule
//!    fixpoint for the appended suffix, reusing pair memos from earlier
//!    runs so already-decided pairs are never re-examined (only the
//!    memo-less `sendAtFront` rules 2/4 are re-checked, a bounded set);
//! 4. [`into_model`](IncrementalHb::into_model) finalizes into an
//!    [`HbModel`] equivalent to a batch build.
//!
//! **Equivalence guarantee.** Base edges are append-monotone: every
//! pairing rule fires exactly the pairs the batch builder fires, just
//! interleaved with ingestion (the sole exception, the unlock→lock
//! ablation edges, needs the global acquisition order and is deferred
//! to finalization). Derived edges reach the same least fixpoint: a
//! memoized pair is only marked once its premise holds, premises only
//! grow, and fired conclusions persist as edges. The *materialized*
//! edge set may differ from a batch run where a fact is already implied
//! transitively, but the reachability closure — and therefore every
//! query an [`HbModel`] answers — is identical.

use std::collections::HashMap;

use cafa_trace::{ListenerId, MonitorId, OpRef, Record, TaskId, Trace, TxnId};

use crate::config::CausalityConfig;
use crate::demand::{DemandCore, DemandStats};
use crate::error::HbError;
use crate::graph::{EdgeKind, SyncGraph};
use crate::model::HbModel;
use crate::oracle::ReachOracle;
use crate::rules::{fixpoint, fixpoint_naive, DerivationStats, FixpointState, SendSite};

/// An append-only happens-before builder over a streaming trace.
///
/// Methods take the (growing) trace by reference on each call rather
/// than borrowing it for the builder's lifetime, so the caller can keep
/// extending the trace between calls. The task table must be complete
/// and must not change across calls; bodies may only grow, and records
/// of one task must all be ingested before [`seal`](IncrementalHb::seal)
/// closes its program-order chain.
#[derive(Debug)]
pub struct IncrementalHb {
    config: CausalityConfig,
    graph: SyncGraph,
    fix: FixpointState,
    stats: DerivationStats,
    derives: u32,
    // Pairing tables, persisted so each new record pairs against every
    // previously ingested counterpart exactly once.
    notifies: HashMap<(MonitorId, u32), Vec<OpRef>>,
    waits: HashMap<(MonitorId, u32), Vec<OpRef>>,
    registers: HashMap<ListenerId, Vec<OpRef>>,
    performs: HashMap<ListenerId, Vec<OpRef>>,
    rpc_calls: HashMap<TxnId, Vec<OpRef>>,
    rpc_handles: HashMap<TxnId, Vec<OpRef>>,
    rpc_replies: HashMap<TxnId, Vec<OpRef>>,
    rpc_receives: HashMap<TxnId, Vec<OpRef>>,
    locks: HashMap<MonitorId, Vec<(u32, OpRef)>>,
    unlocks: HashMap<MonitorId, Vec<(u32, OpRef)>>,
    /// Records already ingested per task.
    ingested: Vec<u32>,
    sealed: Vec<bool>,
    /// Sync records appended since the last `derive_now`.
    staged: usize,
    /// Cached reachability index over the graph-so-far; refreshed on
    /// demand by [`refresh_oracle`](IncrementalHb::refresh_oracle).
    oracle: Option<ReachOracle>,
    /// Lazy rule-query engine over the graph-so-far, created on the
    /// first `demand_*` query. Unlike [`derive_now`], it materializes
    /// no edges into the graph and pays only for the cones queries
    /// probe — the live-mode path of a streaming session.
    ///
    /// [`derive_now`]: IncrementalHb::derive_now
    demand: Option<DemandCore>,
}

impl IncrementalHb {
    /// Starts incremental construction for a trace whose task table is
    /// complete (bodies may be empty or partial; only records up to
    /// each later `ingest` call are consumed).
    ///
    /// # Errors
    ///
    /// [`HbError::MalformedTrace`] if an event task has no queue.
    pub fn new(trace: &Trace, config: CausalityConfig) -> Result<Self, HbError> {
        let fix = FixpointState::new(trace)?;
        let mut graph = SyncGraph::skeleton(trace);

        // Table-derived base edges exist before any body arrives.
        if config.external_rule {
            for pair in trace.external_events().windows(2) {
                graph.add_edge(graph.end(pair[0]), graph.begin(pair[1]), EdgeKind::External);
            }
        }
        if config.total_event_order {
            for (_, q) in trace.queues() {
                for pair in q.events.windows(2) {
                    graph.add_edge(
                        graph.end(pair[0]),
                        graph.begin(pair[1]),
                        EdgeKind::TotalOrder,
                    );
                }
            }
        }

        let task_count = trace.task_count();
        Ok(Self {
            config,
            graph,
            fix,
            stats: DerivationStats::default(),
            derives: 0,
            notifies: HashMap::new(),
            waits: HashMap::new(),
            registers: HashMap::new(),
            performs: HashMap::new(),
            rpc_calls: HashMap::new(),
            rpc_handles: HashMap::new(),
            rpc_replies: HashMap::new(),
            rpc_receives: HashMap::new(),
            locks: HashMap::new(),
            unlocks: HashMap::new(),
            ingested: vec![0; task_count],
            sealed: vec![false; task_count],
            staged: 0,
            oracle: None,
            demand: None,
        })
    }

    /// Creates the demand engine on first use and follows graph growth:
    /// newly appended nodes/edges extend its mark arrays and invalidate
    /// its cone memos and settlement stamps (growth is monotone, so
    /// previously derived edges are kept). Must run before every
    /// `demand_*` query. Public so streaming callers can charge the
    /// extension cost to the right pass instead of the first query.
    pub fn sync_demand(&mut self) {
        if self.demand.is_none() {
            let core = DemandCore::new(&self.graph, self.fix.table.clone(), self.config);
            self.demand = Some(core);
        }
        let core = self.demand.as_mut().expect("created above");
        core.sync_graph(&self.graph);
        core.register_sends(&self.graph, &self.fix.sends);
    }

    /// Answers `end(e1) ≺ begin(e2)` over the graph-so-far through the
    /// demand engine — the full §3.3 relation restricted to what has
    /// been ingested, without materializing edges. An unsealed task's
    /// `end` is still disconnected from its chain, so orders that
    /// depend on a task being complete correctly stay unreported until
    /// [`seal`](IncrementalHb::seal).
    ///
    /// # Panics
    ///
    /// Panics if either task is not an event.
    pub fn demand_event_before(&mut self, e1: TaskId, e2: TaskId) -> bool {
        let i1 = self.fix.table.dense(e1).expect("e1 must be an event");
        let i2 = self.fix.table.dense(e2).expect("e2 must be an event");
        self.sync_demand();
        let core = self.demand.as_mut().expect("synced above");
        core.event_before(&self.graph, i1, i2)
    }

    /// Operation-level happens-before over the graph-so-far through the
    /// demand engine (strict; see
    /// [`demand_event_before`](IncrementalHb::demand_event_before)).
    pub fn demand_happens_before(&mut self, a: OpRef, b: OpRef) -> bool {
        if a.task == b.task {
            return a.index < b.index;
        }
        let from = self.graph.bracket_after(a);
        let to = self.graph.bracket_before(b);
        self.sync_demand();
        let core = self.demand.as_mut().expect("synced above");
        core.reaches(&self.graph, from, to)
    }

    /// Work counters of the demand engine, if any `demand_*` query ran.
    pub fn demand_stats(&self) -> Option<DemandStats> {
        self.demand.as_ref().map(DemandCore::stats)
    }

    /// Brings the cached reachability index up to date with the graph:
    /// a no-op if nothing changed, an in-place extension when the graph
    /// only grew by program-order appends and safe seals, and a full
    /// rebuild (with `threads` workers) otherwise. Returns `false` —
    /// dropping any stale cache — if the graph-so-far is cyclic, in
    /// which case callers fall back to DFS and the inconsistency
    /// surfaces as a typed error at finalization.
    pub fn refresh_oracle(&mut self, threads: usize) -> bool {
        if let Some(oracle) = &mut self.oracle {
            if oracle.try_extend(&self.graph) {
                return true;
            }
        }
        match ReachOracle::build(&self.graph, threads) {
            Ok(oracle) => {
                self.oracle = Some(oracle);
                true
            }
            Err(_) => {
                self.oracle = None;
                false
            }
        }
    }

    /// The cached reachability index, if current for the graph-so-far.
    pub fn oracle(&self) -> Option<&ReachOracle> {
        self.oracle.as_ref().filter(|o| o.covers(&self.graph))
    }

    /// The configuration the builder was created with.
    pub fn config(&self) -> &CausalityConfig {
        &self.config
    }

    /// The graph as built so far (base edges current; derived edges as
    /// of the last [`derive_now`](IncrementalHb::derive_now)).
    pub fn graph(&self) -> &SyncGraph {
        &self.graph
    }

    /// True once `task`'s program-order chain has been closed.
    pub fn is_sealed(&self, task: TaskId) -> bool {
        self.sealed[task.index()]
    }

    /// Sync records appended since the last fixpoint extension — the
    /// un-derived backlog a memory high-water mark should bound.
    pub fn staged_records(&self) -> usize {
        self.staged
    }

    /// Accumulated derivation statistics across all fixpoint runs.
    pub fn stats(&self) -> DerivationStats {
        self.stats
    }

    /// Modeled resident footprint of the builder's state, in bytes:
    /// graph nodes and edges, the persistent fixpoint rows (one
    /// reachability row triple per node), and the cached reachability
    /// index. An accounting estimate for memory budgeting — not an
    /// allocator measurement — but it scales with the real cost and is
    /// deterministic, so an eviction threshold expressed against it
    /// behaves identically on every run.
    pub fn footprint_estimate(&self) -> usize {
        // Node metadata + adjacency entries (succ + pred per edge) +
        // the chronological edge log + dedup set.
        let nodes = self.graph.node_count() * 64;
        let edges = self.graph.edge_count() * 80;
        // Fixpoint reachability rows: three bitset rows per node.
        let rows = self.graph.node_count() * (self.graph.node_count() / 8).clamp(8, 1 << 12);
        let oracle = self
            .oracle
            .as_ref()
            .map_or(0, |_| self.graph.node_count() * 40);
        nodes + edges + rows + oracle
    }

    /// Appends `task`'s records beyond what was already ingested:
    /// creates sync nodes and installs their base edges against every
    /// previously ingested counterpart.
    ///
    /// # Panics
    ///
    /// Panics if `task` was already sealed while its body kept growing.
    pub fn ingest(&mut self, trace: &Trace, task: TaskId) {
        let body = trace.body(task);
        let from = self.ingested[task.index()] as usize;
        if from < body.len() {
            assert!(!self.sealed[task.index()], "records after seal of {task}");
        }
        for (i, r) in body.iter().enumerate().skip(from) {
            if !r.is_sync() {
                continue;
            }
            let at = OpRef::new(task, i as u32);
            let n = self.graph.append_record(task, i as u32);
            self.staged += 1;
            match *r {
                Record::Fork { child } => {
                    self.graph
                        .add_edge(n, self.graph.begin(child), EdgeKind::Fork);
                }
                Record::Join { child } => {
                    self.graph
                        .add_edge(self.graph.end(child), n, EdgeKind::Join);
                }
                Record::Send {
                    event,
                    queue,
                    delay_ms,
                } => {
                    self.graph
                        .add_edge(n, self.graph.begin(event), EdgeKind::Send);
                    self.fix.add_sends(&[SendSite {
                        node: n,
                        event,
                        queue,
                        delay_ms,
                        front: false,
                    }]);
                }
                Record::SendAtFront { event, queue } => {
                    self.graph
                        .add_edge(n, self.graph.begin(event), EdgeKind::Send);
                    self.fix.add_sends(&[SendSite {
                        node: n,
                        event,
                        queue,
                        delay_ms: 0,
                        front: true,
                    }]);
                }
                Record::Notify { monitor, gen } => {
                    for &w in self.waits.get(&(monitor, gen)).map_or(&[][..], |v| v) {
                        if w.task != task {
                            let wn = self.graph.node_of(w).expect("ingested sync record");
                            self.graph.add_edge(n, wn, EdgeKind::NotifyWait);
                        }
                    }
                    self.notifies.entry((monitor, gen)).or_default().push(at);
                }
                Record::Wait { monitor, gen } => {
                    for &nf in self.notifies.get(&(monitor, gen)).map_or(&[][..], |v| v) {
                        if nf.task != task {
                            let nn = self.graph.node_of(nf).expect("ingested sync record");
                            self.graph.add_edge(nn, n, EdgeKind::NotifyWait);
                        }
                    }
                    self.waits.entry((monitor, gen)).or_default().push(at);
                }
                Record::Register { listener } => {
                    if self.config.listener_rule {
                        for &p in self.performs.get(&listener).map_or(&[][..], |v| v) {
                            if at.task == p.task && at.index >= p.index {
                                continue;
                            }
                            let pn = self.graph.node_of(p).expect("ingested sync record");
                            self.graph.add_edge(n, pn, EdgeKind::Register);
                        }
                    }
                    self.registers.entry(listener).or_default().push(at);
                }
                Record::Perform { listener } => {
                    if self.config.listener_rule {
                        for &reg in self.registers.get(&listener).map_or(&[][..], |v| v) {
                            if reg.task == at.task && reg.index >= at.index {
                                continue;
                            }
                            let rn = self.graph.node_of(reg).expect("ingested sync record");
                            self.graph.add_edge(rn, n, EdgeKind::Register);
                        }
                    }
                    self.performs.entry(listener).or_default().push(at);
                }
                Record::RpcCall { txn } => {
                    for &h in self.rpc_handles.get(&txn).map_or(&[][..], |v| v) {
                        let hn = self.graph.node_of(h).expect("ingested sync record");
                        self.graph.add_edge(n, hn, EdgeKind::Rpc);
                    }
                    self.rpc_calls.entry(txn).or_default().push(at);
                }
                Record::RpcHandle { txn } => {
                    for &c in self.rpc_calls.get(&txn).map_or(&[][..], |v| v) {
                        let cn = self.graph.node_of(c).expect("ingested sync record");
                        self.graph.add_edge(cn, n, EdgeKind::Rpc);
                    }
                    self.rpc_handles.entry(txn).or_default().push(at);
                }
                Record::RpcReply { txn } => {
                    for &rc in self.rpc_receives.get(&txn).map_or(&[][..], |v| v) {
                        let rn = self.graph.node_of(rc).expect("ingested sync record");
                        self.graph.add_edge(n, rn, EdgeKind::Rpc);
                    }
                    self.rpc_replies.entry(txn).or_default().push(at);
                }
                Record::RpcReceive { txn } => {
                    for &rp in self.rpc_replies.get(&txn).map_or(&[][..], |v| v) {
                        let rn = self.graph.node_of(rp).expect("ingested sync record");
                        self.graph.add_edge(rn, n, EdgeKind::Rpc);
                    }
                    self.rpc_receives.entry(txn).or_default().push(at);
                }
                // Unlock→lock edges need the *global* acquisition order
                // ("the next lock after this release"), which a suffix
                // can change; they are installed at finalization.
                Record::Lock { monitor, gen } => {
                    self.locks.entry(monitor).or_default().push((gen, at));
                }
                Record::Unlock { monitor, gen } => {
                    self.unlocks.entry(monitor).or_default().push((gen, at));
                }
                _ => {}
            }
        }
        self.ingested[task.index()] = body.len() as u32;
    }

    /// Ingests any remaining records of `task` and closes its
    /// program-order chain. Idempotent.
    pub fn seal(&mut self, trace: &Trace, task: TaskId) {
        if self.sealed[task.index()] {
            return;
        }
        self.ingest(trace, task);
        self.graph.seal_task(task);
        self.sealed[task.index()] = true;
    }

    /// Extends the rule fixpoint over everything appended since the
    /// last run, returning this run's statistics (also accumulated into
    /// [`stats`](IncrementalHb::stats)).
    ///
    /// # Errors
    ///
    /// [`HbError`] if the graph-so-far is cyclic (inconsistent input)
    /// or the fixpoint diverges.
    pub fn derive_now(&mut self) -> Result<DerivationStats, HbError> {
        let run = fixpoint(&mut self.graph, &self.config, &mut self.fix)?;
        self.accumulate(run);
        Ok(run)
    }

    /// [`derive_now`](IncrementalHb::derive_now) driven by the naive
    /// reference loop instead of the semi-naive engine. Leaves the pair
    /// memos and reachability rows untouched, so an all-reference
    /// session stays a faithful baseline. Exposed (hidden) for the
    /// differential test suite and the fixpoint benchmark only.
    #[doc(hidden)]
    pub fn derive_now_reference(&mut self) -> Result<DerivationStats, HbError> {
        let run = fixpoint_naive(&mut self.graph, &self.config, &mut self.fix, None)?;
        self.accumulate(run);
        Ok(run)
    }

    fn accumulate(&mut self, run: DerivationStats) {
        self.stats.rounds += run.rounds;
        self.stats.instances += run.instances;
        self.stats.atomicity_edges += run.atomicity_edges;
        for (acc, q) in self.stats.queue_edges.iter_mut().zip(run.queue_edges) {
            *acc += q;
        }
        self.derives += 1;
        self.staged = 0;
    }

    /// Number of fixpoint extensions run so far.
    pub fn derive_count(&self) -> u32 {
        self.derives
    }

    /// Finalizes into an [`HbModel`]: seals any unsealed task, installs
    /// the deferred unlock→lock edges (lock-ordered ablations only),
    /// runs the fixpoint to convergence, and assembles the query model.
    /// Answers every query identically to `HbModel::build(trace,
    /// config)`.
    ///
    /// # Errors
    ///
    /// [`HbError`] as for [`derive_now`](IncrementalHb::derive_now).
    pub fn into_model<'t>(mut self, trace: &'t Trace) -> Result<HbModel<'t>, HbError> {
        for info in trace.tasks() {
            self.seal(trace, info.id);
        }
        if self.config.lock_hb {
            for (monitor, mut uls) in std::mem::take(&mut self.unlocks) {
                let Some(mut ls) = self.locks.remove(&monitor) else {
                    continue;
                };
                uls.sort_by_key(|&(gen, _)| gen);
                ls.sort_by_key(|&(gen, _)| gen);
                for &(gen, at) in &uls {
                    let next = ls.partition_point(|&(lgen, _)| lgen <= gen);
                    if let Some(&(_, lock_at)) = ls.get(next) {
                        let un = self.graph.node_of(at).expect("ingested sync record");
                        let ln = self.graph.node_of(lock_at).expect("ingested sync record");
                        self.graph.add_edge(un, ln, EdgeKind::LockOrder);
                    }
                }
            }
        }
        self.derive_now()?;
        let closure = self.fix.converged_closure(&self.graph);
        HbModel::from_parts(trace, self.config, self.graph, self.stats, closure)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::{ObjId, Pc, TraceBuilder, VarId};

    /// Ingests a complete trace task-by-task with a derive after each
    /// seal, then finalizes.
    fn incremental_model(trace: &Trace, config: CausalityConfig) -> HbModel<'_> {
        let mut inc = IncrementalHb::new(trace, config).expect("valid trace");
        for info in trace.tasks() {
            inc.seal(trace, info.id);
            inc.derive_now().expect("incremental derivation converges");
        }
        inc.into_model(trace).expect("finalization converges")
    }

    /// Closure equality against the batch model: every event pair and
    /// every op pair over the trace's accesses agree.
    fn assert_equivalent(trace: &Trace, config: CausalityConfig) {
        let batch = HbModel::build(trace, config).expect("batch build");
        let inc = incremental_model(trace, config);
        for &e1 in batch.events() {
            for &e2 in batch.events() {
                if e1 != e2 {
                    assert_eq!(
                        batch.event_before(e1, e2),
                        inc.event_before(e1, e2),
                        "event order {e1}->{e2} diverged"
                    );
                }
            }
        }
        let ops: Vec<OpRef> = trace.iter_ops().map(|(at, _)| at).collect();
        for &a in &ops {
            for &b in &ops {
                assert_eq!(
                    batch.happens_before(a, b),
                    inc.happens_before(a, b),
                    "op order {a:?}->{b:?} diverged"
                );
            }
        }
    }

    fn figure1_trace() -> Trace {
        let mut b = TraceBuilder::new("MyTracks");
        let app = b.add_process();
        let q = b.add_queue(app);
        let svc = b.add_process();
        let ipc = b.add_thread(svc, "binder");
        let resume = b.external(q, "onResume");
        b.process_event(resume);
        let (txn, _) = b.rpc_call(resume);
        b.rpc_handle(ipc, txn);
        let connected = b.post(ipc, q, "onServiceConnected", 0);
        let destroy = b.external(q, "onDestroy");
        b.process_event(connected);
        b.obj_read(connected, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x10));
        b.process_event(destroy);
        b.obj_write(destroy, VarId::new(0), None, Pc::new(0x20));
        b.finish().unwrap()
    }

    fn cascade_trace() -> Trace {
        // Queue-rule edge enables an atomicity edge in a later round,
        // plus fork/join, notify/wait, locks, and a front-send.
        let mut b = TraceBuilder::new("cascade");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "T");
        let a = b.post(t, q, "A", 0);
        let e = b.post(t, q, "B", 0);
        b.process_event(a);
        let w = b.fork(a, p, "w");
        b.write(w, VarId::new(3));
        b.join(a, w);
        b.process_event(e);
        let c = b.post(e, q, "C", 0);
        let f = b.post_front(e, q, "F");
        b.process_event(f);
        b.process_event(c);
        let m = MonitorId::new(1);
        b.lock(t, m, 0);
        b.unlock(t, m, 0);
        b.finish().unwrap()
    }

    #[test]
    fn figure1_matches_batch_under_cafa() {
        assert_equivalent(&figure1_trace(), CausalityConfig::cafa());
    }

    #[test]
    fn figure1_matches_batch_under_conventional() {
        assert_equivalent(&figure1_trace(), CausalityConfig::conventional());
    }

    #[test]
    fn cascade_matches_batch_under_all_presets() {
        let trace = cascade_trace();
        for config in [
            CausalityConfig::cafa(),
            CausalityConfig::conventional(),
            CausalityConfig::no_queue_rules(),
            CausalityConfig::fasttrack_like(),
        ] {
            assert_equivalent(&trace, config);
        }
    }

    #[test]
    fn derive_per_seal_is_not_required() {
        // Deriving only once at the end must agree too.
        let trace = cascade_trace();
        let batch = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let mut inc = IncrementalHb::new(&trace, CausalityConfig::cafa()).unwrap();
        for info in trace.tasks() {
            inc.seal(&trace, info.id);
        }
        let model = inc.into_model(&trace).unwrap();
        for &e1 in batch.events() {
            for &e2 in batch.events() {
                if e1 != e2 {
                    assert_eq!(batch.event_before(e1, e2), model.event_before(e1, e2));
                }
            }
        }
    }

    #[test]
    fn staged_counter_tracks_backlog() {
        let trace = cascade_trace();
        let mut inc = IncrementalHb::new(&trace, CausalityConfig::cafa()).unwrap();
        assert_eq!(inc.staged_records(), 0);
        let first = trace.tasks().next().unwrap().id;
        inc.seal(&trace, first);
        assert!(inc.staged_records() > 0);
        inc.derive_now().unwrap();
        assert_eq!(inc.staged_records(), 0);
        assert_eq!(inc.derive_count(), 1);
    }

    #[test]
    fn partial_ingest_then_more_records() {
        // Ingest may be called repeatedly as a body grows; pairing must
        // not duplicate edges.
        let trace = figure1_trace();
        let mut inc = IncrementalHb::new(&trace, CausalityConfig::cafa()).unwrap();
        for info in trace.tasks() {
            inc.ingest(&trace, info.id); // full body
            inc.ingest(&trace, info.id); // no-op: nothing new
            inc.seal(&trace, info.id);
        }
        let batch = HbModel::build(&trace, CausalityConfig::cafa()).unwrap();
        let model = inc.into_model(&trace).unwrap();
        for &e1 in batch.events() {
            for &e2 in batch.events() {
                if e1 != e2 {
                    assert_eq!(batch.event_before(e1, e2), model.event_before(e1, e2));
                }
            }
        }
    }

    /// A gate on a streaming session's demand core survives the
    /// invalidation sweeps that graph growth triggers. Sealing `nested`
    /// completes the atomicity premise of `end(first) → begin(nested)`;
    /// the re-settled anchor drops and counts that conclusion again,
    /// unless the two events share a variable.
    #[test]
    fn gating_holds_across_graph_growth() {
        let mut b = TraceBuilder::new("gated-growth");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t = b.add_thread(p, "main");
        let first = b.post(t, q, "first", 2);
        let second = b.post(t, q, "second", 2);
        b.process_event(first);
        let nested = b.post(first, q, "nested", 0);
        b.process_event(second);
        b.process_event(nested);
        let trace = b.finish().unwrap();
        for conflicts in [false, true] {
            let mut inc = IncrementalHb::new(&trace, CausalityConfig::cafa()).unwrap();
            let var = |e| usize::from(e == nested && !conflicts);
            let access = (0..trace.task_count()).map(|t| {
                let mut set = crate::bitset::BitSet::new(2);
                set.insert(var(TaskId::new(t as u32)));
                set
            });
            let gate = crate::ConflictGate::new(access.collect());
            inc.sync_demand();
            inc.demand
                .as_mut()
                .expect("created by the sync")
                .set_gate(gate);
            for task in [t, first, second] {
                inc.seal(&trace, task);
            }
            assert!(
                inc.demand_event_before(first, second),
                "conflicting pair kept"
            );
            assert!(!inc.demand_event_before(first, nested));
            let before = inc.demand_stats().expect("queries ran").gated;
            inc.seal(&trace, nested);
            assert_eq!(inc.demand_event_before(first, nested), conflicts);
            let gated = inc.demand_stats().expect("queries ran").gated > before;
            assert_eq!(gated, !conflicts, "re-settled conclusion not gated");
        }
    }
}
