//! Deterministic edge-case units for the demand-driven query engine —
//! the cases the differential proptest suites cover only by accident:
//! self-queries, queries probing still-unsealed tasks, and memo
//! invalidation when an [`IncrementalHb`] extends the graph under a
//! live query index. No proptest here: every trace is built by hand so
//! a failure names its scenario.

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, CausalityConfig, ConflictGate, HbModel, IncrementalHb};
use cafa_trace::{DerefKind, ObjId, OpRef, Pc, TaskId, Trace, TraceBuilder, VarId};

/// A one-process app where the main thread posts `first` and `second`
/// back-to-back with equal delays (queue rule 1 orders them), and
/// `first` itself posts `nested` (atomicity orders `first` before it).
fn chain_trace() -> (Trace, TaskId, TaskId, TaskId, TaskId) {
    let mut b = TraceBuilder::new("demand-units");
    let p = b.add_process();
    let q = b.add_queue(p);
    let t = b.add_thread(p, "main");
    let first = b.post(t, q, "first", 2);
    let second = b.post(t, q, "second", 2);
    b.process_event(first);
    b.obj_read(first, VarId::new(0), Some(ObjId::new(1)), Pc::new(0x1010));
    b.deref(first, ObjId::new(1), Pc::new(0x1014), DerefKind::Field);
    let nested = b.post(first, q, "nested", 0);
    b.process_event(second);
    b.obj_write(second, VarId::new(0), None, Pc::new(0x2010));
    b.process_event(nested);
    (b.finish().unwrap(), t, first, second, nested)
}

#[test]
fn self_query_is_never_ordered() {
    let (trace, _, first, second, nested) = chain_trace();
    let model =
        HbModel::build_demand(&trace, CausalityConfig::cafa()).expect("chain trace is acyclic");
    for e in [first, second, nested] {
        assert!(
            !model.event_before(e, e),
            "event {e} must not precede itself"
        );
    }
    // Operation-level hb(a, a) is false too — same task, same index.
    for (op, _) in trace.iter_ops() {
        assert!(!model.happens_before(op, op), "op {op:?} preceding itself");
    }
    // ...while genuinely ordered pairs still answer true.
    assert!(model.event_before(first, second), "rule 1 orders the posts");
}

/// An unsealed task's `end` is disconnected, so no rule premise can
/// complete around it: the atomicity edge `end(first) ≺ begin(nested)`
/// needs `begin(first) ≺ end(nested)`, and that premise probes the
/// *unsealed* `nested`'s end. The demand engine must answer false —
/// lazily evaluating the rule is not allowed to peek past the seal.
#[test]
fn queries_against_unsealed_tasks_stay_unordered() {
    let (trace, t, first, second, nested) = chain_trace();
    let config = CausalityConfig::cafa();
    let mut inc = IncrementalHb::new(&trace, config).expect("well-formed trace");

    // Nothing sealed: no send is registered, nothing is ordered.
    assert!(!inc.demand_event_before(first, second));
    assert!(!inc.demand_event_before(first, nested));

    // Sender sealed: both top-level sends are registered, so rule 1
    // orders first ≺ second even though neither event body is sealed —
    // the premises live entirely in the sealed sender.
    inc.seal(&trace, t);
    assert!(inc.demand_event_before(first, second));

    // But first ≺ nested still needs the atomicity premise through
    // end(nested), and `nested` is unsealed: must stay unordered.
    inc.seal(&trace, first);
    inc.seal(&trace, second);
    assert!(
        !inc.demand_event_before(first, nested),
        "atomicity premise completed through an unsealed task's end"
    );

    inc.seal(&trace, nested);
    assert!(
        inc.demand_event_before(first, nested),
        "sealing nested completes the atomicity premise"
    );
}

/// Extending the graph must invalidate exactly the memoized state the
/// new edges can reach: a query answered `false` before a seal flips
/// to `true` after it, and a repeated query with no extension in
/// between is a pure memo hit (no new premise evaluations).
#[test]
fn memos_invalidate_across_incremental_extension() {
    let (trace, t, first, second, nested) = chain_trace();
    let config = CausalityConfig::cafa();
    let mut inc = IncrementalHb::new(&trace, config).expect("well-formed trace");
    inc.seal(&trace, t);
    inc.seal(&trace, first);
    inc.seal(&trace, second);

    // Settle the (currently-false) answer and memoize it.
    assert!(!inc.demand_event_before(first, nested));
    let before = inc.demand_stats().expect("queries ran");

    // Re-asking the settled query costs no rule work.
    assert!(!inc.demand_event_before(first, nested));
    let repeat = inc.demand_stats().expect("queries ran");
    assert_eq!(repeat.queries, before.queries + 1);
    assert_eq!(
        repeat.premises, before.premises,
        "memoized query re-evaluated premises"
    );

    // Sealing `nested` adds its bracket edges; the invalidation sweep
    // must reach the memoized root and flip the answer.
    inc.seal(&trace, nested);
    assert!(
        inc.demand_event_before(first, nested),
        "stale memo survived the extension"
    );
    let after = inc.demand_stats().expect("queries ran");
    assert!(
        after.premises > repeat.premises,
        "the flipped answer must come from re-evaluated rules"
    );

    // And the refreshed answer memoizes again.
    assert!(inc.demand_event_before(first, nested));
    let settled = inc.demand_stats().expect("queries ran");
    assert_eq!(settled.premises, after.premises);
}

/// A gate whose per-task variable sets are `vars(task)`.
fn gate_of(trace: &Trace, vars: impl Fn(TaskId) -> Vec<usize>) -> ConflictGate {
    let set = |t| {
        let mut set = BitSet::new(8);
        for v in vars(t) {
            set.insert(v);
        }
        set
    };
    ConflictGate::new(
        (0..trace.task_count())
            .map(|t| set(TaskId::new(t as u32)))
            .collect(),
    )
}

/// The gate drops rule 1's `end(first) → begin(second)` when the two
/// events share no variable: the conclusion is counted as gated and
/// never materialized, not even by the bulk settle behind the oracle.
#[test]
fn gated_conclusion_is_counted_and_never_materialized() {
    let (trace, _, first, second, _) = chain_trace();
    let config = CausalityConfig::cafa();
    let build = |gate| HbModel::build_gated(&trace, config, base_graph(&trace, &config), gate);
    let model = build(gate_of(&trace, |e| vec![usize::from(e == first)])).expect("acyclic");
    assert!(!model.event_before(first, second), "gated pair ordered");
    let stats = model.demand_stats().expect("demand backend");
    assert!(stats.gated >= 1, "the dropped conclusion was not counted");
    assert_eq!(stats.edges_materialized, 0);
    model.ensure_oracle(1).expect("acyclic");
    assert_eq!(model.demand_stats().expect("demand").edges_materialized, 0);
    assert!(!model.happens_before(OpRef::new(first, 0), OpRef::new(second, 0)));

    // The same pair sharing a variable keeps its order.
    let model = build(gate_of(&trace, |_| vec![3])).expect("acyclic");
    assert!(model.event_before(first, second));
    assert_eq!(model.demand_stats().expect("demand").gated, 0);
}

/// Every event sharing one variable makes the gate a no-op: answers
/// equal the ungated demand core's on catalog traces. The three
/// smallest apps, as in `demand_differential.rs`: a catalog query
/// settles most of its trace, and the larger apps add settlement time
/// without new rule coverage.
#[test]
fn always_true_gate_matches_the_ungated_core_on_the_catalog() {
    let config = CausalityConfig::cafa();
    let mut apps = cafa_apps::all_apps();
    apps.sort_by_key(|app| app.expected.events);
    for app in &apps[..3] {
        let outcome = app.record(0).expect("catalog records cleanly");
        let trace = outcome.trace.expect("instrumentation is on");
        let ungated = HbModel::build_demand(&trace, config).expect("acyclic");
        let gate = gate_of(&trace, |_| vec![0]);
        let gated = HbModel::build_gated(&trace, config, base_graph(&trace, &config), gate)
            .expect("acyclic");
        let sample = |n: usize| (0..n).step_by(n.div_ceil(12).max(1));
        let events = ungated.events();
        for (a, b) in sample(events.len()).flat_map(|a| sample(events.len()).map(move |b| (a, b))) {
            let (a, b) = (events[a], events[b]);
            assert_eq!(gated.event_before(a, b), ungated.event_before(a, b));
        }
        let ops: Vec<OpRef> = trace.iter_ops().map(|(at, _)| at).collect();
        for (a, b) in sample(ops.len()).flat_map(|a| sample(ops.len()).map(move |b| (a, b))) {
            let (a, b) = (ops[a], ops[b]);
            assert_eq!(gated.happens_before(a, b), ungated.happens_before(a, b));
        }
        assert_eq!(gated.demand_stats().expect("demand").gated, 0);
    }
}
