//! Differential suite: the predictive relation against an independent
//! gated naive reference.
//!
//! The reference is built here from public `cafa_hb` parts only: the
//! base graph without the external-input chain, the conflict-scoped
//! external edges, and the textbook §3.3 round loop
//! ([`derive_naive`]) with the conflict gate as its predicate — every
//! derived edge materialized, then closed into a [`ReachOracle`].
//! [`PredictModel`] must answer every sampled operation pair exactly
//! as that reference does, over three input families: arbitrary tape
//! traces, the ten catalog apps and the generated corpus
//! `gen:7:0..49`.

use proptest::prelude::*;

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, derive_naive, CausalityConfig, EdgeKind, EventTable, ReachOracle};
use cafa_predict::PredictModel;
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::{OpRef, Trace};

/// Per task: the variables its body accesses.
fn access_sets(trace: &Trace) -> Vec<BitSet> {
    let width = trace
        .iter_ops()
        .filter_map(|(_, r)| r.accessed_var())
        .map(|v| v.index() + 1)
        .max()
        .unwrap_or(0);
    let mut sets = vec![BitSet::new(width); trace.task_count()];
    for (at, r) in trace.iter_ops() {
        if let Some(var) = r.accessed_var() {
            sets[at.task.index()].insert(var.index());
        }
    }
    sets
}

fn share_a_var(x: &BitSet, y: &BitSet) -> bool {
    x.iter().any(|v| y.contains(v))
}

/// The gated naive reference as an operation-order closure; `None`
/// when the gated relation is cyclic (a tape no execution could have
/// recorded).
fn naive_reference(trace: &Trace) -> Option<impl Fn(OpRef, OpRef) -> bool> {
    let mut config = CausalityConfig::cafa();
    config.external_rule = false;
    let access = access_sets(trace);
    let mut g = base_graph(trace, &config);
    let ext = trace.external_events();
    for (i, &a) in ext.iter().enumerate() {
        for &b in &ext[i + 1..] {
            if share_a_var(&access[a.index()], &access[b.index()]) {
                g.add_edge(g.end(a), g.begin(b), EdgeKind::External);
            }
        }
    }
    let table = EventTable::new(trace).expect("valid trace");
    let gate = |i: u32, j: u32| {
        share_a_var(
            &access[table.events[i as usize].index()],
            &access[table.events[j as usize].index()],
        )
    };
    derive_naive(&mut g, trace, &config, Some(&gate)).ok()?;
    let oracle = ReachOracle::build(&g, 1).ok()?;
    Some(move |a: OpRef, b: OpRef| {
        if a.task == b.task {
            return a.index < b.index;
        }
        oracle.reaches(g.bracket_after(a), g.bracket_before(b))
    })
}

/// Asserts agreement on a fixed-stride sample of `cap` operations
/// (all ordered pairs of the sample, both directions).
fn assert_agrees(trace: &Trace, cap: usize) {
    let Some(reference) = naive_reference(trace) else {
        return;
    };
    let model = PredictModel::build(trace).expect("predictive model builds");
    let ops: Vec<OpRef> = trace.iter_ops().map(|(at, _)| at).collect();
    let stride = ops.len().div_ceil(cap).max(1);
    let sample: Vec<OpRef> = ops.into_iter().step_by(stride).collect();
    for &a in &sample {
        for &b in &sample {
            assert_eq!(
                model.happens_before(a, b),
                reference(a, b),
                "{}: predictive order disagrees with the gated naive reference on {a} -> {b}",
                trace.meta().app
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Arbitrary tape traces, every operation pair.
    #[test]
    fn agrees_on_random_tapes(tape in proptest::collection::vec(any::<u8>(), 0..300)) {
        assert_agrees(&trace_from_tape(&tape), usize::MAX);
    }
}

#[test]
fn agrees_on_the_catalog() {
    for app in cafa_apps::all_apps() {
        let outcome = app.record(0).expect("catalog records cleanly");
        assert_agrees(&outcome.trace.expect("instrumentation is on"), 60);
    }
}

#[test]
fn agrees_on_the_generated_corpus() {
    for idx in 0..50 {
        let app = cafa_apps::resolve(&format!("gen:7:{idx}")).expect("gen slots resolve");
        let outcome = app.record(7).expect("generated workloads run clean");
        assert_agrees(&outcome.trace.expect("instrumentation is on"), 60);
    }
}
