//! Differential tests: the semi-naive delta-driven fixpoint engine
//! against the naive textbook reference loop (`derive_naive`).
//!
//! The two engines share the rule core (`run_round`) but differ in
//! everything around it: the naive loop re-sweeps reachability facts
//! and re-tests every rule instance each round, while the semi-naive
//! engine keeps persistent rows, propagates only new-edge frontiers,
//! and re-evaluates only dirty anchors. These tests pin that they
//! still materialize **exactly the same edge sets** — not merely the
//! same closure — across three input families:
//!
//! * **random tape traces** ([`trace_from_tape`]), including
//!   inconsistent ones both engines must reject;
//! * **perturbed catalog traces** — bundled app workloads re-run under
//!   simulation seeds Table 1 does not use;
//! * **incremental-append sequences** — two [`IncrementalHb`]
//!   sessions fed identical task seals, one deriving semi-naively
//!   (with cross-call row reuse and memos), one with the naive
//!   reference, compared edge-for-edge after every seal.

use proptest::prelude::*;

use cafa_hb::{
    base_graph, derive, derive_naive, CausalityConfig, IncrementalHb, NodeId, SyncGraph,
};
use cafa_trace::arbitrary::trace_from_tape;
use cafa_trace::Trace;

/// The graph's materialized edges in a comparable order. `EdgeKind`
/// is not `Ord`; its debug form is a stable tiebreaker.
fn sorted_edges(g: &SyncGraph) -> Vec<(NodeId, NodeId, String)> {
    let mut edges: Vec<(NodeId, NodeId, String)> = g
        .edge_log()
        .iter()
        .map(|&(a, b, k)| (a, b, format!("{k:?}")))
        .collect();
    edges.sort();
    edges
}

/// Runs both engines from identical base graphs and asserts exact
/// agreement: same success/failure, same materialized edge multiset,
/// same rounds and per-rule edge counts, and no more rule instances
/// evaluated by the semi-naive engine than by the naive one.
fn assert_engines_agree(trace: &Trace, config: &CausalityConfig) {
    let mut g_semi = base_graph(trace, config);
    let mut g_naive = base_graph(trace, config);
    let semi = derive(&mut g_semi, trace, config);
    let naive = derive_naive(&mut g_naive, trace, config, None);
    match (semi, naive) {
        (Ok(s), Ok(n)) => {
            assert_eq!(
                sorted_edges(&g_semi),
                sorted_edges(&g_naive),
                "materialized edge sets diverged"
            );
            assert_eq!(s.rounds, n.rounds, "round counts diverged");
            assert_eq!(s.atomicity_edges, n.atomicity_edges);
            assert_eq!(s.queue_edges, n.queue_edges);
            assert!(
                s.instances <= n.instances,
                "semi-naive evaluated more instances ({}) than naive ({})",
                s.instances,
                n.instances
            );
        }
        (Err(_), Err(_)) => {} // both reject (e.g. a cyclic tape)
        (s, n) => panic!(
            "engines disagree on acceptance: semi ok={} naive ok={}",
            s.is_ok(),
            n.is_ok()
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Batch derivation on arbitrary tape traces, both rule configs.
    #[test]
    fn engines_agree_on_random_tapes(tape in proptest::collection::vec(any::<u8>(), 0..400)) {
        let trace = trace_from_tape(&tape);
        assert_engines_agree(&trace, &CausalityConfig::cafa());
        assert_engines_agree(&trace, &CausalityConfig::conventional());
    }

    /// Two incremental sessions fed the same seal sequence — one
    /// semi-naive (rows and memos carried across calls), one naive —
    /// materialize identical edges after every single seal. Round
    /// counts are not compared here: the semi-naive engine's converged
    /// fast path answers no-op derives without a rule round.
    #[test]
    fn incremental_appends_agree(tape in proptest::collection::vec(any::<u8>(), 0..400)) {
        let trace = trace_from_tape(&tape);
        let config = CausalityConfig::cafa();
        let mut semi = IncrementalHb::new(&trace, config).expect("tape traces are well-formed");
        let mut naive = IncrementalHb::new(&trace, config).expect("tape traces are well-formed");
        for info in trace.tasks() {
            semi.seal(&trace, info.id);
            naive.seal(&trace, info.id);
            let rs = semi.derive_now();
            let rn = naive.derive_now_reference();
            prop_assert_eq!(rs.is_ok(), rn.is_ok(), "acceptance diverged at {}", info.id);
            if rs.is_err() {
                return Ok(()); // cyclic tape, both rejected
            }
            prop_assert_eq!(
                sorted_edges(semi.graph()),
                sorted_edges(naive.graph()),
                "edge sets diverged after sealing {}",
                info.id
            );
        }
    }
}

/// Regression: an incremental graph contains begin/end nodes for
/// *unsealed* tasks, which are not yet connected by their program
/// chain. Absorbing such an event's prior into a working set used to
/// smuggle in facts the graph does not imply (`end(x) ≺ begin(i1)`
/// without `begin(i1) ≺ end(i1)`), and the pair memo then suppressed a
/// real Queue(1) edge in every later derive. This tape drove two
/// sessions apart after sealing its fourth task.
#[test]
fn unsealed_absorb_does_not_poison_memos() {
    let tape: Vec<u8> = vec![
        105, 43, 54, 87, 250, 144, 7, 40, 122, 233, 140, 8, 229, 144, 104, 188, 40, 154, 213, 135,
        143, 65, 112, 166, 237, 241, 208, 106, 91, 17, 74, 66, 51, 178, 136, 122, 180, 4, 66, 149,
        21, 40, 173, 107, 211, 21, 23, 107, 16, 158, 45, 100, 173, 251, 221, 179, 102, 242, 8, 206,
        254, 195, 249, 78, 47, 81, 2, 40, 148, 137, 201, 48, 150, 238, 3, 180, 167, 46, 109, 243,
        34, 178, 111, 110, 128, 94, 23, 94, 36, 223, 153, 217, 229, 12, 201, 194, 55, 199, 4, 70,
        245, 238, 165, 67, 186, 71, 98, 245, 204, 237, 138, 25, 153, 2, 119, 15, 217, 214, 16, 114,
        160, 82, 115, 50, 61, 94, 22, 89, 23, 82, 238, 200, 102, 18, 209, 186, 37, 100, 162, 194,
        96, 246, 211, 180, 38, 225, 162, 43, 33, 229, 59, 38, 23, 143, 171, 3, 1, 93, 30, 232, 27,
        182, 210, 154, 169, 138, 172, 67, 217, 86, 236, 126, 215, 150, 181, 92, 221, 230, 198, 249,
        63, 98, 211, 180, 127, 100, 217, 6, 63, 120, 93, 115, 217, 217, 148, 241, 13, 24, 216, 196,
        98, 226, 162, 61, 42, 205, 11, 117, 1, 140, 130, 91, 96, 130, 214, 85, 66, 143, 249, 58,
        242, 149, 222, 238, 112, 248, 254, 172, 202, 158, 197, 17, 141, 121, 33, 107, 188, 97, 32,
        111, 157, 161, 65, 214, 81, 39, 254, 155, 5, 56, 194, 145, 252, 41, 185, 8, 41, 227, 171,
        163, 154, 9, 73, 105, 215, 143, 170, 122, 68, 222, 47, 53, 195, 54, 130, 234, 135, 164,
        152, 107, 123, 55, 85, 180, 54, 255, 121, 3, 250, 187, 9, 37, 14, 81, 33, 20, 30, 155,
    ];
    let trace = trace_from_tape(&tape);
    let config = CausalityConfig::cafa();
    let mut semi = IncrementalHb::new(&trace, config).expect("tape traces are well-formed");
    let mut naive = IncrementalHb::new(&trace, config).expect("tape traces are well-formed");
    for info in trace.tasks() {
        semi.seal(&trace, info.id);
        naive.seal(&trace, info.id);
        semi.derive_now().expect("tape converges");
        naive.derive_now_reference().expect("tape converges");
        assert_eq!(
            sorted_edges(semi.graph()),
            sorted_edges(naive.graph()),
            "edge sets diverged after sealing {}",
            info.id
        );
    }
}

/// Catalog workloads under seeds Table 1 does not use: smallest,
/// median, and largest app by expected events, both rule configs.
#[test]
fn engines_agree_on_perturbed_catalog_traces() {
    let apps = cafa_apps::all_apps();
    let mut order: Vec<usize> = (0..apps.len()).collect();
    order.sort_by_key(|&i| apps[i].expected.events);
    let picks = [order[0], order[apps.len() / 2], *order.last().unwrap()];

    for (round, &i) in picks.iter().enumerate() {
        let app = &apps[i];
        let mut config = cafa_sim::SimConfig::with_seed(6869 + round as u64);
        config.instrument = cafa_sim::InstrumentConfig::paper_packages();
        let mut outcome = cafa_sim::run(&app.program, &config).expect("simulation runs");
        let trace = outcome.trace.take().expect("instrumentation is on");
        assert_engines_agree(&trace, &CausalityConfig::cafa());
        assert_engines_agree(&trace, &CausalityConfig::conventional());
    }
}
