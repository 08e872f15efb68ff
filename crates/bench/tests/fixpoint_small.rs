//! Guards the small-trace regression the fixpoint benchmark exposed:
//! on tiny synthetic tiers the semi-naive engine's per-round delta
//! bookkeeping used to cost more than the rule work it saved, showing
//! up as a speedup *below* 1.0 on `synthetic/500` in
//! `BENCH_fixpoint.json`. `SMALL_EVENT_CUTOFF` now routes small traces
//! through a full resweep per round, so semi-naive wall time must stay
//! within noise of the naive reference there.

use std::time::{Duration, Instant};

use cafa_bench::scaling::synthetic_trace;
use cafa_hb::{base_graph, derive, derive_naive, CausalityConfig};
use cafa_trace::Trace;

/// Best-of-N timing; generous because CI machines are noisy.
const ITERS: usize = 7;

fn best_wall(trace: &Trace, run: impl Fn(&Trace) -> usize) -> (Duration, usize) {
    let mut best = Duration::MAX;
    let mut edges = 0;
    for _ in 0..ITERS {
        let t = Instant::now();
        edges = run(trace);
        best = best.min(t.elapsed());
    }
    (best, edges)
}

#[test]
fn semi_naive_is_not_slower_on_small_synthetic_tiers() {
    let config = CausalityConfig::cafa();
    for events in [250, 500] {
        let trace = synthetic_trace(events);
        let (semi_wall, semi_edges) = best_wall(&trace, |t| {
            let mut g = base_graph(t, &config);
            derive(&mut g, t, &config)
                .expect("semi-naive converges")
                .derived_edges()
        });
        let (naive_wall, naive_edges) = best_wall(&trace, |t| {
            let mut g = base_graph(t, &config);
            derive_naive(&mut g, t, &config, None)
                .expect("naive converges")
                .derived_edges()
        });
        assert_eq!(semi_edges, naive_edges, "engines disagree at {events}");
        let ratio = semi_wall.as_secs_f64() / naive_wall.as_secs_f64().max(1e-9);
        assert!(
            ratio <= 1.2,
            "semi-naive {ratio:.2}x slower than naive on synthetic/{events} \
             (semi {semi_wall:?}, naive {naive_wall:?}): the small-trace \
             resweep cutoff is not engaging"
        );
    }
}
