//! Predictive (weaker-than-HB) partial order for event-driven traces.
//!
//! The PLDI'14 happens-before model orders exactly what the *observed*
//! execution proves ordered: the §3.3 atomicity and queue rules fire
//! unconditionally, and the external-input rule chains every pair of
//! user gestures. That relation is sound for the observed trace, but it
//! also orders event pairs that could legitimately run the other way in
//! a feasible reordering — races the single-trace model can never
//! report. Predictive detectors (WCP, DC, SmartTrack — see PAPERS.md)
//! weaken the order so that only *conflicting* operations keep their
//! observed ordering, then lean on a secondary judge to discharge the
//! unsound remainder.
//!
//! [`PredictModel`] is that weaker relation for the CAFA event model:
//!
//! * base edges (program order, fork/join, wait/notify, post→begin,
//!   RPC, listener registration) are kept as hard causality;
//! * the **external-input rule** is *conflict-scoped*: two gestures are
//!   ordered only when their handlers access a common variable —
//!   independent gestures could arrive in either order;
//! * the **atomicity and queue rules** are *conflict-gated*: a derived
//!   `end(e₁) → begin(e₂)` edge is kept only when `e₁` and `e₂` access
//!   a common variable. A FIFO ordering between events that share no
//!   state is an accident of the observed schedule, not causality —
//!   dropping it is exactly the DC-style "doesn't-commute" relaxation.
//!
//! Every fact of this relation is implied by the paper's model, so the
//! predictive order is a subset of HB (`predictive ⊆ HB`, pinned by
//! `tests/predictive_differential.rs`): anything HB-concurrent stays
//! concurrent here, and some HB-ordered pairs become concurrent — those
//! are the *predictive-only* race candidates. The relation is
//! deliberately unsound in isolation; `cafa-replay`'s directed→guided→
//! random ladder adjudicates every extra report into a replay-confirmed
//! witness or a counted false positive (see `docs/PREDICT.md`).
//!
//! Lock treatment mirrors the same philosophy. The detector's lockset
//! filter suppresses any racing pair covered by a common monitor; the
//! predictive backend honors that suppression only when the two tasks
//! conflict on state *beyond the racing variable*
//! ([`PredictModel::tasks_conflict_besides`]) — a WCP-style
//! release-acquire trust limited to critical sections that demonstrably
//! sequence other shared data. A lock whose sections touch only the
//! racing pointer does not decide the order of its sections, so the
//! pair stays reportable and replay decides.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

use cafa_hb::bitset::BitSet;
use cafa_hb::{base_graph, CausalityConfig, ConflictGate, EdgeKind, HbError, HbModel, ReachOracle};
use cafa_trace::{OpRef, TaskId, Trace, VarId};

/// Work counters of the predictive model. The rule counters come from
/// the demand engine and grow as queries settle the relation, so read
/// them after the queries of interest.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PredictStats {
    /// Conflict-scoped external-input edges added (gesture pairs whose
    /// handlers conflict).
    pub external_edges: usize,
    /// Most settlement passes one query needed before its cone
    /// converged.
    pub rounds: u32,
    /// Rule conclusions suppressed by the conflict gate: orderings the
    /// HB model materializes that this relation deliberately drops.
    pub gated: u64,
    /// Atomicity/queue edges actually added.
    pub derived_edges: usize,
}

/// The predictive partial order over one trace: a demand-engine
/// [`HbModel`] over the predictive base graph with the conflict gate
/// installed, so each query settles only the rule anchors its answer
/// depends on.
#[derive(Debug)]
pub struct PredictModel<'t> {
    model: HbModel<'t>,
    /// The conflict relation, shared with the model's demand core.
    gate: ConflictGate,
    external_edges: usize,
}

impl<'t> PredictModel<'t> {
    /// Builds the predictive order for `trace`: hard base edges, the
    /// conflict-scoped external rule, and the conflict-gated §3.3
    /// rules, derived lazily per query.
    ///
    /// # Errors
    ///
    /// [`HbError`] on malformed traces or a cyclic base relation
    /// (impossible for recorded executions).
    pub fn build(trace: &'t Trace) -> Result<Self, HbError> {
        let mut config = CausalityConfig::cafa();
        config.external_rule = false;
        let mut g = base_graph(trace, &config);
        let gate = ConflictGate::new(access_sets(trace));

        // Conflict-scoped external-input rule: order a gesture pair
        // only when the handlers share state. The HB chain orders all
        // pairs transitively, so every edge added here is HB-implied.
        let mut external_edges = 0;
        let ext = trace.external_events();
        for (i, &a) in ext.iter().enumerate() {
            for &b in &ext[i + 1..] {
                if gate.conflict(a, b) && g.add_edge(g.end(a), g.begin(b), EdgeKind::External) {
                    external_edges += 1;
                }
            }
        }

        let model = HbModel::build_gated(trace, config, g, gate.clone())?;
        Ok(Self {
            model,
            gate,
            external_edges,
        })
    }

    /// Does `a` happen before `b` under the predictive order? Same-task
    /// operations follow program order; cross-task pairs are bracketed
    /// to their surrounding sync nodes, exactly as in
    /// [`HbModel::happens_before`].
    pub fn happens_before(&self, a: OpRef, b: OpRef) -> bool {
        self.model.happens_before(a, b)
    }

    /// True when neither operation is predictive-ordered before the
    /// other.
    pub fn concurrent(&self, a: OpRef, b: OpRef) -> bool {
        !self.happens_before(a, b) && !self.happens_before(b, a)
    }

    /// Settles the whole relation and closes it into a
    /// [`ReachOracle`] built with `threads` workers (`0` = auto); later
    /// queries answer in constant time. The bulk path for callers about
    /// to ask a quadratic number of queries.
    ///
    /// # Errors
    ///
    /// [`HbError::CyclicHappensBefore`] if the settled relation is
    /// cyclic.
    pub fn ensure_oracle(&self, threads: usize) -> Result<&ReachOracle, HbError> {
        self.model.ensure_oracle(threads)
    }

    /// Do the bodies of `a` and `b` access a common variable other than
    /// `var`? The predictive lockset relaxation: a common monitor
    /// suppresses a racing pair only when this holds — critical
    /// sections that sequence no state beyond the racing variable do
    /// not pin their own order, so the pair stays reportable.
    pub fn tasks_conflict_besides(&self, a: TaskId, b: TaskId, var: VarId) -> bool {
        self.gate.conflict_besides(a, b, Some(var))
    }

    /// Work counters so far.
    pub fn stats(&self) -> PredictStats {
        let d = self.model.demand_stats().unwrap_or_default();
        PredictStats {
            external_edges: self.external_edges,
            rounds: d.max_passes,
            gated: d.gated,
            derived_edges: d.edges_materialized as usize,
        }
    }
}

/// Per task: the set of variables its body reads or writes (scalar or
/// pointer). The conflict relation of the gate.
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

#[cfg(test)]
mod tests {
    use super::*;
    use cafa_trace::TraceBuilder;

    /// Two externally posted gestures whose handlers conflict stay
    /// ordered; an unrelated pair becomes concurrent (HB orders both).
    #[test]
    fn external_rule_is_conflict_scoped() {
        let mut b = TraceBuilder::new("ext");
        let p = b.add_process();
        let q = b.add_queue(p);
        let t1 = b.external(q, "tap1");
        let t2 = b.external(q, "tap2");
        let t3 = b.external(q, "tap3");
        b.process_event(t1);
        b.process_event(t2);
        b.process_event(t3);
        let shared = VarId::new(0);
        let lonely = VarId::new(1);
        let u1 = b.write(t1, shared);
        let u2 = b.read(t2, shared);
        let u3 = b.read(t3, lonely);
        let trace = b.finish().unwrap();

        let m = PredictModel::build(&trace).unwrap();
        assert!(
            m.happens_before(u1, u2),
            "conflicting gestures stay ordered"
        );
        assert!(m.concurrent(u1, u3), "independent gestures decouple");
        assert!(m.concurrent(u2, u3));
        assert_eq!(m.stats().external_edges, 1);
    }

    /// The queue rules still fire between conflicting events but are
    /// gated off for disjoint ones.
    #[test]
    fn queue_rule_is_conflict_gated() {
        let shared = VarId::new(0);
        let other = VarId::new(1);

        // Conflicting pair: ordered sends, equal delays → rule 1 fires.
        let mut b = TraceBuilder::new("gated");
        let p = b.add_process();
        let q = b.add_queue(p);
        let src = b.add_thread(p, "src");
        let e1 = b.post(src, q, "e1", 5);
        let e2 = b.post(src, q, "e2", 5);
        b.process_event(e1);
        b.process_event(e2);
        let a1 = b.write(e1, shared);
        let a2 = b.read(e2, shared);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(m.happens_before(a1, a2), "conflicting FIFO pair kept");
        assert!(m.stats().derived_edges >= 1);

        // Disjoint pair: same shape, no shared variable → concurrent.
        let mut b = TraceBuilder::new("gated2");
        let p = b.add_process();
        let q = b.add_queue(p);
        let src = b.add_thread(p, "src");
        let e1 = b.post(src, q, "e1", 5);
        let e2 = b.post(src, q, "e2", 5);
        b.process_event(e1);
        b.process_event(e2);
        let a1 = b.write(e1, shared);
        let a2 = b.read(e2, other);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(m.concurrent(a1, a2), "disjoint FIFO pair decoupled");
        assert!(m.stats().gated >= 1);
        assert_eq!(m.stats().derived_edges, 0, "gated edge materialized");
        // The bulk path settles everything and still drops it.
        m.ensure_oracle(1).unwrap();
        assert!(m.concurrent(a1, a2));
        assert_eq!(m.stats().derived_edges, 0);
    }

    /// Hard causality (post→begin) is never relaxed.
    #[test]
    fn base_edges_are_hard() {
        let mut b = TraceBuilder::new("base");
        let p = b.add_process();
        let q = b.add_queue(p);
        let src = b.add_thread(p, "src");
        let v = VarId::new(0);
        let w = b.write(src, v);
        let e = b.post(src, q, "e", 0);
        b.process_event(e);
        let r = b.read(e, v);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(m.happens_before(w, r));
    }

    /// The lockset relaxation: conflict beyond the racing variable.
    #[test]
    fn conflict_besides_excludes_the_racing_var() {
        let mut b = TraceBuilder::new("locks");
        let p = b.add_process();
        let t1 = b.add_thread(p, "a");
        let t2 = b.add_thread(p, "b");
        let ptr = VarId::new(0);
        let flag = VarId::new(1);
        b.write(t1, ptr);
        b.write(t2, ptr);
        b.write(t1, flag);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(
            !m.tasks_conflict_besides(t1, t2, ptr),
            "only the pair's var"
        );

        let mut b = TraceBuilder::new("locks2");
        let p = b.add_process();
        let t1 = b.add_thread(p, "a");
        let t2 = b.add_thread(p, "b");
        b.write(t1, ptr);
        b.write(t2, ptr);
        b.write(t1, flag);
        b.write(t2, flag);
        let trace = b.finish().unwrap();
        let m = PredictModel::build(&trace).unwrap();
        assert!(
            m.tasks_conflict_besides(t1, t2, ptr),
            "flag conflicts beyond ptr"
        );
    }

    /// Variables 63, 64 and 65 straddle the first access-bitmap word
    /// boundary: the skipped bit must mask exactly its own word.
    #[test]
    fn conflict_besides_at_the_word_boundary() {
        let model_of = |a: &[u32], b: &[u32]| {
            let mut bld = TraceBuilder::new("boundary");
            let p = bld.add_process();
            let t1 = bld.add_thread(p, "a");
            let t2 = bld.add_thread(p, "b");
            for &v in a {
                bld.write(t1, VarId::new(v));
            }
            for &v in b {
                bld.write(t2, VarId::new(v));
            }
            (bld.finish().unwrap(), t1, t2)
        };
        let cases: [(&[u32], &[u32], u32, bool); 9] = [
            (&[63], &[63], 63, false),
            (&[63], &[63], 64, true),
            (&[64], &[64], 64, false),
            (&[64], &[64], 63, true),
            (&[64], &[64], 65, true),
            (&[65], &[65], 65, false),
            (&[65], &[65], 64, true),
            (&[63, 64], &[63, 64], 63, true),
            (&[63, 65], &[64, 65], 65, false),
        ];
        for (a, b, skip, want) in cases {
            let (trace, t1, t2) = model_of(a, b);
            let m = PredictModel::build(&trace).unwrap();
            assert_eq!(
                m.tasks_conflict_besides(t1, t2, VarId::new(skip)),
                want,
                "{a:?} vs {b:?} besides v{skip}"
            );
            assert_eq!(m.tasks_conflict_besides(t2, t1, VarId::new(skip)), want);
        }
    }
}
