//! The reference enumerator and the textbook chase built on it.
//!
//! [`enumerate_brute`] binds every live row to every unseeded variable and
//! checks the whole precondition on each complete binding: exponential in
//! rule arity, but with no access path, join order or candidate window to
//! get wrong. It is the oracle the compiled enumerator
//! ([`crate::enumerate_with_program`]) is checked against. [`naive_chase`]
//! re-runs it over every rule each round until no new fact is deduced — the
//! oracle against which the optimized and parallel engines are verified
//! (Church–Rosser means all of them must converge to the same `Γ`).

use crate::eval::ValuationSink;
use crate::facts::{ChaseState, Fact, MlOracle, MlSigTable};
use crate::plan::{CompiledHead, CompiledRule, RecPred};
use dcer_ml::MlRegistry;
use dcer_mrl::{RuleSet, TupleVar};
use dcer_relation::{Dataset, Tuple};

/// Sentinel for "variable not bound" in the binding array.
const UNBOUND: u32 = u32::MAX;

/// Enumerate every valuation of `plan` over `dataset` by brute force, with
/// `seeds` pre-bound; returns the number of valuations visited.
///
/// The contract is [`crate::enumerate_with_program`]'s, so both visit the
/// same valuation set (in a different order):
///
/// - every live row of each unseeded variable goes through
///   [`ValuationSink::admit_row`];
/// - seeds bypass `admit_row`, and an out-of-range or tombstoned seed
///   yields nothing;
/// - constant filters and equality edges compare with
///   [`dcer_relation::Value::sql_eq`], so nulls never join;
/// - [`ValuationSink::prune_rec`] is asked for every recursive predicate.
pub fn enumerate_brute(
    plan: &CompiledRule,
    dataset: &Dataset,
    seeds: &[(TupleVar, u32)],
    sink: &mut dyn ValuationSink,
) -> u64 {
    let mut rows = vec![UNBOUND; plan.num_vars()];
    for &(v, row) in seeds {
        let relation = dataset.relation(plan.atoms[v.0 as usize]);
        if row as usize >= relation.len() || !relation.is_live(row) {
            return 0;
        }
        rows[v.0 as usize] = row;
    }
    let mut count = 0;
    descend(plan, dataset, sink, &mut rows, 0, &mut count);
    count
}

fn descend(
    plan: &CompiledRule,
    dataset: &Dataset,
    sink: &mut dyn ValuationSink,
    rows: &mut [u32],
    depth: usize,
    count: &mut u64,
) {
    if depth == rows.len() {
        // The whole precondition under the complete binding.
        let tuple = |v: usize| &dataset.relation(plan.atoms[v]).tuples()[rows[v] as usize];
        let holds = plan
            .const_filters
            .iter()
            .enumerate()
            .all(|(v, filters)| filters.iter().all(|(a, c)| tuple(v).get(*a).sql_eq(c)))
            && plan.eq_edges.iter().all(|e| {
                tuple(e.left.0 .0 as usize)
                    .get(e.left.1)
                    .sql_eq(tuple(e.right.0 .0 as usize).get(e.right.1))
            })
            && plan.rec_preds.iter().enumerate().all(|(pi, p)| {
                let (l, r) = p.vars();
                !sink.prune_rec(pi, tuple(l.0 as usize), tuple(r.0 as usize))
            });
        if holds {
            sink.visit(rows);
            *count += 1;
        }
        return;
    }
    if rows[depth] != UNBOUND {
        return descend(plan, dataset, sink, rows, depth + 1, count); // seeded
    }
    let relation = dataset.relation(plan.atoms[depth]);
    for row in 0..relation.len() as u32 {
        if relation.is_live(row) && sink.admit_row(TupleVar(depth as u16), row) {
            rows[depth] = row;
            descend(plan, dataset, sink, rows, depth + 1, count);
        }
    }
    rows[depth] = UNBOUND;
}

/// Run the chase naively to fixpoint; returns the final state.
///
/// Intended for correctness tests at small scale: each round runs
/// [`enumerate_brute`] over every rule, i.e. the full cross product of its
/// atoms.
pub fn naive_chase(
    dataset: &Dataset,
    rules: &RuleSet,
    registry: &MlRegistry,
) -> Result<ChaseState, String> {
    let sigs = MlSigTable::build(rules);
    let plans = CompiledRule::compile_all(rules, &sigs);
    let mut oracle = MlOracle::new(rules, registry)?;
    let mut state = ChaseState::new();

    loop {
        let mut changed = false;
        for plan in &plans {
            let mut sink = ChaseSink {
                plan,
                dataset,
                sigs: &sigs,
                oracle: &mut oracle,
                state: &mut state,
                changed: false,
            };
            enumerate_brute(plan, dataset, &[], &mut sink);
            changed |= sink.changed;
        }
        if !changed {
            return Ok(state);
        }
    }
}

/// Applies the head of every valuation whose recursive predicates hold in
/// the current state (an ML predicate also holds when the classifier
/// accepts the pair).
struct ChaseSink<'a> {
    plan: &'a CompiledRule,
    dataset: &'a Dataset,
    sigs: &'a MlSigTable,
    oracle: &'a mut MlOracle,
    state: &'a mut ChaseState,
    changed: bool,
}

impl ValuationSink for ChaseSink<'_> {
    /// [`enumerate_brute`] asks on complete bindings only, so pruning is
    /// filtering: a valuation whose predicate does not hold yet is skipped
    /// this round.
    fn prune_rec(&mut self, pred: usize, l: &Tuple, r: &Tuple) -> bool {
        !match self.plan.rec_preds[pred] {
            RecPred::Id { .. } => self.state.holds_id(l.tid, r.tid),
            RecPred::Ml { sig, symmetric, .. } => {
                self.state.holds_ml(sig, l.tid, r.tid, symmetric)
                    || self.oracle.predict(self.sigs, sig, l, r, 0)
            }
        }
    }

    fn visit(&mut self, rows: &[u32]) {
        let tid = |v: TupleVar| {
            let i = v.0 as usize;
            self.dataset.relation(self.plan.atoms[i]).tuples()[rows[i] as usize].tid
        };
        let fact = match self.plan.head {
            CompiledHead::Id(l, r) if tid(l) != tid(r) => Fact::id(tid(l), tid(r)),
            CompiledHead::Ml { sig, left, right, symmetric } if tid(left) != tid(right) => {
                Fact::ml(sig, tid(left), tid(right), symmetric)
            }
            // Reflexive: already in Γ, or a self-prediction carrying no
            // information.
            _ => return,
        };
        self.changed |= self.state.apply(fact).is_some();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_ml::EqualTextClassifier;
    use dcer_relation::{Catalog, RelationSchema, ValueType};
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of(
                "R",
                &[("k", ValueType::Str), ("x", ValueType::Str)],
            )])
            .unwrap(),
        )
    }

    #[test]
    fn simple_md_fires() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["same".into(), "1".into()]).unwrap();
        let b = d.insert(0, vec!["same".into(), "2".into()]).unwrap();
        let c = d.insert(0, vec!["diff".into(), "3".into()]).unwrap();
        let rules =
            dcer_mrl::parse_rules(&cat, "match r: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut st = naive_chase(&d, &rules, &MlRegistry::new()).unwrap();
        assert!(st.holds_id(a, b));
        assert!(!st.holds_id(a, c));
    }

    #[test]
    fn recursion_chains_through_id_predicates() {
        // r1 matches via k; r2 propagates: if t~s (ids) and t.x = u.x then
        // s~u... encoded as: R(t),R(s),R(u), t.id = s.id, s.x = u.x -> t.id = u.id
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["k1".into(), "p".into()]).unwrap();
        let b = d.insert(0, vec!["k1".into(), "q".into()]).unwrap();
        let c = d.insert(0, vec!["k2".into(), "q".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match base: R(t), R(s), t.k = s.k -> t.id = s.id;
             match step: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id",
        )
        .unwrap();
        let mut st = naive_chase(&d, &rules, &MlRegistry::new()).unwrap();
        // base: a~b. step: t=a, s=b, u=c via b.x = c.x = "q" -> a~c.
        assert!(st.holds_id(a, b));
        assert!(st.holds_id(a, c));
        assert_eq!(st.matches.clusters().len(), 1);
    }

    #[test]
    fn ml_head_validates_and_feeds_body() {
        // r1 validates m(x) for tuples sharing k; r2 requires m(x) validated
        // OR classifier-true. With EqualTextClassifier on differing x values
        // only the validated path can fire r2.
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["k".into(), "xa".into()]).unwrap();
        let b = d.insert(0, vec!["k".into(), "xb".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match validate: R(t), R(s), t.k = s.k -> m(t.x, s.x);
             match use: R(t), R(s), m(t.x, s.x) -> t.id = s.id",
        )
        .unwrap();
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(EqualTextClassifier));
        let mut st = naive_chase(&d, &rules, &reg).unwrap();
        assert!(st.holds_id(a, b), "match via validated prediction");
        assert!(!st.validated.is_empty());
    }
}
