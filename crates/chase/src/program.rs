//! Per-rule compiled access programs.
//!
//! [`RuleProgram::compile`] turns a [`CompiledRule`] into a straight-line
//! join program against one dataset: a static variable order chosen once
//! from index cardinalities, and per-step lists of *probe options* and
//! *checks* addressed entirely by dictionary code and index slot. An ML
//! predicate with certified keys ([`crate::plan::SigKeys`]) adds a
//! signature probe option to both endpoints' steps; the predicate itself
//! stays a recursive check. The enumerator in [`crate::eval`] then runs
//! the program with zero per-step planning, no `Value` hashing or
//! cloning, and no allocation on the hot path.
//!
//! Compilation pre-builds every index the rule can touch (interning values
//! into the [`IndexSet`]'s shared [`ValueDict`]); afterwards evaluation
//! needs only `&IndexSet`. A program is valid until
//! [`IndexSet::clear`] — the dataset changing invalidates every slot and
//! code it holds.

use crate::plan::{CompiledRule, RecPred};
use dcer_mrl::TupleVar;
use dcer_relation::{AttrId, Dataset, IndexSet, RelId, ValueDict};

/// A constant filter compiled to a dictionary code: rows of the step's
/// variable must carry `code` in the column indexed by `slot`. Doubles as a
/// probe option (the code's postings list enumerates exactly the matching
/// rows).
#[derive(Debug, Clone, Copy)]
pub struct ConstProbe {
    /// Index slot over the variable's `(relation, attribute)`.
    pub slot: u32,
    /// Interned code of the constant.
    pub code: u32,
}

/// A hash-join probe option: once `src_var` is bound, its join-key code
/// (read from `src_slot`'s code column in O(1)) selects a postings range in
/// `slot`.
#[derive(Debug, Clone, Copy)]
pub struct EdgeProbe {
    /// Index slot on this step's side of the equality edge.
    pub slot: u32,
    /// The other endpoint's tuple variable.
    pub src_var: u16,
    /// Index slot on the other endpoint's side (code column source).
    pub src_slot: u32,
}

/// A signature probe option: once `src_var` is bound, the probe keys of
/// its `src_attrs` values select, from signature slot `slot`, the rows of
/// this step's side that share a certified key with it — the only rows the
/// ML predicate can accept. Compiled only for predicates whose false
/// answer is final, so the skipped rows are ones the predicate's own check
/// would have pruned. When an equality edge also joins the two variables,
/// the signature index is blocked on this side's attribute of it, and the
/// probe reads only the block of `src_var`'s code.
#[derive(Debug, Clone)]
pub struct SigProbe {
    /// Signature-index slot over this step's side of the ML predicate.
    pub slot: u32,
    /// The other endpoint's tuple variable.
    pub src_var: u16,
    /// The other endpoint's relation.
    pub src_rel: RelId,
    /// The other endpoint's attribute vector.
    pub src_attrs: Vec<AttrId>,
    /// For a blocked index: the hash-index slot of the other endpoint's
    /// side of the blocking edge (code column source).
    pub src_block_slot: Option<u32>,
}

/// A residual equality check at a step: if `other_var` is bound, this
/// step's row must carry the same (non-null) code as `other_var`'s row,
/// comparing the `slot` and `other_slot` code columns.
#[derive(Debug, Clone, Copy)]
pub struct EqCheck {
    /// Code column of this step's side.
    pub slot: u32,
    /// The other endpoint's tuple variable.
    pub other_var: u16,
    /// Code column of the other endpoint's side.
    pub other_slot: u32,
}

/// One equality edge with both endpoints' slots resolved — used for the
/// seed prelude, where an edge may be fully bound before any step runs.
#[derive(Debug, Clone, Copy)]
pub struct EqPair {
    /// Left tuple variable.
    pub left_var: u16,
    /// Left side's index slot.
    pub left_slot: u32,
    /// Right tuple variable.
    pub right_var: u16,
    /// Right side's index slot.
    pub right_slot: u32,
}

/// One step of the program: bind `var`, choosing at runtime the cheapest
/// *available* probe option (constant postings, or an edge probe whose
/// source is bound — seeds can make more edges available than the static
/// order assumed), falling back to a lazy scan of `rel`; then run the
/// step's checks against every candidate.
#[derive(Debug, Clone)]
pub struct Step {
    /// The tuple variable this step binds.
    pub var: u16,
    /// The variable's relation (scan fallback domain).
    pub rel: RelId,
    /// Compiled constant filters (checked every candidate; also probe
    /// options).
    pub consts: Vec<ConstProbe>,
    /// Edge probe options (usable when their source variable is bound).
    pub edges: Vec<EdgeProbe>,
    /// Signature probe options (usable when their source variable is
    /// bound).
    pub sigs: Vec<SigProbe>,
    /// Equality checks incident to `var` (run when the other endpoint is
    /// bound; each edge thus fires exactly once, at its later-bound end).
    pub eq_checks: Vec<EqCheck>,
    /// Indices into [`CompiledRule::rec_preds`] incident to `var` (same
    /// later-bound-end discipline).
    pub rec_checks: Vec<u16>,
}

/// A [`CompiledRule`] lowered to a static join order plus per-step access
/// and check lists, valid for one dataset/index generation.
#[derive(Debug, Clone)]
pub struct RuleProgram {
    /// Steps in execution order (seeded variables are skipped at runtime).
    pub steps: Vec<Step>,
    /// Step index of each tuple variable.
    step_of_var: Vec<u32>,
    /// All equality edges with resolved slots (seed-prelude checks).
    pub eq_pairs: Vec<EqPair>,
    /// `true` when some constant filter's value is absent from the
    /// dictionary: no indexed row carries it, so the rule has no valuations
    /// in this dataset (seeded or not).
    pub dead: bool,
    /// Number of tuple variables.
    pub num_vars: usize,
}

impl RuleProgram {
    /// Compile `plan` against `dataset`, building (and interning into) any
    /// missing indexes in `indexes`.
    ///
    /// The join order is greedy over static cardinalities: constant
    /// postings length beats an edge probe's expected bucket size beats a
    /// full scan; among probes, smaller wins. The order is chosen once here
    /// — never re-scored during enumeration.
    pub fn compile(plan: &CompiledRule, dataset: &Dataset, indexes: &mut IndexSet) -> RuleProgram {
        let n = plan.num_vars();
        let mut dead = false;

        // Resolve every index the rule can touch up front; evaluation then
        // runs against `&IndexSet`.
        let mut consts: Vec<Vec<ConstProbe>> = vec![Vec::new(); n];
        for (v, filters) in plan.const_filters.iter().enumerate() {
            for (attr, value) in filters {
                let slot = indexes.slot_of(dataset, plan.atoms[v], *attr);
                let code = match indexes.code_of(value) {
                    Some(c) => c,
                    None => {
                        dead = true;
                        ValueDict::NULL
                    }
                };
                consts[v].push(ConstProbe { slot, code });
            }
        }
        let mut eq_pairs = Vec::with_capacity(plan.eq_edges.len());
        for e in &plan.eq_edges {
            let lv = e.left.0 .0;
            let rv = e.right.0 .0;
            eq_pairs.push(EqPair {
                left_var: lv,
                left_slot: indexes.slot_of(dataset, plan.atoms[lv as usize], e.left.1),
                right_var: rv,
                right_slot: indexes.slot_of(dataset, plan.atoms[rv as usize], e.right.1),
            });
        }

        // Greedy static order. Cost is (kind, size): kind 0 = any probe
        // (constant postings use their exact length, edge probes their
        // expected bucket size), kind 1 = scan.
        let mut ordered = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            let mut best: Option<(usize, (u8, u64))> = None;
            for v in 0..n {
                if ordered[v] {
                    continue;
                }
                let mut cost = (1u8, dataset.relation(plan.atoms[v]).len() as u64);
                for c in &consts[v] {
                    let (s, e) = indexes.at(c.slot).bucket_range(c.code);
                    cost = cost.min((0, (e - s) as u64));
                }
                for p in &eq_pairs {
                    let probe_slot = if p.left_var as usize == v && ordered[p.right_var as usize] {
                        Some(p.left_slot)
                    } else if p.right_var as usize == v && ordered[p.left_var as usize] {
                        Some(p.right_slot)
                    } else {
                        None
                    };
                    if let Some(slot) = probe_slot {
                        cost = cost.min((0, indexes.at(slot).avg_bucket() as u64));
                    }
                }
                if best.is_none_or(|(_, c)| cost < c) {
                    best = Some((v, cost));
                }
            }
            let (v, _) = best.expect("an unordered variable remains");
            ordered[v] = true;
            order.push(v);
        }

        // Lower each step's probe options and residual checks.
        let mut step_of_var = vec![0u32; n];
        let mut steps = Vec::with_capacity(n);
        for (pos, &v) in order.iter().enumerate() {
            step_of_var[v] = pos as u32;
            let mut edges = Vec::new();
            let mut eq_checks = Vec::new();
            for p in &eq_pairs {
                if p.left_var as usize == v {
                    eq_checks.push(EqCheck {
                        slot: p.left_slot,
                        other_var: p.right_var,
                        other_slot: p.right_slot,
                    });
                    if p.right_var as usize != v {
                        edges.push(EdgeProbe {
                            slot: p.left_slot,
                            src_var: p.right_var,
                            src_slot: p.right_slot,
                        });
                    }
                } else if p.right_var as usize == v {
                    eq_checks.push(EqCheck {
                        slot: p.right_slot,
                        other_var: p.left_var,
                        other_slot: p.left_slot,
                    });
                    edges.push(EdgeProbe {
                        slot: p.right_slot,
                        src_var: p.left_var,
                        src_slot: p.left_slot,
                    });
                }
            }
            let rec_checks = plan
                .rec_preds
                .iter()
                .enumerate()
                .filter(|(_, p)| {
                    let (l, r) = p.vars();
                    l.0 as usize == v || r.0 as usize == v
                })
                .map(|(i, _)| i as u16)
                .collect();
            let mut sigs = Vec::new();
            for (pred, keys) in plan.rec_preds.iter().zip(&plan.sig_keys) {
                let (RecPred::Ml { left, right, .. }, Some(keys)) = (pred, keys) else {
                    continue;
                };
                let (l, r) = (left.0 as usize, right.0 as usize);
                let (this, src, attrs, src_attrs) = match (l == v, r == v) {
                    (false, true) => (r, l, &keys.right_attrs, &keys.left_attrs),
                    (true, false) => (l, r, &keys.left_attrs, &keys.right_attrs),
                    _ => continue,
                };
                // The first equality edge between the two variables blocks
                // the index: (this side's attribute, the other's slot).
                let block = plan.eq_edges.iter().zip(&eq_pairs).find_map(|(e, p)| {
                    let (lv, rv) = (p.left_var as usize, p.right_var as usize);
                    if (lv, rv) == (this, src) {
                        Some((e.left.1, p.right_slot))
                    } else if (lv, rv) == (src, this) {
                        Some((e.right.1, p.left_slot))
                    } else {
                        None
                    }
                });
                sigs.push(SigProbe {
                    slot: indexes.sig_slot_of(
                        dataset,
                        plan.atoms[this],
                        attrs,
                        u32::from(keys.model),
                        &keys.scheme,
                        block.map(|(attr, _)| attr),
                    ),
                    src_var: src as u16,
                    src_rel: plan.atoms[src],
                    src_attrs: src_attrs.clone(),
                    src_block_slot: block.map(|(_, slot)| slot),
                });
            }
            steps.push(Step {
                var: v as u16,
                rel: plan.atoms[v],
                consts: std::mem::take(&mut consts[v]),
                edges,
                sigs,
                eq_checks,
                rec_checks,
            });
        }

        RuleProgram { steps, step_of_var, eq_pairs, dead, num_vars: n }
    }

    /// Step index binding `var`.
    pub fn step_of(&self, var: TupleVar) -> usize {
        self.step_of_var[var.0 as usize] as usize
    }

    /// Re-sort every step's recursive checks by `rank` (ascending — run
    /// the cheapest-and-most-selective predicates first, so their prunes
    /// short-circuit the expensive ones). Ties keep plan order, making the
    /// result deterministic for any rank function; the engine feeds
    /// observed selectivity × model cost and refreshes once per `Deduce`
    /// round, so every window width of the same program sees identical
    /// predicate streams.
    pub fn reorder_rec_checks(&mut self, rank: impl Fn(u16) -> f64) {
        for step in &mut self.steps {
            if step.rec_checks.len() > 1 {
                step.rec_checks.sort_by(|&a, &b| {
                    rank(a)
                        .partial_cmp(&rank(b))
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.cmp(&b))
                });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::MlSigTable;
    use dcer_relation::{Catalog, RelationSchema, Value, ValueType};
    use std::sync::Arc;

    fn setup() -> (Dataset, Vec<CompiledRule>) {
        let cat = Arc::new(
            Catalog::from_schemas(vec![
                RelationSchema::of("R", &[("k", ValueType::Str), ("v", ValueType::Str)]),
                RelationSchema::of("S", &[("k", ValueType::Str), ("w", ValueType::Str)]),
            ])
            .unwrap(),
        );
        let mut d = Dataset::new(cat);
        d.insert(0, vec!["a".into(), "r0".into()]).unwrap();
        d.insert(0, vec!["b".into(), "r1".into()]).unwrap();
        d.insert(1, vec!["a".into(), "s0".into()]).unwrap();
        d.insert(1, vec![Value::Null, "s1".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            d.catalog(),
            r#"match j: R(t), S(s), t.k = s.k -> dummy(t.k, s.k);
               match c: R(t), S(s), t.k = s.k, t.v = "zzz" -> dummy(t.k, s.k);
               match f: R(t), S(s), t.k = s.k, t.v = "r1" -> dummy(t.k, s.k)"#,
        )
        .unwrap();
        let sigs = MlSigTable::build(&rules);
        (d, CompiledRule::compile_all(&rules, &sigs))
    }

    #[test]
    fn compile_orders_every_variable_once() {
        let (d, plans) = setup();
        let mut idx = IndexSet::new();
        let prog = RuleProgram::compile(&plans[0], &d, &mut idx);
        assert_eq!(prog.steps.len(), 2);
        assert!(!prog.dead);
        let mut vars: Vec<u16> = prog.steps.iter().map(|s| s.var).collect();
        vars.sort_unstable();
        assert_eq!(vars, vec![0, 1]);
        assert_eq!(prog.steps[prog.step_of(TupleVar(0))].var, 0);
        // The equality edge is a probe option on both endpoints' steps and
        // a check on both (it fires at the later-bound end).
        assert!(prog.steps.iter().all(|s| s.edges.len() == 1 && s.eq_checks.len() == 1));
    }

    #[test]
    fn absent_constant_marks_program_dead() {
        let (d, plans) = setup();
        let mut idx = IndexSet::new();
        assert!(RuleProgram::compile(&plans[1], &d, &mut idx).dead, "\"zzz\" appears nowhere");
        assert!(!RuleProgram::compile(&plans[2], &d, &mut idx).dead, "\"r1\" is a live constant");
    }

    #[test]
    fn reorder_rec_checks_sorts_by_rank_with_stable_ties() {
        let (d, _) = setup();
        let rules = dcer_mrl::parse_rules(
            d.catalog(),
            "match j: R(t), S(s), m(t.k, s.k), n(t.v, s.w), m(t.v, s.w) -> dummy(t.k, s.k)",
        )
        .unwrap();
        let sigs = MlSigTable::build(&rules);
        let plan = CompiledRule::compile(&rules, &sigs, 0);
        let mut idx = IndexSet::new();
        let mut prog = RuleProgram::compile(&plan, &d, &mut idx);
        let step = prog.steps.iter().position(|s| s.rec_checks.len() == 3).unwrap();
        assert_eq!(prog.steps[step].rec_checks, vec![0, 1, 2], "compile order is plan order");
        // Rank pred 2 cheapest, 0 and 1 tied: ties keep plan order.
        prog.reorder_rec_checks(|pi| if pi == 2 { 1.0 } else { f64::INFINITY });
        assert_eq!(prog.steps[step].rec_checks, vec![2, 0, 1]);
        // The result is a pure function of the rank, not of the current
        // order: a constant rank restores canonical plan order.
        prog.reorder_rec_checks(|_| 1.0);
        assert_eq!(prog.steps[step].rec_checks, vec![0, 1, 2]);
    }

    #[test]
    fn constant_filter_leads_the_join_order() {
        let (d, plans) = setup();
        let mut idx = IndexSet::new();
        let prog = RuleProgram::compile(&plans[2], &d, &mut idx);
        // t.v = "r1" has a 1-row postings list; the scan-only alternative
        // for s is costlier, so t must come first.
        assert_eq!(prog.steps[0].var, 0);
        assert_eq!(prog.steps[0].consts.len(), 1);
    }
}
