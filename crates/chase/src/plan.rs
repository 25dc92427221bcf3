//! Rule compilation: MRLs are compiled once into a form the valuation
//! enumerator consumes directly — constant filters pushed to atoms,
//! equality predicates as join edges, and the *recursive* predicates (id and
//! ML, whose truth can grow during the chase) separated out. Binding the
//! models ([`CompiledRule::bind_signatures`]) attaches the certified key
//! scheme of every ML predicate whose false answer is final.

use crate::facts::MlSigTable;
use dcer_mrl::{Consequence, Predicate, Rule, RuleSet, TupleVar};
use dcer_relation::{AttrId, KeyScheme, RelId, Value};
use std::sync::Arc;

/// An instantiatable equality join edge `left.attr = right.attr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EqEdge {
    /// Left occurrence.
    pub left: (TupleVar, AttrId),
    /// Right occurrence.
    pub right: (TupleVar, AttrId),
}

/// A recursive predicate of the precondition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecPred {
    /// `u.id = v.id`.
    Id {
        /// Left variable.
        left: TupleVar,
        /// Right variable.
        right: TupleVar,
    },
    /// `M(u[Ā], v[B̄])`, interned to its signature.
    Ml {
        /// Signature id in the rule set's [`MlSigTable`].
        sig: u16,
        /// Left variable.
        left: TupleVar,
        /// Right variable.
        right: TupleVar,
        /// Whether the signature admits symmetric normalization.
        symmetric: bool,
        /// Whether a false classifier answer can later be overridden by a
        /// validated prediction (the signature appears in some rule head).
        waitable: bool,
    },
}

impl RecPred {
    /// The two variables the predicate connects.
    pub fn vars(&self) -> (TupleVar, TupleVar) {
        match *self {
            RecPred::Id { left, right } | RecPred::Ml { left, right, .. } => (left, right),
        }
    }
}

/// The certified key scheme of one ML predicate occurrence (see
/// [`dcer_ml::MlModel::signatures`]): a pair sharing no key is one the
/// classifier rejects.
#[derive(Clone)]
pub struct SigKeys {
    /// The model's key scheme.
    pub scheme: Arc<dyn KeyScheme>,
    /// The model's index in the rule set — names the scheme to the
    /// [`dcer_relation::IndexSet`].
    pub model: u16,
    /// Attribute vector of the left side.
    pub left_attrs: Vec<AttrId>,
    /// Attribute vector of the right side.
    pub right_attrs: Vec<AttrId>,
}

impl std::fmt::Debug for SigKeys {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigKeys")
            .field("model", &self.model)
            .field("left_attrs", &self.left_attrs)
            .field("right_attrs", &self.right_attrs)
            .finish()
    }
}

/// A compiled consequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompiledHead {
    /// Deduce a match between the two variables' tuples.
    Id(TupleVar, TupleVar),
    /// Validate an ML prediction of the given signature.
    Ml {
        /// Signature id.
        sig: u16,
        /// Left variable.
        left: TupleVar,
        /// Right variable.
        right: TupleVar,
        /// Symmetric-normalization flag of the signature.
        symmetric: bool,
    },
}

/// A rule compiled for evaluation.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// Index of the source rule in the rule set.
    pub rule_idx: usize,
    /// Rule name (diagnostics).
    pub name: String,
    /// Relation per tuple variable.
    pub atoms: Vec<RelId>,
    /// Constant filters per tuple variable.
    pub const_filters: Vec<Vec<(AttrId, Value)>>,
    /// Equality join edges.
    pub eq_edges: Vec<EqEdge>,
    /// Recursive (id / ML) predicates of the precondition.
    pub rec_preds: Vec<RecPred>,
    /// Per entry of `rec_preds`: the certified key scheme of an ML
    /// predicate whose false answer is final, once bound by
    /// [`CompiledRule::bind_signatures`]; `None` otherwise.
    pub sig_keys: Vec<Option<SigKeys>>,
    /// The consequence.
    pub head: CompiledHead,
}

impl CompiledRule {
    /// Compile one rule. `rules` provides model interning; `sigs` must have
    /// been built from the same rule set.
    pub fn compile(rules: &RuleSet, sigs: &MlSigTable, rule_idx: usize) -> CompiledRule {
        let rule: &Rule = &rules.rules()[rule_idx];
        let n = rule.num_vars();
        let mut const_filters: Vec<Vec<(AttrId, Value)>> = vec![Vec::new(); n];
        let mut eq_edges = Vec::new();
        let mut rec_preds = Vec::new();
        for p in &rule.body {
            match p {
                Predicate::ConstEq { var, attr, value } => {
                    const_filters[var.0 as usize].push((*attr, value.clone()));
                }
                Predicate::AttrEq { left, right } => {
                    eq_edges.push(EqEdge { left: *left, right: *right });
                }
                Predicate::IdEq { left, right } => {
                    rec_preds.push(RecPred::Id { left: *left, right: *right });
                }
                Predicate::Ml { model, left, left_attrs, right, right_attrs } => {
                    let sig = sigs
                        .sig_id(
                            rules,
                            model,
                            rule.rel_of(*left),
                            left_attrs,
                            rule.rel_of(*right),
                            right_attrs,
                        )
                        .expect("signature interned at build time");
                    rec_preds.push(RecPred::Ml {
                        sig,
                        left: *left,
                        right: *right,
                        symmetric: sigs.sig(sig).is_symmetric(),
                        waitable: sigs.is_waitable(sig),
                    });
                }
            }
        }
        let head = match &rule.head {
            Consequence::IdEq { left, right } => CompiledHead::Id(*left, *right),
            Consequence::Ml { model, left, left_attrs, right, right_attrs } => {
                let sig = sigs
                    .sig_id(
                        rules,
                        model,
                        rule.rel_of(*left),
                        left_attrs,
                        rule.rel_of(*right),
                        right_attrs,
                    )
                    .expect("head signature interned at build time");
                CompiledHead::Ml {
                    sig,
                    left: *left,
                    right: *right,
                    symmetric: sigs.sig(sig).is_symmetric(),
                }
            }
        };
        CompiledRule {
            rule_idx,
            name: rule.name.clone(),
            atoms: rule.atoms.clone(),
            const_filters,
            eq_edges,
            sig_keys: vec![None; rec_preds.len()],
            rec_preds,
            head,
        }
    }

    /// Attach certified key schemes: `schemes[model]` is the
    /// [`dcer_ml::MlModel::signatures`] of the rule set's model `model`.
    /// Only an ML predicate whose signature no rule head validates gets
    /// one — for a waitable signature a false classifier answer is not
    /// final, so a pair sharing no key may still hold later and must stay
    /// a candidate.
    pub fn bind_signatures(&mut self, sigs: &MlSigTable, schemes: &[Option<Arc<dyn KeyScheme>>]) {
        for (keys, pred) in self.sig_keys.iter_mut().zip(&self.rec_preds) {
            *keys = match *pred {
                RecPred::Ml { sig, waitable: false, .. } => {
                    let s = sigs.sig(sig);
                    schemes[s.model as usize].as_ref().map(|scheme| SigKeys {
                        scheme: Arc::clone(scheme),
                        model: s.model,
                        left_attrs: s.left.1.clone(),
                        right_attrs: s.right.1.clone(),
                    })
                }
                _ => None,
            };
        }
    }

    /// Compile every rule of a set.
    pub fn compile_all(rules: &RuleSet, sigs: &MlSigTable) -> Vec<CompiledRule> {
        (0..rules.len()).map(|i| CompiledRule::compile(rules, sigs, i)).collect()
    }

    /// Number of tuple variables.
    pub fn num_vars(&self) -> usize {
        self.atoms.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_relation::{Catalog, RelationSchema, ValueType};
    use std::sync::Arc;

    fn setup() -> (RuleSet, MlSigTable) {
        let cat = Arc::new(
            Catalog::from_schemas(vec![
                RelationSchema::of(
                    "R",
                    &[("k", ValueType::Str), ("x", ValueType::Str), ("n", ValueType::Int)],
                ),
                RelationSchema::of("S", &[("k", ValueType::Str), ("y", ValueType::Str)]),
            ])
            .unwrap(),
        );
        let rules = dcer_mrl::parse_rules(
            &cat,
            r#"match phi: R(a), R(b), S(c),
                a.k = b.k, b.k = c.k, a.n = 7, a.x = "v",
                m(a.x, b.x), a.id = b.id
                -> m(a.x, b.x);
               match psi: R(a), R(b), m(a.x, b.x) -> a.id = b.id"#,
        )
        .unwrap();
        let sigs = MlSigTable::build(&rules);
        (rules, sigs)
    }

    #[test]
    fn compilation_buckets_predicates() {
        let (rules, sigs) = setup();
        let c = CompiledRule::compile(&rules, &sigs, 0);
        assert_eq!(c.num_vars(), 3);
        assert_eq!(c.eq_edges.len(), 2);
        assert_eq!(c.const_filters[0].len(), 2);
        assert!(c.const_filters[1].is_empty());
        assert_eq!(c.rec_preds.len(), 2);
        match c.head {
            CompiledHead::Ml { symmetric, .. } => assert!(symmetric),
            other => panic!("unexpected head {other:?}"),
        }
    }

    #[test]
    fn shared_signature_between_body_and_head() {
        let (rules, sigs) = setup();
        let phi = CompiledRule::compile(&rules, &sigs, 0);
        let psi = CompiledRule::compile(&rules, &sigs, 1);
        let phi_body_sig = phi
            .rec_preds
            .iter()
            .find_map(|p| match p {
                RecPred::Ml { sig, waitable, .. } => Some((*sig, *waitable)),
                _ => None,
            })
            .unwrap();
        let psi_body_sig = psi
            .rec_preds
            .iter()
            .find_map(|p| match p {
                RecPred::Ml { sig, .. } => Some(*sig),
                _ => None,
            })
            .unwrap();
        assert_eq!(phi_body_sig.0, psi_body_sig, "same (model, attrs) interns once");
        assert!(phi_body_sig.1, "phi's head validates this signature");
    }

    #[test]
    fn nonrecursive_rule_detected() {
        let cat = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of("R", &[("k", ValueType::Str)])]).unwrap(),
        );
        let rules =
            dcer_mrl::parse_rules(&cat, "match a: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let sigs = MlSigTable::build(&rules);
        let c = CompiledRule::compile(&rules, &sigs, 0);
        assert!(c.rec_preds.is_empty());
        assert_eq!(CompiledRule::compile_all(&rules, &sigs).len(), 1);
    }
}
