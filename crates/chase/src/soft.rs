//! Soft rules — the paper's first future-work item ("extend MRLs to soft
//! rules that return the probability of ER").
//!
//! The boolean chase treats every deduced match as certain. The *soft chase*
//! instead assigns each fact a confidence in `(0, 1]` and propagates it
//! through derivations:
//!
//! - an ML predicate contributes its classifier **probability** (not its
//!   thresholded decision),
//! - equality and constant predicates contribute 1,
//! - a rule firing scores its head as
//!   `min(confidences of all body id/ML facts, probabilities of all body ML
//!   predicates)` — the weakest link of the derivation,
//! - a fact's confidence is the **max over all derivations** (best proof
//!   wins), seeded with 1 for the reflexive facts.
//!
//! The fixpoint exists and is unique: confidences are drawn from the finite
//! set of products of observed probabilities, updates are monotone
//! (max-of-min), and the iteration is a standard fixed point over a complete
//! lattice — the soft analogue of the Church–Rosser argument. Facts below
//! `min_confidence` are dropped, which makes the soft chase *non-monotone
//! in the threshold* but deterministic for a fixed one.
//!
//! The implementation deliberately reuses the boolean engine's compiled
//! plans and enumerator; it runs the fixpoint by repeated full rounds
//! (naive-chase style), which is the right trade-off for the ranked-output
//! use case: you run it once at the end, on the tuples you care about.

use crate::eval::{enumerate_with_program, EvalScratch, ValuationSink};
use crate::facts::MlSigTable;
use crate::plan::{CompiledHead, CompiledRule, RecPred};
use crate::program::RuleProgram;
use dcer_ml::MlRegistry;
use dcer_mrl::RuleSet;
use dcer_relation::{Dataset, IndexSet, Tid, Tuple};
use std::collections::HashMap;

/// A scored fact key: id match or validated ML prediction, canonical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SoftFact {
    /// Match between two entities.
    Id(Tid, Tid),
    /// Validated prediction of a signature on a pair.
    Ml(u16, Tid, Tid),
}

impl SoftFact {
    fn id(a: Tid, b: Tid) -> SoftFact {
        if a <= b {
            SoftFact::Id(a, b)
        } else {
            SoftFact::Id(b, a)
        }
    }
    fn ml(sig: u16, a: Tid, b: Tid, symmetric: bool) -> SoftFact {
        if symmetric && b < a {
            SoftFact::Ml(sig, b, a)
        } else {
            SoftFact::Ml(sig, a, b)
        }
    }
}

/// Result of a soft chase: confidences per fact.
#[derive(Debug, Default)]
pub struct SoftOutcome {
    /// Fact → best-derivation confidence (≥ the run's `min_confidence`).
    pub confidence: HashMap<SoftFact, f64>,
    /// Rounds until the fixpoint.
    pub rounds: usize,
}

impl SoftOutcome {
    /// Confidence of a match (reflexive pairs score 1).
    pub fn match_confidence(&self, a: Tid, b: Tid) -> f64 {
        if a == b {
            return 1.0;
        }
        self.confidence.get(&SoftFact::id(a, b)).copied().unwrap_or(0.0)
    }

    /// Matches sorted by descending confidence — the ranked output the
    /// paper's future-work remark asks for.
    pub fn ranked_matches(&self) -> Vec<(Tid, Tid, f64)> {
        let mut out: Vec<(Tid, Tid, f64)> = self
            .confidence
            .iter()
            .filter_map(|(f, &c)| match f {
                SoftFact::Id(a, b) => Some((*a, *b, c)),
                SoftFact::Ml(..) => None,
            })
            .collect();
        out.sort_by(|x, y| y.2.partial_cmp(&x.2).unwrap().then(x.0.cmp(&y.0)).then(x.1.cmp(&y.1)));
        out
    }
}

/// Probability-returning oracle with a memo (the soft counterpart of the
/// boolean [`MlOracle`]).
struct ProbOracle {
    models: Vec<std::sync::Arc<dyn dcer_ml::MlModel>>,
    memo: HashMap<(u16, Tid, Tid), f64>,
}

impl ProbOracle {
    fn new(rules: &RuleSet, registry: &MlRegistry) -> Result<ProbOracle, String> {
        let mut models = Vec::new();
        for name in rules.model_names() {
            models.push(
                registry
                    .get(name)
                    .ok_or_else(|| format!("ML model `{name}` not registered"))?
                    .clone(),
            );
        }
        Ok(ProbOracle { models, memo: HashMap::new() })
    }

    fn probability(&mut self, table: &MlSigTable, sig_id: u16, l: &Tuple, r: &Tuple) -> f64 {
        let sig = table.sig(sig_id);
        let key = if sig.is_symmetric() && r.tid < l.tid {
            (sig_id, r.tid, l.tid)
        } else {
            (sig_id, l.tid, r.tid)
        };
        if let Some(&p) = self.memo.get(&key) {
            return p;
        }
        let (a, b) = if key.1 == l.tid { (l, r) } else { (r, l) };
        let lv: Vec<_> = sig.left.1.iter().map(|&x| a.get(x).clone()).collect();
        let rv: Vec<_> = sig.right.1.iter().map(|&x| b.get(x).clone()).collect();
        let p = self.models[sig.model as usize].probability(&lv, &rv).clamp(0.0, 1.0);
        self.memo.insert(key, p);
        p
    }
}

/// Run the soft chase to its confidence fixpoint.
///
/// `min_confidence` prunes derivations as soon as their weakest link drops
/// below it (so it also bounds the work); the returned facts all score at
/// least it.
pub fn soft_chase(
    dataset: &Dataset,
    rules: &RuleSet,
    registry: &MlRegistry,
    min_confidence: f64,
) -> Result<SoftOutcome, String> {
    let sigs = MlSigTable::build(rules);
    let plans = CompiledRule::compile_all(rules, &sigs);
    let mut oracle = ProbOracle::new(rules, registry)?;
    let mut indexes = IndexSet::new();
    let mut confidence: HashMap<SoftFact, f64> = HashMap::new();
    let min_confidence = min_confidence.clamp(f64::MIN_POSITIVE, 1.0);

    // The data never changes during the fixpoint, so each plan's access
    // program is compiled exactly once and reused every round.
    let programs: Vec<RuleProgram> =
        plans.iter().map(|p| RuleProgram::compile(p, dataset, &mut indexes)).collect();
    let mut scratch = EvalScratch::new();

    let mut rounds = 0;
    loop {
        rounds += 1;
        let mut changed = false;
        for (plan, program) in plans.iter().zip(&programs) {
            let mut sink = SoftSink {
                plan,
                dataset,
                sigs: &sigs,
                oracle: &mut oracle,
                confidence: &mut confidence,
                min_confidence,
                changed: &mut changed,
            };
            // Width 1: `prune_rec` reads confidences `visit` raises mid-round.
            enumerate_with_program(
                program,
                plan,
                dataset,
                &indexes,
                &[],
                &mut scratch,
                &mut sink,
                1,
            );
        }
        if !changed {
            break;
        }
        // Safety valve: confidences only increase and are bounded by the
        // finite set of classifier outputs, so this terminates; the valve
        // guards against pathological float behaviour.
        if rounds > 64 {
            break;
        }
    }
    Ok(SoftOutcome { confidence, rounds })
}

struct SoftSink<'a> {
    plan: &'a CompiledRule,
    dataset: &'a Dataset,
    sigs: &'a MlSigTable,
    oracle: &'a mut ProbOracle,
    confidence: &'a mut HashMap<SoftFact, f64>,
    min_confidence: f64,
    changed: &'a mut bool,
}

impl SoftSink<'_> {
    fn tuple(&self, v: dcer_mrl::TupleVar, rows: &[u32]) -> &Tuple {
        &self.dataset.relation(self.plan.atoms[v.0 as usize]).tuples()[rows[v.0 as usize] as usize]
    }

    fn id_confidence(&self, a: Tid, b: Tid) -> f64 {
        if a == b {
            return 1.0;
        }
        self.confidence.get(&SoftFact::id(a, b)).copied().unwrap_or(0.0)
    }
}

impl ValuationSink for SoftSink<'_> {
    fn prune_rec(&mut self, pred: &RecPred, left: &Tuple, right: &Tuple) -> bool {
        // Prune branches whose weakest link is already below threshold.
        let score = match *pred {
            RecPred::Id { .. } => self.id_confidence(left.tid, right.tid),
            RecPred::Ml { sig, symmetric, .. } => {
                let validated = self
                    .confidence
                    .get(&SoftFact::ml(sig, left.tid, right.tid, symmetric))
                    .copied()
                    .unwrap_or(0.0);
                validated.max(self.oracle.probability(self.sigs, sig, left, right))
            }
        };
        score < self.min_confidence
    }

    fn visit(&mut self, rows: &[u32]) {
        // Derivation confidence: min over recursive predicates.
        let mut conf: f64 = 1.0;
        for p in &self.plan.rec_preds {
            let (l, r) = p.vars();
            let (lt, rt) = (self.tuple(l, rows).clone(), self.tuple(r, rows).clone());
            let score = match *p {
                RecPred::Id { .. } => self.id_confidence(lt.tid, rt.tid),
                RecPred::Ml { sig, symmetric, .. } => {
                    let validated = self
                        .confidence
                        .get(&SoftFact::ml(sig, lt.tid, rt.tid, symmetric))
                        .copied()
                        .unwrap_or(0.0);
                    validated.max(self.oracle.probability(self.sigs, sig, &lt, &rt))
                }
            };
            conf = conf.min(score);
            if conf < self.min_confidence {
                return;
            }
        }
        let (key, _symmetric) = match self.plan.head {
            CompiledHead::Id(l, r) => {
                let (a, b) = (self.tuple(l, rows).tid, self.tuple(r, rows).tid);
                if a == b {
                    return;
                }
                (SoftFact::id(a, b), true)
            }
            CompiledHead::Ml { sig, left, right, symmetric } => {
                let (a, b) = (self.tuple(left, rows).tid, self.tuple(right, rows).tid);
                if a == b {
                    return;
                }
                (SoftFact::ml(sig, a, b, symmetric), symmetric)
            }
        };
        let entry = self.confidence.entry(key).or_insert(0.0);
        if conf > *entry + 1e-12 {
            *entry = conf;
            *self.changed = true;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_ml::{MlModel, MlRegistry};
    use dcer_relation::{Catalog, RelationSchema, Value, ValueType};
    use std::sync::Arc;

    /// A classifier with a fixed probability per left-value prefix, so
    /// tests control the probabilities exactly.
    struct Table(Vec<(&'static str, f64)>);
    impl MlModel for Table {
        fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
            let key = format!("{}|{}", left[0], right[0]);
            let rkey = format!("{}|{}", right[0], left[0]);
            self.0.iter().find(|(k, _)| *k == key || *k == rkey).map(|(_, p)| *p).unwrap_or(0.0)
        }
    }

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
    fn ml_probability_becomes_match_confidence() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["ka".into(), "x".into()]).unwrap();
        let b = d.insert(0, vec!["kb".into(), "x".into()]).unwrap();
        let c = d.insert(0, vec!["kc".into(), "x".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match r: R(t), R(s), t.x = s.x, m(t.k, s.k) -> t.id = s.id",
        )
        .unwrap();
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(Table(vec![("ka|kb", 0.9), ("kb|kc", 0.6)])));
        let out = soft_chase(&d, &rules, &reg, 0.5).unwrap();
        assert!((out.match_confidence(a, b) - 0.9).abs() < 1e-9);
        assert!((out.match_confidence(b, c) - 0.6).abs() < 1e-9);
        // (a, c) has no direct derivation and no transitive rule: absent.
        assert_eq!(out.match_confidence(a, c), 0.0);
        let ranked = out.ranked_matches();
        assert_eq!(ranked[0].2, 0.9);
        assert_eq!(ranked[1].2, 0.6);
    }

    #[test]
    fn recursion_takes_the_weakest_link() {
        // base scores pairs by ML; step propagates through id matches, so
        // the derived match's confidence is the min along the chain.
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["ka".into(), "x1".into()]).unwrap();
        let b = d.insert(0, vec!["kb".into(), "x1".into()]).unwrap();
        let c = d.insert(0, vec!["kc".into(), "x2".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            r#"match base: R(t), R(s), t.x = s.x, m(t.k, s.k) -> t.id = s.id;
               match step: R(t), R(s), R(u), t.id = s.id, mstep(s.k, u.k) -> t.id = u.id"#,
        )
        .unwrap();
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(Table(vec![("ka|kb", 0.8)])));
        reg.register("mstep", Arc::new(Table(vec![("kb|kc", 0.7)])));
        let out = soft_chase(&d, &rules, &reg, 0.1).unwrap();
        assert!((out.match_confidence(a, b) - 0.8).abs() < 1e-9);
        // a~c derived from a~b (0.8) and mstep(b,c) (0.7): min = 0.7.
        assert!((out.match_confidence(a, c) - 0.7).abs() < 1e-9, "{}", out.match_confidence(a, c));
        assert!(out.rounds >= 2);
    }

    #[test]
    fn best_derivation_wins() {
        // Two derivations for the same pair: direct (0.6) and via a
        // stronger chain (0.9 then 0.85) -> confidence 0.85.
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["ka".into(), "x".into()]).unwrap();
        let b = d.insert(0, vec!["kb".into(), "x".into()]).unwrap();
        let c = d.insert(0, vec!["kc".into(), "x".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            r#"match base: R(t), R(s), t.x = s.x, m(t.k, s.k) -> t.id = s.id;
               match step: R(t), R(s), R(u), t.id = s.id, m(s.k, u.k) -> t.id = u.id"#,
        )
        .unwrap();
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(Table(vec![("ka|kc", 0.6), ("ka|kb", 0.9), ("kb|kc", 0.85)])));
        let out = soft_chase(&d, &rules, &reg, 0.1).unwrap();
        assert!((out.match_confidence(a, c) - 0.85).abs() < 1e-9);
        let _ = (a, b);
    }

    #[test]
    fn threshold_prunes_low_confidence_derivations() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        let a = d.insert(0, vec!["ka".into(), "x".into()]).unwrap();
        let b = d.insert(0, vec!["kb".into(), "x".into()]).unwrap();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match r: R(t), R(s), t.x = s.x, m(t.k, s.k) -> t.id = s.id",
        )
        .unwrap();
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(Table(vec![("ka|kb", 0.4)])));
        let out = soft_chase(&d, &rules, &reg, 0.5).unwrap();
        assert_eq!(out.match_confidence(a, b), 0.0);
        assert!(out.ranked_matches().is_empty());
    }

    #[test]
    fn boolean_chase_is_the_threshold_projection() {
        // Facts the boolean chase deduces are exactly the soft facts at or
        // above the classifiers' decision thresholds (here: threshold 0.5
        // classifiers and min_confidence 0.5).
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        for (k, x) in [("ka", "x"), ("kb", "x"), ("kc", "x"), ("kd", "y")] {
            d.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match r: R(t), R(s), t.x = s.x, m(t.k, s.k) -> t.id = s.id",
        )
        .unwrap();
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(Table(vec![("ka|kb", 0.9), ("kb|kc", 0.3), ("ka|kc", 0.55)])));
        let soft = soft_chase(&d, &rules, &reg, 0.5).unwrap();
        let hard = crate::naive::naive_chase(&d, &rules, &reg).unwrap();
        let mut hard = hard;
        for (a, b, conf) in soft.ranked_matches() {
            assert!(hard.holds_id(a, b), "soft fact {a}~{b} ({conf}) missing from boolean chase");
        }
        // kb~kc holds in the boolean chase only via transitive closure
        // (ka~kb and ka~kc both fire); kd (different x) never joins.
        assert!(hard.holds_id(Tid::new(0, 1), Tid::new(0, 2)));
        assert!(!hard.holds_id(Tid::new(0, 0), Tid::new(0, 3)));
    }
}
