//! Deduced facts, the chase state `Γ`, ML predicate signatures and the
//! memoizing ML oracle.

use crate::union_find::MatchSet;
use dcer_ml::MlRegistry;
use dcer_mrl::{Consequence, Predicate, RuleSet};
use dcer_relation::{AttrId, RelId, Tid, Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A deduced element of `Γ`: either an id match or a validated ML
/// prediction. Pairs are stored with `first <= second` (canonical form), so
/// facts deduced by different workers compare equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Fact {
    /// `(t.id, s.id)` — the tuples denote the same entity.
    Id(Tid, Tid),
    /// A validated prediction of the ML predicate with this signature
    /// (see [`MlSigTable`]) on the given tuple pair.
    Ml(u16, Tid, Tid),
}

impl Fact {
    /// Canonical id fact.
    pub fn id(a: Tid, b: Tid) -> Fact {
        if a <= b {
            Fact::Id(a, b)
        } else {
            Fact::Id(b, a)
        }
    }

    /// Canonical validated-ML fact. `symmetric` signatures normalize the
    /// pair order; asymmetric ones preserve it.
    pub fn ml(sig: u16, a: Tid, b: Tid, symmetric: bool) -> Fact {
        if symmetric && b < a {
            Fact::Ml(sig, b, a)
        } else {
            Fact::Ml(sig, a, b)
        }
    }

    /// The two tuple identities the fact involves.
    pub fn tids(&self) -> (Tid, Tid) {
        match *self {
            Fact::Id(a, b) | Fact::Ml(_, a, b) => (a, b),
        }
    }

    /// Exact wire size of an id fact: the two tuple ids.
    pub const ID_WIRE_BYTES: usize = 2 * std::mem::size_of::<Tid>();

    /// Exact wire size of a validated-ML fact: the two tuple ids plus the
    /// predicate signature.
    pub const ML_WIRE_BYTES: usize = 2 * std::mem::size_of::<Tid>() + std::mem::size_of::<u16>();

    /// Wire size in bytes (for communication accounting), derived from the
    /// field layouts rather than hardcoded so the cost model tracks the
    /// actual representation.
    pub fn size_bytes(&self) -> usize {
        match self {
            Fact::Id(..) => Fact::ID_WIRE_BYTES,
            Fact::Ml(..) => Fact::ML_WIRE_BYTES,
        }
    }
}

/// The signature of an ML predicate occurrence: model plus the relations and
/// attribute vectors it is applied to. Rules sharing a signature share
/// classifier calls *and* validated predictions.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct MlSig {
    /// Interned model index (into [`RuleSet::model_names`]).
    pub model: u16,
    /// Relation and attribute vector of the left side.
    pub left: (RelId, Vec<AttrId>),
    /// Relation and attribute vector of the right side.
    pub right: (RelId, Vec<AttrId>),
}

impl MlSig {
    /// A signature is symmetric when both sides have the same relation and
    /// attributes; symmetric signatures admit pair-order normalization.
    pub fn is_symmetric(&self) -> bool {
        self.left == self.right
    }
}

/// Interning table for ML predicate signatures across a rule set.
#[derive(Debug, Clone, Default)]
pub struct MlSigTable {
    sigs: Vec<MlSig>,
    index: HashMap<MlSig, u16>,
    /// Signature ids that appear as a rule *head* — predictions of these
    /// signatures can become validated during the chase, so a false
    /// classifier answer for them is not final ("waitable").
    head_sigs: HashSet<u16>,
}

impl MlSigTable {
    /// Build the table from a rule set (body and head ML predicates).
    pub fn build(rules: &RuleSet) -> MlSigTable {
        let mut table = MlSigTable::default();
        for rule in rules.rules() {
            for p in &rule.body {
                if let Predicate::Ml { model, left, left_attrs, right, right_attrs } = p {
                    table.intern(
                        rules,
                        model,
                        rule.rel_of(*left),
                        left_attrs,
                        rule.rel_of(*right),
                        right_attrs,
                    );
                }
            }
            if let Consequence::Ml { model, left, left_attrs, right, right_attrs } = &rule.head {
                let sig = table.intern(
                    rules,
                    model,
                    rule.rel_of(*left),
                    left_attrs,
                    rule.rel_of(*right),
                    right_attrs,
                );
                table.head_sigs.insert(sig);
            }
        }
        table
    }

    fn intern(
        &mut self,
        rules: &RuleSet,
        model: &str,
        rel_l: RelId,
        attrs_l: &[AttrId],
        rel_r: RelId,
        attrs_r: &[AttrId],
    ) -> u16 {
        let sig = MlSig {
            model: rules.model_index(model).expect("validated rule set interns all models"),
            left: (rel_l, attrs_l.to_vec()),
            right: (rel_r, attrs_r.to_vec()),
        };
        if let Some(&i) = self.index.get(&sig) {
            return i;
        }
        let i = self.sigs.len() as u16;
        self.index.insert(sig.clone(), i);
        self.sigs.push(sig);
        i
    }

    /// Look up the id of a signature occurrence.
    pub fn sig_id(
        &self,
        rules: &RuleSet,
        model: &str,
        rel_l: RelId,
        attrs_l: &[AttrId],
        rel_r: RelId,
        attrs_r: &[AttrId],
    ) -> Option<u16> {
        let sig = MlSig {
            model: rules.model_index(model)?,
            left: (rel_l, attrs_l.to_vec()),
            right: (rel_r, attrs_r.to_vec()),
        };
        self.index.get(&sig).copied()
    }

    /// Signature by id.
    pub fn sig(&self, id: u16) -> &MlSig {
        &self.sigs[id as usize]
    }

    /// Number of distinct signatures.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// Whether there are no ML predicates at all.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Whether predictions of this signature can be validated by some rule
    /// head (making a false classifier answer non-final).
    pub fn is_waitable(&self, id: u16) -> bool {
        self.head_sigs.contains(&id)
    }
}

/// The evolving chase state: `E_id` plus validated ML predictions.
#[derive(Debug, Clone, Default)]
pub struct ChaseState {
    /// Id matches with transitive closure.
    pub matches: MatchSet,
    /// Validated ML predictions, in canonical [`Fact`] form.
    pub validated: HashSet<Fact>,
}

impl ChaseState {
    /// Fresh state (Γ reflexive, nothing validated).
    pub fn new() -> ChaseState {
        ChaseState::default()
    }

    /// Apply a fact. Returns `None` if it was already known; for a new id
    /// fact, returns the two pre-merge classes (used for update-driven
    /// re-evaluation); for a new ML fact, returns empty class info.
    pub fn apply(&mut self, fact: Fact) -> Option<(Vec<Tid>, Vec<Tid>)> {
        match fact {
            Fact::Id(a, b) => self.matches.merge(a, b),
            Fact::Ml(..) => {
                if self.validated.insert(fact) {
                    Some((Vec::new(), Vec::new()))
                } else {
                    None
                }
            }
        }
    }

    /// Whether an id fact already holds.
    pub fn holds_id(&mut self, a: Tid, b: Tid) -> bool {
        self.matches.are_matched(a, b)
    }

    /// Whether an ML prediction with this signature is validated for the
    /// pair (canonicalized when symmetric).
    pub fn holds_ml(&self, sig: u16, a: Tid, b: Tid, symmetric: bool) -> bool {
        self.validated.contains(&Fact::ml(sig, a, b, symmetric))
    }

    /// The state as a canonical fact batch: every validated ML prediction
    /// plus one spanning `eq(first, t)` fact per non-trivial cluster member
    /// — the smallest set whose transitive closure rebuilds `E_id`. This is
    /// both the checkpoint wire format (replay through [`ChaseState::apply`]
    /// is idempotent) and what a static deducer announces to peers.
    pub fn to_delta(&mut self) -> crate::DeltaBatch {
        let mut facts: Vec<Fact> = self.validated.iter().copied().collect();
        for cluster in self.matches.clusters() {
            let first = cluster[0];
            for &t in &cluster[1..] {
                facts.push(Fact::id(first, t));
            }
        }
        crate::DeltaBatch::new(facts)
    }
}

/// Miss-batch chunk size for pool-dispatched classifier scoring. Fixed (not
/// derived from pool size) so chunk boundaries — and therefore any
/// per-batch caches inside vectorized models — are identical at every pool
/// size.
const ORACLE_CHUNK: usize = 512;

/// A map keyed on a canonical pair's two rows packed into one word (row of
/// the first tuple high, second low) through [`MemoHasher`]. The memo
/// keeps one per scope-mixed signature, and a signature fixes the relation
/// of each side, so the rows identify the pair.
type MemoMap<V> = HashMap<u64, V, BuildHasherDefault<MemoHasher>>;

/// Fx-style multiplicative hasher for [`MemoMap`] keys: one add-multiply
/// per word, then a rotate so the well-mixed high product bits feed both
/// the bucket index (low bits) and the control tag (top bits).
/// Deterministic — no per-process seed — and a few cycles where SipHash on
/// the same key is the largest single cost of a memo probe. Keys are row
/// numbers the program assigns, not outside input, so collision-resistance
/// buys nothing here.
#[derive(Debug, Default, Clone, Copy)]
struct MemoHasher(u64);

impl MemoHasher {
    const K: u64 = 0xf135_7aea_2e62_a9c5;
}

impl Hasher for MemoHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, word: u64) {
        self.0 = self.0.wrapping_add(word).wrapping_mul(MemoHasher::K);
    }

    fn finish(&self) -> u64 {
        self.0.rotate_left(26)
    }
}

/// `miss_of` marker for a batch position answered straight from the memo.
const MEMO_HIT: u32 = u32::MAX;

/// Memoizing ML oracle: evaluates classifier predicates, caching one boolean
/// per `(signature, tuple pair)` — the paper's inverted index on ML
/// predicates (Section V-A, structure (1b)).
///
/// The probe path costs only the model's kernel: the memo holds one map
/// per scope-mixed signature, keyed on one packed word hashed by an
/// in-tree Fx-style hasher (16 bytes an entry), and every per-batch
/// structure — the pending-miss map, the miss keys, the per-position miss
/// indices and the attribute-vector inputs handed to
/// [`dcer_ml::MlModel::classify_batch`] — is an oracle member reused across
/// calls, so once warmed to a batch width a miss allocates nothing beyond
/// the model's own answer vector and memo growth.
pub struct MlOracle {
    models: Vec<Arc<dyn dcer_ml::MlModel>>,
    /// `(sig ^ scope << 8, answers)`: a handful of partitions, searched
    /// linearly.
    memo: Vec<(u16, MemoMap<bool>)>,
    calls: u64,
    hits: u64,
    /// This batch's pending misses: canonical key → miss index.
    pending: MemoMap<u32>,
    /// Canonical key of each miss, in first-occurrence order.
    miss_keys: Vec<u64>,
    /// Per batch position: the miss index it waits on, or [`MEMO_HIT`].
    miss_of: Vec<u32>,
    /// Classifier inputs, one per miss; `inputs[..miss_keys.len()]` are live
    /// during a batch and cleared (capacity kept) after it.
    inputs: Vec<(Vec<Value>, Vec<Value>)>,
}

impl std::fmt::Debug for MlOracle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MlOracle")
            .field("models", &self.models.len())
            .field("cached", &self.memo_entries())
            .field("calls", &self.calls)
            .field("hits", &self.hits)
            .finish()
    }
}

/// The canonical memo key of a probe, and whether canonicalization swapped
/// its sides (symmetric signatures order the pair by tid).
fn memo_key(left: &Tuple, right: &Tuple, symmetric: bool) -> (u64, bool) {
    let swap = symmetric && right.tid < left.tid;
    let (a, b) = if swap { (right.tid, left.tid) } else { (left.tid, right.tid) };
    ((a.row as u64) << 32 | b.row as u64, swap)
}

/// The memo partition of scope-mixed signature `sig_key`, created empty on
/// first use.
fn partition(memo: &mut Vec<(u16, MemoMap<bool>)>, sig_key: u16) -> &mut MemoMap<bool> {
    let i = match memo.iter().position(|&(k, _)| k == sig_key) {
        Some(i) => i,
        None => {
            memo.push((sig_key, MemoMap::default()));
            memo.len() - 1
        }
    };
    &mut memo[i].1
}

/// Write the attribute vectors of `sig` over `(l, r)` into input `slot`,
/// reusing its buffers (a slot past the end is appended).
fn stage_input(
    inputs: &mut Vec<(Vec<Value>, Vec<Value>)>,
    slot: usize,
    sig: &MlSig,
    l: &Tuple,
    r: &Tuple,
) {
    if slot == inputs.len() {
        inputs.push((Vec::new(), Vec::new()));
    }
    let (lv, rv) = &mut inputs[slot];
    lv.clear();
    rv.clear();
    lv.extend(sig.left.1.iter().map(|&a| l.get(a).clone()));
    rv.extend(sig.right.1.iter().map(|&a| r.get(a).clone()));
}

impl MlOracle {
    /// Bind the rule set's model names against a registry. Fails with the
    /// missing model's name if one is unregistered.
    pub fn new(rules: &RuleSet, registry: &MlRegistry) -> Result<MlOracle, String> {
        let mut models = Vec::with_capacity(rules.model_names().len());
        for name in rules.model_names() {
            let m =
                registry.get(name).ok_or_else(|| format!("ML model `{name}` not registered"))?;
            models.push(m.clone());
        }
        Ok(MlOracle {
            models,
            memo: Vec::new(),
            calls: 0,
            hits: 0,
            pending: MemoMap::default(),
            miss_keys: Vec::new(),
            miss_of: Vec::new(),
            inputs: Vec::new(),
        })
    }

    /// Evaluate the classifier of `sig` on a tuple pair, memoized.
    /// `scope` partitions the memo: with MQO-style sharing every caller
    /// passes 0 (rules with the same signature share results); the
    /// `DMatch_noMQO` baseline passes a per-rule scope, paying for every
    /// rule separately.
    pub fn predict(
        &mut self,
        table: &MlSigTable,
        sig_id: u16,
        left: &Tuple,
        right: &Tuple,
        scope: u16,
    ) -> bool {
        let sig = table.sig(sig_id);
        debug_assert_eq!((left.tid.rel, right.tid.rel), (sig.left.0, sig.right.0));
        let memo = partition(&mut self.memo, sig_id ^ (scope << 8));
        let (key, swap) = memo_key(left, right, sig.is_symmetric());
        if let Some(&v) = memo.get(&key) {
            self.hits += 1;
            return v;
        }
        // Recompute in the canonical orientation so symmetric caching is
        // consistent even for slightly asymmetric model implementations.
        let (l, r) = if swap { (right, left) } else { (left, right) };
        stage_input(&mut self.inputs, 0, sig, l, r);
        let (lv, rv) = &mut self.inputs[0];
        let v = self.models[sig.model as usize].predict(lv, rv);
        lv.clear();
        rv.clear();
        self.calls += 1;
        memo.insert(key, v);
        v
    }

    /// Score a whole batch of candidate pairs for one signature, memoized —
    /// the batch counterpart of [`MlOracle::predict`], with identical
    /// counter semantics for any probe multiset.
    ///
    /// One probe pass partitions the batch: cached keys resolve as hits;
    /// the *first* occurrence of an unseen canonical key becomes a miss;
    /// later duplicates of a pending miss count as hits (the scalar loop
    /// would have inserted the first answer before re-probing). Each
    /// position records the miss it waits on. The misses are then scored
    /// as one [`dcer_ml::MlModel::classify_batch`] call — chunked across
    /// `pool` when large enough, with chunk boundaries independent of pool
    /// size so results are reproducible — inserted into the memo, and read
    /// back out at every waiting position.
    ///
    /// `waitable` semantics live in the caller (a false answer for a
    /// waitable signature defers finality rather than pruning); the oracle
    /// answers identically either way.
    pub fn predict_batch(
        &mut self,
        table: &MlSigTable,
        sig_id: u16,
        pairs: &[(&Tuple, &Tuple)],
        scope: u16,
        pool: Option<&dcer_pool::WorkPool>,
        out: &mut Vec<bool>,
    ) {
        out.clear();
        out.resize(pairs.len(), false);
        let sig = table.sig(sig_id);
        let memo = partition(&mut self.memo, sig_id ^ (scope << 8));
        let symmetric = sig.is_symmetric();
        self.pending.clear();
        self.miss_keys.clear();
        self.miss_of.clear();
        for (i, &(left, right)) in pairs.iter().enumerate() {
            debug_assert_eq!((left.tid.rel, right.tid.rel), (sig.left.0, sig.right.0));
            let (key, swap) = memo_key(left, right, symmetric);
            if let Some(&v) = memo.get(&key) {
                self.hits += 1;
                out[i] = v;
                self.miss_of.push(MEMO_HIT);
                continue;
            }
            let next = self.miss_keys.len() as u32;
            let miss = *self.pending.entry(key).or_insert(next);
            self.miss_of.push(miss);
            if miss != next {
                self.hits += 1;
                continue;
            }
            // Extract attribute vectors in the canonical orientation,
            // exactly as the scalar path recomputes.
            let (l, r) = if swap { (right, left) } else { (left, right) };
            stage_input(&mut self.inputs, next as usize, sig, l, r);
            self.miss_keys.push(key);
        }
        let misses = self.miss_keys.len();
        if misses == 0 {
            return;
        }
        self.calls += misses as u64;
        let inputs = &mut self.inputs[..misses];
        let model = &self.models[sig.model as usize];
        let answers: Vec<bool> = match pool {
            Some(pool) if pool.size() > 1 && misses > ORACLE_CHUNK => {
                let tasks: Vec<_> = inputs
                    .chunks(ORACLE_CHUNK)
                    .map(|chunk| {
                        let model = Arc::clone(model);
                        move || model.classify_batch(chunk)
                    })
                    .collect();
                pool.run(tasks, None).into_iter().flatten().collect()
            }
            _ => model.classify_batch(inputs),
        };
        for (&key, &v) in self.miss_keys.iter().zip(&answers) {
            memo.insert(key, v);
        }
        for (o, &miss) in out.iter_mut().zip(&self.miss_of) {
            if miss != MEMO_HIT {
                *o = answers[miss as usize];
            }
        }
        for (lv, rv) in inputs {
            lv.clear();
            rv.clear();
        }
    }

    /// Each model's certified key scheme
    /// ([`dcer_ml::MlModel::signatures`]), by model index — the input to
    /// [`crate::CompiledRule::bind_signatures`].
    pub fn signature_schemes(&self) -> Vec<Option<Arc<dyn dcer_relation::KeyScheme>>> {
        self.models.iter().map(|m| m.signatures()).collect()
    }

    /// Relative per-prediction cost of the model behind a signature
    /// ([`dcer_ml::MlModel::cost_hint`]) — input to selectivity × cost
    /// predicate ordering.
    pub fn model_cost(&self, table: &MlSigTable, sig_id: u16) -> f64 {
        self.models[table.sig(sig_id).model as usize].cost_hint()
    }

    /// Number of real classifier invocations.
    pub fn calls(&self) -> u64 {
        self.calls
    }

    /// Number of cache hits.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Number of answers held in the memo (it only grows: entries for
    /// deleted tuples are kept, which is the memory they cost).
    pub fn memo_entries(&self) -> usize {
        self.memo.iter().map(|(_, m)| m.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_ml::EqualTextClassifier;
    use dcer_relation::{Catalog, Dataset, RelationSchema, ValueType};

    fn t(row: u32) -> Tid {
        Tid::new(0, row)
    }

    #[test]
    fn fact_canonicalization() {
        assert_eq!(Fact::id(t(2), t(1)), Fact::id(t(1), t(2)));
        assert_eq!(Fact::ml(0, t(2), t(1), true), Fact::ml(0, t(1), t(2), true));
        assert_ne!(Fact::ml(0, t(2), t(1), false), Fact::ml(0, t(1), t(2), false));
    }

    fn setup() -> (Arc<Catalog>, RuleSet) {
        let cat = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of(
                "R",
                &[("a", ValueType::Str), ("b", ValueType::Str)],
            )])
            .unwrap(),
        );
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match r1: R(t), R(s), m(t.a, s.a) -> t.id = s.id;
             match r2: R(t), R(s), t.b = s.b -> m(t.a, s.a);
             match r3: R(t), R(s), m(t.b, s.b) -> t.id = s.id",
        )
        .unwrap();
        (cat, rules)
    }

    #[test]
    fn sig_table_interns_and_tracks_heads() {
        let (_, rules) = setup();
        let table = MlSigTable::build(&rules);
        // m(t.a, s.a) shared by r1 body and r2 head; m(t.b, s.b) in r3 body.
        assert_eq!(table.len(), 2);
        let sig_a = table.sig_id(&rules, "m", 0, &[0], 0, &[0]).unwrap();
        let sig_b = table.sig_id(&rules, "m", 0, &[1], 0, &[1]).unwrap();
        assert!(table.is_waitable(sig_a), "validated by r2's head");
        assert!(!table.is_waitable(sig_b));
        assert!(table.sig(sig_a).is_symmetric());
    }

    #[test]
    fn state_apply_dedups() {
        let mut st = ChaseState::new();
        assert!(st.apply(Fact::id(t(1), t(2))).is_some());
        assert!(st.apply(Fact::id(t(2), t(1))).is_none());
        assert!(st.apply(Fact::Ml(0, t(1), t(2))).is_some());
        assert!(st.apply(Fact::Ml(0, t(1), t(2))).is_none());
        assert!(st.holds_id(t(1), t(2)));
        assert!(st.holds_ml(0, t(2), t(1), true));
        assert!(!st.holds_ml(0, t(2), t(1), false));
        assert_eq!((st.matches.num_pairs(), st.validated.len()), (1, 1));
    }

    #[test]
    fn oracle_caches_symmetrically() {
        let (cat, rules) = setup();
        let table = MlSigTable::build(&rules);
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(EqualTextClassifier));
        let mut oracle = MlOracle::new(&rules, &reg).unwrap();

        let mut ds = Dataset::new(cat);
        let a = ds.insert(0, vec!["x".into(), "y".into()]).unwrap();
        let b = ds.insert(0, vec!["x".into(), "z".into()]).unwrap();
        let (ta, tb) = (ds.tuple(a).unwrap().clone(), ds.tuple(b).unwrap().clone());
        let sig = table.sig_id(&rules, "m", 0, &[0], 0, &[0]).unwrap();
        assert!(oracle.predict(&table, sig, &ta, &tb, 0));
        assert!(oracle.predict(&table, sig, &tb, &ta, 0));
        // A different scope is a separate memo partition.
        assert!(oracle.predict(&table, sig, &ta, &tb, 1));
        assert_eq!(oracle.calls(), 2);
        assert_eq!(oracle.hits(), 1);
    }

    #[test]
    fn oracle_reports_missing_model() {
        let (_, rules) = setup();
        let reg = MlRegistry::new();
        assert!(MlOracle::new(&rules, &reg).unwrap_err().contains('m'));
    }

    /// Shared fixture for the batch tests: oracle + sig table + a handful
    /// of R(a, b) tuples with colliding `a` values.
    fn batch_setup() -> (RuleSet, MlSigTable, MlOracle, Vec<Tuple>) {
        let (cat, rules) = setup();
        let table = MlSigTable::build(&rules);
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(EqualTextClassifier));
        let oracle = MlOracle::new(&rules, &reg).unwrap();
        let mut ds = Dataset::new(cat);
        let texts = ["x", "x", "y", "z", "x"];
        let tuples: Vec<Tuple> = texts
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let tid = ds.insert(0, vec![(*a).into(), format!("b{i}").into()]).unwrap();
                ds.tuple(tid).unwrap().clone()
            })
            .collect();
        (rules, table, oracle, tuples)
    }

    /// A batch with duplicate pairs, symmetric flips and already-memoized
    /// pairs spends exactly one classifier call per distinct unordered
    /// pair; everything else is a hit.
    #[test]
    fn batch_dedups_duplicates_symmetric_and_memoized_pairs() {
        let (rules, table, mut oracle, ts) = batch_setup();
        let sig = table.sig_id(&rules, "m", 0, &[0], 0, &[0]).unwrap();
        assert!(table.sig(sig).is_symmetric());

        // Pre-memoize (t0, t1) through the scalar path.
        assert!(oracle.predict(&table, sig, &ts[0], &ts[1], 0));
        assert_eq!((oracle.calls(), oracle.hits()), (1, 0));

        // Batch: a memoized pair, its symmetric flip, a fresh pair twice
        // (once flipped), and one more fresh pair. Distinct unordered
        // fresh pairs: {t2,t3} and {t0,t4} -> exactly 2 new calls.
        let pairs: Vec<(&Tuple, &Tuple)> = vec![
            (&ts[0], &ts[1]), // memo hit
            (&ts[1], &ts[0]), // memo hit (symmetric canonical key)
            (&ts[2], &ts[3]), // miss
            (&ts[3], &ts[2]), // duplicate of the pending miss -> hit
            (&ts[2], &ts[3]), // duplicate again -> hit
            (&ts[0], &ts[4]), // miss
        ];
        let mut got = Vec::new();
        oracle.predict_batch(&table, sig, &pairs, 0, None, &mut got);
        assert_eq!(got, vec![true, true, false, false, false, true]);
        assert_eq!(oracle.calls(), 3, "one call per distinct unordered pair");
        assert_eq!(oracle.hits(), 4, "6 probes - 2 fresh misses = 4 hits");

        // Scalar re-probes of everything the batch computed are pure hits.
        assert!(!oracle.predict(&table, sig, &ts[3], &ts[2], 0));
        assert_eq!((oracle.calls(), oracle.hits()), (3, 5));
    }

    /// Batch and scalar agree on answers *and* counters for the same probe
    /// multiset, including asymmetric signatures and separate memo scopes.
    #[test]
    fn batch_counters_match_scalar_for_same_multiset() {
        let (rules, table, mut batch_oracle, ts) = batch_setup();
        let (_, _, mut scalar_oracle, _) = batch_setup();
        let sig_a = table.sig_id(&rules, "m", 0, &[0], 0, &[0]).unwrap();
        let sig_b = table.sig_id(&rules, "m", 0, &[1], 0, &[1]).unwrap();
        for sig in [sig_a, sig_b] {
            for scope in [0u16, 3] {
                let mut pairs: Vec<(&Tuple, &Tuple)> = Vec::new();
                for l in &ts {
                    for r in &ts {
                        pairs.push((l, r));
                        if l.tid.row % 2 == 0 {
                            pairs.push((r, l));
                        }
                    }
                }
                let scalar: Vec<bool> = pairs
                    .iter()
                    .map(|&(l, r)| scalar_oracle.predict(&table, sig, l, r, scope))
                    .collect();
                let mut batch = Vec::new();
                batch_oracle.predict_batch(&table, sig, &pairs, scope, None, &mut batch);
                assert_eq!(batch, scalar);
                assert_eq!(batch_oracle.calls(), scalar_oracle.calls());
                assert_eq!(batch_oracle.hits(), scalar_oracle.hits());
            }
        }
    }

    /// Pool-dispatched scoring (miss count above the chunk size) returns
    /// the same answers and counters as inline scoring.
    #[test]
    fn pooled_batch_matches_inline_batch() {
        let (cat, rules) = setup();
        let table = MlSigTable::build(&rules);
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(EqualTextClassifier));
        let mut inline_oracle = MlOracle::new(&rules, &reg).unwrap();
        let mut pooled_oracle = MlOracle::new(&rules, &reg).unwrap();
        let mut ds = Dataset::new(cat);
        let tuples: Vec<Tuple> = (0..40)
            .map(|i| {
                let tid = ds
                    .insert(0, vec![format!("a{}", i % 7).into(), format!("b{i}").into()])
                    .unwrap();
                ds.tuple(tid).unwrap().clone()
            })
            .collect();
        let sig = table.sig_id(&rules, "m", 0, &[0], 0, &[0]).unwrap();
        // 40 x 40 = 1600 probes, 820 distinct unordered pairs > ORACLE_CHUNK.
        let pairs: Vec<(&Tuple, &Tuple)> =
            tuples.iter().flat_map(|l| tuples.iter().map(move |r| (l, r))).collect();
        let pool = dcer_pool::WorkPool::new(4);
        let (mut inline_out, mut pooled_out) = (Vec::new(), Vec::new());
        inline_oracle.predict_batch(&table, sig, &pairs, 0, None, &mut inline_out);
        pooled_oracle.predict_batch(&table, sig, &pairs, 0, Some(&pool), &mut pooled_out);
        assert_eq!(inline_out, pooled_out);
        assert_eq!(inline_oracle.calls(), pooled_oracle.calls());
        assert_eq!(inline_oracle.hits(), pooled_oracle.hits());
        assert_eq!(inline_oracle.calls(), 820);
    }

    /// Order-sensitive stand-in model: fires when the left side's text
    /// sorts before the right side's.
    struct TextBefore;

    impl dcer_ml::MlModel for TextBefore {
        fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
            f64::from(dcer_ml::values_to_text(left) < dcer_ml::values_to_text(right))
        }
    }

    /// Multi-attribute signatures stage every attribute of each side, in
    /// signature order and canonical orientation, through the reused input
    /// buffers — across windows of different widths with scalar probes in
    /// between.
    #[test]
    fn batch_stages_multi_attribute_sides() {
        let (cat, _) = setup();
        let rules = dcer_mrl::parse_rules(
            &cat,
            "match r1: R(t), R(s), m(t[a, b], s[a, b]) -> t.id = s.id;
             match r2: R(t), R(s), m(t[a, b], s[b, a]) -> t.id = s.id",
        )
        .unwrap();
        let table = MlSigTable::build(&rules);
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(TextBefore));
        let mut ds = Dataset::new(cat);
        let tuples: Vec<Tuple> = [("x", "y"), ("x", "y"), ("y", "x"), ("x", "z"), ("z", "w")]
            .iter()
            .map(|&(a, b)| {
                let tid = ds.insert(0, vec![a.into(), b.into()]).unwrap();
                ds.tuple(tid).unwrap().clone()
            })
            .collect();
        let pairs: Vec<(&Tuple, &Tuple)> =
            tuples.iter().flat_map(|l| tuples.iter().map(move |r| (l, r))).collect();
        for (right_attrs, symmetric) in [([0, 1], true), ([1, 0], false)] {
            let sig = table.sig_id(&rules, "m", 0, &[0, 1], 0, &right_attrs).unwrap();
            assert_eq!(table.sig(sig).is_symmetric(), symmetric);
            let want = |l: &Tuple, r: &Tuple| {
                let (l, r) = if symmetric && r.tid < l.tid { (r, l) } else { (l, r) };
                let lv = [l.get(0).clone(), l.get(1).clone()];
                let rv = right_attrs.map(|a| r.get(a).clone());
                dcer_ml::MlModel::predict(&TextBefore, &lv, &rv)
            };
            let mut oracle = MlOracle::new(&rules, &reg).unwrap();
            let mut got = Vec::new();
            let (mut at, mut probes) = (0, 0);
            for width in [3, 11, pairs.len()] {
                let window = &pairs[at..(at + width).min(pairs.len())];
                oracle.predict_batch(&table, sig, window, 0, None, &mut got);
                let expect: Vec<bool> = window.iter().map(|&(l, r)| want(l, r)).collect();
                assert_eq!(got, expect, "window at {at}, width {width}");
                let (l, r) = pairs[at];
                assert_eq!(oracle.predict(&table, sig, r, l, 0), want(r, l));
                probes += window.len() as u64 + 1;
                at += window.len();
            }
            assert!(got.contains(&true) && got.contains(&false));
            // One call per distinct canonical pair: 15 unordered pairs
            // (diagonal included) when symmetric, 25 ordered ones if not.
            assert_eq!(oracle.calls(), if symmetric { 15 } else { 25 });
            assert_eq!(oracle.calls() + oracle.hits(), probes);
            assert_eq!(oracle.memo_entries() as u64, oracle.calls());
        }
    }

    /// The oracle itself is waitability-agnostic: a waitable signature
    /// (here `m(t.a, s.a)`, validated by r2's head) gets the same answers
    /// and counters through the batch interface as through scalar probes.
    /// Deferral of false answers is the *caller's* contract — the engine
    /// only batch-prunes unwaitable signatures (see `EngineSink`), pinned
    /// end-to-end by `engine::tests::batching_defers_waitable_identically`.
    #[test]
    fn waitable_sigs_answer_identically_in_batch() {
        let (rules, table, mut oracle, ts) = batch_setup();
        let sig_a = table.sig_id(&rules, "m", 0, &[0], 0, &[0]).unwrap();
        assert!(table.is_waitable(sig_a));
        let pairs: Vec<(&Tuple, &Tuple)> = vec![(&ts[0], &ts[1]), (&ts[0], &ts[2])];
        let mut batch = Vec::new();
        oracle.predict_batch(&table, sig_a, &pairs, 0, None, &mut batch);
        let mut fresh = batch_setup().2;
        let scalar: Vec<bool> =
            pairs.iter().map(|&(l, r)| fresh.predict(&table, sig_a, l, r, 0)).collect();
        assert_eq!(batch, scalar);
        assert_eq!(oracle.calls(), fresh.calls());
    }
}
