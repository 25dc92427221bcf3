//! Concrete [`MlModel`] implementations.

use crate::embed::HashedNgramEmbedder;
use crate::features::{pair_features, pair_features_cached, FeatureSide};
use crate::logistic::LogisticRegression;
use crate::model::{values_text, values_to_text, MlModel};
use dcer_relation::{KeyScheme, Value};
use dcer_similarity::{ngram_cosine, profile_cosine, NgramProfile};
use std::collections::HashMap;
use std::sync::Arc;

/// Build one cache entry per *distinct* rendered side text in a batch —
/// the shared shape of every vectorized `classify_batch` below.
fn per_side_cache<T>(
    pairs: &[(Vec<Value>, Vec<Value>)],
    build: impl Fn(&str) -> T,
) -> HashMap<String, T> {
    let mut cache: HashMap<String, T> = HashMap::new();
    for (l, r) in pairs {
        for side in [l, r] {
            cache.entry(values_to_text(side)).or_insert_with_key(|t| build(t));
        }
    }
    cache
}

/// Thresholded character-3-gram cosine over the concatenated text — a cheap,
/// calibration-free semantic-similarity predicate for long text such as
/// product descriptions (rule `φ₂` of the paper's running example).
#[derive(Debug, Clone)]
pub struct NgramCosineClassifier {
    threshold: f64,
}

impl NgramCosineClassifier {
    /// Classifier firing when 3-gram cosine ≥ `threshold`.
    pub fn new(threshold: f64) -> NgramCosineClassifier {
        NgramCosineClassifier { threshold }
    }
}

impl MlModel for NgramCosineClassifier {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        ngram_cosine(&values_to_text(left), &values_to_text(right), 3)
    }
    fn threshold(&self) -> f64 {
        self.threshold
    }
    /// Vectorized batch: extract the 3-gram profile of each *distinct* text
    /// once, then score every pair from the cached profiles. On batches
    /// where one side is shared (the fixed outer tuple of a join window)
    /// this amortizes the dominant gram-extraction cost across the batch.
    fn classify_batch(&self, pairs: &[(Vec<Value>, Vec<Value>)]) -> Vec<bool> {
        let profiles = per_side_cache(pairs, |t| NgramProfile::of(t, 3));
        pairs
            .iter()
            .map(|(l, r)| {
                let (pl, pr) = (&profiles[&values_to_text(l)], &profiles[&values_to_text(r)]);
                profile_cosine(pl, pr) >= self.threshold
            })
            .collect()
    }
    fn cost_hint(&self) -> f64 {
        5.0
    }
    fn describe(&self) -> String {
        format!("ngram-cosine(3) >= {}", self.threshold)
    }
}

/// Thresholded cosine in hashed-n-gram embedding space — the fastText
/// substitute (see `DESIGN.md` §5) for semantic similarity of names,
/// addresses and short phrases.
#[derive(Debug, Clone)]
pub struct EmbeddingCosineClassifier {
    embedder: HashedNgramEmbedder,
    threshold: f64,
}

impl EmbeddingCosineClassifier {
    /// Classifier over the default 128-dimension embedder.
    pub fn new(threshold: f64) -> EmbeddingCosineClassifier {
        EmbeddingCosineClassifier { embedder: HashedNgramEmbedder::default(), threshold }
    }

    /// Classifier over a custom embedder.
    pub fn with_embedder(embedder: HashedNgramEmbedder, threshold: f64) -> Self {
        EmbeddingCosineClassifier { embedder, threshold }
    }
}

impl MlModel for EmbeddingCosineClassifier {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        self.embedder.cosine(&values_to_text(left), &values_to_text(right))
    }
    fn threshold(&self) -> f64 {
        self.threshold
    }
    /// Vectorized batch: embed each *distinct* text once; pair scoring is a
    /// dense dot product over the cached vectors, bit-identical to the
    /// scalar path (index-order arithmetic).
    fn classify_batch(&self, pairs: &[(Vec<Value>, Vec<Value>)]) -> Vec<bool> {
        let embeddings = per_side_cache(pairs, |t| self.embedder.embed_text(t));
        pairs
            .iter()
            .map(|(l, r)| {
                let (vl, vr) = (&embeddings[&values_to_text(l)], &embeddings[&values_to_text(r)]);
                self.embedder.cosine_embedded(vl, vr) >= self.threshold
            })
            .collect()
    }
    fn cost_hint(&self) -> f64 {
        3.0
    }
    fn describe(&self) -> String {
        format!("embedding-cosine(d={}) >= {}", self.embedder.dims(), self.threshold)
    }
}

/// A *trained* pairwise classifier: logistic regression over the dense
/// similarity feature map — the DeepER substitute (see `DESIGN.md` §5).
#[derive(Debug, Clone)]
pub struct TrainedPairClassifier {
    embedder: HashedNgramEmbedder,
    model: LogisticRegression,
    threshold: f64,
}

impl TrainedPairClassifier {
    /// Train from labeled pairs of attribute vectors. `threshold` is the
    /// decision boundary on the predicted probability.
    pub fn train(
        examples: &[(Vec<Value>, Vec<Value>, bool)],
        epochs: usize,
        threshold: f64,
    ) -> TrainedPairClassifier {
        let embedder = HashedNgramEmbedder::default();
        let featurized: Vec<(Vec<f64>, bool)> =
            examples.iter().map(|(l, r, y)| (pair_features(&embedder, l, r), *y)).collect();
        let model = LogisticRegression::train(&featurized, epochs, 0.5, 1e-4);
        TrainedPairClassifier { embedder, model, threshold }
    }

    /// Wrap an already-trained logistic model.
    pub fn from_model(model: LogisticRegression, threshold: f64) -> TrainedPairClassifier {
        TrainedPairClassifier { embedder: HashedNgramEmbedder::default(), model, threshold }
    }

    /// The underlying logistic model (weights are inspectable — the paper
    /// stresses interpretability of ML predictions).
    pub fn model(&self) -> &LogisticRegression {
        &self.model
    }
}

impl MlModel for TrainedPairClassifier {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        self.model.predict_proba(&pair_features(&self.embedder, left, right))
    }
    fn threshold(&self) -> f64 {
        self.threshold
    }
    /// Vectorized batch: the side-local feature inputs (text rendering,
    /// n-gram profiles, embeddings) are computed once per *distinct* side,
    /// the per-pair metrics fill a feature matrix, and the logistic model
    /// scores the whole matrix in one pass.
    fn classify_batch(&self, pairs: &[(Vec<Value>, Vec<Value>)]) -> Vec<bool> {
        let mut sides: HashMap<String, FeatureSide> = HashMap::new();
        for (l, r) in pairs {
            for side in [l, r] {
                let text = values_to_text(side);
                sides.entry(text).or_insert_with(|| FeatureSide::of(&self.embedder, side));
            }
        }
        let matrix: Vec<Vec<f64>> = pairs
            .iter()
            .map(|(l, r)| {
                let (ls, rs) = (&sides[&values_to_text(l)], &sides[&values_to_text(r)]);
                pair_features_cached(l, r, ls, rs)
            })
            .collect();
        self.model.predict_proba_batch(&matrix).iter().map(|&p| p >= self.threshold).collect()
    }
    fn cost_hint(&self) -> f64 {
        20.0
    }
    fn describe(&self) -> String {
        format!("trained-pair-classifier >= {}", self.threshold)
    }
}

/// Thresholded Jaro-Winkler similarity — the classic record-linkage metric
/// for short names; transposition-tolerant ("Skoda" vs "Sokda" ~ 0.94).
#[derive(Debug, Clone)]
pub struct JaroWinklerClassifier {
    threshold: f64,
}

impl JaroWinklerClassifier {
    /// Classifier firing when Jaro-Winkler (prefix weight 0.1) >= `threshold`.
    pub fn new(threshold: f64) -> JaroWinklerClassifier {
        JaroWinklerClassifier { threshold }
    }
}

impl MlModel for JaroWinklerClassifier {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        dcer_similarity::jaro_winkler(&values_to_text(left), &values_to_text(right), 0.1)
    }
    fn threshold(&self) -> f64 {
        self.threshold
    }
    fn cost_hint(&self) -> f64 {
        2.0
    }
    fn describe(&self) -> String {
        format!("jaro-winkler >= {}", self.threshold)
    }
}

/// Thresholded normalized Levenshtein similarity — the right metric for
/// code-like strings (license plates, product codes) where a typo can
/// destroy token structure.
///
/// [`MlModel::predict`] never computes the full similarity: it borrows
/// single-string sides instead of rendering them and decides through
/// [`dcer_similarity::levenshtein_similarity_at_least`], which runs the
/// allocation-free [`dcer_similarity::levenshtein_bounded`] only within
/// the threshold's edit budget `⌊(1−θ)·max⌋ + 1` and judges a distance
/// inside it by the similarity's own float expression — so decisions are
/// exactly `levenshtein_similarity(a, b) >= θ`.
///
/// Its [`MlModel::signatures`] are PassJoin segment keys
/// ([`dcer_similarity::passjoin`]) derived from the same threshold, so the
/// chase enumerates only pairs sharing an intact segment.
#[derive(Debug, Clone)]
pub struct LevenshteinClassifier {
    threshold: f64,
}

/// [`LevenshteinClassifier`]'s certified keys over the rendered side text
/// (single-string sides are borrowed, so probing one allocates nothing).
#[derive(Debug)]
struct EditSignatures {
    threshold: f64,
}

impl KeyScheme for EditSignatures {
    fn index_keys(&self, side: &[Value], out: &mut Vec<u64>) {
        dcer_similarity::passjoin::index_keys(&values_text(side), self.threshold, out);
    }
    fn probe_keys(&self, side: &[Value], out: &mut Vec<u64>) {
        dcer_similarity::passjoin::probe_keys(&values_text(side), self.threshold, out);
    }
}

impl LevenshteinClassifier {
    /// Classifier firing when `1 - lev/max_len ≥ threshold`.
    pub fn new(threshold: f64) -> LevenshteinClassifier {
        LevenshteinClassifier { threshold }
    }
}

impl MlModel for LevenshteinClassifier {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        dcer_similarity::levenshtein_similarity(&values_text(left), &values_text(right))
    }
    fn threshold(&self) -> f64 {
        self.threshold
    }
    fn predict(&self, left: &[Value], right: &[Value]) -> bool {
        dcer_similarity::levenshtein_similarity_at_least(
            &values_text(left),
            &values_text(right),
            self.threshold,
        )
    }
    fn cost_hint(&self) -> f64 {
        4.0
    }
    fn describe(&self) -> String {
        format!("levenshtein >= {}", self.threshold)
    }
    /// `None` when θ ≤ 0 (every pair passes) or θ is NaN (none does).
    fn signatures(&self) -> Option<Arc<dyn KeyScheme>> {
        (self.threshold > 0.0).then(|| Arc::new(EditSignatures { threshold: self.threshold }) as _)
    }
}

/// Thresholded symmetric Monge-Elkan similarity — strong on person names
/// with abbreviations ("Ford Smith" vs "F. Smith"), the paper's `M₃`.
#[derive(Debug, Clone)]
pub struct MongeElkanClassifier {
    threshold: f64,
}

impl MongeElkanClassifier {
    /// Classifier firing when symmetric Monge-Elkan ≥ `threshold`.
    pub fn new(threshold: f64) -> MongeElkanClassifier {
        MongeElkanClassifier { threshold }
    }
}

impl MlModel for MongeElkanClassifier {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        dcer_similarity::monge_elkan(&values_to_text(left), &values_to_text(right))
    }
    fn threshold(&self) -> f64 {
        self.threshold
    }
    fn cost_hint(&self) -> f64 {
        3.0
    }
    fn describe(&self) -> String {
        format!("monge-elkan >= {}", self.threshold)
    }
}

/// Exact textual equality as a degenerate "classifier" — useful in tests and
/// as the always-sound lower bound.
#[derive(Debug, Clone, Default)]
pub struct EqualTextClassifier;

impl MlModel for EqualTextClassifier {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        let (a, b) = (values_to_text(left), values_to_text(right));
        f64::from(!a.trim().is_empty() && a == b)
    }
    fn cost_hint(&self) -> f64 {
        0.1
    }
    fn describe(&self) -> String {
        "equal-text".to_string()
    }
}

/// Re-thresholds any inner model — the paper's note that a probabilistic
/// model becomes a boolean ML predicate by fixing a threshold.
pub struct ThresholdClassifier<M> {
    inner: M,
    threshold: f64,
}

impl<M: MlModel> ThresholdClassifier<M> {
    /// Wrap `inner`, overriding its decision threshold.
    pub fn new(inner: M, threshold: f64) -> ThresholdClassifier<M> {
        ThresholdClassifier { inner, threshold }
    }
}

impl<M: MlModel> MlModel for ThresholdClassifier<M> {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        self.inner.probability(left, right)
    }
    fn threshold(&self) -> f64 {
        self.threshold
    }
    fn describe(&self) -> String {
        format!("{} rethresholded at {}", self.inner.describe(), self.threshold)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_similarity::levenshtein_similarity;
    use proptest::prelude::*;
    use proptest::TestRng;

    fn v(s: &str) -> Vec<Value> {
        vec![Value::str(s)]
    }

    #[test]
    fn ngram_cosine_classifier_on_paper_example() {
        // φ₂: ThinkPad descriptions t12 vs t13 match; t11 (MacBook) does not.
        let c = NgramCosineClassifier::new(0.5);
        let t12 = v("ThinkPad X1 Carbon 7th Gen : 14-Inch, 16GB RAM, 512GB Nvme SSD");
        let t13 = v("ThinkPad X1 Carbon 7th Gen 14\" - 16 GB RAM - 512 GB SSD");
        let t11 = v("Apple MacBook Air (13-inch, 8GB RAM, 256GB SSD)");
        assert!(c.predict(&t12, &t13));
        assert!(!c.predict(&t12, &t11));
    }

    #[test]
    fn embedding_classifier_handles_typos() {
        let c = EmbeddingCosineClassifier::new(0.5);
        assert!(c.predict(&v("Argentina"), &v("Argenztina")));
        assert!(!c.predict(&v("Argentina"), &v("Mozambique")));
    }

    #[test]
    fn trained_classifier_beats_chance_on_synthetic_pairs() {
        let mut examples = Vec::new();
        for i in 0..40 {
            let name = format!("customer number {i} of main street");
            let typo = format!("custmer number {i} of main stret");
            let other = format!("completely different person {}", 39 - i);
            examples.push((v(&name), v(&typo), true));
            examples.push((v(&name), v(&other), false));
        }
        let c = TrainedPairClassifier::train(&examples, 400, 0.5);
        let correct = examples.iter().filter(|(l, r, y)| c.predict(l, r) == *y).count();
        assert!(
            correct as f64 / examples.len() as f64 > 0.9,
            "accuracy {}",
            correct as f64 / examples.len() as f64
        );
    }

    #[test]
    fn equal_text_classifier() {
        let c = EqualTextClassifier;
        assert!(c.predict(&v("x"), &v("x")));
        assert!(!c.predict(&v("x"), &v("y")));
        assert!(!c.predict(&[Value::Null], &[Value::Null]));
    }

    #[test]
    fn threshold_wrapper_overrides() {
        let strict = ThresholdClassifier::new(NgramCosineClassifier::new(0.1), 0.99);
        assert!(!strict.predict(&v("thinkpad x1"), &v("thinkpad x2")));
        let lax = ThresholdClassifier::new(NgramCosineClassifier::new(0.99), 0.1);
        assert!(lax.predict(&v("thinkpad x1"), &v("thinkpad x2")));
    }

    /// Every vectorized `classify_batch` override must make the same
    /// decisions as the scalar `predict` loop — per-side caching is an
    /// evaluation strategy, not a semantic change.
    #[test]
    fn batch_overrides_match_scalar_decisions() {
        let texts = [
            "ThinkPad X1 Carbon 7th Gen : 14-Inch, 16GB RAM, 512GB Nvme SSD",
            "ThinkPad X1 Carbon 7th Gen 14\" - 16 GB RAM - 512 GB SSD",
            "Apple MacBook Air (13-inch, 8GB RAM, 256GB SSD)",
            "Argentina",
            "Argenztina",
            "",
        ];
        let mut pairs = Vec::new();
        for a in &texts {
            for b in &texts {
                pairs.push((v(a), v(b)));
            }
        }
        // Duplicate a pair: caches must not conflate occurrences.
        pairs.push((v(texts[0]), v(texts[1])));

        let models: Vec<Box<dyn MlModel>> = vec![
            Box::new(NgramCosineClassifier::new(0.5)),
            Box::new(EmbeddingCosineClassifier::new(0.5)),
            Box::new(TrainedPairClassifier::from_model(
                LogisticRegression::new(vec![0.5, 1.0, -0.3, 0.8, 1.2, 0.1, 0.4, 0.9, 0.0], -1.5),
                0.5,
            )),
            Box::new(EqualTextClassifier),
        ];
        for m in &models {
            let batch = m.classify_batch(&pairs);
            assert_eq!(batch.len(), pairs.len(), "{}", m.describe());
            for ((l, r), got) in pairs.iter().zip(&batch) {
                assert_eq!(*got, m.predict(l, r), "{}: {l:?} vs {r:?}", m.describe());
            }
        }
    }

    /// One side of a Levenshtein probe: zero to three values mixing `Null`,
    /// `Int`, short ASCII, non-ASCII and over-64-byte strings.
    fn any_side(rng: &mut TestRng) -> Vec<Value> {
        let n = [0, 1, 1, 1, 2, 3][rng.below(6)];
        (0..n)
            .map(|_| match rng.below(6) {
                0 => Value::Null,
                1 => Value::Int(rng.below(2000) as i64 - 1000),
                2 => Value::str("[AB0-9 ]{0,10}".generate(rng)),
                3 => Value::str("[aé日 ü]{0,12}".generate(rng)),
                4 => Value::str("[ab]{60,80}".generate(rng)),
                _ => Value::str("[a-zA-Z0-9 ,.'-]{0,24}".generate(rng)),
            })
            .collect()
    }

    /// Probe pairs near the thresholds: half the right sides are the left
    /// side with a few random char edits, half are drawn independently.
    struct NearPair;

    impl Strategy for NearPair {
        type Value = (Vec<Value>, Vec<Value>);
        fn generate(&self, rng: &mut TestRng) -> Self::Value {
            let left = any_side(rng);
            if rng.below(2) == 0 {
                return (left, any_side(rng));
            }
            let right = left
                .iter()
                .map(|v| {
                    let Some(s) = v.as_str() else { return v.clone() };
                    let mut chars: Vec<char> = s.chars().collect();
                    for _ in 0..rng.below(4) {
                        let at = rng.below(chars.len() + 1);
                        match (rng.below(3), at < chars.len()) {
                            (1, true) => {
                                chars.remove(at);
                            }
                            (2, true) => chars[at] = 'é',
                            _ => chars.insert(at, 'x'),
                        }
                    }
                    Value::str(chars.into_iter().collect::<String>())
                })
                .collect();
            (left, right)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The bounded, allocation-free decision is exactly the threshold
        /// test on the full similarity.
        #[test]
        fn levenshtein_predict_equals_similarity_threshold(pair in NearPair) {
            let (l, r) = pair;
            let sim = levenshtein_similarity(&values_to_text(&l), &values_to_text(&r));
            for theta in [0.0, 0.3, 0.7, 0.88, 1.0] {
                let c = LevenshteinClassifier::new(theta);
                prop_assert_eq!(c.predict(&l, &r), sim >= theta, "theta {} sim {}", theta, sim);
                prop_assert_eq!(c.predict(&r, &l), sim >= theta, "flipped, theta {}", theta);
            }
        }
    }

    /// Whether the probe keys of `probe` share a key with the index keys of
    /// `stored` under `scheme`.
    fn shares_key(scheme: &dyn KeyScheme, probe: &[Value], stored: &[Value]) -> bool {
        let (mut p, mut s) = (Vec::new(), Vec::new());
        scheme.probe_keys(probe, &mut p);
        scheme.index_keys(stored, &mut s);
        p.iter().any(|k| s.contains(k))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// Signatures are admissible: every pair `predict` accepts shares a
        /// key in both role assignments, so skipping pairs that share none
        /// loses no match.
        #[test]
        fn levenshtein_signatures_admit_every_accepted_pair(pair in NearPair) {
            let (l, r) = pair;
            for theta in [0.3, 0.7, 0.88, 0.9, 1.0] {
                let c = LevenshteinClassifier::new(theta);
                let scheme = c.signatures().expect("θ > 0 certifies keys");
                if c.predict(&l, &r) {
                    prop_assert!(shares_key(&*scheme, &l, &r), "theta {} probe l", theta);
                    prop_assert!(shares_key(&*scheme, &r, &l), "theta {} probe r", theta);
                }
            }
        }
    }

    /// The boundary pairs of `levenshtein_boundary_lands_on_threshold` —
    /// including θ = 0.9 at max 10, whose edit budget the float expression
    /// puts at 1 — share a key whenever the classifier accepts them.
    #[test]
    fn levenshtein_signatures_admit_boundary_pairs() {
        for (theta, a, b, want) in BOUNDARY_CASES {
            let scheme = LevenshteinClassifier::new(theta).signatures().unwrap();
            if want {
                assert!(shares_key(&*scheme, &v(a), &v(b)), "{a} -> {b} at {theta}");
                assert!(shares_key(&*scheme, &v(b), &v(a)), "{b} -> {a} at {theta}");
            }
        }
        // A plate and an unrelated one share nothing at the TFACC threshold.
        let scheme = LevenshteinClassifier::new(0.7).signatures().unwrap();
        assert!(!shares_key(&*scheme, &v("AB12 CDE"), &v("QR47 XYZ")));
    }

    /// Only a Levenshtein threshold above 0 certifies keys: θ ≤ 0 accepts
    /// every pair, NaN none, and no other model has a certificate.
    #[test]
    fn signatures_default_to_none() {
        assert!(LevenshteinClassifier::new(0.0).signatures().is_none());
        assert!(LevenshteinClassifier::new(-0.5).signatures().is_none());
        assert!(LevenshteinClassifier::new(f64::NAN).signatures().is_none());
        let others: Vec<Box<dyn MlModel>> = vec![
            Box::new(NgramCosineClassifier::new(0.7)),
            Box::new(EmbeddingCosineClassifier::new(0.7)),
            Box::new(TrainedPairClassifier::from_model(LogisticRegression::new(vec![], 0.0), 0.5)),
            Box::new(JaroWinklerClassifier::new(0.88)),
            Box::new(MongeElkanClassifier::new(0.7)),
            Box::new(EqualTextClassifier),
            Box::new(ThresholdClassifier::new(LevenshteinClassifier::new(0.7), 0.9)),
        ];
        for m in &others {
            assert!(m.signatures().is_none(), "{}", m.describe());
        }
    }

    /// Boundary pairs: `(θ, a, b, accepted)`.
    const BOUNDARY_CASES: [(f64, &str, &str, bool); 6] = [
        (0.7, "ABCDEFGHIJ", "ABCDEFGxyz", true),
        (0.7, "ABCDEFGHIJ", "ABCDEFwxyz", false),
        (0.7, "ABCDEFGHIJKLMNOPQRST", "ABCDEFGHIJKLMNxyzuvw", true),
        (0.7, "ABCDEFGHIJKLMNOPQRST", "ABCDEFGHIJKLMtxyzuvw", false),
        (0.9, "ABCDEFGHIJ", "ABCDEFGHIx", true),
        (0.9, "ABCDEFGHIJ", "ABCDEFGHwx", false),
    ];

    /// Distances whose similarity lands exactly on θ are accepted, as
    /// `levenshtein_similarity(a, b) >= θ` accepts them — including
    /// θ = 0.9 at max 10, where `⌊(1−θ)·max⌋` rounds down to 0 and only
    /// the edit of slack keeps the distance-1 pair in budget — and one
    /// more edit is rejected.
    #[test]
    fn levenshtein_boundary_lands_on_threshold() {
        for (theta, a, b, want) in BOUNDARY_CASES {
            let sim = levenshtein_similarity(a, b);
            assert_eq!(sim >= theta, want, "{a} vs {b}: {sim}");
            assert_eq!(LevenshteinClassifier::new(theta).predict(&v(a), &v(b)), want);
        }
    }

    #[test]
    fn cost_hints_order_cheap_before_expensive() {
        assert!(EqualTextClassifier.cost_hint() < NgramCosineClassifier::new(0.5).cost_hint());
        let trained = TrainedPairClassifier::from_model(LogisticRegression::new(vec![], 0.0), 0.5);
        assert!(NgramCosineClassifier::new(0.5).cost_hint() < trained.cost_hint());
    }

    #[test]
    fn describe_mentions_threshold() {
        assert!(NgramCosineClassifier::new(0.7).describe().contains("0.7"));
        assert!(EmbeddingCosineClassifier::new(0.8).describe().contains("0.8"));
    }
}
