//! The [`MlModel`] trait: the contract every embedded ML predicate satisfies.

use dcer_relation::{KeyScheme, Value};
use std::borrow::Cow;
use std::sync::Arc;

/// A binary ML classifier usable as an MRL predicate `M(t[Ā], s[B̄])`.
///
/// Implementations must be deterministic (the chase's Church-Rosser property
/// assumes predicate evaluation is a pure function) and symmetric-friendly:
/// callers may memoize on unordered pairs, so `probability(a, b)` should
/// equal `probability(b, a)` unless a model documents otherwise.
pub trait MlModel: Send + Sync {
    /// Probability in `[0, 1]` that the two attribute vectors refer to
    /// matching entities.
    fn probability(&self, left: &[Value], right: &[Value]) -> f64;

    /// Decision threshold; [`MlModel::predict`] fires at or above it.
    fn threshold(&self) -> f64 {
        0.5
    }

    /// Boolean prediction — the value of the predicate `M(t[Ā], s[B̄])`.
    fn predict(&self, left: &[Value], right: &[Value]) -> bool {
        self.probability(left, right) >= self.threshold()
    }

    /// Boolean predictions for a whole batch of candidate pairs at once.
    ///
    /// The default is the scalar loop, so every model supports batching for
    /// free; vectorized implementations override this to amortize per-call
    /// work across the batch (shared feature extraction, one matrix pass,
    /// per-distinct-text caches). Overrides must return the same *decisions*
    /// the scalar [`MlModel::predict`] would — batching is an evaluation
    /// strategy, never a semantic change.
    fn classify_batch(&self, pairs: &[(Vec<Value>, Vec<Value>)]) -> Vec<bool> {
        pairs.iter().map(|(l, r)| self.predict(l, r)).collect()
    }

    /// Relative cost of one prediction, in arbitrary units (an exact string
    /// compare ≈ 0.1, a trained feature-vector classifier ≈ 20). The chase
    /// uses `cost × observed selectivity` to order predicates within a rule
    /// so cheap selective checks run before expensive ones.
    fn cost_hint(&self) -> f64 {
        1.0
    }

    /// Human-readable description for logs and case studies.
    fn describe(&self) -> String {
        "ml-model".to_string()
    }

    /// Certified blocking keys: a [`KeyScheme`] whose shared key is a
    /// *necessary* condition for [`MlModel::predict`] to accept — for every
    /// pair `predict` accepts, in either argument order, the probe keys of
    /// each side share a key with the index keys of the other. The scheme
    /// must follow from the model's own threshold, exactly: a pair that
    /// shares no key is one `predict` rejects, so the chase may skip it
    /// without asking. It never decides a pair that does share a key.
    ///
    /// The default is `None` (no certificate: every pair is a candidate),
    /// which is the only sound answer for a model whose decision boundary
    /// has no such structure — trained, embedding and token models.
    fn signatures(&self) -> Option<Arc<dyn KeyScheme>> {
        None
    }
}

/// Concatenate the textual rendering of an attribute vector — the canonical
/// way text models consume `t[Ā]` (mirrors DeepER treating a tuple as the
/// sequence of its attribute tokens).
pub fn values_to_text(values: &[Value]) -> String {
    let mut out = String::new();
    for (i, v) in values.iter().enumerate() {
        if i > 0 {
            out.push(' ');
        }
        out.push_str(&v.to_text());
    }
    out
}

/// [`values_to_text`] without the allocation for the common one-string
/// side: a single `Str` (or `Null`, or no value) is borrowed as is; any
/// other side is rendered.
pub(crate) fn values_text(values: &[Value]) -> Cow<'_, str> {
    match values {
        [] | [Value::Null] => Cow::Borrowed(""),
        [Value::Str(s)] => Cow::Borrowed(s),
        _ => Cow::Owned(values_to_text(values)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Always(f64);
    impl MlModel for Always {
        fn probability(&self, _: &[Value], _: &[Value]) -> f64 {
            self.0
        }
    }

    #[test]
    fn default_predict_uses_half_threshold() {
        assert!(Always(0.5).predict(&[], &[]));
        assert!(Always(0.9).predict(&[], &[]));
        assert!(!Always(0.49).predict(&[], &[]));
    }

    #[test]
    fn default_batch_is_the_scalar_loop() {
        let pairs = vec![(vec![], vec![]), (vec![Value::Int(1)], vec![Value::Int(2)])];
        assert_eq!(Always(0.7).classify_batch(&pairs), vec![true, true]);
        assert_eq!(Always(0.2).classify_batch(&pairs), vec![false, false]);
        assert_eq!(Always(0.2).classify_batch(&[]), Vec::<bool>::new());
        assert_eq!(Always(0.2).cost_hint(), 1.0);
    }

    #[test]
    fn values_to_text_joins_with_spaces() {
        let vs = vec![Value::str("ThinkPad"), Value::Int(2000), Value::Null];
        assert_eq!(values_to_text(&vs), "ThinkPad 2000 ");
        assert_eq!(values_to_text(&[]), "");
    }

    #[test]
    fn values_text_borrows_single_strings_and_renders_the_rest() {
        let sides: [(&[Value], bool); 5] = [
            (&[], true),
            (&[Value::Null], true),
            (&[Value::str("plate")], true),
            (&[Value::Int(7)], false),
            (&[Value::str("a"), Value::Null, Value::Float(1.5)], false),
        ];
        for (side, borrowed) in sides {
            let text = values_text(side);
            assert_eq!(text, values_to_text(side));
            assert_eq!(matches!(text, Cow::Borrowed(_)), borrowed, "{side:?}");
        }
    }
}
