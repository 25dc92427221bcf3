//! String similarity metrics.
//!
//! These functions are the measurable substrate under dcer's ML predicates
//! (Section II of the paper allows *any* well-trained classifier; ours are
//! trained over these features) and under the rule-based baselines that the
//! paper compares against (Dedoop-style weighted-average matching, JedAI-style
//! non-learning similarity joins, sorted-neighborhood windowing).
//!
//! All similarity functions return values in `[0, 1]`, are symmetric in their
//! arguments, and return `1.0` exactly for equal inputs — properties covered
//! by the property-based tests in `tests/properties.rs`.

pub mod edit;
pub mod jaro;
pub mod ngram;
pub mod passjoin;
pub mod phonetic;
pub mod token;

pub use edit::{
    damerau_levenshtein, levenshtein, levenshtein_bounded, levenshtein_similarity,
    levenshtein_similarity_at_least,
};
pub use jaro::{jaro, jaro_winkler};
pub use ngram::{
    ngram_cosine, ngram_jaccard, ngrams, profile_cosine, profile_jaccard, NgramProfile,
};
pub use phonetic::soundex;
pub use token::{
    cosine_token_counts, dice_coefficient, jaccard_tokens, monge_elkan, overlap_coefficient,
    tokenize,
};

#[cfg(test)]
mod tests {
    use super::*;

    /// All exported similarity functions over a quick sanity matrix: equal
    /// strings score 1, disjoint strings score low, partial overlaps land in
    /// between. Fine-grained behaviour is tested per-module.
    #[test]
    fn sanity_matrix() {
        type NamedSim = (&'static str, fn(&str, &str) -> f64);
        let sims: Vec<NamedSim> = vec![
            ("levenshtein", levenshtein_similarity),
            ("jaro", jaro),
            ("jaro_winkler", |a, b| jaro_winkler(a, b, 0.1)),
            ("ngram_jaccard", |a, b| ngram_jaccard(a, b, 3)),
            ("ngram_cosine", |a, b| ngram_cosine(a, b, 3)),
            ("jaccard_tokens", jaccard_tokens),
            ("dice", dice_coefficient),
            ("overlap", overlap_coefficient),
            ("monge_elkan", monge_elkan),
        ];
        for (name, f) in sims {
            assert!(
                (f("thinkpad x1 carbon", "thinkpad x1 carbon") - 1.0).abs() < 1e-12,
                "{name}: identity"
            );
            let close = f("thinkpad x1 carbon", "thinkpad x1 carbn");
            let far = f("thinkpad x1 carbon", "qqqq zzzz");
            assert!(close > far, "{name}: {close} !> {far}");
        }
    }
}
