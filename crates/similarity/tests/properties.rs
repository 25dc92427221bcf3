//! Property-based tests: every similarity is bounded in [0,1], symmetric,
//! and scores identical inputs as 1; edit distances obey metric axioms.

use dcer_similarity::*;
use proptest::prelude::*;
use proptest::TestRng;

/// Words from three alphabets, so the bounded edit distance runs both its
/// bit-parallel pass (at most 64 scalars) and its DP fallback (longer):
/// short ASCII, short text with non-ASCII scalars, and long
/// low-entropy ASCII whose pairs stay within small edit distances.
struct AnyWord;

impl Strategy for AnyWord {
    type Value = String;
    fn generate(&self, rng: &mut TestRng) -> String {
        match rng.below(4) {
            0 | 1 => "[a-zA-Z0-9 ,.'-]{0,24}".generate(rng),
            2 => "[abcéü日本 ]{0,20}".generate(rng),
            _ => "[ab]{56,90}".generate(rng),
        }
    }
}

fn any_word() -> AnyWord {
    AnyWord
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn levenshtein_is_a_metric(a in any_word(), b in any_word(), c in any_word()) {
        let dab = levenshtein(&a, &b);
        let dba = levenshtein(&b, &a);
        prop_assert_eq!(dab, dba);
        prop_assert_eq!(levenshtein(&a, &a), 0);
        prop_assert!(levenshtein(&a, &c) <= dab + levenshtein(&b, &c));
        // Distance bounded by longer length.
        prop_assert!(dab <= a.chars().count().max(b.chars().count()));
    }

    #[test]
    fn bounded_levenshtein_agrees_with_exact(a in any_word(), b in any_word(), k in 0usize..40) {
        let exact = levenshtein(&a, &b);
        match levenshtein_bounded(&a, &b, k) {
            Some(d) => { prop_assert_eq!(d, exact); prop_assert!(d <= k); }
            None => prop_assert!(exact > k),
        }
    }

    #[test]
    fn damerau_never_exceeds_levenshtein(a in any_word(), b in any_word()) {
        prop_assert!(damerau_levenshtein(&a, &b) <= levenshtein(&a, &b));
    }

    #[test]
    fn similarities_bounded_symmetric_reflexive(a in any_word(), b in any_word()) {
        type NamedSim = (&'static str, Box<dyn Fn(&str, &str) -> f64>);
        let fns: Vec<NamedSim> = vec![
            ("lev", Box::new(levenshtein_similarity)),
            ("jaro", Box::new(jaro)),
            ("jw", Box::new(|x: &str, y: &str| jaro_winkler(x, y, 0.1))),
            ("ngjac", Box::new(|x: &str, y: &str| ngram_jaccard(x, y, 3))),
            ("ngcos", Box::new(|x: &str, y: &str| ngram_cosine(x, y, 3))),
            ("tokjac", Box::new(jaccard_tokens)),
            ("dice", Box::new(dice_coefficient)),
            ("me", Box::new(monge_elkan)),
            ("coscnt", Box::new(cosine_token_counts)),
        ];
        for (name, f) in &fns {
            let s = f(&a, &b);
            prop_assert!((0.0..=1.0).contains(&s), "{} out of range: {}", name, s);
            prop_assert!((s - f(&b, &a)).abs() < 1e-9, "{} asymmetric", name);
            prop_assert!((f(&a, &a) - 1.0).abs() < 1e-9, "{} not reflexive", name);
        }
    }

    #[test]
    fn soundex_shape(a in any_word()) {
        let code = soundex(&a);
        prop_assert_eq!(code.len(), 4);
        let mut chars = code.chars();
        let first = chars.next().unwrap();
        prop_assert!(first.is_ascii_uppercase() || first == '0');
        prop_assert!(chars.all(|c| c.is_ascii_digit()));
    }

    #[test]
    fn tokenize_is_idempotent_under_rejoin(a in any_word()) {
        let toks = tokenize(&a);
        let rejoined = toks.join(" ");
        prop_assert_eq!(tokenize(&rejoined), toks);
    }
}
