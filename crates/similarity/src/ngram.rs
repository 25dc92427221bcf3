//! Character n-gram set and bag similarity — robust to word order and small
//! edits, the workhorse for long text like product descriptions.

use std::collections::HashMap;

/// The multiset of character `n`-grams of `s` (lowercased, padded with `n-1`
/// leading/trailing `#` sentinels so short strings still produce grams).
pub fn ngrams(s: &str, n: usize) -> HashMap<String, u32> {
    let n = n.max(1);
    let mut padded: Vec<char> = Vec::new();
    padded.extend(std::iter::repeat_n('#', n - 1));
    padded.extend(s.to_lowercase().chars());
    padded.extend(std::iter::repeat_n('#', n - 1));
    let mut grams = HashMap::new();
    if padded.len() < n {
        return grams;
    }
    for w in padded.windows(n) {
        *grams.entry(w.iter().collect::<String>()).or_insert(0) += 1;
    }
    grams
}

/// Jaccard similarity of the n-gram *sets* of `a` and `b`.
pub fn ngram_jaccard(a: &str, b: &str, n: usize) -> f64 {
    let ga = ngrams(a, n);
    let gb = ngrams(b, n);
    if ga.is_empty() && gb.is_empty() {
        return 1.0;
    }
    let inter = ga.keys().filter(|k| gb.contains_key(*k)).count();
    let union = ga.len() + gb.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Cosine similarity of the n-gram *count vectors* of `a` and `b`.
pub fn ngram_cosine(a: &str, b: &str, n: usize) -> f64 {
    profile_cosine(&NgramProfile::of(a, n), &NgramProfile::of(b, n))
}

/// A precomputed n-gram count vector with its cached L2 norm — the batch
/// entry point for cosine scoring: build one profile per *distinct* text,
/// then score every pair of profiles without re-extracting grams.
#[derive(Debug, Clone)]
pub struct NgramProfile {
    grams: HashMap<String, u32>,
    norm: f64,
}

impl NgramProfile {
    /// Extract the n-gram profile of `s` (same grams as [`ngrams`]).
    pub fn of(s: &str, n: usize) -> NgramProfile {
        let grams = ngrams(s, n);
        let norm = grams.values().map(|&c| (c as f64).powi(2)).sum::<f64>().sqrt();
        NgramProfile { grams, norm }
    }

    /// Number of distinct grams in the profile.
    pub fn len(&self) -> usize {
        self.grams.len()
    }

    /// True when the text produced no grams at all.
    pub fn is_empty(&self) -> bool {
        self.grams.is_empty()
    }
}

/// Jaccard similarity of two precomputed [`NgramProfile`]s — equivalent to
/// [`ngram_jaccard`] on the underlying texts.
pub fn profile_jaccard(a: &NgramProfile, b: &NgramProfile) -> f64 {
    if a.grams.is_empty() && b.grams.is_empty() {
        return 1.0;
    }
    let inter = a.grams.keys().filter(|k| b.grams.contains_key(*k)).count();
    let union = a.grams.len() + b.grams.len() - inter;
    if union == 0 {
        1.0
    } else {
        inter as f64 / union as f64
    }
}

/// Cosine similarity of two precomputed [`NgramProfile`]s. Equivalent to
/// [`ngram_cosine`] on the underlying texts (same arithmetic, with the
/// norms computed once at profile-build time).
pub fn profile_cosine(a: &NgramProfile, b: &NgramProfile) -> f64 {
    if a.grams.is_empty() && b.grams.is_empty() {
        return 1.0;
    }
    let dot: f64 =
        a.grams.iter().filter_map(|(k, &ca)| b.grams.get(k).map(|&cb| ca as f64 * cb as f64)).sum();
    if a.norm == 0.0 || b.norm == 0.0 {
        return 0.0;
    }
    (dot / (a.norm * b.norm)).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grams_are_padded_and_counted() {
        let g = ngrams("aa", 2);
        // #a, aa, a#
        assert_eq!(g.len(), 3);
        assert_eq!(g["aa"], 1);
        let g = ngrams("aaa", 2);
        assert_eq!(g["aa"], 2);
    }

    #[test]
    fn case_insensitive() {
        assert_eq!(ngram_jaccard("ThinkPad", "thinkpad", 3), 1.0);
    }

    #[test]
    fn identity_and_disjoint() {
        assert_eq!(ngram_jaccard("abc", "abc", 3), 1.0);
        assert!((ngram_cosine("abc", "abc", 3) - 1.0).abs() < 1e-12);
        assert_eq!(ngram_jaccard("", "", 3), 1.0);
        assert!(ngram_jaccard("aaaa", "zzzz", 2) < 0.01);
    }

    #[test]
    fn small_edits_keep_high_similarity() {
        let a = "ThinkPad X1 Carbon 7th Gen : 14-Inch, 16GB RAM, 512GB Nvme SSD";
        let b = "ThinkPad X1 Carbon 7th Gen 14\" - 16 GB RAM - 512 GB SSD";
        assert!(ngram_cosine(a, b, 3) > 0.6, "{}", ngram_cosine(a, b, 3));
        assert!(ngram_jaccard(a, b, 3) > 0.4);
        let c = "Acer Aspire 5 Slim Laptop, 15.6 inches, 4GB DDR4";
        assert!(ngram_cosine(a, c, 3) < ngram_cosine(a, b, 3));
    }

    #[test]
    fn word_order_insensitivity_relative_to_edit_distance() {
        let a = "512GB SSD 16GB RAM ThinkPad";
        let b = "ThinkPad 16GB RAM 512GB SSD";
        // Same token multiset: only window-boundary grams differ, so the
        // score stays well above what the same edits scattered randomly
        // would produce.
        assert!(ngram_cosine(a, b, 3) > 0.75, "{}", ngram_cosine(a, b, 3));
        assert!(ngram_cosine(a, b, 3) > ngram_cosine(a, "512GB disk 16GB mem laptop", 3));
    }

    #[test]
    fn n_is_clamped_to_at_least_one() {
        assert_eq!(ngram_jaccard("ab", "ab", 0), 1.0);
    }

    #[test]
    fn profile_cosine_matches_text_cosine() {
        let pairs = [
            ("ThinkPad X1 Carbon", "ThinkPad X1 Carbon 7th Gen"),
            ("", ""),
            ("", "abc"),
            ("abc", "abc"),
            ("aaaa", "zzzz"),
        ];
        for (a, b) in pairs {
            let pa = NgramProfile::of(a, 3);
            let pb = NgramProfile::of(b, 3);
            // ngram_cosine builds fresh gram maps whose iteration order
            // varies per HashMap instance, but every term of the dot
            // product and the norms is an integer gram count (product),
            // summed exactly in f64 in any order — so the cosines agree
            // exactly.
            let pc = profile_cosine(&pa, &pb);
            assert_eq!(pc, ngram_cosine(a, b, 3), "{a:?} vs {b:?}");
            assert_eq!(pc, profile_cosine(&pa, &pb));
            assert_eq!(profile_jaccard(&pa, &pb), ngram_jaccard(a, b, 3), "{a:?} vs {b:?}");
        }
        // With n=3 even "" produces sentinel grams ("###"); only n=1 on an
        // empty string yields a truly empty profile.
        assert!(NgramProfile::of("", 1).is_empty());
        assert!(!NgramProfile::of("", 3).is_empty());
        assert_eq!(NgramProfile::of("aa", 2).len(), 3);
    }
}
