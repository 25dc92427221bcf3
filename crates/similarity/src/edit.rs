//! Edit-distance family: Levenshtein, bounded Levenshtein, and
//! Damerau-Levenshtein (adjacent transpositions), all operating on Unicode
//! scalar values.

/// Levenshtein distance between `a` and `b` (insert/delete/substitute, unit
/// costs). `O(|a|·|b|)` time, `O(min(|a|,|b|))` space.
pub fn levenshtein(a: &str, b: &str) -> usize {
    let (short, long): (Vec<char>, Vec<char>) = {
        let av: Vec<char> = a.chars().collect();
        let bv: Vec<char> = b.chars().collect();
        if av.len() <= bv.len() {
            (av, bv)
        } else {
            (bv, av)
        }
    };
    if short.is_empty() {
        return long.len();
    }
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, &lc) in long.iter().enumerate() {
        cur[0] = i + 1;
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    prev[short.len()]
}

/// Levenshtein distance, early-exiting with `None` once the distance is
/// guaranteed to exceed `bound`. The kernel under
/// [`levenshtein_similarity_at_least`] (and so under
/// `LevenshteinClassifier::predict`), where only "within the threshold's
/// edit budget" matters.
///
/// When the shorter side has at most 64 scalars it runs one Myers/Hyyrö
/// bit-parallel pass over the longer side with the pattern bitmasks on the
/// stack, so it never allocates; longer sides fall back to a row-by-row
/// DP over chars that abandons once a whole row exceeds `bound`.
pub fn levenshtein_bounded(a: &str, b: &str, bound: usize) -> Option<usize> {
    let (na, nb) = (scalar_count(a), scalar_count(b));
    if na.abs_diff(nb) > bound {
        return None;
    }
    let (short, long, ns, nl) = if na <= nb { (a, b, na, nb) } else { (b, a, nb, na) };
    if ns == 0 {
        return (nl <= bound).then_some(nl);
    }
    if ns <= 64 {
        bit_parallel_bounded(short, ns, long, nl, bound)
    } else {
        dp_bounded(short, long, bound)
    }
}

/// Unicode scalar count, without decoding ASCII.
pub(crate) fn scalar_count(s: &str) -> usize {
    if s.is_ascii() {
        s.len()
    } else {
        s.chars().count()
    }
}

/// Match masks of a `pattern` of at most 64 scalars — bit `i` set where
/// scalar `i` equals the probed one — fed to [`myers_bounded`] for each
/// scalar of `text`. ASCII goes through a stack table (bytes directly when
/// both sides are ASCII); other scalars scan the pattern, which is rare in
/// practice and still allocation-free.
fn bit_parallel_bounded(
    pattern: &str,
    m: usize,
    text: &str,
    n: usize,
    bound: usize,
) -> Option<usize> {
    let mut ascii = [0u64; 128];
    if pattern.is_ascii() && text.is_ascii() {
        for (i, &c) in pattern.as_bytes().iter().enumerate() {
            ascii[c as usize] |= 1 << i;
        }
        return myers_bounded(text.bytes().map(|c| ascii[c as usize]), m, n, bound);
    }
    for (i, c) in pattern.chars().enumerate() {
        if c.is_ascii() {
            ascii[c as usize] |= 1 << i;
        }
    }
    let eq = |c: char| -> u64 {
        if c.is_ascii() {
            ascii[c as usize]
        } else {
            pattern.chars().enumerate().filter(|&(_, p)| p == c).fold(0, |m, (i, _)| m | 1 << i)
        }
    };
    myers_bounded(text.chars().map(eq), m, n, bound)
}

/// Hyyrö's formulation of Myers' bit-vector edit distance: bit `i` of the
/// vertical delta vectors describes row `i + 1` of the DP column, and each
/// of the `n` text masks advances the column in O(1) word operations over
/// a pattern of `m ≤ 64` scalars.
fn myers_bounded(
    masks: impl Iterator<Item = u64>,
    m: usize,
    n: usize,
    bound: usize,
) -> Option<usize> {
    let last = 1u64 << (m - 1);
    let (mut vp, mut vn) = (!0u64, 0u64);
    let mut d = m;
    for (j, x) in masks.enumerate() {
        let d0 = ((x & vp).wrapping_add(vp) ^ vp) | x | vn;
        let hp = vn | !(d0 | vp);
        let hn = d0 & vp;
        // Branch-free: the sign of the last row's step is data-dependent.
        d = d + usize::from(hp & last != 0) - usize::from(hn & last != 0);
        // The last row moves by at most one per remaining text scalar.
        if d > bound.saturating_add(n - j - 1) {
            return None;
        }
        let hp = (hp << 1) | 1;
        let hn = hn << 1;
        vp = hn | !(d0 | hp);
        vn = hp & d0;
    }
    (d <= bound).then_some(d)
}

/// Row-by-row DP over chars for patterns longer than one machine word,
/// abandoning as soon as a whole row exceeds `bound`.
fn dp_bounded(short: &str, long: &str, bound: usize) -> Option<usize> {
    let short: Vec<char> = short.chars().collect();
    let mut prev: Vec<usize> = (0..=short.len()).collect();
    let mut cur = vec![0usize; short.len() + 1];
    for (i, lc) in long.chars().enumerate() {
        cur[0] = i + 1;
        let mut row_min = cur[0];
        for (j, &sc) in short.iter().enumerate() {
            let cost = usize::from(lc != sc);
            cur[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(cur[j] + 1);
            row_min = row_min.min(cur[j + 1]);
        }
        if row_min > bound {
            return None;
        }
        std::mem::swap(&mut prev, &mut cur);
    }
    let d = prev[short.len()];
    (d <= bound).then_some(d)
}

/// Damerau-Levenshtein distance (restricted: adjacent transpositions count
/// as one edit).
pub fn damerau_levenshtein(a: &str, b: &str) -> usize {
    let av: Vec<char> = a.chars().collect();
    let bv: Vec<char> = b.chars().collect();
    let (n, m) = (av.len(), bv.len());
    if n == 0 {
        return m;
    }
    if m == 0 {
        return n;
    }
    // Three rolling rows: i-2, i-1, i.
    let mut row2: Vec<usize> = vec![0; m + 1];
    let mut row1: Vec<usize> = (0..=m).collect();
    let mut row0: Vec<usize> = vec![0; m + 1];
    for i in 1..=n {
        row0[0] = i;
        for j in 1..=m {
            let cost = usize::from(av[i - 1] != bv[j - 1]);
            let mut d = (row1[j - 1] + cost).min(row1[j] + 1).min(row0[j - 1] + 1);
            if i > 1 && j > 1 && av[i - 1] == bv[j - 2] && av[i - 2] == bv[j - 1] {
                d = d.min(row2[j - 2] + 1);
            }
            row0[j] = d;
        }
        std::mem::swap(&mut row2, &mut row1);
        std::mem::swap(&mut row1, &mut row0);
    }
    row1[m]
}

/// Levenshtein distance normalized to a similarity in `[0, 1]`:
/// `1 - d / max(|a|, |b|)`; empty-vs-empty scores 1.
pub fn levenshtein_similarity(a: &str, b: &str) -> f64 {
    let max_len = scalar_count(a).max(scalar_count(b));
    if max_len == 0 {
        return 1.0;
    }
    normalized(levenshtein(a, b), max_len)
}

/// `levenshtein_similarity(a, b) >= threshold`, without computing the full
/// distance: [`levenshtein_bounded`] only looks within the edit budget
/// `⌊(1−θ)·max⌋ + 1`. The extra edit of slack keeps float rounding of the
/// budget from deciding anything (at θ = 0.9 and max 10 the product
/// floors to 0, yet distance 1 scores exactly 0.9); a distance within
/// budget is judged by the similarity's own float expression, so the
/// answer is exactly the threshold test on [`levenshtein_similarity`].
pub fn levenshtein_similarity_at_least(a: &str, b: &str, threshold: f64) -> bool {
    let max_len = scalar_count(a).max(scalar_count(b));
    if max_len == 0 {
        return 1.0 >= threshold;
    }
    // `as` saturates: NaN and negative budgets become 0, huge ones MAX.
    let budget = ((1.0 - threshold) * max_len as f64).floor() as usize;
    levenshtein_bounded(a, b, budget.saturating_add(1))
        .is_some_and(|d| normalized(d, max_len) >= threshold)
}

/// The similarity of distance `d` between sides of at most `max_len`
/// scalars — the one float expression both entry points above share, and
/// the one [`crate::passjoin`] derives its edit budgets from.
pub(crate) fn normalized(d: usize, max_len: usize) -> f64 {
    1.0 - d as f64 / max_len as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_distances() {
        assert_eq!(levenshtein("kitten", "sitting"), 3);
        assert_eq!(levenshtein("", "abc"), 3);
        assert_eq!(levenshtein("abc", ""), 3);
        assert_eq!(levenshtein("abc", "abc"), 0);
        assert_eq!(levenshtein("flaw", "lawn"), 2);
    }

    #[test]
    fn unicode_counts_scalars_not_bytes() {
        assert_eq!(levenshtein("café", "cafe"), 1);
        assert_eq!(levenshtein("日本語", "日本"), 1);
    }

    #[test]
    fn bounded_matches_exact_within_bound() {
        assert_eq!(levenshtein_bounded("kitten", "sitting", 3), Some(3));
        assert_eq!(levenshtein_bounded("kitten", "sitting", 2), None);
        assert_eq!(levenshtein_bounded("abc", "xyzabc", 2), None); // length gap 3 > 2
        assert_eq!(levenshtein_bounded("same", "same", 0), Some(0));
    }

    #[test]
    fn bounded_handles_unicode_and_long_sides() {
        // Bit-parallel pass with non-ASCII scalars on either side.
        assert_eq!(levenshtein_bounded("café", "cafe", 1), Some(1));
        assert_eq!(levenshtein_bounded("日本語", "日本", 5), Some(1));
        assert_eq!(levenshtein_bounded("日本語x", "x日本語", 1), None);
        // A 64-scalar pattern fills the word exactly.
        let a = "ab".repeat(32);
        let b = format!("{}c", &a[1..]);
        assert_eq!(levenshtein_bounded(&a, &b, 64), Some(levenshtein(&a, &b)));
        // Past one word: the DP fallback.
        let long_a = "xyz".repeat(30);
        let long_b = "xzy".repeat(30);
        let exact = levenshtein(&long_a, &long_b);
        assert_eq!(levenshtein_bounded(&long_a, &long_b, exact), Some(exact));
        assert_eq!(levenshtein_bounded(&long_a, &long_b, exact - 1), None);
        assert_eq!(levenshtein_bounded("", "", 0), Some(0));
        assert_eq!(levenshtein_bounded("", "ab", 1), None);
    }

    #[test]
    fn damerau_counts_transposition_once() {
        assert_eq!(damerau_levenshtein("ca", "ac"), 1);
        assert_eq!(levenshtein("ca", "ac"), 2);
        assert_eq!(damerau_levenshtein("argentina", "argenztina"), 1);
        assert_eq!(damerau_levenshtein("abcdef", "abcdef"), 0);
        assert_eq!(damerau_levenshtein("", "xy"), 2);
    }

    #[test]
    fn similarity_normalization() {
        assert_eq!(levenshtein_similarity("", ""), 1.0);
        assert_eq!(levenshtein_similarity("abc", "abc"), 1.0);
        assert!((levenshtein_similarity("abcd", "abcx") - 0.75).abs() < 1e-12);
        assert_eq!(levenshtein_similarity("ab", "xy"), 0.0);
    }

    #[test]
    fn triangle_inequality_spot_checks() {
        let (a, b, c) = ("ford smith", "f. smith", "t. brown");
        assert!(levenshtein(a, c) <= levenshtein(a, b) + levenshtein(b, c));
    }
}
