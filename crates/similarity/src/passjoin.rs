//! Certified blocking keys for thresholded normalized edit similarity —
//! the PassJoin partition scheme (Li et al., VLDB 2011).
//!
//! Two strings can pass `levenshtein_similarity(a, b) >= θ` only if their
//! distance `d` is at most `k`, the largest distance that the similarity's
//! own float expression `1 − d / max(|a|, |b|)` accepts for their lengths
//! (and `k ≥ ||a| − |b||`, or no distance can bridge the length gap). Cut
//! the *stored* side `y` (length `n`) into `k + 1` segments: each edit
//! touches at most one segment, so at least one survives intact in the
//! *probing* side `x`, shifted by at most `k`. [`index_keys`] emits one key
//! per segment — tagged with `n`, `k` and the segment number — for every
//! budget `k` a partner length can induce; [`probe_keys`] emits, for every
//! partner length `n` that can pass, the substrings of `x` that could be an
//! intact segment of such a `y`. Any pair the threshold accepts shares a
//! key, in either role assignment.
//!
//! Probes enumerate only the shifts PassJoin's multi-match-aware windows
//! allow: some intact segment `i` has at most `i` edits to its left and at
//! most `k − i` to its right, so its shift `s` satisfies `|s| ≤ i` and
//! `|Δ − s| ≤ k − i` (with `Δ = |x| − |y|`). (Let
//! `a_j` count the edits left of segment `j` and `D(j) = a_j − j`. `D`
//! starts at `D(0) ≥ 0` and ends below `−(k − d)` past the last segment;
//! across segment `j` it changes by the edits in and just after `j`, minus
//! one, so it only ever falls by one, and only across an intact segment.
//! The step that first falls below `−(k − d)` crosses an intact segment
//! `i` with `a_i = i − (k − d) ≤ i`, leaving at most `d − a_i = k − i`
//! edits to its right.)
//!
//! A cut whose segments would average under two scalars (`2(k+1) > n`,
//! which includes every string shorter than `k + 1` and the empty string)
//! selects nothing worth indexing; such a length pairs through one shared
//! wildcard key instead.
//!
//! Lengths are Unicode scalar counts, as in the similarity itself. Keys are
//! hashes, so a collision can only add a candidate, never lose one.

use crate::edit::{normalized, scalar_count};

/// The key shared by every length whose cut is too fine to select (see
/// the module doc).
const WILD: u64 = 0x57_494c_4421;

/// Keys a stored string of `text` is indexed under, appended to `out`:
/// for every edit budget `k` some partner length induces, its `k + 1`
/// segment keys (or the wildcard key when that cut is too fine). Nothing
/// is appended when no string can pass `θ` (θ > 1 or NaN).
pub fn index_keys(text: &str, threshold: f64, out: &mut Vec<u64>) {
    let n = scalar_count(text);
    let ascii = text.is_ascii();
    // Every partner no longer than `n` induces the budget of `n` itself.
    let Some(mut k) = budget(n, threshold) else { return };
    let mut m = n + 1;
    loop {
        if is_wild(n, k) {
            // Budgets only grow with the partner's length: every longer
            // partner's cut is too fine as well.
            out.push(WILD);
            return;
        }
        let parts = k + 1;
        for i in 0..parts {
            let (at, len) = segment(n, parts, i);
            out.push(substring_key(text, ascii, n, k, i, at, len));
        }
        // The next longer partner length that induces a larger budget.
        loop {
            match pair_budget(n, m, threshold) {
                None => return,
                Some(km) if km > k => {
                    k = km;
                    break;
                }
                Some(_) => m += 1,
            }
        }
    }
}

/// Keys a probing string `text` looks up, appended to `out`: for every
/// partner length `n` that can pass `θ`, the substrings of `text` that could
/// be an intact segment of such a partner's cut (or the wildcard key when
/// that cut is too fine). Every stored string the threshold accepts against
/// `text` is indexed by [`index_keys`] under at least one of them.
pub fn probe_keys(text: &str, threshold: f64, out: &mut Vec<u64>) {
    let m = scalar_count(text);
    let ascii = text.is_ascii();
    let Some(km) = budget(m, threshold) else { return };
    let mut wild = false;
    // Partners no longer than `text` share its budget.
    for n in m - km..=m {
        wild |= probe_partner(text, ascii, m, n, km, out);
    }
    for n in m + 1.. {
        let Some(k) = pair_budget(n, m, threshold) else { break };
        wild |= probe_partner(text, ascii, m, n, k, out);
        // A passing partner at least `2m − 1` long has `k ≥ n − m`, so
        // `2(k + 1) > n`: it and every longer one pair through the
        // wildcard, which is already requested.
        if n + 1 >= 2 * m {
            debug_assert!(wild);
            break;
        }
    }
    if wild {
        out.push(WILD);
    }
}

/// Append the keys that find a stored partner of length `n` under pair
/// budget `k` from a probe of `m` scalars. Returns `true` when the
/// partner's cut is too fine and it pairs through the wildcard instead.
fn probe_partner(
    text: &str,
    ascii: bool,
    m: usize,
    n: usize,
    k: usize,
    out: &mut Vec<u64>,
) -> bool {
    if is_wild(n, k) {
        return true;
    }
    let parts = k + 1;
    let delta = m as isize - n as isize;
    let k = k as isize;
    for i in 0..parts {
        let (at, len) = segment(n, parts, i);
        let slack = k - i as isize;
        let lo = (delta - slack).max(-(i as isize));
        let hi = (delta + slack).min(i as isize);
        for s in lo..=hi {
            let q = at as isize + s;
            if q < 0 || q as usize + len > m {
                continue;
            }
            out.push(substring_key(text, ascii, n, k as usize, i, q as usize, len));
        }
    }
    false
}

/// The largest distance `d ≤ max_len` that `normalized(d, max_len) >= θ`
/// accepts — the same expression [`crate::levenshtein_similarity_at_least`]
/// decides with, so `θ = 0.9` at `max_len = 10` yields 1 even though
/// `⌊(1−θ)·10⌋` rounds down to 0. Two empty strings score 1; `None` when not
/// even distance 0 passes.
fn budget(max_len: usize, threshold: f64) -> Option<usize> {
    if max_len == 0 {
        return (1.0 >= threshold).then_some(0);
    }
    let accepts = |d: usize| normalized(d, max_len) >= threshold;
    if !accepts(0) {
        return None;
    }
    // A guess within one of the answer; the similarity is monotone in `d`
    // (correctly rounded division), so stepping settles it exactly. `as`
    // saturates a negative or huge guess.
    let mut d = (((1.0 - threshold) * max_len as f64).floor() as usize).min(max_len);
    while d > 0 && !accepts(d) {
        d -= 1;
    }
    while d < max_len && accepts(d + 1) {
        d += 1;
    }
    Some(d)
}

/// Budget of a pair of lengths `a` and `b`, or `None` when no distance the
/// threshold accepts can bridge their difference.
fn pair_budget(a: usize, b: usize, threshold: f64) -> Option<usize> {
    budget(a.max(b), threshold).filter(|&k| k >= a.abs_diff(b))
}

/// Whether cutting `len` scalars into `k + 1` segments leaves them under
/// two scalars on average.
fn is_wild(len: usize, k: usize) -> bool {
    2 * (k + 1) > len
}

/// Start and length of segment `i` of a `len`-scalar string cut into
/// `parts` near-equal segments, the shorter ones first.
fn segment(len: usize, parts: usize, i: usize) -> (usize, usize) {
    let short = len / parts;
    let shorts = parts - len % parts;
    if i < shorts {
        (i * short, short)
    } else {
        (shorts * short + (i - shorts) * (short + 1), short + 1)
    }
}

/// The key of the `len`-scalar substring of `text` at scalar `at`, as
/// segment `i` of a `n`-scalar string cut under budget `k`. The scalars
/// are packed three to a word (21 bits each) whichever way they are read,
/// so a substring keys alike in ASCII and non-ASCII text; folding the tag
/// into one word may collide, which only adds candidates.
fn substring_key(
    text: &str,
    ascii: bool,
    n: usize,
    k: usize,
    i: usize,
    at: usize,
    len: usize,
) -> u64 {
    let tag = n as u64 ^ (k as u64).rotate_left(21) ^ (i as u64).rotate_left(42);
    if ascii {
        pack(tag, text.as_bytes()[at..at + len].iter().map(|&b| u64::from(b)))
    } else {
        pack(tag, text.chars().skip(at).take(len).map(|c| u64::from(c as u32)))
    }
}

/// Fold `tag` and the scalars, three to a word, into a 64-bit key: a
/// multiply-xor per word, then the splitmix64 finalizer. Deterministic
/// across processes.
fn pack(tag: u64, scalars: impl Iterator<Item = u64>) -> u64 {
    let step = |h: u64, w: u64| (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29);
    let mut h = step(0x243f_6a88_85a3_08d3, tag);
    let (mut word, mut filled) = (0u64, 0);
    for c in scalars {
        word = word << 21 | c;
        filled += 1;
        if filled == 3 {
            h = step(h, word);
            (word, filled) = (0, 0);
        }
    }
    if filled > 0 {
        h = step(h, word | 1 << 63);
    }
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
    h ^ (h >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levenshtein_similarity_at_least;

    fn keys(f: fn(&str, f64, &mut Vec<u64>), text: &str, threshold: f64) -> Vec<u64> {
        let mut out = Vec::new();
        f(text, threshold, &mut out);
        out.sort_unstable();
        out
    }

    fn share(a: &str, b: &str, threshold: f64) -> bool {
        let probe = keys(probe_keys, a, threshold);
        keys(index_keys, b, threshold).iter().any(|k| probe.binary_search(k).is_ok())
    }

    #[test]
    fn budget_uses_the_similarity_expression() {
        assert_eq!(budget(10, 0.9), Some(1), "1 - 1/10 lands exactly on 0.9");
        assert_eq!(budget(8, 0.7), Some(2));
        assert_eq!(budget(10, 0.7), Some(3));
        assert_eq!(budget(0, 0.7), Some(0), "two empty strings score 1");
        assert_eq!(budget(5, 1.0), Some(0));
        assert_eq!(budget(5, 1.5), None);
        assert_eq!(budget(0, f64::NAN), None);
        assert_eq!(pair_budget(8, 11, 0.7), Some(3));
        assert_eq!(pair_budget(8, 12, 0.7), None, "a gap of 4 exceeds budget(12) = 3");
    }

    #[test]
    fn segments_tile_the_string() {
        for len in 0..20 {
            for parts in 1..=len.max(1) {
                let mut next = 0;
                for i in 0..parts {
                    let (at, l) = segment(len, parts, i);
                    assert_eq!(at, next, "len {len} parts {parts}");
                    next = at + l;
                }
                assert_eq!(next, len);
            }
        }
    }

    #[test]
    fn plates_index_three_segments_for_equal_length_partners() {
        // An 8-scalar plate at θ 0.7: budget 2 for partners up to 9
        // scalars (3 segments), budget 3 for partners of 10 and 11
        // (4 segments).
        assert_eq!(keys(index_keys, "AB12 CDE", 0.7).len(), 7);
        assert!(share("AB12 CDE", "AB12 CDE", 0.7));
        assert!(share("AB12 CDE", "AB13 CDF", 0.7));
        assert!(share("AB12 CDE", "xAB12 CDExy", 0.7), "longer partner, budget 3");
        assert!(!share("AB12 CDE", "QR47 XYZ", 0.7));
    }

    #[test]
    fn short_and_empty_strings_pair_through_the_wildcard() {
        assert_eq!(keys(index_keys, "", 0.7), vec![WILD]);
        assert_eq!(keys(probe_keys, "", 0.7), vec![WILD]);
        assert!(share("", "", 0.7));
        assert!(share("ab", "ab", 0.7));
        assert!(keys(index_keys, "anything", 1.5).is_empty(), "θ > 1 accepts nothing");
    }

    #[test]
    fn every_accepted_pair_shares_a_key_exhaustively_on_small_alphabets() {
        let alphabet = ['a', 'b', 'é'];
        let mut words = vec![String::new()];
        let mut layer = vec![String::new()];
        for _ in 0..5 {
            layer = layer
                .iter()
                .flat_map(|w| alphabet.iter().map(move |c| format!("{w}{c}")))
                .collect();
            words.extend(layer.iter().cloned());
        }
        for theta in [0.3, 0.5, 0.7, 0.88, 0.9, 1.0] {
            for a in &words {
                for b in &words {
                    if levenshtein_similarity_at_least(a, b, theta) {
                        assert!(share(a, b, theta), "{a:?} -> {b:?} at {theta}");
                    }
                }
            }
        }
    }
}
