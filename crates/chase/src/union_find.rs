//! The equivalence relation `E_id` over deduced matches (Section V-A):
//! a union-find over tuple identities with per-class member lists, giving
//! O(α) match tests, transitive closure for free, and the class projections
//! the incremental engine and the master's router need.

use dcer_relation::Tid;
use std::collections::HashMap;

/// A set of matches closed under reflexivity/symmetry/transitivity —
/// the id part of the paper's `Γ` together with its equivalence `E_id`.
#[derive(Debug, Clone, Default)]
pub struct MatchSet {
    /// Tid -> dense slot.
    slots: HashMap<Tid, u32>,
    /// Slot -> Tid (inverse of `slots`).
    tids: Vec<Tid>,
    /// Union-find parent per slot.
    parent: Vec<u32>,
    /// Rank per root slot.
    rank: Vec<u8>,
    /// Members per root slot (moved to the winning root on union).
    members: Vec<Vec<Tid>>,
    /// Number of union operations that actually merged two classes.
    merges: usize,
}

impl MatchSet {
    /// Empty match set (every tuple implicitly matches itself).
    pub fn new() -> MatchSet {
        MatchSet::default()
    }

    fn slot(&mut self, t: Tid) -> u32 {
        if let Some(&s) = self.slots.get(&t) {
            return s;
        }
        let s = self.tids.len() as u32;
        self.slots.insert(t, s);
        self.tids.push(t);
        self.parent.push(s);
        self.rank.push(0);
        self.members.push(vec![t]);
        s
    }

    fn find(&mut self, mut s: u32) -> u32 {
        // Path halving.
        while self.parent[s as usize] != s {
            let gp = self.parent[self.parent[s as usize] as usize];
            self.parent[s as usize] = gp;
            s = gp;
        }
        s
    }

    /// Record the match `(a, b)`. Returns the two pre-merge member lists
    /// `(class_of_a, class_of_b)` if the classes were distinct (i.e., the
    /// match is new information), or `None` if already matched.
    pub fn merge(&mut self, a: Tid, b: Tid) -> Option<(Vec<Tid>, Vec<Tid>)> {
        if a == b {
            return None;
        }
        let (sa, sb) = (self.slot(a), self.slot(b));
        let (ra, rb) = (self.find(sa), self.find(sb));
        if ra == rb {
            return None;
        }
        let before_a = self.members[ra as usize].clone();
        let before_b = self.members[rb as usize].clone();
        let (winner, loser) =
            if self.rank[ra as usize] >= self.rank[rb as usize] { (ra, rb) } else { (rb, ra) };
        if self.rank[winner as usize] == self.rank[loser as usize] {
            self.rank[winner as usize] += 1;
        }
        self.parent[loser as usize] = winner;
        let moved = std::mem::take(&mut self.members[loser as usize]);
        self.members[winner as usize].extend(moved);
        self.merges += 1;
        Some((before_a, before_b))
    }

    /// Whether `a` and `b` are matched (reflexive).
    pub fn are_matched(&mut self, a: Tid, b: Tid) -> bool {
        if a == b {
            return true;
        }
        match (self.slots.get(&a).copied(), self.slots.get(&b).copied()) {
            (Some(sa), Some(sb)) => self.find(sa) == self.find(sb),
            _ => false,
        }
    }

    /// Batched [`MatchSet::are_matched`]: answer many probes in one pass,
    /// resolving each distinct tid's root once (probe batches from join
    /// windows share tids heavily, so this saves repeated find walks).
    /// Answers are a snapshot — a subsequent [`MatchSet::merge`] (visible
    /// as a [`MatchSet::merge_count`] bump) can invalidate them.
    pub fn are_matched_batch(&mut self, pairs: &[(Tid, Tid)], out: &mut Vec<bool>) {
        out.clear();
        out.reserve(pairs.len());
        let mut roots: HashMap<Tid, Option<u32>> = HashMap::with_capacity(pairs.len().min(64));
        for &(a, b) in pairs {
            if a == b {
                out.push(true);
                continue;
            }
            let mut root_of = |uf: &mut MatchSet, t: Tid| -> Option<u32> {
                if let Some(&r) = roots.get(&t) {
                    return r;
                }
                let r = uf.slots.get(&t).copied().map(|s| uf.find(s));
                roots.insert(t, r);
                r
            };
            let ra = root_of(self, a);
            let rb = root_of(self, b);
            out.push(matches!((ra, rb), (Some(x), Some(y)) if x == y));
        }
    }

    /// Number of effective (class-merging) `merge` calls so far.
    pub fn merge_count(&self) -> usize {
        self.merges
    }

    /// All non-singleton equivalence classes, each sorted, the list sorted
    /// by first member — a canonical form for comparing outcomes.
    pub fn clusters(&mut self) -> Vec<Vec<Tid>> {
        let roots: Vec<u32> = (0..self.parent.len() as u32)
            .filter(|&s| {
                let r = self.find(s);
                r == s && self.members[s as usize].len() > 1
            })
            .collect();
        let mut out: Vec<Vec<Tid>> = roots
            .into_iter()
            .map(|r| {
                let mut m = self.members[r as usize].clone();
                m.sort_unstable();
                m
            })
            .collect();
        out.sort();
        out
    }

    /// All matched pairs `(a, b)` with `a < b` — the paper's `Γ` restricted
    /// to non-reflexive id matches. Quadratic in class sizes; meant for
    /// evaluation against ground truth.
    pub fn all_pairs(&mut self) -> Vec<(Tid, Tid)> {
        let mut pairs = Vec::new();
        for cluster in self.clusters() {
            for i in 0..cluster.len() {
                for j in i + 1..cluster.len() {
                    pairs.push((cluster[i], cluster[j]));
                }
            }
        }
        pairs.sort_unstable();
        pairs
    }

    /// Number of matched pairs (without materializing them).
    pub fn num_pairs(&mut self) -> usize {
        self.clusters().iter().map(|c| c.len() * (c.len() - 1) / 2).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(row: u32) -> Tid {
        Tid::new(0, row)
    }

    #[test]
    fn reflexive_by_default() {
        let mut m = MatchSet::new();
        assert!(m.are_matched(t(1), t(1)));
        assert!(!m.are_matched(t(1), t(2)));
    }

    #[test]
    fn transitivity_via_union() {
        let mut m = MatchSet::new();
        assert!(m.merge(t(1), t(2)).is_some());
        assert!(m.merge(t(2), t(3)).is_some());
        assert!(m.are_matched(t(1), t(3)));
        assert!(m.merge(t(1), t(3)).is_none(), "already implied");
        assert_eq!(m.merge_count(), 2);
    }

    #[test]
    fn merge_reports_pre_merge_classes() {
        let mut m = MatchSet::new();
        m.merge(t(1), t(2));
        m.merge(t(3), t(4));
        let (a, b) = m.merge(t(2), t(4)).unwrap();
        let mut a = a;
        let mut b = b;
        a.sort_unstable();
        b.sort_unstable();
        assert_eq!(a, vec![t(1), t(2)]);
        assert_eq!(b, vec![t(3), t(4)]);
    }

    #[test]
    fn self_merge_is_noop() {
        let mut m = MatchSet::new();
        assert!(m.merge(t(5), t(5)).is_none());
        assert_eq!(m.merge_count(), 0);
    }

    #[test]
    fn clusters_and_pairs() {
        let mut m = MatchSet::new();
        m.merge(t(1), t(2));
        m.merge(t(2), t(3));
        m.merge(t(7), t(8));
        let clusters = m.clusters();
        assert_eq!(clusters, vec![vec![t(1), t(2), t(3)], vec![t(7), t(8)]]);
        assert_eq!(m.num_pairs(), 4);
        assert_eq!(m.all_pairs(), vec![(t(1), t(2)), (t(1), t(3)), (t(2), t(3)), (t(7), t(8))]);
    }

    #[test]
    fn batch_probe_matches_scalar_probe() {
        let mut m = MatchSet::new();
        m.merge(t(1), t(2));
        m.merge(t(2), t(3));
        m.merge(t(7), t(8));
        let pairs: Vec<(Tid, Tid)> = (0..10)
            .flat_map(|i| (0..10).map(move |j| (t(i), t(j))))
            .chain([(t(1), t(3)), (t(1), t(3))]) // repeated probes share root lookups
            .collect();
        let mut batch = Vec::new();
        m.are_matched_batch(&pairs, &mut batch);
        assert_eq!(batch.len(), pairs.len());
        for (&(a, b), &got) in pairs.iter().zip(&batch) {
            assert_eq!(got, m.are_matched(a, b), "{a:?} vs {b:?}");
        }
        // A later merge invalidates the snapshot, flagged by merge_count.
        let before = m.merge_count();
        m.merge(t(3), t(7));
        assert_ne!(m.merge_count(), before);
        assert!(m.are_matched(t(1), t(8)));
    }

    #[test]
    fn cross_relation_tids_stay_separate() {
        let mut m = MatchSet::new();
        m.merge(Tid::new(0, 1), Tid::new(0, 2));
        assert!(!m.are_matched(Tid::new(0, 1), Tid::new(1, 1)));
    }

    #[test]
    fn large_chain_is_fully_connected() {
        let mut m = MatchSet::new();
        for i in 0..999 {
            m.merge(t(i), t(i + 1));
        }
        assert!(m.are_matched(t(0), t(999)));
        assert_eq!(m.clusters().len(), 1);
        assert_eq!(m.clusters()[0].len(), 1000);
    }
}
