//! Golden-output test for HyPart: fixed cases over the `parallel_parity`
//! catalog and rule pool, each partitioned at 1, 2 and 8 lanes and reduced
//! to one line — every `PartitionStats` field plus a 64-bit FNV-1a digest
//! of the fragments (tids in row order), each tuple's host workers (sorted
//! by tid; derived from the rule masks, whose keys are exactly each
//! fragment's tuples) and each fragment's rule masks (sorted by tid).
//!
//! `golden/partition.txt` was produced by the original single-threaded
//! reference partitioner (one global hash memo, geometry rebuilt on every
//! refinement), so a pass certifies that `partition` still computes that
//! exact output at every lane count. Rows come from an inline SplitMix64,
//! so the file depends on no random-number crate. There is no regenerate
//! switch: a mismatch prints the actual line, and changing the file is a
//! deliberate, reviewed change of HyPart's output.

use dcer_hypart::{partition, HyPartConfig, Partition};
use dcer_mrl::parse_rules;
use dcer_relation::{Catalog, Dataset, RelationSchema, Tid, ValueType};
use std::collections::BTreeMap;
use std::sync::Arc;

const GOLDEN: &str = include_str!("golden/partition.txt");

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of("A", &[("k", ValueType::Str), ("v", ValueType::Float)]),
            RelationSchema::of("B", &[("k", ValueType::Str), ("w", ValueType::Str)]),
        ])
        .unwrap(),
    )
}

const RULE_POOL: [&str; 4] = [
    "match self_a: A(t), A(s), t.k = s.k -> t.id = s.id",
    "match cross: A(t), B(u), A(s), B(v), t.k = u.k, s.k = v.k, u.w = v.w -> t.id = s.id",
    "match numeric: A(t), A(s), t.v = s.v -> t.id = s.id",
    "match b_only: B(u), B(v), u.w = v.w -> u.id = v.id",
];

struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

struct Case {
    rules: &'static [usize],
    workers: usize,
    use_mqo: bool,
    virtual_factor: usize,
    /// Distinct keys; `0` selects the skewed shape (one hot key on three
    /// rows in four, the rest spread over 40 cold keys).
    keys: u64,
    /// Tombstone the first row of each relation after loading.
    tombstone: bool,
}

const fn case(rules: &'static [usize], workers: usize, use_mqo: bool, vf: usize) -> Case {
    Case { rules, workers, use_mqo, virtual_factor: vf, keys: 5, tombstone: false }
}

const CASES: [Case; 24] = [
    case(&[0], 1, true, 1),
    case(&[0], 2, true, 3),
    case(&[0], 3, false, 1),
    case(&[0], 5, true, 3),
    case(&[3], 2, true, 1),
    case(&[3], 5, false, 3),
    case(&[1], 1, true, 3),
    case(&[1], 2, false, 1),
    case(&[1], 3, true, 3),
    case(&[1], 5, true, 1),
    case(&[0, 1], 2, true, 1),
    case(&[0, 1], 3, false, 3),
    case(&[1, 2], 5, true, 3),
    case(&[1, 2], 3, true, 1),
    case(&[2, 3], 2, false, 3),
    case(&[0, 2, 3], 1, false, 1),
    case(&[0, 2, 3], 5, true, 1),
    case(&[0, 1, 2, 3], 1, true, 3),
    case(&[0, 1, 2, 3], 2, true, 3),
    case(&[0, 1, 2, 3], 3, true, 1),
    case(&[0, 1, 2, 3], 5, false, 3),
    case(&[0, 1, 2, 3], 2, false, 1),
    Case { keys: 0, ..case(&[0, 3], 2, true, 3) },
    Case { tombstone: true, ..case(&[0, 1, 3], 3, true, 3) },
];

fn dataset(seed: u64, c: &Case) -> Dataset {
    let mut rng = SplitMix64(seed);
    let mut d = Dataset::new(catalog());
    let (rows_a, rows_b) = if c.keys == 0 { (80, 24) } else { (8 + rng.below(24), rng.below(16)) };
    let key = |rng: &mut SplitMix64| match c.keys {
        0 if rng.below(4) != 0 => "hot".to_string(),
        0 => format!("k{}", rng.below(40)),
        n => format!("k{}", rng.below(n)),
    };
    for _ in 0..rows_a {
        let k = key(&mut rng);
        // Half-integral floats exercise both numeric hash paths.
        let v = (rng.below(5) as f64 - 2.0) / 2.0;
        d.insert(0, vec![k.into(), v.into()]).unwrap();
    }
    for _ in 0..rows_b {
        let k = key(&mut rng);
        d.insert(1, vec![k.into(), format!("w{}", rng.below(3)).into()]).unwrap();
    }
    if c.tombstone {
        for rel in 0..2 {
            if let Some(t) = d.relation(rel).tuples().first() {
                let tid = t.tid;
                assert!(d.delete(tid));
            }
        }
    }
    d
}

/// 64-bit FNV-1a.
struct Fnv(u64);

impl Fnv {
    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
    }
}

fn digest(p: &Partition) -> u64 {
    let mut h = Fnv(0xCBF2_9CE4_8422_2325);
    let end = u64::MAX.to_le_bytes();
    for f in &p.fragments {
        for r in f.relations() {
            for t in r.tuples() {
                h.bytes(&t.tid.pack().to_le_bytes());
            }
            h.bytes(&end);
        }
    }
    let mut hosts: BTreeMap<Tid, Vec<u16>> = BTreeMap::new();
    for (w, masks) in p.rule_masks.iter().enumerate() {
        for &tid in masks.keys() {
            hosts.entry(tid).or_default().push(w as u16);
        }
    }
    for (tid, workers) in hosts {
        h.bytes(&tid.pack().to_le_bytes());
        for w in workers {
            h.bytes(&w.to_le_bytes());
        }
        h.bytes(&end);
    }
    for masks in &p.rule_masks {
        let mut masks: Vec<_> = masks.iter().collect();
        masks.sort();
        for (tid, mask) in masks {
            h.bytes(&tid.pack().to_le_bytes());
            h.bytes(&mask.to_le_bytes());
        }
        h.bytes(&end);
    }
    h.0
}

fn line(i: usize, p: &Partition) -> String {
    format!("{i:02} {:?} digest={:016x}", p.stats, digest(p))
}

#[test]
fn partition_matches_the_golden_file_at_every_lane_count() {
    let expected: Vec<&str> = GOLDEN.lines().collect();
    assert_eq!(expected.len(), CASES.len(), "one golden line per case");
    let mut mismatches = Vec::new();
    let (mut refined, mut tombstoned) = (false, false);
    for (i, c) in CASES.iter().enumerate() {
        let d = dataset(i as u64, c);
        tombstoned |= d.total_live() < d.total_tuples();
        let src: String = c.rules.iter().map(|&r| format!("{};\n", RULE_POOL[r])).collect();
        let rs = parse_rules(d.catalog(), &src).unwrap();
        let mut cfg = HyPartConfig::new(c.workers);
        cfg.use_mqo = c.use_mqo;
        cfg.virtual_factor = c.virtual_factor;
        for lanes in [1, 2, 8] {
            cfg.threads = lanes;
            let p = partition(&d, &rs, &cfg);
            refined |= p.stats.refinements > 0;
            let actual = line(i, &p);
            if actual != expected[i] {
                let want = expected[i];
                mismatches.push(format!(
                    "case {i}, {lanes} lanes:\n  expected {want}\n  actual   {actual}"
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "partition diverged from the golden file:\n{}", {
        mismatches.join("\n")
    });
    assert!(refined, "some case must take the skew-refinement path");
    assert!(tombstoned, "some case must carry a tombstoned row");
}
