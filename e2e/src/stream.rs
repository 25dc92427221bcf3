//! Deterministic hold-out replay: the CDC stream every workload admits.
//!
//! A share of every large relation is held out of the initial load. Inserts
//! replay those genuine generator rows, so duplicates arrive with the
//! generator's own noise and fresh keys; deletes are uniformly drawn live
//! tuples of the same relations. Once the hold-out is used up, inserts
//! re-admit rows the stream itself deleted at least [`READMIT_LAG`] batches
//! earlier. Small relations are dimensions and are never churned.
//!
//! Everything is a pure function of the seed. The program under test sees
//! only the [`Dataset`] and the [`UpdateBatch`]es, never the seed.

use dcer_datagen::GroundTruth;
use dcer_relation::{Dataset, RelId, Tid, UpdateBatch, Value};
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::{HashMap, VecDeque};

/// Relations with at most this many rows are dimensions: never held out,
/// never churned (TPCH `region` and `nation`, TFACC `fueltype` and `make`).
const DIMENSION_ROWS: usize = 100;

/// Batches that must pass before a deleted row may be admitted again.
const READMIT_LAG: u64 = 8;

/// What one batch of the stream holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Batch {
    /// This many deletes and as many inserts, the inserts drawn from the
    /// replay order, so in proportion to the relations' sizes.
    Bulk(usize),
    /// One delete, and one insert into every churned relation. Every such
    /// batch has the same make-up, so small batches cost alike. (A trickle
    /// drawn in proportion holds one `part` row or two, and on TPCH a `part`
    /// row costs 310 ms to admit where any other costs 2 to 20.)
    Trickle,
}

/// One generator row outside the live dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub rel: RelId,
    pub values: Vec<Value>,
    /// The row's identity in the generated dataset, which the truth names.
    pub origin: Tid,
}

/// A generated dataset split into the initial load and the held-out rows.
pub struct HoldOut {
    /// What the program loads first.
    pub initial: Dataset,
    /// For every tuple of `initial`, its identity in the generated dataset.
    pub origins: HashMap<Tid, Tid>,
    /// Held-out rows, relation by relation in the generator's order.
    pub held: Vec<Row>,
    /// The generator's truth, in the generated dataset's identities.
    pub truth: GroundTruth,
}

/// Whether the stream may insert into and delete from `rel`.
fn is_churned(full: &Dataset, rel: RelId) -> bool {
    full.relation(rel).len() > DIMENSION_ROWS
}

/// Hold `share` of every churned relation out of `full`.
pub fn hold_out(full: &Dataset, truth: GroundTruth, share: f64, seed: u64) -> HoldOut {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut initial = Dataset::new(full.catalog().clone());
    let mut held = Vec::new();
    let mut origins = HashMap::new();
    for relation in full.relations() {
        let rel = relation.rel_id();
        let churned = is_churned(full, rel);
        for t in relation.tuples() {
            if churned && rng.random_bool(share) {
                held.push(Row { rel, values: t.values.to_vec(), origin: t.tid });
            } else {
                let tid = initial.insert(rel, t.values.to_vec()).expect("row fits its own schema");
                origins.insert(tid, t.tid);
            }
        }
    }
    HoldOut { initial, origins, held, truth }
}

/// The stream generator. It owns the shadow dataset: the copy of the initial
/// load that has applied every batch it handed out, which the correctness
/// gate resolves from scratch.
pub struct Replay {
    rng: ChaCha8Rng,
    shadow: Dataset,
    held: VecDeque<Row>,
    /// Live tuples of churned relations, the delete candidates.
    live: Vec<Tid>,
    /// Rows this stream deleted, with the batch that deleted them.
    graveyard: VecDeque<(u64, Row)>,
    /// For every live tuple of the shadow, its identity in the generated
    /// dataset.
    origins: HashMap<Tid, Tid>,
    /// The relations the stream inserts into and deletes from.
    churned: Vec<RelId>,
    batches: u64,
}

impl Replay {
    /// A stream over `hold.initial` that replays `hold.held` in an order
    /// `seed` picks.
    pub fn new(hold: &HoldOut, seed: u64) -> Replay {
        let (initial, held) = (&hold.initial, &hold.held);
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let churned: Vec<RelId> =
            (0..initial.catalog().len() as RelId).filter(|&rel| is_churned(initial, rel)).collect();
        // Spread each relation's rows evenly over the replay: row `i` of `n`
        // sits at `(i + offset) / n` of the way through. Every window of the
        // stream then holds each relation in proportion to its size, so bulk
        // batches cost alike and a quartile over few of them holds.
        let mut keyed: Vec<(f64, &Row)> = Vec::with_capacity(held.len());
        for &rel in &churned {
            let mut rows: Vec<&Row> = held.iter().filter(|row| row.rel == rel).collect();
            rows.shuffle(&mut rng);
            let (n, offset) = (rows.len() as f64, rng.random::<f64>());
            keyed.extend(
                rows.into_iter().enumerate().map(|(i, row)| ((i as f64 + offset) / n, row)),
            );
        }
        keyed.sort_by(|a, b| a.0.total_cmp(&b.0));
        let live = churned
            .iter()
            .flat_map(|&rel| initial.relation(rel).tuples().iter().map(|t| t.tid))
            .collect();
        Replay {
            rng,
            shadow: initial.clone(),
            held: keyed.into_iter().map(|(_, row)| row.clone()).collect(),
            live,
            graveyard: VecDeque::new(),
            origins: hold.origins.clone(),
            churned,
            batches: 0,
        }
    }

    /// How many tuples one batch adds to `|D|`, at most.
    pub fn net_growth(&self, batch: Batch) -> usize {
        match batch {
            Batch::Bulk(_) => 0,
            Batch::Trickle => self.churned.len() - 1,
        }
    }

    /// The initial load with every batch handed out so far applied.
    pub fn shadow(&self) -> &Dataset {
        &self.shadow
    }

    /// `truth` in the shadow's identities, restricted to its live tuples.
    pub fn live_truth(&self, truth: &GroundTruth) -> GroundTruth {
        let now: HashMap<Tid, Tid> =
            self.origins.iter().map(|(&tid, &origin)| (origin, tid)).collect();
        let mut live = GroundTruth::new();
        for (a, b) in truth.pairs() {
            if let (Some(&a), Some(&b)) = (now.get(&a), now.get(&b)) {
                live.add_pair(a, b);
            }
        }
        live
    }

    /// The next batch, already applied to the shadow, and the identities its
    /// inserts got there.
    pub fn next_batch(&mut self, batch: Batch) -> (UpdateBatch, Vec<Tid>) {
        let mut out = UpdateBatch::new();
        let mut inserted_origins = Vec::new();
        let deletes = match batch {
            Batch::Bulk(n) => n,
            Batch::Trickle => 1,
        };
        for _ in 0..deletes.min(self.live.len()) {
            let at = self.rng.random_range(0..self.live.len());
            let tid = self.live.swap_remove(at);
            let values = self.shadow.tuple(tid).expect("live tuple").values.to_vec();
            let origin = self.origins.remove(&tid).expect("live tuples have origins");
            self.graveyard.push_back((self.batches, Row { rel: tid.rel, values, origin }));
            out.delete(tid);
        }
        match batch {
            Batch::Bulk(n) => {
                for _ in 0..n {
                    let Some(row) = self.held.pop_front().or_else(|| self.readmit()) else { break };
                    inserted_origins.push(row.origin);
                    out.insert(row.rel, row.values);
                }
            }
            Batch::Trickle => {
                for &rel in &self.churned {
                    // The replay order interleaves the relations, so the next
                    // row of any one of them is near the front.
                    if let Some(at) = self.held.iter().position(|row| row.rel == rel) {
                        let row = self.held.remove(at).expect("position is in range");
                        inserted_origins.push(row.origin);
                        out.insert(row.rel, row.values);
                    }
                }
            }
        }
        let report = self.shadow.apply_update(&out).expect("generated rows fit the schema");
        assert_eq!(report.deleted.len(), out.deletes.len(), "every delete hits a live tuple");
        self.live.extend(&report.inserted);
        self.origins.extend(report.inserted.iter().copied().zip(inserted_origins));
        self.batches += 1;
        (out, report.inserted)
    }

    /// A row this stream deleted at least [`READMIT_LAG`] batches ago.
    fn readmit(&mut self) -> Option<Row> {
        let &(died, _) = self.graveyard.front()?;
        (died + READMIT_LAG <= self.batches).then(|| self.graveyard.pop_front().expect("front").1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_relation::{Catalog, RelationSchema, ValueType};
    use std::collections::HashSet;
    use std::sync::Arc;

    /// A 3-row dimension and two large relations; `k` is unique per row.
    fn dataset() -> (Dataset, GroundTruth) {
        let catalog = Arc::new(
            Catalog::from_schemas(vec![
                RelationSchema::of("dim", &[("k", ValueType::Int)]),
                RelationSchema::of("big", &[("k", ValueType::Int), ("x", ValueType::Str)]),
                RelationSchema::of("wide", &[("k", ValueType::Int)]),
            ])
            .unwrap(),
        );
        let mut d = Dataset::new(catalog);
        let mut truth = GroundTruth::new();
        for k in 0..3 {
            d.insert(0, vec![Value::Int(k)]).unwrap();
        }
        for k in 0..4000 {
            let t = d.insert(1, vec![Value::Int(k), format!("x{}", k % 7).into()]).unwrap();
            if k % 2 == 1 {
                truth.add_pair(Tid::new(1, k as u32 - 1), t);
            }
        }
        for k in 0..1000 {
            d.insert(2, vec![Value::Int(10_000 + k)]).unwrap();
        }
        (d, truth)
    }

    /// One fixed hold-out, as every workload has; the seed picks the stream.
    fn stream(seed: u64, batches: usize, batch: Batch) -> (HoldOut, Replay, Vec<UpdateBatch>) {
        let (full, truth) = dataset();
        let hold = hold_out(&full, truth, 0.2, 1);
        let mut replay = Replay::new(&hold, seed);
        let out = (0..batches).map(|_| replay.next_batch(batch).0).collect();
        (hold, replay, out)
    }

    #[test]
    fn same_seed_gives_byte_identical_batches() {
        for batch in [Batch::Bulk(50), Batch::Trickle] {
            let (_, _, batches_a) = stream(7, 30, batch);
            let (_, _, batches_b) = stream(7, 30, batch);
            assert_eq!(format!("{batches_a:?}"), format!("{batches_b:?}"));
            let (_, _, other) = stream(8, 30, batch);
            assert_ne!(format!("{batches_a:?}"), format!("{other:?}"));
        }
    }

    #[test]
    fn dimension_relations_are_never_churned() {
        for batch in [Batch::Bulk(50), Batch::Trickle] {
            let (hold, replay, batches) = stream(3, 40, batch);
            assert_eq!(hold.initial.relation(0).len(), 3, "dimension fully loaded");
            assert!(hold.held.iter().all(|r| r.rel != 0));
            for b in &batches {
                assert!(b.inserts.iter().all(|(rel, _)| *rel != 0));
                assert!(b.deletes.iter().all(|t| t.rel != 0));
            }
            assert_eq!(replay.shadow().relation(0).live_count(), 3);
        }
    }

    #[test]
    fn a_trickle_batch_inserts_one_row_into_every_churned_relation() {
        let (_, replay, batches) = stream(9, 50, Batch::Trickle);
        for b in &batches {
            let rels: Vec<RelId> = b.inserts.iter().map(|(rel, _)| *rel).collect();
            assert_eq!(rels, vec![1, 2]);
            assert_eq!(b.deletes.len(), 1);
        }
        assert_eq!(replay.net_growth(Batch::Trickle), 1);
    }

    #[test]
    fn no_row_is_live_twice_and_size_stays_within_one_percent() {
        let (full, truth) = dataset();
        let hold = hold_out(&full, truth, 0.2, 11);
        let start = hold.initial.total_live();
        let mut replay = Replay::new(&hold, 11);
        // 60 batches of 100 inserts outlast the ~1000 held rows, so the
        // stream also re-admits its own deletes.
        for _ in 0..60 {
            replay.next_batch(Batch::Bulk(100));
            let mut keys = HashSet::new();
            for t in replay.shadow().live_tuples() {
                assert!(keys.insert((t.tid.rel, t.get(0).clone())), "row live twice: {t}");
            }
            let live = replay.shadow().total_live() as f64;
            assert!((live / start as f64 - 1.0).abs() <= 0.01, "|D| drifted to {live}");
        }
        assert!(replay.held.is_empty(), "the test must reach the re-admit phase");
    }

    #[test]
    fn live_truth_follows_the_rows_through_the_stream() {
        let (full, truth) = dataset();
        let pairs = truth.num_pairs();
        let hold = hold_out(&full, truth, 0.2, 5);
        let mut replay = Replay::new(&hold, 5);
        for round in 0..30 {
            let live = replay.live_truth(&hold.truth);
            assert!(live.num_pairs() > 0 && live.num_pairs() < pairs);
            for (a, b) in live.pairs() {
                let shadow = replay.shadow();
                assert!(shadow.is_live(a) && shadow.is_live(b), "round {round}: dead pair");
                let (ka, kb) = (shadow.tuple(a).unwrap().get(0), shadow.tuple(b).unwrap().get(0));
                let (Value::Int(x), Value::Int(y)) = (ka, kb) else { panic!("keys are ints") };
                assert_eq!(x / 2, y / 2, "pairs travel with their rows");
            }
            replay.next_batch(Batch::Bulk(100));
        }
    }
}
