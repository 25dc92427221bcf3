//! Incremental-maintenance equivalence on randomized CDC streams: after any
//! interleaving of insert/delete batches — varying batch sizes, deletes of
//! never-inserted ids, repeat deletes of already-dead tuples — the resident
//! engines converge to the closure a from-scratch run computes over the
//! final dataset. Pins both the distributed [`UpdateSession`] (worker
//! counts 1/2/4/8: delta routing, retraction notices, rederive exchange)
//! and the single-engine `incremental_engine` + `apply_update` path, booted
//! either over the base rows or empty with the base rows as its first batch.
//! Each case also picks a predicate window width (1 / 7 / 1024) for the
//! resident engines, while the from-scratch oracle always runs width 1 —
//! so incremental maintenance over wide windows is cross-pinned against
//! the per-candidate closure. A TFACC case churns plates through the
//! signature indexes of `plate_sim` and checks the maintained closure
//! against an oracle that probes no signatures.

use dcer::prelude::*;
use dcer_ml::EqualTextClassifier;
use dcer_relation::{Catalog, RelationSchema, ValueType};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![
            RelationSchema::of(
                "P",
                &[("k", ValueType::Str), ("x", ValueType::Str), ("fk", ValueType::Str)],
            ),
            RelationSchema::of("Q", &[("fk", ValueType::Str), ("y", ValueType::Str)]),
        ])
        .unwrap(),
    )
}

/// Window widths exercised by the matrix: per-candidate, a small odd
/// window, and the default-sized window.
fn batch_configs() -> [dcer_chase::ChaseConfig; 3] {
    use dcer_chase::ChaseConfig;
    [
        ChaseConfig { batch_size: 1, ..Default::default() },
        ChaseConfig { batch_size: 7, ..Default::default() },
        ChaseConfig { batch_size: 1024, ..Default::default() },
    ]
}

/// The full rule shape zoo: blocking, recursive (deep), collective across
/// P/Q, and an ML predicate derived then consumed — retractions have to
/// cascade through every kind of support.
fn session() -> DcerSession {
    let mut reg = MlRegistry::new();
    reg.register("m", Arc::new(EqualTextClassifier));
    DcerSession::from_source(
        catalog(),
        "match md: P(t), P(s), t.k = s.k -> t.id = s.id;
         match deep: P(t), P(s), P(u), t.id = s.id, s.x = u.x -> t.id = u.id;
         match coll: P(t), P(s), Q(a), Q(b), t.fk = a.fk, s.fk = b.fk, a.y = b.y -> t.id = s.id;
         match val: P(t), P(s), t.x = s.x -> m(t.k, s.k);
         match use: P(t), P(s), m(t.k, s.k) -> t.id = s.id",
        reg,
    )
    .unwrap()
}

fn build(rows_p: &[(u8, u8, u8)], rows_q: &[(u8, u8)]) -> Dataset {
    let mut d = Dataset::new(catalog());
    for &(k, x, fk) in rows_p {
        d.insert(
            0,
            vec![
                format!("k{}", k % 5).into(),
                format!("x{}", x % 4).into(),
                format!("f{}", fk % 4).into(),
            ],
        )
        .unwrap();
    }
    for &(fk, y) in rows_q {
        d.insert(1, vec![format!("f{}", fk % 4).into(), format!("y{}", y % 3).into()]).unwrap();
    }
    d
}

/// One CDC operation, encoded as `(kind, a, b, c)` (the vendored proptest
/// stub has no `prop_oneof`/`prop_map`, so ops are decoded from plain
/// tuples): kinds 0-2 insert into P, 3-4 into Q, 5-7 delete an id drawn
/// from *every tuple ever inserted* — base rows and batch inserts alike,
/// so streams naturally contain repeat deletes of already-dead tuples —
/// and kind 8 deletes a ghost id that never existed. Dead and ghost
/// deletes must be tolerated no-ops.
type Op = (u8, u8, u8, u8);

/// Random batches of random sizes — including empty batches.
fn stream_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec((0u8..9, 0u8..64, 0u8..64, 0u8..64), 0..6), 1..4)
}

/// Decode one batch against the ids allocated so far.
fn to_batch(ops: &[Op], all: &[Tid]) -> UpdateBatch {
    let mut batch = UpdateBatch::new();
    for &(kind, a, b, c) in ops {
        match kind {
            0..=2 => {
                batch.insert(
                    0,
                    vec![
                        format!("k{}", a % 5).into(),
                        format!("x{}", b % 4).into(),
                        format!("f{}", c % 4).into(),
                    ],
                );
            }
            3..=4 => {
                batch.insert(1, vec![format!("f{}", a % 4).into(), format!("y{}", b % 3).into()]);
            }
            5..=7 => {
                if !all.is_empty() {
                    batch.delete(all[a as usize % all.len()]);
                }
            }
            _ => {
                batch.delete(Tid::new(0, 50_000 + a as u32));
            }
        }
    }
    batch
}

fn validated_set(outcome: &ChaseOutcome) -> BTreeSet<dcer_chase::Fact> {
    outcome.validated.iter().copied().collect()
}

/// Every tuple id in the freshly built base dataset (no tombstones yet).
fn base_tids(d: &Dataset) -> Vec<Tid> {
    (0..2).flat_map(|rel| d.relation(rel).tuples().iter().map(|t| t.tid)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Distributed path: an [`UpdateSession`] at every worker count stays
    /// bit-identical to a from-scratch sequential run over its own master
    /// dataset after every batch.
    #[test]
    fn update_session_matches_scratch_for_any_interleaving(
        rows_p in prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 2..7),
        rows_q in prop::collection::vec((0u8..4, 0u8..3), 0..4),
        stream in stream_strategy(),
        batch_sel in 0usize..3,
    ) {
        // Resident engines carry this case's window width; the
        // from-scratch oracle always runs width 1.
        let s = session().with_chase_config(batch_configs()[batch_sel].clone());
        let s_width_one = session().with_chase_config(batch_configs()[0].clone());
        for workers in [1usize, 2, 4, 8] {
            let base = build(&rows_p, &rows_q);
            let mut all: Vec<Tid> = base_tids(&base);
            let mut us = s.update_session(&base, &DmatchConfig::new(workers)).unwrap();
            for (bi, ops) in stream.iter().enumerate() {
                let batch = to_batch(ops, &all);
                let report = us.run_update(&batch).unwrap();
                all.extend(report.inserted.iter().copied());
                let mut got = us.outcome();
                let mut want = s_width_one.run_sequential(us.dataset());
                prop_assert_eq!(
                    got.matches.clusters(), want.matches.clusters(),
                    "clusters diverged: workers={} batch={}", workers, bi
                );
                prop_assert_eq!(
                    validated_set(&got), validated_set(&want),
                    "validated facts diverged: workers={} batch={}", workers, bi
                );
            }
        }
    }

    /// Sequential path: a resident [`dcer_chase::ChaseEngine`] fed the same
    /// batches through `apply_update` agrees with from-scratch, too. With
    /// `boot_empty` the engine is built over an empty dataset of the same
    /// catalog and the base rows arrive as its first `apply_update` batch:
    /// booting is then just an admit into an empty engine.
    #[test]
    fn resident_engine_matches_scratch_for_any_interleaving(
        rows_p in prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 2..7),
        rows_q in prop::collection::vec((0u8..4, 0u8..3), 0..4),
        stream in stream_strategy(),
        batch_sel in 0usize..3,
        boot_empty in any::<bool>(),
    ) {
        let s = session().with_chase_config(batch_configs()[batch_sel].clone());
        let s_width_one = session().with_chase_config(batch_configs()[0].clone());
        // The shadow dataset mirrors the engine's fragment and allocates
        // the authoritative tuple ids for each batch's inserts.
        let mut shadow = build(&rows_p, &rows_q);
        let mut all: Vec<Tid> = base_tids(&shadow);
        let mut engine = if boot_empty {
            let mut engine = s.incremental_engine(&Dataset::new(catalog())).unwrap();
            let base: Vec<Tuple> =
                all.iter().map(|&tid| shadow.tuple(tid).unwrap().clone()).collect();
            engine.apply_update(base, &[]);
            engine
        } else {
            let mut engine = s.incremental_engine(&shadow).unwrap();
            engine.update_fixpoint();
            engine
        };
        for (bi, ops) in stream.iter().enumerate() {
            let batch = to_batch(ops, &all);
            let report = shadow.apply_update(&batch).unwrap();
            let inserts: Vec<Tuple> = report.inserted.iter()
                .map(|&tid| shadow.tuple(tid).unwrap().clone()).collect();
            all.extend(report.inserted.iter().copied());
            engine.apply_update(inserts, &report.deleted);

            let mut resident = engine.state_mut().clone();
            let mut want = s_width_one.run_sequential(&shadow);
            prop_assert_eq!(
                resident.matches.clusters(), want.matches.clusters(),
                "clusters diverged at batch {} (boot_empty={})", bi, boot_empty
            );
            prop_assert_eq!(
                resident.validated.iter().copied().collect::<BTreeSet<_>>(),
                validated_set(&want),
                "validated facts diverged at batch {} (boot_empty={})", bi, boot_empty
            );
        }
    }
}

/// TFACC's session, and the same rules with `plate_sim` re-thresholded
/// through [`ThresholdClassifier`]: identical decisions but no certified
/// keys, so the oracle scores every plate pair of a `model` block instead
/// of probing the signature index.
fn tfacc_sessions() -> (DcerSession, DcerSession) {
    use dcer_datagen::tfacc;
    use dcer_ml::{LevenshteinClassifier, ThresholdClassifier};
    let signed =
        DcerSession::from_source(tfacc::catalog(), tfacc::rules_source(), tfacc::make_registry())
            .unwrap();
    let mut reg = tfacc::make_registry();
    let plate_sim = ThresholdClassifier::new(LevenshteinClassifier::new(0.7), 0.7);
    reg.register("plate_sim", Arc::new(plate_sim));
    let unsigned = DcerSession::from_source(tfacc::catalog(), tfacc::rules_source(), reg).unwrap();
    (signed, unsigned)
}

/// A plate derived from `plate`: near duplicates one or two edits away,
/// and plates too short to cut into segments — one scalar, empty — that
/// pair only through the wildcard key.
fn plate_variant(plate: &str, pick: u32, at: u32) -> Value {
    let mut chars: Vec<char> = plate.chars().collect();
    let at = at as usize % (chars.len() + 1);
    match pick % 8 {
        0 => Value::str(plate),
        1 => {
            chars.insert(at, 'Q');
            Value::str(chars.into_iter().collect::<String>())
        }
        2 if at < chars.len() => {
            chars.remove(at);
            Value::str(chars.into_iter().collect::<String>())
        }
        3 if at < chars.len() => {
            chars[at] = 'é';
            chars.insert(0, 'Z');
            Value::str(chars.into_iter().collect::<String>())
        }
        4 => Value::str(""),
        5 => Value::str("A"),
        6 => Value::str("AB"),
        _ => Value::str(chars.into_iter().rev().collect::<String>()),
    }
}

/// Signature postings under admits: near-duplicate, short and empty plates
/// inserted into existing `model` blocks (twice each, so short plates have
/// partners), and vehicles deleted, at worker counts 1, 2 and 4. After
/// every batch the maintained closure — whose signature indexes were
/// patched by `IndexSet::apply_update` — equals a from-scratch resolve
/// that enumerates every plate pair.
#[test]
fn tfacc_plate_churn_matches_scratch_without_signatures() {
    use dcer_datagen::tfacc::{self, rel};
    use rand::{Rng, SeedableRng};
    let (signed, unsigned) = tfacc_sessions();
    for seed in 0..3u64 {
        let (base, _) =
            tfacc::generate(&tfacc::TfaccConfig { vehicles: 40, dup: 0.3, seed: 5 + seed });
        for workers in [1usize, 2, 4] {
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let mut us = signed.update_session(&base, &DmatchConfig::new(workers)).unwrap();
            let mut next_vkey = 10_000i64;
            for bi in 0..3 {
                let mut batch = UpdateBatch::new();
                let vehicles = us.dataset().relation(rel::VEHICLE);
                let live: Vec<Tuple> = (0..vehicles.len() as u32)
                    .filter(|&pos| vehicles.is_live(pos))
                    .map(|pos| vehicles.tuples()[pos as usize].clone())
                    .collect();
                for _ in 0..6 {
                    let t = &live[rng.random_range(0..live.len())];
                    let plate = t.get(4).as_str().unwrap_or("").to_string();
                    let variant =
                        plate_variant(&plate, rng.random_range(0..8), rng.random_range(0..16));
                    for _ in 0..2 {
                        let mut values = t.values.to_vec();
                        values[0] = Value::Int(next_vkey);
                        values[4] = variant.clone();
                        next_vkey += 1;
                        batch.insert(rel::VEHICLE, values);
                    }
                }
                for _ in 0..3 {
                    batch.delete(live[rng.random_range(0..live.len())].tid);
                }
                us.run_update(&batch).unwrap();
                let mut got = us.outcome();
                let mut want = unsigned.run_sequential(us.dataset());
                assert_eq!(
                    got.matches.clusters(),
                    want.matches.clusters(),
                    "clusters diverged: seed={seed} workers={workers} batch={bi}"
                );
                assert_eq!(validated_set(&got), validated_set(&want));
            }
        }
    }
}
