//! Checkpoint round-trip properties (DESIGN.md §11): a worker snapshot —
//! [`ChaseState::to_delta`] exposed as [`ChaseEngine::snapshot`] — must
//! survive the wire (`Message::encode`/`decode`) bit-for-bit, keep the
//! `DeltaBatch` invariants (strictly sorted, deduplicated, stable cached
//! wire size), and restore a *fresh* engine to the exact deduced state:
//! same validated ML facts, same `E_id` equivalence classes.

use dcer_bsp::Message;
use dcer_chase::{ChaseConfig, ChaseEngine, DeltaBatch, Fact};
use dcer_ml::{EqualTextClassifier, MlRegistry};
use dcer_mrl::{parse_rules, RuleSet};
use dcer_relation::{Catalog, Dataset, RelationSchema, Tid, ValueType};
use proptest::prelude::*;
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

fn rules() -> RuleSet {
    parse_rules(
        &catalog(),
        "match md: P(t), P(s), t.k = s.k -> t.id = s.id;
         match deep: P(t), P(s), P(u), t.id = s.id, s.x = u.x -> t.id = u.id;
         match coll: P(t), P(s), Q(a), Q(b), t.fk = a.fk, s.fk = b.fk, a.y = b.y -> t.id = s.id;
         match val: P(t), P(s), t.x = s.x -> mdl(t.k, s.k);
         match use: P(t), P(s), mdl(t.k, s.k) -> t.id = s.id",
    )
    .unwrap()
}

fn registry() -> MlRegistry {
    let mut r = MlRegistry::new();
    r.register("mdl", Arc::new(EqualTextClassifier));
    r
}

fn build_dataset(rows_p: &[(u8, u8, u8)], rows_q: &[(u8, u8)]) -> Dataset {
    let mut d = Dataset::new(catalog());
    for &(k, x, fk) in rows_p {
        d.insert(
            0,
            vec![
                format!("k{}", k % 4).into(),
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

/// Compact generated fact, as in `batch_properties.rs`.
type RawFact = (u8, u8, u8, u8, u8);

fn fact((kind, ra, wa, rb, wb): RawFact) -> Fact {
    let a = Tid { rel: (ra % 3) as u16, row: (wa % 16) as u32 };
    let b = Tid { rel: (rb % 3) as u16, row: (wb % 16) as u32 };
    match kind % 3 {
        0 => Fact::id(a, b),
        1 => Fact::ml((kind % 4) as u16, a, b, true),
        _ => Fact::ml((kind % 4) as u16, a, b, false),
    }
}

fn rows_p() -> impl Strategy<Value = Vec<(u8, u8, u8)>> {
    prop::collection::vec((0u8..4, 0u8..4, 0u8..4), 1..18)
}

fn rows_q() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..4, 0u8..3), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any batch survives the checkpoint wire format: decode(encode(b))
    /// reproduces the batch exactly, with the canonical-form invariants
    /// and the cached wire size intact.
    #[test]
    fn wire_round_trip_preserves_batch_invariants(raw in prop::collection::vec(
        (0u8..6, 0u8..3, 0u8..16, 0u8..3, 0u8..16), 0..40)) {
        let batch = DeltaBatch::new(raw.into_iter().map(fact).collect());
        let bytes = batch.encode().expect("DeltaBatch is encodable");
        let back = DeltaBatch::decode(&bytes).expect("own encoding must decode");
        prop_assert_eq!(&back, &batch);
        prop_assert!(back.as_slice().windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(back.size_bytes(), batch.size_bytes());
        prop_assert_eq!(back.len(), batch.len());
        // Encoding is deterministic — re-encoding yields the same bytes.
        prop_assert_eq!(back.encode().unwrap(), bytes);
    }

    /// Snapshot -> restore round-trips the deduced state: a fresh engine
    /// recovered from the checkpoint re-snapshots to the identical batch
    /// (same validated ML facts + same `E_id` classes), even across the
    /// wire format, and recovery is idempotent.
    #[test]
    fn snapshot_restore_round_trips_engine_state(
        rp in rows_p(), rq in rows_q(), tiny_cache in any::<bool>()) {
        let data = build_dataset(&rp, &rq);
        let rules = rules();
        let registry = registry();
        let config = ChaseConfig {
            dep_capacity: if tiny_cache { 1 } else { 1024 },
            ..ChaseConfig::default()
        };

        let mut original = ChaseEngine::new(data.clone(), &rules, &registry, &config).unwrap();
        original.update_fixpoint();
        let ckpt = original.snapshot();

        // Through the wire, as a disk-spilled checkpoint would travel.
        let ckpt = DeltaBatch::decode(&ckpt.encode().unwrap()).unwrap();

        let mut recovered = ChaseEngine::new(data, &rules, &registry, &config).unwrap();
        recovered.recover(ckpt.as_slice());
        prop_assert_eq!(&recovered.snapshot(), &ckpt);

        // Idempotent: recovering again from the same checkpoint is stable.
        recovered.recover(ckpt.as_slice());
        prop_assert_eq!(&recovered.snapshot(), &ckpt);
    }
}

/// An empty checkpoint restores to exactly the local fixpoint — the
/// degenerate recovery of a worker that crashed before its first
/// checkpoint.
#[test]
fn empty_checkpoint_recovers_to_the_plain_fixpoint() {
    let data = build_dataset(&[(0, 1, 2), (0, 2, 2), (1, 1, 3)], &[(2, 1), (3, 1)]);
    let rules = rules();
    let registry = registry();
    let config = ChaseConfig::default();

    let mut plain = ChaseEngine::new(data.clone(), &rules, &registry, &config).unwrap();
    plain.update_fixpoint();

    let mut recovered = ChaseEngine::new(data, &rules, &registry, &config).unwrap();
    recovered.recover(&[]);
    assert_eq!(recovered.snapshot(), plain.snapshot());
}
