//! Concurrent serving correctness: N reader threads hammer
//! [`ResidentResolver::snapshot`] / `cluster_of` / `explain` while the main
//! thread admits a randomized CDC stream (same operation zoo as
//! `incremental_equivalence`). Every snapshot any reader observes must be
//! bit-identical to the from-scratch sequential closure of exactly the prefix of
//! batches its epoch says were admitted — snapshot isolation means readers
//! never see a half-applied batch, and epochs only move forward per reader.
//! Explain chains are checked against the snapshot's own exported
//! provenance. A second case holds an admit inside its chase and requires a
//! reader to finish a lookup on the old epoch before the admit may go on.

use dcer::prelude::*;
use dcer_chase::Fact;
use dcer_ml::{EqualTextClassifier, MlModel};
use dcer_relation::{Catalog, RelationSchema, ValueType};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

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

/// Same rule zoo as `incremental_equivalence`: blocking, deep, collective,
/// and a derived-then-consumed ML predicate.
fn session() -> DcerSession {
    session_with(Arc::new(EqualTextClassifier))
}

/// The rule zoo with `model` behind the ML predicate `m`.
fn session_with(model: Arc<dyn MlModel>) -> DcerSession {
    let mut reg = MlRegistry::new();
    reg.register("m", model);
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

/// One CDC operation — see `incremental_equivalence` for the encoding:
/// kinds 0-2 insert into P, 3-4 into Q, 5-7 delete an already-allocated id
/// (repeat deletes arise naturally), 8 deletes a ghost id.
type Op = (u8, u8, u8, u8);

fn stream_strategy() -> impl Strategy<Value = Vec<Vec<Op>>> {
    prop::collection::vec(prop::collection::vec((0u8..9, 0u8..64, 0u8..64, 0u8..64), 0..6), 1..4)
}

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

/// From-scratch sequential closure of `shadow`: the oracle every snapshot is
/// compared against.
fn scratch(s: &DcerSession, shadow: &Dataset) -> (Vec<Vec<Tid>>, BTreeSet<Fact>) {
    let mut want = s.run_sequential(shadow);
    (want.matches.clusters(), want.validated.iter().copied().collect())
}

/// Check one observed snapshot against the per-epoch oracle. Returns an
/// error string instead of asserting so reader threads can report back.
fn check_snapshot(
    snap: &Snapshot,
    expected: &[(Vec<Vec<Tid>>, BTreeSet<Fact>)],
) -> Result<(), String> {
    let e = snap.epoch() as usize;
    let Some((want_clusters, want_validated)) = expected.get(e) else {
        return Err(format!("snapshot epoch {e} beyond the {} admitted", expected.len() - 1));
    };
    if snap.clusters() != want_clusters.as_slice() {
        return Err(format!(
            "epoch {e}: clusters {:?} != scratch {:?}",
            snap.clusters(),
            want_clusters
        ));
    }
    if snap.validated() != want_validated {
        return Err(format!(
            "epoch {e}: validated {:?} != scratch {:?}",
            snap.validated(),
            want_validated
        ));
    }
    // Explain inside the largest cluster: a chain must exist, every step's
    // order must point at the matching exported provenance entry, and every
    // support chain endpoint pair must be same-entity in this snapshot.
    if let Some(cluster) = snap.clusters().iter().max_by_key(|c| c.len()) {
        if cluster.len() >= 2 {
            let (a, b) = (cluster[0], cluster[cluster.len() - 1]);
            let Some(steps) = snap.explain(a, b) else {
                return Err(format!("epoch {e}: no explain chain for {a}~{b}"));
            };
            if a != b && steps.is_empty() {
                return Err(format!("epoch {e}: empty explain chain for {a}~{b}"));
            }
            for step in &steps {
                let entry = snap
                    .provenance()
                    .get(step.order)
                    .ok_or_else(|| format!("epoch {e}: step order {} out of range", step.order))?;
                if entry.fact != step.fact {
                    return Err(format!(
                        "epoch {e}: step {} fact {:?} != provenance {:?}",
                        step.order, step.fact, entry.fact
                    ));
                }
                for ante in &step.antecedents {
                    let holds = match *ante {
                        Fact::Id(x, y) => snap.same_entity(x, y),
                        ml @ Fact::Ml(..) => snap.validated().contains(&ml),
                    };
                    if !holds {
                        return Err(format!(
                            "epoch {e}: antecedent {ante:?} of step {} does not hold",
                            step.order
                        ));
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    // Each case spawns real threads and runs ~4 from-scratch closures, so
    // keep the case count low; the interleaving variety comes from the
    // scheduler as much as from the stream shape.
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Tentpole acceptance: snapshot isolation under concurrency. Readers
    /// race the writer; every snapshot equals the scratch closure of its
    /// epoch's prefix, epochs are monotone per reader, and readers make
    /// progress while admits are in flight.
    #[test]
    fn concurrent_snapshots_equal_scratch_closure_of_their_prefix(
        rows_p in prop::collection::vec((0u8..5, 0u8..4, 0u8..4), 2..7),
        rows_q in prop::collection::vec((0u8..4, 0u8..3), 0..4),
        stream in stream_strategy(),
    ) {
        let s = session();

        // Precompute the oracle: expected[(epoch)] = scratch closure after
        // the first `epoch` batches. The shadow dataset allocates the same
        // tids the resolver's resident dataset will (allocation is
        // deterministic), which `admit` reports let us double-check.
        let mut shadow = build(&rows_p, &rows_q);
        let mut all: Vec<Tid> =
            (0..2).flat_map(|rel| shadow.relation(rel).tuples().iter().map(|t| t.tid)).collect();
        let mut batches = Vec::new();
        let mut expected = vec![scratch(&s, &shadow)];
        for ops in &stream {
            let batch = to_batch(ops, &all);
            let report = shadow.apply_update(&batch).unwrap();
            all.extend(report.inserted.iter().copied());
            batches.push((batch, report.inserted.clone(), report.deleted.clone()));
            expected.push(scratch(&s, &shadow));
        }
        let expected = Arc::new(expected);

        let base = build(&rows_p, &rows_q);
        let resolver = Arc::new(session().resident(&base, &DmatchConfig::new(2)).unwrap());

        // Readers: spin over snapshots until told to stop, validating every
        // one and reporting the first failure (if any) plus their progress.
        let stop = Arc::new(AtomicBool::new(false));
        let readers: Vec<_> = (0..3)
            .map(|_| {
                let resolver = Arc::clone(&resolver);
                let expected = Arc::clone(&expected);
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || -> Result<u64, String> {
                    let mut reads = 0u64;
                    let mut last_epoch = 0u64;
                    // Stop is checked at the bottom so every reader
                    // validates at least one snapshot even if the whole
                    // (short) stream is admitted before this thread is
                    // first scheduled.
                    loop {
                        let snap = resolver.snapshot();
                        if snap.epoch() < last_epoch {
                            return Err(format!(
                                "epoch went backwards: {} after {last_epoch}",
                                snap.epoch()
                            ));
                        }
                        last_epoch = snap.epoch();
                        check_snapshot(&snap, &expected)?;
                        // A clustered tid resolves in the snapshot it came
                        // from. The convenience path loads its own snapshot,
                        // which a later admit may have replaced with an epoch
                        // that deletes the tid, so it must resolve only when
                        // no admit landed around the call.
                        if let Some(t) = snap.clusters().first().and_then(|c| c.first()) {
                            if snap.cluster_of(*t).is_none() {
                                return Err(format!(
                                    "{t} lost its cluster in its own epoch {}",
                                    snap.epoch()
                                ));
                            }
                            let before = resolver.snapshot().epoch();
                            let resolved = resolver.cluster_of(*t).is_some();
                            let after = resolver.snapshot().epoch();
                            if before < snap.epoch() || after < snap.epoch() {
                                return Err(format!(
                                    "epoch went backwards around a lookup: {before}, {after} \
                                     after {}",
                                    snap.epoch()
                                ));
                            }
                            if before == snap.epoch() && after == snap.epoch() && !resolved {
                                return Err(format!(
                                    "{t} lost its cluster in epoch {}",
                                    snap.epoch()
                                ));
                            }
                        }
                        reads += 1;
                        if stop.load(Ordering::Relaxed) {
                            return Ok(reads);
                        }
                        std::thread::yield_now();
                    }
                })
            })
            .collect();

        // Writer (this thread): admit the precomputed stream while the
        // readers race. Reports must mirror the shadow's allocation.
        let mut admit_err = None;
        for (i, (batch, want_inserted, want_deleted)) in batches.into_iter().enumerate() {
            match resolver.admit(batch) {
                Ok(report) => {
                    if report.epoch != (i + 1) as u64
                        || report.inserted != want_inserted
                        || report.deleted != want_deleted
                    {
                        admit_err = Some(format!(
                            "admit {} report {:?} != shadow ({:?}, {:?})",
                            i, report, want_inserted, want_deleted
                        ));
                        break;
                    }
                }
                Err(e) => {
                    admit_err = Some(format!("admit {i} failed: {e}"));
                    break;
                }
            }
        }

        stop.store(true, Ordering::Relaxed);
        let outcomes: Vec<Result<u64, String>> =
            readers.into_iter().map(|h| h.join().unwrap()).collect();

        prop_assert!(admit_err.is_none(), "{}", admit_err.unwrap());
        for outcome in &outcomes {
            match outcome {
                Ok(reads) => prop_assert!(*reads > 0, "reader made no progress"),
                Err(e) => prop_assert!(false, "reader failed: {}", e),
            }
        }

        // Quiescent check: the final snapshot is the full stream's closure.
        let last = resolver.snapshot();
        prop_assert_eq!(last.epoch() as usize, expected.len() - 1);
        prop_assert!(check_snapshot(&last, &expected).is_ok());
    }
}

/// How long the gated model waits for a reader before it gives up. Only a
/// reader that blocks on the writer comes near it.
const GATE_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Default)]
struct Gate {
    /// An armed call is parked inside the chase.
    entered: bool,
    /// A reader let the parked call go on.
    open: bool,
    /// The parked call gave up after [`GATE_TIMEOUT`].
    timed_out: bool,
}

/// [`EqualTextClassifier`] that, once armed, parks every call inside the
/// chase until [`GatedModel::open`] (or [`GATE_TIMEOUT`]).
#[derive(Default)]
struct GatedModel {
    armed: AtomicBool,
    gate: Mutex<Gate>,
    changed: Condvar,
}

impl GatedModel {
    fn update(&self, f: impl FnOnce(&mut Gate)) {
        f(&mut self.gate.lock().unwrap());
        self.changed.notify_all();
    }

    /// Wait until an armed call is parked; `false` on timeout.
    fn wait_entered(&self) -> bool {
        let gate = self.gate.lock().unwrap();
        let (gate, _) =
            self.changed.wait_timeout_while(gate, GATE_TIMEOUT, |g| !g.entered).unwrap();
        gate.entered
    }

    fn open(&self) {
        self.update(|g| g.open = true);
    }
}

impl MlModel for GatedModel {
    fn probability(&self, left: &[Value], right: &[Value]) -> f64 {
        if self.armed.load(Ordering::SeqCst) {
            self.update(|g| g.entered = true);
            let gate = self.gate.lock().unwrap();
            let (mut gate, wait) =
                self.changed.wait_timeout_while(gate, GATE_TIMEOUT, |g| !g.open).unwrap();
            if wait.timed_out() {
                gate.timed_out = true;
                gate.open = true;
            }
        }
        EqualTextClassifier.probability(left, right)
    }
}

/// Readers keep reading while an admit is in flight: the admit's chase
/// parks inside the ML model until a reader has loaded a snapshot and
/// resolved a tuple in it. That snapshot must be the old epoch. A reader
/// that waits on the writer never opens the gate, and the model's timeout
/// fails the test instead of hanging it.
#[test]
fn readers_finish_a_lookup_while_an_admit_is_parked_in_its_chase() {
    let model = Arc::new(GatedModel::default());
    let s = session_with(model.clone());
    let base = build(&[(0, 0, 0), (0, 1, 1), (1, 2, 2)], &[]);
    let resolver = Arc::new(s.resident(&base, &DmatchConfig::new(2)).unwrap());
    let clustered = Tid::new(0, 0);
    assert!(resolver.snapshot().cluster_of(clustered).is_some(), "k0 rows share a cluster");

    let reader = {
        let (resolver, model) = (Arc::clone(&resolver), Arc::clone(&model));
        std::thread::spawn(move || -> Result<(), String> {
            if !model.wait_entered() {
                return Err("the admit never reached the model".into());
            }
            let snap = resolver.snapshot();
            let found = snap.cluster_of(clustered);
            model.open();
            match (snap.epoch(), found) {
                (0, Some(_)) => Ok(()),
                (epoch, found) => Err(format!("read epoch {epoch} ({found:?}) during the admit")),
            }
        })
    };

    // A fresh key makes every `m` pair with the new row a call the chase
    // has not memoised, so the admit has to ask the model.
    model.armed.store(true, Ordering::SeqCst);
    let mut batch = UpdateBatch::new();
    batch.insert(0, vec!["k4".into(), "x2".into(), "f3".into()]);
    let report = resolver.admit(batch).unwrap();
    model.armed.store(false, Ordering::SeqCst);

    let read = reader.join().unwrap();
    assert!(!model.gate.lock().unwrap().timed_out, "no reader finished a lookup during the admit");
    read.unwrap();
    assert_eq!(report.epoch, 1);
    assert_eq!(resolver.snapshot().epoch(), 1);
}
