//! Resident ER serving: snapshot-isolated reads over the maintained
//! fixpoint.
//!
//! [`UpdateSession`] (PR 6) keeps the distributed chase resident and
//! bit-identical to a from-scratch closure after every CDC batch, but it is
//! single-threaded: whoever holds the session both admits updates and
//! answers queries. [`ResidentResolver`] splits those roles:
//!
//! - **One writer thread** owns the `UpdateSession` and drains a bounded
//!   channel of [`UpdateBatch`]es through [`UpdateSession::run_update`]
//!   (drift or an aborted exchange → fleet rebuild). After each admitted
//!   batch it *publishes* a fresh immutable [`Snapshot`].
//! - **Any number of reader threads** call [`ResidentResolver::cluster_of`],
//!   [`ResidentResolver::members`] and [`ResidentResolver::explain`]. Reads
//!   resolve against the latest published [`Snapshot`] — plain hash-map
//!   lookups on immutable data behind an `Arc` — so a reader observes one
//!   consistent epoch end to end and never waits for an in-flight admit.
//!
//! Epoch swap is a [`SnapshotCell`]: an atomic epoch counter sequencing a
//! small ring of slots, each holding an `Arc<Snapshot>`. A reader loads the
//! epoch and clones the `Arc` out of the matching slot; the writer installs
//! into the *next* slot before bumping the counter. The slot mutex guards a
//! pointer clone/store only — never the chase — so the longest a reader can
//! stall is another thread's pointer copy, regardless of how large the
//! admit being processed is (std has no lock-free `Arc` swap; a ring of
//! slots sequenced by the epoch gets the same effect without `unsafe`).
//!
//! `explain(a, b)` answers "why were these merged" from provenance exported
//! at publish time: the fire-ordered support logs of every worker (first
//! derivations plus `External` markers, see [`dcer_chase::SupportLog`]),
//! merged in worker order and deduplicated per fact, preferring a `Local`
//! entry — which carries the support valuation's tuples and the recursive
//! antecedents from the dependency store `H` — over an `External` one.
//! Readers BFS the merging `Id` facts and return the chain sorted back into
//! fire order. The live engines are never touched.
//!
//! A process serves several datasets via [`ServeRegistry`]: tenant name →
//! (catalog + rules + resolver).

use crate::dmatch::DmatchConfig;
use crate::update::UpdateSession;
use dcer_chase::{Fact, Provenance};
use dcer_relation::{Tid, UpdateBatch};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex, RwLock};
use std::thread::JoinHandle;
use std::time::Instant;

/// One entry of a snapshot's exported provenance: why a fact of `Γ` holds,
/// as recorded by the dependency store `H` / support log at derivation
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvEntry {
    /// The derived fact.
    pub fact: Fact,
    /// `true` when every worker held the fact only via a BSP exchange
    /// (`Provenance::External`): the deriving worker's support was merged
    /// preferentially, so this is rare and means the fact's first
    /// derivation happened on a worker whose log no longer carries it.
    pub external: bool,
    /// Tuple identities of the support valuation (empty for external).
    pub support: Vec<Tid>,
    /// Recursive antecedents the derivation consumed, in canonical fact
    /// form (empty for external).
    pub antecedents: Vec<Fact>,
}

/// One step of an [`Snapshot::explain`] chain: a provenance entry plus its
/// position in the merged fire-ordered log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExplainStep {
    /// Index into [`Snapshot::provenance`] — steps are returned sorted by
    /// this, i.e. in fire order.
    pub order: usize,
    /// The merging `Id` fact this step contributes.
    pub fact: Fact,
    /// See [`ProvEntry::external`].
    pub external: bool,
    /// Support valuation tuples.
    pub support: Vec<Tid>,
    /// Recursive antecedents.
    pub antecedents: Vec<Fact>,
}

/// An immutable, internally consistent view of the resolved state at one
/// epoch: `E_id` clusters, validated ML facts and the exported provenance
/// of `H`. Everything readers touch lives here; nothing points back at the
/// live engines.
#[derive(Debug)]
pub struct Snapshot {
    epoch: u64,
    /// Non-singleton entity clusters, each sorted, in canonical order.
    clusters: Vec<Vec<Tid>>,
    /// Tuple → index into `clusters`. Singleton entities are absent.
    cluster_index: HashMap<Tid, u32>,
    /// Validated ML predictions, sorted for bit-identical comparison.
    validated: BTreeSet<Fact>,
    /// Merged fire-ordered provenance (see module docs).
    provenance: Vec<ProvEntry>,
    /// `tid → [(neighbor, provenance index)]` over merging `Id` facts.
    adjacency: HashMap<Tid, Vec<(Tid, u32)>>,
    /// Live tuples in the authoritative dataset (the paper's `|D|`).
    live_tuples: usize,
    /// CDC batches admitted so far (equals `epoch` unless re-bootstrapped).
    updates_applied: u64,
    /// Drift-triggered full re-partitions so far.
    repartitions: u64,
}

impl Snapshot {
    /// The publish sequence number: 0 for the bootstrap fixpoint, +1 per
    /// admitted batch.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Cluster id of `tid`, or `None` when it is a singleton entity (or
    /// unknown).
    pub fn cluster_of(&self, tid: Tid) -> Option<u32> {
        self.cluster_index.get(&tid).copied()
    }

    /// Members of a cluster returned by [`Snapshot::cluster_of`], sorted.
    pub fn members(&self, cluster: u32) -> &[Tid] {
        self.clusters.get(cluster as usize).map_or(&[], Vec::as_slice)
    }

    /// All non-singleton clusters, canonical (bit-identical across runs).
    pub fn clusters(&self) -> &[Vec<Tid>] {
        &self.clusters
    }

    /// Whether the snapshot resolves `a` and `b` to the same entity.
    pub fn same_entity(&self, a: Tid, b: Tid) -> bool {
        a == b || matches!((self.cluster_of(a), self.cluster_of(b)), (Some(x), Some(y)) if x == y)
    }

    /// Validated ML predictions.
    pub fn validated(&self) -> &BTreeSet<Fact> {
        &self.validated
    }

    /// The merged fire-ordered provenance export.
    pub fn provenance(&self) -> &[ProvEntry] {
        &self.provenance
    }

    /// Live tuples in the dataset this snapshot resolves.
    pub fn live_tuples(&self) -> usize {
        self.live_tuples
    }

    /// CDC batches admitted when this snapshot was published.
    pub fn updates_applied(&self) -> u64 {
        self.updates_applied
    }

    /// Drift-triggered re-partitions when this snapshot was published.
    pub fn repartitions(&self) -> u64 {
        self.repartitions
    }

    /// Why `a` and `b` resolved to the same entity: the support chain of
    /// merging `Id` facts connecting them, sorted into fire order.
    ///
    /// Returns `None` when they are *not* the same entity, and `Some([])`
    /// for the trivial `a == b` case. Each step's fact is an edge on a path
    /// `a — … — b` in `E_id`; its support/antecedents come verbatim from
    /// the exported `H` view, so a verifier can check the chain against
    /// [`Snapshot::provenance`] without any engine access.
    pub fn explain(&self, a: Tid, b: Tid) -> Option<Vec<ExplainStep>> {
        if a == b {
            return Some(Vec::new());
        }
        if !self.same_entity(a, b) {
            return None;
        }
        // BFS over the Id-fact adjacency from `a`; clusters are small
        // relative to |D| and the adjacency spans exactly the merges the
        // fixpoint fired, so connectivity within a cluster is guaranteed.
        let mut prev: HashMap<Tid, (Tid, u32)> = HashMap::new();
        let mut queue = VecDeque::from([a]);
        while let Some(cur) = queue.pop_front() {
            if cur == b {
                break;
            }
            for &(next, entry) in self.adjacency.get(&cur).map_or(&[][..], Vec::as_slice) {
                if next != a && !prev.contains_key(&next) {
                    prev.insert(next, (cur, entry));
                    queue.push_back(next);
                }
            }
        }
        let mut chain = Vec::new();
        let mut cur = b;
        while cur != a {
            let &(back, entry) = prev.get(&cur)?; // unreachable ⇒ None (defensive)
            chain.push(entry);
            cur = back;
        }
        chain.sort_unstable();
        Some(
            chain
                .into_iter()
                .map(|i| {
                    let e = &self.provenance[i as usize];
                    ExplainStep {
                        order: i as usize,
                        fact: e.fact,
                        external: e.external,
                        support: e.support.clone(),
                        antecedents: e.antecedents.clone(),
                    }
                })
                .collect(),
        )
    }
}

/// Build the immutable snapshot for the session's current state. Runs on
/// the writer thread (or at bootstrap) — the only place that touches the
/// live engines.
fn build_snapshot(session: &mut UpdateSession, epoch: u64) -> Snapshot {
    let _span = dcer_obs::span("serve.snapshot").with_arg("epoch", epoch);
    let mut outcome = session.outcome();
    let clusters = outcome.matches.clusters();
    let mut cluster_index = HashMap::new();
    for (i, cluster) in clusters.iter().enumerate() {
        for &t in cluster {
            cluster_index.insert(t, i as u32);
        }
    }

    // Merge per-worker support logs in worker order, dedup per fact. The
    // pipeline keeps replicas bit-identical, so this merge is
    // deterministic. A `Local` entry (real support from `H`) wins over an
    // `External` marker for the same fact, keeping its first-seen position
    // so fire order stays a valid derivation order.
    let mut provenance: Vec<ProvEntry> = Vec::new();
    let mut index_of: HashMap<Fact, u32> = HashMap::new();
    for engine in session.engines() {
        for (fact, prov) in engine.support_log().entries() {
            match (index_of.get(fact), prov) {
                (None, _) => {
                    index_of.insert(*fact, provenance.len() as u32);
                    provenance.push(match prov {
                        Provenance::Local { support, antecedents } => ProvEntry {
                            fact: *fact,
                            external: false,
                            support: support.clone(),
                            antecedents: antecedents.iter().map(|p| p.to_fact()).collect(),
                        },
                        Provenance::External => ProvEntry {
                            fact: *fact,
                            external: true,
                            support: Vec::new(),
                            antecedents: Vec::new(),
                        },
                    });
                }
                (Some(&i), Provenance::Local { support, antecedents })
                    if provenance[i as usize].external =>
                {
                    let e = &mut provenance[i as usize];
                    e.external = false;
                    e.support = support.clone();
                    e.antecedents = antecedents.iter().map(|p| p.to_fact()).collect();
                }
                _ => {}
            }
        }
    }
    let mut adjacency: HashMap<Tid, Vec<(Tid, u32)>> = HashMap::new();
    for (i, e) in provenance.iter().enumerate() {
        if let Fact::Id(a, b) = e.fact {
            adjacency.entry(a).or_default().push((b, i as u32));
            adjacency.entry(b).or_default().push((a, i as u32));
        }
    }

    Snapshot {
        epoch,
        clusters,
        cluster_index,
        validated: outcome.validated.iter().copied().collect(),
        provenance,
        adjacency,
        live_tuples: session.dataset().total_live(),
        updates_applied: session.updates_applied(),
        repartitions: session.repartitions(),
    }
}

/// Number of slots in a [`SnapshotCell`] ring. A reader that loaded the
/// epoch can fall this many publishes behind before its slot is reused —
/// and even then it only observes a *newer* snapshot, never a torn one.
const SNAPSHOT_SLOTS: usize = 8;

/// Epoch-sequenced published-snapshot cell (see module docs). Readers call
/// [`SnapshotCell::load`]; only the writer thread publishes.
pub struct SnapshotCell {
    epoch: AtomicU64,
    slots: Vec<Mutex<Arc<Snapshot>>>,
}

impl SnapshotCell {
    fn new(initial: Arc<Snapshot>) -> SnapshotCell {
        SnapshotCell {
            epoch: AtomicU64::new(initial.epoch),
            slots: (0..SNAPSHOT_SLOTS).map(|_| Mutex::new(Arc::clone(&initial))).collect(),
        }
    }

    /// The latest published snapshot. Lock scope is one `Arc` clone: the
    /// slot's content is immutable, only the pointer is guarded.
    pub fn load(&self) -> Arc<Snapshot> {
        let epoch = self.epoch.load(Ordering::Acquire);
        let snap = self.slots[(epoch as usize) % SNAPSHOT_SLOTS].lock().unwrap().clone();
        // The release store below sequences slot writes before epoch
        // bumps, so the slot holds `epoch` or a later publish that lapped
        // the ring — never anything older.
        debug_assert!(snap.epoch >= epoch);
        snap
    }

    /// Writer-only: install `snap` as the next epoch and make it visible.
    fn publish(&self, snap: Arc<Snapshot>) {
        let next = snap.epoch;
        debug_assert!(next > self.epoch.load(Ordering::Relaxed));
        *self.slots[(next as usize) % SNAPSHOT_SLOTS].lock().unwrap() = snap;
        self.epoch.store(next, Ordering::Release);
    }
}

/// What one admitted batch changed, as reported back to the admitter.
#[derive(Debug, Clone)]
pub struct AdmitReport {
    /// Epoch of the snapshot published for this batch.
    pub epoch: u64,
    /// Identities assigned to the batch's inserts.
    pub inserted: Vec<Tid>,
    /// Identities that were live and are now tombstoned.
    pub deleted: Vec<Tid>,
    /// Facts gone from `Γ` (net; see [`crate::update::UpdateRunReport`]).
    pub retracted: usize,
    /// Facts newly in `Γ` (net).
    pub deduced: usize,
    /// Whether churn drift forced a full re-partition.
    pub repartitioned: bool,
}

enum WriterMsg {
    Admit(UpdateBatch, SyncSender<Result<AdmitReport, String>>),
}

/// A resident, concurrently readable ER resolver: the serving wrapper
/// around one [`UpdateSession`] (see module docs).
pub struct ResidentResolver {
    cell: Arc<SnapshotCell>,
    admit_tx: Option<SyncSender<WriterMsg>>,
    writer: Option<JoinHandle<()>>,
}

/// Depth of the admit queue: enough to decouple bursty admitters from the
/// writer without letting unbounded batches pile up in memory.
const ADMIT_QUEUE: usize = 16;

impl ResidentResolver {
    /// Take ownership of a bootstrapped session, publish its state as
    /// epoch 0 and start the writer thread.
    pub fn start(mut session: UpdateSession) -> ResidentResolver {
        let cell = Arc::new(SnapshotCell::new(Arc::new(build_snapshot(&mut session, 0))));
        let (tx, rx) = sync_channel::<WriterMsg>(ADMIT_QUEUE);
        let writer_cell = Arc::clone(&cell);
        let writer = std::thread::Builder::new()
            .name("dcer-serve-writer".into())
            .spawn(move || writer_loop(session, writer_cell, rx))
            .expect("spawn serve writer");
        ResidentResolver { cell, admit_tx: Some(tx), writer: Some(writer) }
    }

    /// The latest published snapshot. Hold it for as long as a consistent
    /// view is needed; it never changes under the reader.
    pub fn snapshot(&self) -> Arc<Snapshot> {
        self.cell.load()
    }

    /// Cluster id of `tid` in the latest snapshot (`None`: singleton).
    pub fn cluster_of(&self, tid: Tid) -> Option<u32> {
        let start = Instant::now();
        let _span = dcer_obs::span("serve.lookup").with_arg("tid", tid.pack());
        dcer_obs::counter_add("serve.lookups", 1);
        let got = self.snapshot().cluster_of(tid);
        dcer_obs::histogram_record("serve.lookup_ns", start.elapsed().as_nanos() as u64);
        got
    }

    /// Members of a cluster id in the latest snapshot.
    pub fn members(&self, cluster: u32) -> Vec<Tid> {
        let _span = dcer_obs::span("serve.lookup").with_arg("cluster", cluster as u64);
        dcer_obs::counter_add("serve.lookups", 1);
        self.snapshot().members(cluster).to_vec()
    }

    /// Support chain for `a ~ b` in the latest snapshot (see
    /// [`Snapshot::explain`]).
    pub fn explain(&self, a: Tid, b: Tid) -> Option<Vec<ExplainStep>> {
        let start = Instant::now();
        let _span = dcer_obs::span("serve.explain").with_arg("a", a.pack()).with_arg("b", b.pack());
        dcer_obs::counter_add("serve.explains", 1);
        let got = self.snapshot().explain(a, b);
        dcer_obs::histogram_record("serve.explain_ns", start.elapsed().as_nanos() as u64);
        got
    }

    /// Admit one CDC batch: enqueue it for the writer, block until it is
    /// applied and its snapshot is published. Concurrent readers are never
    /// blocked by this — they keep resolving against the previous epoch
    /// until the publish.
    ///
    /// An error means the batch was rejected before anything changed:
    /// nothing was published, reads keep serving the current epoch and the
    /// writer goes on admitting later batches. An exchange that aborts under
    /// a fault plan is not an error: the session rebuilds its fleet from the
    /// master dataset and the admit publishes as usual.
    pub fn admit(&self, batch: UpdateBatch) -> Result<AdmitReport, String> {
        let _span = dcer_obs::span("serve.admit");
        dcer_obs::counter_add("serve.admits", 1);
        let tx = self.admit_tx.as_ref().ok_or("serve writer stopped")?;
        let (reply_tx, reply_rx) = sync_channel(1);
        tx.send(WriterMsg::Admit(batch, reply_tx)).map_err(|_| "serve writer stopped")?;
        reply_rx.recv().map_err(|_| "serve writer stopped")?
    }

    /// Whether the writer thread is still draining admits.
    pub fn is_serving(&self) -> bool {
        self.writer.as_ref().is_some_and(|w| !w.is_finished())
    }
}

impl Drop for ResidentResolver {
    fn drop(&mut self) {
        // Close the queue, then wait for the writer to finish in-flight
        // admits (repliers see their result before the resolver is gone).
        drop(self.admit_tx.take());
        if let Some(w) = self.writer.take() {
            let _ = w.join();
        }
    }
}

/// The writer thread: single consumer of the admit queue, sole owner of
/// the live `UpdateSession`.
fn writer_loop(mut session: UpdateSession, cell: Arc<SnapshotCell>, rx: Receiver<WriterMsg>) {
    let mut epoch = cell.load().epoch;
    while let Ok(WriterMsg::Admit(batch, reply)) = rx.recv() {
        let start = Instant::now();
        let _span = dcer_obs::span("serve.apply").with_arg("epoch", epoch + 1);
        match session.run_update(&batch) {
            Ok(report) => {
                epoch += 1;
                cell.publish(Arc::new(build_snapshot(&mut session, epoch)));
                dcer_obs::histogram_record("serve.admit_ns", start.elapsed().as_nanos() as u64);
                let _ = reply.send(Ok(AdmitReport {
                    epoch,
                    inserted: report.inserted,
                    deleted: report.deleted,
                    retracted: report.retracted.len(),
                    deduced: report.deduced.len(),
                    repartitioned: report.repartitioned,
                }));
            }
            Err(e) => {
                // `run_update` fails only by rejecting the batch up front,
                // with the master untouched (`Dataset::apply_update` is
                // atomic); an aborted exchange is rebuilt inside the session
                // and never lands here. Nothing was published: reply and keep
                // admitting on the same epoch.
                dcer_obs::counter_add("serve.admit_failures", 1);
                let _ = reply.send(Err(e));
            }
        }
    }
}

/// A named tenant: one dataset's catalog + rules (via its session) and its
/// resident resolver.
pub struct Tenant {
    /// Tenant name (registry key).
    pub name: String,
    /// The configured session: catalog, rules, model registry.
    pub session: crate::session::DcerSession,
    /// The serving resolver.
    pub resolver: ResidentResolver,
}

/// Per-tenant registry: `name → catalog + rules + resolver`, so several
/// datasets are served by one process. Cheap to share (`Arc` tenants
/// behind an `RwLock` map — the lock guards registration, not reads of a
/// tenant's snapshots).
#[derive(Default)]
pub struct ServeRegistry {
    tenants: RwLock<HashMap<String, Arc<Tenant>>>,
}

impl ServeRegistry {
    /// Empty registry.
    pub fn new() -> ServeRegistry {
        ServeRegistry::default()
    }

    /// Boot a resolver over `dataset` and register it under `name`.
    /// Replaces (and drops, stopping its writer) any previous tenant of
    /// the same name.
    pub fn register(
        &self,
        name: &str,
        session: crate::session::DcerSession,
        dataset: &dcer_relation::Dataset,
        config: &DmatchConfig,
    ) -> Result<Arc<Tenant>, String> {
        let resolver = session.resident(dataset, config)?;
        let tenant = Arc::new(Tenant { name: name.to_string(), session, resolver });
        self.tenants.write().unwrap().insert(name.to_string(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Look up a tenant by name.
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants.read().unwrap().get(name).cloned()
    }

    /// Registered tenant names, sorted.
    pub fn names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tenants.read().unwrap().keys().cloned().collect();
        names.sort();
        names
    }

    /// Remove a tenant, dropping its resolver (stops the writer thread).
    pub fn remove(&self, name: &str) -> bool {
        self.tenants.write().unwrap().remove(name).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::DcerSession;
    use dcer_ml::{EqualTextClassifier, MlRegistry};
    use dcer_relation::{Catalog, Dataset, RelationSchema, ValueType};

    fn session() -> DcerSession {
        let catalog = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of(
                "R",
                &[("k", ValueType::Str), ("x", ValueType::Str)],
            )])
            .unwrap(),
        );
        let mut reg = MlRegistry::new();
        reg.register("m", Arc::new(EqualTextClassifier));
        DcerSession::from_source(
            catalog,
            "match md: R(t), R(s), t.k = s.k -> t.id = s.id;
             match deep: R(t), R(s), R(u), t.id = s.id, s.x = u.x -> t.id = u.id;
             match val: R(t), R(s), t.x = s.x -> m(t.k, s.k);
             match use: R(t), R(s), m(t.k, s.k) -> t.id = s.id",
            reg,
        )
        .unwrap()
    }

    fn dataset(rows: &[(&str, &str)]) -> Dataset {
        let mut d = Dataset::new(session().catalog().clone());
        for &(k, x) in rows {
            d.insert(0, vec![k.into(), x.into()]).unwrap();
        }
        d
    }

    /// Every explain chain must verify against the snapshot's own
    /// provenance: steps are real log entries, edges form a path a—b, and
    /// `Local` antecedents hold in the snapshot itself.
    fn verify_explain(snap: &Snapshot, a: Tid, b: Tid, steps: &[ExplainStep]) {
        let mut at = a;
        let mut seen: Vec<&ExplainStep> = steps.iter().collect();
        // The chain is returned in fire order, not path order: walk the
        // path greedily by consuming the step incident to `at`.
        while at != b {
            let pos = seen
                .iter()
                .position(|s| {
                    let (x, y) = s.fact.tids();
                    x == at || y == at
                })
                .unwrap_or_else(|| panic!("chain breaks at {at}: {steps:?}"));
            let step = seen.remove(pos);
            let (x, y) = step.fact.tids();
            at = if x == at { y } else { x };
            // Step is a verbatim provenance entry at its claimed position.
            let entry = &snap.provenance()[step.order];
            assert_eq!(entry.fact, step.fact);
            assert_eq!(entry.support, step.support);
            // Local antecedents hold in the same snapshot.
            for ant in &step.antecedents {
                match *ant {
                    Fact::Id(p, q) => assert!(snap.same_entity(p, q), "antecedent {ant:?}"),
                    ml => assert!(snap.validated().contains(&ml), "antecedent {ml:?}"),
                }
            }
        }
        assert!(seen.is_empty(), "superfluous steps: {seen:?}");
    }

    #[test]
    fn snapshot_matches_batch_closure_and_explains_merges() {
        let s = session();
        let d = dataset(&[("a", "1"), ("a", "2"), ("b", "2"), ("b", "3"), ("c", "9")]);
        let resolver = s.resident(&d, &DmatchConfig::new(2)).unwrap();
        let snap = resolver.snapshot();
        assert_eq!(snap.epoch(), 0);

        let mut scratch = s.run_sequential(&d);
        assert_eq!(snap.clusters(), scratch.matches.clusters().as_slice());
        assert_eq!(snap.live_tuples(), 5);

        // Every same-cluster pair explains, and the chain verifies.
        for cluster in snap.clusters() {
            for w in cluster.windows(2) {
                let steps = snap.explain(w[0], w[1]).expect("same entity explains");
                assert!(!steps.is_empty());
                verify_explain(&snap, w[0], w[1], &steps);
            }
        }
        // Different entities don't; the trivial pair does, emptily.
        let t0 = Tid::new(0, 0);
        assert_eq!(snap.explain(t0, t0), Some(Vec::new()));
        assert!(snap.explain(t0, Tid::new(0, 4)).is_none(), "c is a singleton");
        assert!(resolver.is_serving());
    }

    #[test]
    fn admits_publish_epochs_and_readers_see_consistent_prefixes() {
        let s = session();
        let d = dataset(&[("a", "1"), ("b", "2")]);
        let resolver = s.resident(&d, &DmatchConfig::new(2)).unwrap();
        assert!(resolver.cluster_of(Tid::new(0, 0)).is_none(), "nothing matches yet");

        // Admit a bridge: a and b now share x-values transitively.
        let mut batch = UpdateBatch::new();
        batch.insert(0, vec!["a".into(), "2".into()]);
        let report = resolver.admit(batch).unwrap();
        assert_eq!(report.epoch, 1);
        assert_eq!(report.inserted.len(), 1);

        let snap = resolver.snapshot();
        assert_eq!(snap.epoch(), 1);
        let c = snap.cluster_of(Tid::new(0, 0)).expect("a matched");
        assert!(snap.members(c).contains(&Tid::new(0, 1)), "b joined a's cluster");

        // Delete it again: epoch 2 reverts to the bootstrap resolution.
        let mut batch = UpdateBatch::new();
        batch.delete(report.inserted[0]);
        let report2 = resolver.admit(batch).unwrap();
        assert_eq!(report2.epoch, 2);
        assert!(resolver.snapshot().cluster_of(Tid::new(0, 0)).is_none());
        assert_eq!(resolver.snapshot().updates_applied(), 2);
    }

    #[test]
    fn a_rejected_admit_keeps_the_writer_serving() {
        let s = session();
        let d = dataset(&[("a", "1"), ("a", "2"), ("b", "2")]);
        let resolver = s.resident(&d, &DmatchConfig::new(2)).unwrap();
        let before = resolver.snapshot();

        // A valid delete and insert ride with a bad-arity insert: the whole
        // batch is rejected and nothing is published.
        let mut bad = UpdateBatch::new();
        bad.delete(Tid::new(0, 0))
            .insert(0, vec!["b".into(), "9".into()])
            .insert(0, vec!["arity".into()]);
        assert!(resolver.admit(bad).is_err());
        assert!(resolver.is_serving(), "a rejected batch must not stop the writer");
        assert_eq!(resolver.snapshot().epoch(), before.epoch());
        assert_eq!(resolver.snapshot().clusters(), before.clusters());

        // The next good admit publishes the next epoch, equal to scratch.
        let mut good = UpdateBatch::new();
        good.insert(0, vec!["c".into(), "1".into()]);
        let report = resolver.admit(good).unwrap();
        assert_eq!(report.epoch, before.epoch() + 1);
        let snap = resolver.snapshot();
        assert_eq!(snap.epoch(), before.epoch() + 1);
        let mut after = d.clone();
        after.insert(0, vec!["c".into(), "1".into()]).unwrap();
        assert_eq!(snap.clusters(), s.run_sequential(&after).matches.clusters().as_slice());
        assert_eq!(snap.live_tuples(), 4);
    }

    #[test]
    fn registry_serves_multiple_tenants() {
        let registry = ServeRegistry::new();
        let s = session();
        registry
            .register("left", s.clone(), &dataset(&[("a", "1"), ("a", "2")]), &DmatchConfig::new(2))
            .unwrap();
        registry.register("right", s, &dataset(&[("x", "7")]), &DmatchConfig::new(1)).unwrap();
        assert_eq!(registry.names(), vec!["left".to_string(), "right".to_string()]);
        let left = registry.get("left").unwrap();
        assert!(left.resolver.cluster_of(Tid::new(0, 0)).is_some());
        let right = registry.get("right").unwrap();
        assert!(right.resolver.cluster_of(Tid::new(0, 0)).is_none());
        assert!(registry.get("missing").is_none());
        assert!(registry.remove("right"));
        assert_eq!(registry.names().len(), 1);
    }
}
