//! Relation instances and multi-relation datasets.
//!
//! A [`Dataset`] is the paper's `D = (D_1, ..., D_m)`. The same type also
//! represents a HyPart *fragment* `W_i`: a fragment holds a subset of the
//! original tuples (with their original [`Tid`]s preserved), so everything
//! downstream — the chase, the incremental engine, the evaluator — operates
//! uniformly on full datasets and fragments.

use crate::error::{Error, Result};
use crate::schema::{AttrId, Catalog, RelId};
use crate::tuple::{Tid, Tuple};
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// One relation instance: a schema reference plus tuples.
///
/// Deletion is by *tombstone*: the tuple stays in `tuples` (so positions,
/// assigned [`Tid`]s and the delete's routing information stay stable) but
/// its `live` bit drops. Scans must consult [`Relation::is_live`]; index
/// builds and the chase evaluator do so.
#[derive(Debug, Clone)]
pub struct Relation {
    rel: RelId,
    tuples: Vec<Tuple>,
    /// Lazily maintained map from tuple identity to position in `tuples`.
    by_tid: HashMap<Tid, usize>,
    /// Liveness bit per position (parallel to `tuples`); never shrinks.
    live: Vec<bool>,
    live_count: usize,
}

impl Relation {
    /// Empty instance of relation `rel`.
    pub fn new(rel: RelId) -> Relation {
        Relation {
            rel,
            tuples: Vec::new(),
            by_tid: HashMap::new(),
            live: Vec::new(),
            live_count: 0,
        }
    }

    /// The relation id this instance belongs to.
    pub fn rel_id(&self) -> RelId {
        self.rel
    }

    /// Number of tuple *positions* (including tombstoned ones).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Number of live (non-deleted) tuples.
    pub fn live_count(&self) -> usize {
        self.live_count
    }

    /// Whether the instance has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Whether the tuple at position `pos` is live (not deleted).
    pub fn is_live(&self, pos: u32) -> bool {
        self.live.get(pos as usize).copied().unwrap_or(false)
    }

    /// Append a tuple (identity must be unique within this instance).
    pub fn push(&mut self, tuple: Tuple) {
        debug_assert_eq!(tuple.tid.rel, self.rel);
        self.by_tid.insert(tuple.tid, self.tuples.len());
        self.tuples.push(tuple);
        self.live.push(true);
        self.live_count += 1;
    }

    /// Tombstone the tuple with identity `tid`. Returns `true` iff the
    /// tuple was present and live (repeat deletes and deletes of unknown
    /// identities are no-ops).
    pub fn mark_deleted(&mut self, tid: Tid) -> bool {
        match self.by_tid.get(&tid) {
            Some(&pos) if self.live[pos] => {
                self.live[pos] = false;
                self.live_count -= 1;
                true
            }
            _ => false,
        }
    }

    /// Live tuples in insertion order (tombstoned positions skipped).
    pub fn live_tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter().enumerate().filter(|&(i, _)| self.live[i]).map(|(_, t)| t)
    }

    /// All tuples in insertion order.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Look up a tuple by identity.
    pub fn by_tid(&self, tid: Tid) -> Option<&Tuple> {
        self.by_tid.get(&tid).map(|&i| &self.tuples[i])
    }

    /// Whether a tuple with this identity is present.
    pub fn contains(&self, tid: Tid) -> bool {
        self.by_tid.contains_key(&tid)
    }

    /// Row position of a tuple identity within this instance (fragments
    /// renumber rows, so this can differ from `tid.row`).
    pub fn position(&self, tid: Tid) -> Option<u32> {
        self.by_tid.get(&tid).map(|&i| i as u32)
    }
}

/// A multi-relation dataset (or HyPart fragment) over a shared [`Catalog`].
#[derive(Debug, Clone)]
pub struct Dataset {
    catalog: Arc<Catalog>,
    relations: Vec<Relation>,
}

impl Dataset {
    /// Empty dataset over `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> Dataset {
        let relations = (0..catalog.len() as RelId).map(Relation::new).collect();
        Dataset { catalog, relations }
    }

    /// The catalog this dataset conforms to.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// Relation instance by id.
    pub fn relation(&self, rel: RelId) -> &Relation {
        &self.relations[rel as usize]
    }

    /// Mutable relation instance by id.
    pub fn relation_mut(&mut self, rel: RelId) -> &mut Relation {
        &mut self.relations[rel as usize]
    }

    /// Iterate all relation instances.
    pub fn relations(&self) -> &[Relation] {
        &self.relations
    }

    /// Total number of tuple positions across relations (including
    /// tombstones).
    pub fn total_tuples(&self) -> usize {
        self.relations.iter().map(Relation::len).sum()
    }

    /// Total number of live tuples across relations (the paper's `|D|`
    /// after updates).
    pub fn total_live(&self) -> usize {
        self.relations.iter().map(Relation::live_count).sum()
    }

    /// Whether `tid` is present and live.
    pub fn is_live(&self, tid: Tid) -> bool {
        self.relations
            .get(tid.rel as usize)
            .and_then(|r| r.position(tid))
            .is_some_and(|pos| self.relations[tid.rel as usize].is_live(pos))
    }

    /// Tombstone the tuple with identity `tid` anywhere in the dataset.
    /// Tolerant: deleting an unknown or already-deleted identity returns
    /// `false` and changes nothing.
    pub fn delete(&mut self, tid: Tid) -> bool {
        match self.relations.get_mut(tid.rel as usize) {
            Some(r) => r.mark_deleted(tid),
            None => false,
        }
    }

    /// Append a *new* tuple to relation `rel`, assigning the next row-number
    /// identity. Returns the assigned [`Tid`]. Use this when building an
    /// original dataset; use [`Dataset::insert_replica`] when building
    /// fragments.
    pub fn insert(&mut self, rel: RelId, values: Vec<Value>) -> Result<Tid> {
        self.validate(rel, &values)?;
        let r = &mut self.relations[rel as usize];
        let tid = Tid::new(rel, r.len() as u32);
        r.push(Tuple::new(tid, values));
        Ok(tid)
    }

    /// Check `values` against relation `rel`: the relation exists, the
    /// arity matches its schema and every non-null value has a compatible
    /// type.
    fn validate(&self, rel: RelId, values: &[Value]) -> Result<()> {
        if rel as usize >= self.relations.len() {
            return Err(Error::UnknownRelation(format!("#{rel}")));
        }
        let schema = self.catalog.schema(rel);
        if values.len() != schema.arity() {
            return Err(Error::ArityMismatch {
                relation: schema.name.clone(),
                expected: schema.arity(),
                got: values.len(),
            });
        }
        for (i, v) in values.iter().enumerate() {
            if let Some(ty) = v.value_type() {
                if !ty.compatible(schema.attr_type(i as AttrId)) {
                    return Err(Error::TypeMismatch {
                        relation: schema.name.clone(),
                        attribute: schema.attribute(i as AttrId).name.clone(),
                        expected: schema.attr_type(i as AttrId).name(),
                        got: ty.name(),
                    });
                }
            }
        }
        Ok(())
    }

    /// Insert a replicated tuple, *preserving* its original identity. Used by
    /// the partitioner to populate fragments. Duplicate replicas are ignored.
    pub fn insert_replica(&mut self, tuple: Tuple) {
        let r = &mut self.relations[tuple.tid.rel as usize];
        if !r.contains(tuple.tid) {
            r.push(tuple);
        }
    }

    /// Look up a tuple anywhere in the dataset by identity.
    pub fn tuple(&self, tid: Tid) -> Option<&Tuple> {
        self.relations.get(tid.rel as usize).and_then(|r| r.by_tid(tid))
    }

    /// Iterate all tuples of all relations (including tombstoned ones).
    pub fn all_tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.relations.iter().flat_map(|r| r.tuples().iter())
    }

    /// Iterate live tuples of all relations.
    pub fn live_tuples(&self) -> impl Iterator<Item = &Tuple> {
        self.relations.iter().flat_map(Relation::live_tuples)
    }

    /// Apply a CDC batch: tombstone `batch.deletes`, then append
    /// `batch.inserts` with freshly assigned identities. Returns what
    /// actually changed — deletes of unknown or already-dead identities are
    /// dropped, so replaying the report against a copy of the pre-update
    /// dataset reproduces this one exactly.
    ///
    /// Atomic: every insert is validated before anything changes, so a
    /// rejected batch leaves the dataset untouched.
    pub fn apply_update(&mut self, batch: &UpdateBatch) -> Result<UpdateReport> {
        for (rel, values) in &batch.inserts {
            self.validate(*rel, values)?;
        }
        let mut report = UpdateReport::default();
        for &tid in &batch.deletes {
            if self.delete(tid) {
                report.deleted.push(tid);
            }
        }
        for (rel, values) in &batch.inserts {
            report.inserted.push(self.insert(*rel, values.clone())?);
        }
        Ok(report)
    }

    /// Approximate footprint in bytes.
    pub fn size_bytes(&self) -> usize {
        self.all_tuples().map(Tuple::size_bytes).sum()
    }
}

/// A CDC batch of base-tuple changes: inserts carry values (identities are
/// assigned at application time), deletes name existing identities.
#[derive(Debug, Clone, Default)]
pub struct UpdateBatch {
    /// New tuples to append, as `(relation, values)`.
    pub inserts: Vec<(RelId, Vec<Value>)>,
    /// Identities to tombstone. Unknown or already-deleted identities are
    /// tolerated (CDC streams routinely re-deliver deletes).
    pub deletes: Vec<Tid>,
}

impl UpdateBatch {
    /// An empty batch.
    pub fn new() -> UpdateBatch {
        UpdateBatch::default()
    }

    /// Whether the batch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Queue an insert.
    pub fn insert(&mut self, rel: RelId, values: Vec<Value>) -> &mut UpdateBatch {
        self.inserts.push((rel, values));
        self
    }

    /// Queue a delete.
    pub fn delete(&mut self, tid: Tid) -> &mut UpdateBatch {
        self.deletes.push(tid);
        self
    }
}

/// What [`Dataset::apply_update`] actually changed.
#[derive(Debug, Clone, Default)]
pub struct UpdateReport {
    /// Identities assigned to the batch's inserts, in batch order.
    pub inserted: Vec<Tid>,
    /// Identities that were live and are now tombstoned.
    pub deleted: Vec<Tid>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::RelationSchema;
    use crate::value::ValueType;

    fn two_rel_catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::from_schemas(vec![
                RelationSchema::of("R", &[("a", ValueType::Int), ("b", ValueType::Str)]),
                RelationSchema::of("S", &[("x", ValueType::Str)]),
            ])
            .unwrap(),
        )
    }

    #[test]
    fn insert_assigns_sequential_tids() {
        let mut d = Dataset::new(two_rel_catalog());
        let t0 = d.insert(0, vec![Value::Int(1), Value::str("p")]).unwrap();
        let t1 = d.insert(0, vec![Value::Int(2), Value::str("q")]).unwrap();
        let s0 = d.insert(1, vec![Value::str("z")]).unwrap();
        assert_eq!(t0, Tid::new(0, 0));
        assert_eq!(t1, Tid::new(0, 1));
        assert_eq!(s0, Tid::new(1, 0));
        assert_eq!(d.total_tuples(), 3);
        assert_eq!(d.tuple(t1).unwrap().get(1), &Value::str("q"));
    }

    #[test]
    fn insert_rejects_bad_arity_and_type() {
        let mut d = Dataset::new(two_rel_catalog());
        assert!(matches!(d.insert(0, vec![Value::Int(1)]), Err(Error::ArityMismatch { .. })));
        assert!(matches!(
            d.insert(0, vec![Value::str("no"), Value::str("p")]),
            Err(Error::TypeMismatch { .. })
        ));
        // Nulls are always accepted.
        assert!(d.insert(0, vec![Value::Null, Value::Null]).is_ok());
    }

    #[test]
    fn replica_insertion_preserves_identity_and_dedups() {
        let mut orig = Dataset::new(two_rel_catalog());
        let tid = orig.insert(0, vec![Value::Int(5), Value::str("v")]).unwrap();
        let tuple = orig.tuple(tid).unwrap().clone();

        let mut frag = Dataset::new(two_rel_catalog());
        frag.insert_replica(tuple.clone());
        frag.insert_replica(tuple);
        assert_eq!(frag.total_tuples(), 1);
        assert_eq!(frag.tuple(tid).unwrap().tid, tid);
    }

    #[test]
    fn delete_tombstones_without_disturbing_positions() {
        let mut d = Dataset::new(two_rel_catalog());
        let t0 = d.insert(0, vec![Value::Int(1), Value::str("p")]).unwrap();
        let t1 = d.insert(0, vec![Value::Int(2), Value::str("q")]).unwrap();
        assert!(d.delete(t0));
        assert!(!d.delete(t0), "repeat delete is a no-op");
        assert!(!d.delete(Tid::new(0, 99)), "unknown identity tolerated");
        assert!(!d.delete(Tid::new(9, 0)), "unknown relation tolerated");
        assert!(!d.is_live(t0));
        assert!(d.is_live(t1));
        // Physical layout is untouched: positions, lookups and the next
        // assigned identity all still see the tombstoned row.
        assert_eq!(d.relation(0).len(), 2);
        assert_eq!(d.relation(0).live_count(), 1);
        assert_eq!(d.total_live(), 1);
        assert!(d.tuple(t0).is_some());
        let t2 = d.insert(0, vec![Value::Int(3), Value::str("r")]).unwrap();
        assert_eq!(t2, Tid::new(0, 2), "tombstones never free identities");
        let live: Vec<Tid> = d.live_tuples().map(|t| t.tid).collect();
        assert_eq!(live, vec![t1, t2]);
    }

    #[test]
    fn apply_update_reports_effective_changes() {
        let mut d = Dataset::new(two_rel_catalog());
        let t0 = d.insert(0, vec![Value::Int(1), Value::str("p")]).unwrap();
        let mut batch = UpdateBatch::new();
        batch
            .delete(t0)
            .delete(t0) // duplicate in one batch
            .delete(Tid::new(1, 7)) // never inserted
            .insert(1, vec![Value::str("z")]);
        let report = d.apply_update(&batch).unwrap();
        assert_eq!(report.deleted, vec![t0]);
        assert_eq!(report.inserted, vec![Tid::new(1, 0)]);
        assert!(!batch.is_empty() && UpdateBatch::new().is_empty());
        // A bad insert surfaces the usual validation error.
        let mut bad = UpdateBatch::new();
        bad.insert(0, vec![Value::Int(1)]);
        assert!(d.apply_update(&bad).is_err());
    }

    #[test]
    fn rejected_batch_changes_nothing() {
        let mut d = Dataset::new(two_rel_catalog());
        let t0 = d.insert(0, vec![Value::Int(1), Value::str("p")]).unwrap();
        let bad_inserts: [(RelId, Vec<Value>); 3] = [
            (0, vec![Value::Int(2)]),                     // arity
            (0, vec![Value::str("no"), Value::str("q")]), // type
            (7, vec![Value::str("z")]),                   // relation
        ];
        for (rel, values) in bad_inserts {
            let mut batch = UpdateBatch::new();
            batch.delete(t0).insert(1, vec![Value::str("good")]).insert(rel, values);
            assert!(d.apply_update(&batch).is_err());
            assert!(d.is_live(t0), "a rejected batch must not apply its deletes");
            assert_eq!(d.relation(1).len(), 0, "nor its valid inserts");
            assert_eq!(d.total_tuples(), 1);
        }
        assert!(matches!(d.insert(7, vec![]), Err(Error::UnknownRelation(_))));
    }

    #[test]
    fn numeric_compatibility_allows_int_into_float() {
        let cat = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of("F", &[("x", ValueType::Float)])])
                .unwrap(),
        );
        let mut d = Dataset::new(cat);
        assert!(d.insert(0, vec![Value::Int(3)]).is_ok());
    }
}
