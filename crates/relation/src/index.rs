//! Secondary hash indexes (the paper's inverted indices, Section V-A),
//! dictionary-encoded.
//!
//! A [`ValueDict`] interns attribute values into dense `u32` codes at
//! index-build time; every [`HashIndex`] of an [`IndexSet`] shares one
//! dictionary, so a join key bound on one relation can be compared against
//! another relation's rows *by code* — no `Value` clone, no string hashing
//! per probe. [`HashIndex`] stores its postings in a CSR layout
//! (`code -> [row positions]` as ranges into one flat array) plus a dense
//! per-row code column, which is what makes the chase enumerator's probe
//! path allocation-free: candidates are iterated as slice borrows and
//! equality predicates reduce to `u32` comparisons.
//!
//! `Null` values are never indexed and receive the reserved code
//! [`ValueDict::NULL`], which compares equal to nothing (SQL semantics).
//!
//! A [`SigIndex`] is the similarity counterpart: it posts each live row
//! under the certified blocking keys a [`KeyScheme`] derives from an
//! attribute vector, so an ML predicate whose model names such keys can
//! be probed like an equality.

use crate::dataset::Dataset;
use crate::schema::{AttrId, RelId};
use crate::tuple::Tid;
use crate::value::Value;
use std::collections::HashMap;
use std::sync::Arc;

/// Shared interning dictionary: attribute [`Value`] → dense `u32` code.
///
/// Codes are assigned in first-intern order and are only meaningful within
/// the dictionary that issued them (in practice: within one [`IndexSet`]).
/// Numeric values are canonicalized before interning so that `Int(2)` and
/// `Float(2.0)` — equal under [`Value::sql_eq`] — receive the same code;
/// code equality on non-null values therefore coincides with predicate
/// equality.
#[derive(Debug, Clone, Default)]
pub struct ValueDict {
    codes: HashMap<Value, u32>,
}

impl ValueDict {
    /// Reserved code for `Null` (and for "value never interned"): it never
    /// compares equal to any row's code, including another `NULL`.
    pub const NULL: u32 = u32::MAX;

    /// Empty dictionary.
    pub fn new() -> ValueDict {
        ValueDict::default()
    }

    /// Canonical numeric form: integral floats collapse onto `Int` so that
    /// `sql_eq`-equal numerics intern to one code. Returns `None` when the
    /// value is already canonical.
    fn canonical(value: &Value) -> Option<Value> {
        match value {
            Value::Float(f) if f.fract() == 0.0 && f.is_finite() && f.abs() < (i64::MAX as f64) => {
                Some(Value::Int(*f as i64))
            }
            _ => None,
        }
    }

    /// Intern `value`, assigning the next dense code on first sight.
    /// `Null` maps to [`ValueDict::NULL`] without entering the table.
    pub fn intern(&mut self, value: &Value) -> u32 {
        if value.is_null() {
            return ValueDict::NULL;
        }
        let canonical = ValueDict::canonical(value);
        let key = canonical.as_ref().unwrap_or(value);
        if let Some(&code) = self.codes.get(key) {
            return code;
        }
        let code = self.codes.len() as u32;
        debug_assert!(code < ValueDict::NULL, "dictionary exhausted u32 code space");
        self.codes.insert(key.clone(), code);
        code
    }

    /// Code of `value` if it was ever interned; `None` for `Null` and for
    /// values no indexed row carries (such a value can match nothing).
    pub fn code_of(&self, value: &Value) -> Option<u32> {
        if value.is_null() {
            return None;
        }
        let canonical = ValueDict::canonical(value);
        self.codes.get(canonical.as_ref().unwrap_or(value)).copied()
    }

    /// All interned values, ordered by code (i.e. first-intern order).
    /// This is the replay order [`IndexSet::build_all`] uses to merge
    /// thread-local dictionaries deterministically.
    pub fn values_in_code_order(&self) -> Vec<Value> {
        let mut pairs: Vec<(&Value, u32)> = self.codes.iter().map(|(v, &c)| (v, c)).collect();
        pairs.sort_unstable_by_key(|&(_, c)| c);
        pairs.into_iter().map(|(v, _)| v.clone()).collect()
    }

    /// Number of distinct interned values.
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    /// Whether no value has been interned.
    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }
}

/// Inverted index over one attribute of one relation instance, keyed by
/// dictionary code.
///
/// Holds (a) a CSR postings table `code -> [row positions]` and (b) a dense
/// code column `row -> code`, so the enumerator can translate a bound row
/// into a probe key in O(1) without touching the underlying `Value`.
#[derive(Debug, Clone, Default)]
pub struct HashIndex {
    /// `code -> [start, end)` range into `rows`.
    buckets: HashMap<u32, (u32, u32)>,
    /// Flat postings storage: row positions grouped by code, ascending
    /// within each bucket.
    rows: Vec<u32>,
    /// Per-row code column ([`ValueDict::NULL`] for nulls).
    row_codes: Vec<u32>,
    entries: usize,
    /// Indexed rows tombstoned since the last CSR (re)build. Their stale
    /// postings are self-filtering — the code column says `NULL`, so every
    /// equality/constant check on a probed candidate fails — but they cost
    /// probe time, so compaction triggers once they dominate.
    tombstones: usize,
    /// Rows appended since the last CSR (re)build: present in `row_codes`
    /// but in no posting yet. [`HashIndex::integrate`] folds them in.
    staged: usize,
}

impl HashIndex {
    /// Build an index over attribute `attr` of relation `rel` in `dataset`,
    /// interning values into `dict`. Postings hold positions into
    /// `dataset.relation(rel).tuples()`.
    ///
    /// Build time and cardinalities are published to the [`dcer_obs`]
    /// registry (`index.build_ns`, `index.distinct`, `index.entries`) under
    /// an `index.build` span, so traces show index construction per worker.
    pub fn build(dataset: &Dataset, rel: RelId, attr: AttrId, dict: &mut ValueDict) -> HashIndex {
        let _span = dcer_obs::span("index.build").with_arg("rel", rel as u64);
        let start = std::time::Instant::now();
        let relation = dataset.relation(rel);
        let tuples = relation.tuples();

        // Tombstoned rows get the NULL code: they keep their position in
        // the code column (positions are stable identities) but enter no
        // posting and match no predicate.
        let mut row_codes = Vec::with_capacity(tuples.len());
        for (pos, t) in tuples.iter().enumerate() {
            let code = if relation.is_live(pos as u32) {
                dict.intern(t.get(attr))
            } else {
                ValueDict::NULL
            };
            row_codes.push(code);
        }
        let mut index = HashIndex {
            buckets: HashMap::new(),
            rows: Vec::new(),
            row_codes,
            ..Default::default()
        };
        index.rebuild_postings();

        if dcer_obs::enabled() {
            dcer_obs::counter_add("index.build_ns", start.elapsed().as_nanos() as u64);
            dcer_obs::counter_add("index.distinct", index.buckets.len() as u64);
            dcer_obs::counter_add("index.entries", index.entries as u64);
        }
        index
    }

    /// Re-derive the CSR postings from the code column alone — a `u32`
    /// counting pass, no `Value` hashing. Lays the postings out with one
    /// cursor pass reserving ranges and a second filling them in ascending
    /// row order; tombstones (NULL codes) are compacted away for free.
    fn rebuild_postings(&mut self) {
        let mut counts: HashMap<u32, u32> = HashMap::new();
        let mut entries = 0usize;
        for &code in &self.row_codes {
            if code != ValueDict::NULL {
                *counts.entry(code).or_insert(0) += 1;
                entries += 1;
            }
        }
        let mut buckets: HashMap<u32, (u32, u32)> = HashMap::with_capacity(counts.len());
        let mut offset = 0u32;
        for (&code, &count) in &counts {
            buckets.insert(code, (offset, offset));
            offset += count;
        }
        let mut rows = vec![0u32; entries];
        for (pos, &code) in self.row_codes.iter().enumerate() {
            if code != ValueDict::NULL {
                let range = buckets.get_mut(&code).expect("bucket reserved above");
                rows[range.1 as usize] = pos as u32;
                range.1 += 1;
            }
        }
        self.buckets = buckets;
        self.rows = rows;
        self.entries = entries;
        self.tombstones = 0;
        self.staged = 0;
    }

    /// Tombstone row `pos`: its code column entry becomes NULL so every
    /// probe that reaches the stale posting rejects it. O(1); postings are
    /// compacted lazily by [`HashIndex::integrate`].
    pub fn tombstone_row(&mut self, pos: u32) {
        let slot = &mut self.row_codes[pos as usize];
        if *slot != ValueDict::NULL {
            *slot = ValueDict::NULL;
            self.entries -= 1;
            self.tombstones += 1;
        }
    }

    /// Stage newly appended rows of the underlying relation: extends the
    /// code column (interning into `dict`) without touching the postings.
    /// Rows must be appended in position order; callers must
    /// [`HashIndex::integrate`] before the next probe.
    pub fn append_row(&mut self, value: &Value, dict: &mut ValueDict) {
        let code = dict.intern(value);
        self.row_codes.push(code);
        if code != ValueDict::NULL {
            self.entries += 1;
            self.staged += 1;
        }
    }

    /// Fold staged appends into the postings and compact tombstones once
    /// they outnumber half the live entries. Cheap relative to
    /// [`HashIndex::build`]: it re-derives CSR from codes without touching
    /// `Value`s or the dictionary.
    pub fn integrate(&mut self) {
        if self.staged > 0 || self.tombstones > self.entries / 2 {
            self.rebuild_postings();
        }
    }

    /// Row positions whose attribute has code `code` (empty for
    /// [`ValueDict::NULL`] and unseen codes), ascending.
    pub fn lookup_code(&self, code: u32) -> &[u32] {
        let (start, end) = self.bucket_range(code);
        &self.rows[start as usize..end as usize]
    }

    /// `[start, end)` range into [`HashIndex::rows`] for `code` (empty for
    /// [`ValueDict::NULL`] and unseen codes).
    pub fn bucket_range(&self, code: u32) -> (u32, u32) {
        if code == ValueDict::NULL {
            return (0, 0);
        }
        self.buckets.get(&code).copied().unwrap_or((0, 0))
    }

    /// The flat CSR postings array ([`HashIndex::bucket_range`] indexes
    /// into it).
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Dictionary code of row `row` ([`ValueDict::NULL`] for nulls).
    pub fn code_of_row(&self, row: u32) -> u32 {
        self.row_codes[row as usize]
    }

    /// Value-level lookup through `dict` (empty for `Null` and for values
    /// absent from the dictionary).
    pub fn lookup<'a>(&'a self, dict: &ValueDict, value: &Value) -> &'a [u32] {
        match dict.code_of(value) {
            Some(code) => self.lookup_code(code),
            None => &[],
        }
    }

    /// Number of distinct indexed values.
    pub fn distinct(&self) -> usize {
        self.buckets.len()
    }

    /// Number of indexed (non-null) entries.
    pub fn entries(&self) -> usize {
        self.entries
    }

    /// Expected postings length of a probe (`entries / distinct`, rounded
    /// up): the planner's static cost estimate for a hash-join access path.
    pub fn avg_bucket(&self) -> u32 {
        if self.buckets.is_empty() {
            0
        } else {
            self.entries.div_ceil(self.buckets.len()) as u32
        }
    }

    /// Iterate `(code, postings)`.
    pub fn iter(&self) -> impl Iterator<Item = (u32, &[u32])> {
        self.buckets.iter().map(move |(&code, &(s, e))| (code, &self.rows[s as usize..e as usize]))
    }

    /// Rewrite every code through `map` (`map[local] = global`). Used by
    /// [`IndexSet::build_all`] to graft an index built against a
    /// thread-local dictionary onto the shared one; postings and ranges are
    /// untouched, only the key space changes.
    fn translate_codes(&mut self, map: &[u32]) {
        for code in &mut self.row_codes {
            if *code != ValueDict::NULL {
                *code = map[*code as usize];
            }
        }
        self.buckets =
            self.buckets.iter().map(|(&code, &range)| (map[code as usize], range)).collect();
    }
}

/// Certified blocking keys of an attribute vector: what a [`SigIndex`]
/// posts a stored row under, and what a probing row looks up.
///
/// The contract is a necessary condition for a match: for every pair of
/// sides the predicate behind the scheme can accept, in either argument
/// order, the probe keys of each side share at least one key with the
/// index keys of the other. Keys may collide freely — a shared key only
/// makes a pair a candidate, the predicate still decides it.
pub trait KeyScheme: Send + Sync {
    /// Append the keys a stored side is posted under to `out`.
    fn index_keys(&self, side: &[Value], out: &mut Vec<u64>);

    /// Append the keys a probing side looks up to `out`. Implementations
    /// on the enumerator's hot path must not allocate for a side of one
    /// string value.
    fn probe_keys(&self, side: &[Value], out: &mut Vec<u64>);
}

/// Postings of a relation's live rows under the [`KeyScheme`] keys of one
/// attribute vector: `key -> [row positions]` in CSR layout, ascending
/// within each key. Unlike a [`HashIndex`] it never holds a tombstoned row,
/// so its candidates need no liveness filter.
///
/// A *blocked* index also folds each row's dictionary code of one block
/// attribute into its keys, so a probe that must also satisfy an equality
/// on that attribute reads only its own block's postings. Rows whose block
/// value is `Null` join nothing and are not posted.
pub struct SigIndex {
    scheme: Arc<dyn KeyScheme>,
    rel: RelId,
    attrs: Vec<AttrId>,
    /// The [`HashIndex`] slot over the block attribute, if blocked.
    block: Option<u32>,
    /// `key -> [start, end)` range into `rows`.
    buckets: HashMap<u64, (u32, u32)>,
    /// Flat postings storage, grouped by key.
    rows: Vec<u32>,
    /// Relation positions below this one have been keyed.
    covered: usize,
}

impl std::fmt::Debug for SigIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SigIndex")
            .field("rel", &self.rel)
            .field("attrs", &self.attrs)
            .field("block", &self.block)
            .field("keys", &self.buckets.len())
            .field("entries", &self.rows.len())
            .finish()
    }
}

/// Fold a block code into a signature key. A collision only adds
/// candidates.
fn block_key(key: u64, code: u32) -> u64 {
    (key ^ u64::from(code)).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(31)
}

impl SigIndex {
    /// Catch up with the relation: drop postings of rows no longer live,
    /// key the rows appended since the last update, and re-derive the CSR
    /// layout. `slots` are the set's hash indexes, already patched, so a
    /// blocked index reads its new rows' block codes from them. Afterwards
    /// the postings equal a fresh build.
    fn update(&mut self, dataset: &Dataset, slots: &[HashIndex]) {
        let relation = dataset.relation(self.rel);
        let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(self.rows.len());
        for (&key, &(s, e)) in &self.buckets {
            let live = self.rows[s as usize..e as usize].iter().filter(|&&r| relation.is_live(r));
            pairs.extend(live.map(|&r| (key, r)));
        }
        let (mut side, mut keys) = (Vec::with_capacity(self.attrs.len()), Vec::new());
        for pos in self.covered..relation.len() {
            if !relation.is_live(pos as u32) {
                continue;
            }
            let block = self.block.map(|b| slots[b as usize].code_of_row(pos as u32));
            if block == Some(ValueDict::NULL) {
                continue;
            }
            let t = &relation.tuples()[pos];
            side.clear();
            side.extend(self.attrs.iter().map(|&a| t.get(a).clone()));
            keys.clear();
            self.scheme.index_keys(&side, &mut keys);
            let posted = keys.iter().map(|&k| block.map_or(k, |code| block_key(k, code)));
            pairs.extend(posted.map(|k| (k, pos as u32)));
        }
        self.covered = relation.len();
        pairs.sort_unstable();
        pairs.dedup();
        self.buckets.clear();
        self.rows.clear();
        self.rows.reserve_exact(pairs.len());
        for group in pairs.chunk_by(|a, b| a.0 == b.0) {
            let start = self.rows.len() as u32;
            self.rows.extend(group.iter().map(|&(_, r)| r));
            self.buckets.insert(group[0].0, (start, self.rows.len() as u32));
        }
    }

    /// Rows posted under `key` — within the block of dictionary code
    /// `block` when the index is blocked (`block` is ignored otherwise) —
    /// ascending; empty for an unseen key.
    pub fn bucket(&self, key: u64, block: u32) -> &[u32] {
        let key = if self.block.is_some() { block_key(key, block) } else { key };
        match self.buckets.get(&key) {
            Some(&(s, e)) => &self.rows[s as usize..e as usize],
            None => &[],
        }
    }

    /// The scheme the postings were keyed by — and that probes must use.
    pub fn scheme(&self) -> &dyn KeyScheme {
        &*self.scheme
    }

    /// Number of `(key, row)` postings.
    pub fn entries(&self) -> usize {
        self.rows.len()
    }
}

/// Lazily built cache of [`HashIndex`]es over one dataset, all sharing one
/// [`ValueDict`], plus the [`SigIndex`]es of signature-bearing ML
/// predicates.
///
/// Indexes live in dense *slots* so the chase's compiled access programs
/// can address them by `u32` id — one bounds-checked array access per
/// candidate instead of a `(rel, attr)` hash lookup. Signature indexes
/// have a slot space of their own.
#[derive(Debug, Default)]
pub struct IndexSet {
    dict: ValueDict,
    slots: Vec<HashIndex>,
    by_key: HashMap<(RelId, AttrId), u32>,
    sig_slots: Vec<SigIndex>,
    /// `(relation, attribute vector, scheme tag, block attribute)` ->
    /// signature slot.
    sig_by_key: HashMap<(RelId, Vec<AttrId>, u32, Option<AttrId>), u32>,
}

impl IndexSet {
    /// Empty cache.
    pub fn new() -> IndexSet {
        IndexSet::default()
    }

    /// Get (building on first use) the index for `(rel, attr)`.
    pub fn get(&mut self, dataset: &Dataset, rel: RelId, attr: AttrId) -> &HashIndex {
        let slot = self.slot_of(dataset, rel, attr);
        &self.slots[slot as usize]
    }

    /// Slot id of the `(rel, attr)` index, building it on first use. Slots
    /// are stable until [`IndexSet::clear`].
    pub fn slot_of(&mut self, dataset: &Dataset, rel: RelId, attr: AttrId) -> u32 {
        if let Some(&slot) = self.by_key.get(&(rel, attr)) {
            return slot;
        }
        let index = HashIndex::build(dataset, rel, attr, &mut self.dict);
        let slot = self.slots.len() as u32;
        self.slots.push(index);
        self.by_key.insert((rel, attr), slot);
        slot
    }

    /// Build the indexes for `keys` on a transient pool of `threads` lanes
    /// — see [`IndexSet::build_all_on`]. Callers holding a session-wide
    /// [`dcer_pool::WorkPool`] should pass it to `build_all_on` instead so no extra
    /// threads are spawned.
    pub fn build_all(&mut self, dataset: &Dataset, keys: &[(RelId, AttrId)], threads: usize) {
        if keys.iter().all(|k| self.by_key.contains_key(k)) {
            return;
        }
        self.build_all_on(dataset, keys, &dcer_pool::WorkPool::new(threads));
    }

    /// Build the indexes for `keys` (first occurrence wins; already-built
    /// keys are skipped) on `pool` — one task per key, weighted by relation
    /// size — then merge deterministically.
    ///
    /// Each task builds against a *local* [`ValueDict`]; the indexes are
    /// then grafted onto the shared dictionary in `keys` order by interning
    /// each local dictionary's values in code order (= its first-sight
    /// order) and rewriting codes through the resulting translation table.
    /// Slots, codes, buckets and code columns come out identical to calling
    /// [`IndexSet::slot_of`] sequentially in the same key order — the chase
    /// compiler's slot ids and constant codes are unaffected by the pool
    /// size.
    pub fn build_all_on(
        &mut self,
        dataset: &Dataset,
        keys: &[(RelId, AttrId)],
        pool: &dcer_pool::WorkPool,
    ) {
        let mut todo: Vec<(RelId, AttrId)> = Vec::new();
        for &k in keys {
            if !self.by_key.contains_key(&k) && !todo.contains(&k) {
                todo.push(k);
            }
        }
        if todo.is_empty() {
            return;
        }
        let _span = dcer_obs::span("index.build_all").with_arg("keys", todo.len() as u64);
        let weights: Vec<u64> =
            todo.iter().map(|&(rel, _)| dataset.relation(rel).len() as u64).collect();
        let tasks: Vec<_> = todo
            .iter()
            .map(|&(rel, attr)| {
                move || {
                    let mut dict = ValueDict::new();
                    let index = HashIndex::build(dataset, rel, attr, &mut dict);
                    (index, dict)
                }
            })
            .collect();
        let built: Vec<(HashIndex, ValueDict)> = pool.run(tasks, Some(&weights));
        for (key, (mut index, local)) in todo.into_iter().zip(built) {
            let map: Vec<u32> =
                local.values_in_code_order().iter().map(|v| self.dict.intern(v)).collect();
            index.translate_codes(&map);
            let slot = self.slots.len() as u32;
            self.slots.push(index);
            self.by_key.insert(key, slot);
        }
    }

    /// Index at `slot` (panics on a stale slot; see [`IndexSet::slot_of`]).
    pub fn at(&self, slot: u32) -> &HashIndex {
        &self.slots[slot as usize]
    }

    /// Slot id of the signature index over `attrs` of relation `rel` keyed
    /// by `scheme` — blocked on attribute `block` if given (building that
    /// attribute's hash index too) — building it on first use. `tag` names
    /// the scheme: the caller must pass one tag per scheme (the chase
    /// passes the model's index in its rule set), since two models over
    /// the same attributes key them differently. Slots are stable until
    /// [`IndexSet::clear`].
    pub fn sig_slot_of(
        &mut self,
        dataset: &Dataset,
        rel: RelId,
        attrs: &[AttrId],
        tag: u32,
        scheme: &Arc<dyn KeyScheme>,
        block: Option<AttrId>,
    ) -> u32 {
        let key = (rel, attrs.to_vec(), tag, block);
        if let Some(&slot) = self.sig_by_key.get(&key) {
            return slot;
        }
        let block = block.map(|attr| self.slot_of(dataset, rel, attr));
        let _span = dcer_obs::span("index.sig_build").with_arg("rel", rel as u64);
        let mut index = SigIndex {
            scheme: Arc::clone(scheme),
            rel,
            attrs: attrs.to_vec(),
            block,
            buckets: HashMap::new(),
            rows: Vec::new(),
            covered: 0,
        };
        index.update(dataset, &self.slots);
        let slot = self.sig_slots.len() as u32;
        self.sig_slots.push(index);
        self.sig_by_key.insert(key, slot);
        slot
    }

    /// Signature index at `slot` (see [`IndexSet::sig_slot_of`]).
    pub fn sig_at(&self, slot: u32) -> &SigIndex {
        &self.sig_slots[slot as usize]
    }

    /// Get the index if it was already built.
    pub fn peek(&self, rel: RelId, attr: AttrId) -> Option<&HashIndex> {
        self.by_key.get(&(rel, attr)).map(|&slot| &self.slots[slot as usize])
    }

    /// The shared interning dictionary.
    pub fn dict(&self) -> &ValueDict {
        &self.dict
    }

    /// Code of `value` in the shared dictionary (`None` for `Null` and for
    /// values no built index has seen — such values match no indexed row).
    pub fn code_of(&self, value: &Value) -> Option<u32> {
        self.dict.code_of(value)
    }

    /// Drop all cached indexes *and* the dictionary (after the underlying
    /// data changed). Invalidates every slot id and interned code handed
    /// out so far — compiled access programs must be recompiled.
    ///
    /// Prefer [`IndexSet::apply_update`] for incremental mutations: it
    /// patches only the slots whose relation changed and keeps every slot
    /// id and code valid.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.by_key.clear();
        self.sig_slots.clear();
        self.sig_by_key.clear();
        self.dict = ValueDict::new();
    }

    /// Patch built indexes in place after `dataset` was mutated: for every
    /// slot over a relation named in `changed`, tombstone dead positions,
    /// stage rows appended since the slot was built, and integrate. Every
    /// signature index over a changed relation drops its dead rows' postings
    /// and keys the appended rows, so it equals a fresh build.
    ///
    /// The dictionary only grows and no slot is dropped, so every slot id
    /// and interned code handed out before the update stays valid —
    /// compiled rule programs over *unchanged* relations need no
    /// recompilation, and programs over changed relations only need one if
    /// they were compiled `dead` (a constant they filter on may have been
    /// interned by the new rows). Returns the slots that were patched.
    pub fn apply_update(&mut self, dataset: &Dataset, changed: &[RelId]) -> Vec<u32> {
        let mut patched = Vec::new();
        for (&(rel, attr), &slot) in &self.by_key {
            if !changed.contains(&rel) {
                continue;
            }
            let relation = dataset.relation(rel);
            let index = &mut self.slots[slot as usize];
            // Tombstones: any previously indexed position that is no
            // longer live. A u32/bool sweep — no Value access.
            for pos in 0..index.row_codes.len() as u32 {
                if !relation.is_live(pos) {
                    index.tombstone_row(pos);
                }
            }
            // Appends: positions the relation gained since this slot was
            // built (or last patched). Rows already dead again (inserted
            // and deleted between patches) enter as NULL.
            for pos in index.row_codes.len()..relation.len() {
                let t = &relation.tuples()[pos];
                if relation.is_live(pos as u32) {
                    index.append_row(t.get(attr), &mut self.dict);
                } else {
                    index.append_row(&Value::Null, &mut self.dict);
                }
            }
            index.integrate();
            patched.push(slot);
        }
        for sig in &mut self.sig_slots {
            if changed.contains(&sig.rel) {
                sig.update(dataset, &self.slots);
            }
        }
        patched.sort_unstable();
        patched
    }

    /// Number of built hash indexes.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether no index has been built.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

/// Index from entity id ([`Tid`]) to the row position hosting it, for every
/// relation in a fragment. Used when routing received matches to local rows.
#[derive(Debug, Default)]
pub struct TidIndex {
    map: HashMap<Tid, u32>,
}

impl TidIndex {
    /// Build over all relations of `dataset`.
    pub fn build(dataset: &Dataset) -> TidIndex {
        let mut map = HashMap::with_capacity(dataset.total_tuples());
        for r in dataset.relations() {
            for (pos, t) in r.tuples().iter().enumerate() {
                map.insert(t.tid, pos as u32);
            }
        }
        TidIndex { map }
    }

    /// Row position of `tid` in its relation, if hosted here.
    pub fn position(&self, tid: Tid) -> Option<u32> {
        self.map.get(&tid).copied()
    }

    /// Whether `tid` is hosted in the indexed fragment.
    pub fn contains(&self, tid: Tid) -> bool {
        self.map.contains_key(&tid)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Catalog, RelationSchema};
    use crate::value::ValueType;
    use std::sync::Arc;

    fn dataset() -> Dataset {
        let cat = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of(
                "R",
                &[("k", ValueType::Str), ("v", ValueType::Int)],
            )])
            .unwrap(),
        );
        let mut d = Dataset::new(cat);
        d.insert(0, vec![Value::str("a"), Value::Int(1)]).unwrap();
        d.insert(0, vec![Value::str("b"), Value::Int(2)]).unwrap();
        d.insert(0, vec![Value::str("a"), Value::Int(3)]).unwrap();
        d.insert(0, vec![Value::Null, Value::Int(4)]).unwrap();
        d
    }

    #[test]
    fn lookup_returns_all_matching_rows() {
        let d = dataset();
        let mut dict = ValueDict::new();
        let idx = HashIndex::build(&d, 0, 0, &mut dict);
        assert_eq!(idx.lookup(&dict, &Value::str("a")), &[0, 2]);
        assert_eq!(idx.lookup(&dict, &Value::str("b")), &[1]);
        assert!(idx.lookup(&dict, &Value::str("z")).is_empty());
        assert_eq!(idx.distinct(), 2);
        assert_eq!(idx.entries(), 3);
        assert_eq!(idx.avg_bucket(), 2);
    }

    #[test]
    fn code_column_matches_dictionary() {
        let d = dataset();
        let mut dict = ValueDict::new();
        let idx = HashIndex::build(&d, 0, 0, &mut dict);
        let a = dict.code_of(&Value::str("a")).unwrap();
        assert_eq!(idx.code_of_row(0), a);
        assert_eq!(idx.code_of_row(2), a);
        assert_eq!(idx.code_of_row(3), ValueDict::NULL);
        assert_eq!(idx.lookup_code(a), &[0, 2]);
        assert!(idx.lookup_code(ValueDict::NULL).is_empty());
        let total: usize = idx.iter().map(|(_, p)| p.len()).sum();
        assert_eq!(total, idx.entries());
    }

    #[test]
    fn nulls_never_match() {
        let d = dataset();
        let mut dict = ValueDict::new();
        let idx = HashIndex::build(&d, 0, 0, &mut dict);
        assert!(idx.lookup(&dict, &Value::Null).is_empty());
        assert_eq!(dict.code_of(&Value::Null), None);
    }

    #[test]
    fn dictionary_canonicalizes_numerics() {
        let mut dict = ValueDict::new();
        let int_code = dict.intern(&Value::Int(2));
        assert_eq!(dict.intern(&Value::Float(2.0)), int_code, "sql_eq-equal numerics share a code");
        assert_eq!(dict.code_of(&Value::Float(2.0)), Some(int_code));
        assert_ne!(dict.intern(&Value::Float(2.5)), int_code);
        assert_eq!(dict.len(), 2);
    }

    #[test]
    fn index_set_caches_and_slots_are_stable() {
        let d = dataset();
        let mut set = IndexSet::new();
        assert!(set.peek(0, 1).is_none());
        let slot = set.slot_of(&d, 0, 1);
        assert_eq!(set.slot_of(&d, 0, 1), slot, "repeat lookups reuse the slot");
        assert!(set.peek(0, 1).is_some());
        assert_eq!(set.at(slot).entries(), 4);
        assert_eq!(set.len(), 1);
        set.clear();
        assert!(set.is_empty());
        assert!(set.dict().is_empty(), "clear resets the dictionary");
    }

    #[test]
    fn index_set_shares_one_dictionary() {
        let d = dataset();
        let mut set = IndexSet::new();
        let _ = set.get(&d, 0, 0);
        let before = set.dict().len();
        let _ = set.get(&d, 0, 1);
        assert!(set.dict().len() > before, "second index interns into the same dictionary");
        assert!(set.code_of(&Value::str("a")).is_some());
        assert_eq!(set.code_of(&Value::str("zz")), None);
    }

    #[test]
    fn build_all_matches_sequential_at_every_thread_count() {
        let d = dataset();
        let keys = [(0u16, 0u16), (0u16, 1u16), (0u16, 0u16)]; // dup on purpose
        let mut seq = IndexSet::new();
        for &(rel, attr) in &keys {
            seq.slot_of(&d, rel, attr);
        }
        for threads in [1, 2, 8] {
            let mut par = IndexSet::new();
            par.build_all(&d, &keys, threads);
            assert_eq!(par.len(), seq.len());
            assert_eq!(par.dict().len(), seq.dict().len());
            for &(rel, attr) in &keys {
                let (a, b) = (par.peek(rel, attr).unwrap(), seq.peek(rel, attr).unwrap());
                assert_eq!(a.entries(), b.entries());
                for row in 0..4u32 {
                    assert_eq!(a.code_of_row(row), b.code_of_row(row), "threads={threads}");
                }
                for (code, postings) in b.iter() {
                    assert_eq!(a.lookup_code(code), postings);
                }
            }
            // Shared-dictionary codes line up too.
            assert_eq!(par.code_of(&Value::str("a")), seq.code_of(&Value::str("a")));
            assert_eq!(par.code_of(&Value::Int(1)), seq.code_of(&Value::Int(1)));
        }
    }

    #[test]
    fn build_all_skips_already_built_keys() {
        let d = dataset();
        let mut set = IndexSet::new();
        let slot = set.slot_of(&d, 0, 1);
        set.build_all(&d, &[(0, 1), (0, 0)], 4);
        assert_eq!(set.slot_of(&d, 0, 1), slot, "existing slot survives build_all");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn tombstoned_rows_vanish_from_code_column_and_fresh_builds() {
        let mut d = dataset();
        let mut dict = ValueDict::new();
        let mut idx = HashIndex::build(&d, 0, 0, &mut dict);
        assert_eq!(idx.lookup(&dict, &Value::str("a")), &[0, 2]);
        // Tombstone row 0: the stale posting remains but the code column
        // rejects it, and entry counts drop immediately.
        idx.tombstone_row(0);
        idx.tombstone_row(0); // idempotent
        assert_eq!(idx.code_of_row(0), ValueDict::NULL);
        assert_eq!(idx.entries(), 2);
        // Compaction (forced here via a staged append) drops the posting.
        idx.append_row(&Value::str("c"), &mut dict);
        idx.integrate();
        assert_eq!(idx.lookup(&dict, &Value::str("a")), &[2]);
        assert_eq!(idx.lookup(&dict, &Value::str("c")), &[4]);
        // A fresh build over a tombstoned dataset never indexes dead rows.
        d.delete(Tid::new(0, 0));
        let mut dict2 = ValueDict::new();
        let fresh = HashIndex::build(&d, 0, 0, &mut dict2);
        assert_eq!(fresh.lookup(&dict2, &Value::str("a")), &[2]);
        assert_eq!(fresh.code_of_row(0), ValueDict::NULL);
    }

    #[test]
    fn index_set_apply_update_patches_only_changed_relations() {
        let cat = Arc::new(
            Catalog::from_schemas(vec![
                RelationSchema::of("R", &[("k", ValueType::Str)]),
                RelationSchema::of("S", &[("k", ValueType::Str)]),
            ])
            .unwrap(),
        );
        let mut d = Dataset::new(cat);
        d.insert(0, vec![Value::str("a")]).unwrap();
        d.insert(0, vec![Value::str("b")]).unwrap();
        d.insert(1, vec![Value::str("a")]).unwrap();
        let mut set = IndexSet::new();
        let r_slot = set.slot_of(&d, 0, 0);
        let s_slot = set.slot_of(&d, 1, 0);
        let a_code = set.code_of(&Value::str("a")).unwrap();

        d.delete(Tid::new(0, 0));
        d.insert(0, vec![Value::str("c")]).unwrap();
        let t = d.insert(0, vec![Value::str("z")]).unwrap();
        d.delete(t); // inserted and deleted between patches
        let patched = set.apply_update(&d, &[0]);
        assert_eq!(patched, vec![r_slot], "only the changed relation's slot is touched");

        // Slot ids and codes survive; postings reflect the mutation.
        assert_eq!(set.code_of(&Value::str("a")), Some(a_code));
        assert!(set.at(r_slot).lookup(set.dict(), &Value::str("a")).is_empty());
        assert_eq!(set.at(r_slot).lookup(set.dict(), &Value::str("c")), &[2]);
        assert_eq!(set.at(r_slot).code_of_row(3), ValueDict::NULL, "dead append stays out");
        assert_eq!(set.at(s_slot).lookup(set.dict(), &Value::str("a")), &[0]);
        // The patched slot agrees with a from-scratch build.
        let mut fresh = IndexSet::new();
        let f_slot = fresh.slot_of(&d, 0, 0);
        for (code, postings) in fresh.at(f_slot).iter() {
            let v = fresh
                .dict()
                .values_in_code_order()
                .into_iter()
                .nth(code as usize)
                .expect("code in dict");
            assert_eq!(set.at(r_slot).lookup(set.dict(), &v), postings);
        }
    }

    /// Keys a side by the first character of its first value.
    struct FirstChar;

    impl KeyScheme for FirstChar {
        fn index_keys(&self, side: &[Value], out: &mut Vec<u64>) {
            out.extend(side[0].as_str().and_then(|s| s.chars().next()).map(u64::from));
        }
        fn probe_keys(&self, side: &[Value], out: &mut Vec<u64>) {
            self.index_keys(side, out);
        }
    }

    #[test]
    fn sig_index_posts_live_rows_and_patches_to_a_fresh_build() {
        let cat = Arc::new(
            Catalog::from_schemas(vec![RelationSchema::of(
                "R",
                &[("k", ValueType::Str), ("v", ValueType::Str)],
            )])
            .unwrap(),
        );
        let mut d = Dataset::new(cat);
        for (k, v) in [("a", "apple"), ("b", "avocado"), ("a", "banana"), ("a", "apricot")] {
            d.insert(0, vec![Value::str(k), Value::str(v)]).unwrap();
        }
        d.insert(0, vec![Value::Null, Value::str("almond")]).unwrap();
        let scheme: Arc<dyn KeyScheme> = Arc::new(FirstChar);
        let slots = |set: &mut IndexSet, d: &Dataset| {
            let plain = set.sig_slot_of(d, 0, &[1], 7, &scheme, None);
            let blocked = set.sig_slot_of(d, 0, &[1], 7, &scheme, Some(0));
            (plain, blocked)
        };
        let mut set = IndexSet::new();
        let (plain, blocked) = slots(&mut set, &d);
        assert_ne!(plain, blocked);
        assert_eq!(slots(&mut set, &d), (plain, blocked), "slots are stable");
        let key = u64::from('a');
        let a = set.code_of(&Value::str("a")).unwrap();
        assert_eq!(set.sig_at(plain).bucket(key, ValueDict::NULL), &[0, 1, 3, 4]);
        // Blocked: only block `a`'s rows; the null-keyed row joins nothing.
        assert_eq!(set.sig_at(blocked).bucket(key, a), &[0, 3]);
        assert_eq!(set.sig_at(plain).entries(), 5);
        assert_eq!(set.sig_at(blocked).entries(), 4);

        d.delete(Tid::new(0, 0));
        d.insert(0, vec![Value::str("b"), Value::str("acai")]).unwrap();
        let gone = d.insert(0, vec![Value::str("a"), Value::str("aronia")]).unwrap();
        d.delete(gone);
        set.apply_update(&d, &[0]);
        let mut fresh = IndexSet::new();
        let (fresh_plain, fresh_blocked) = slots(&mut fresh, &d);
        let b = set.code_of(&Value::str("b")).unwrap();
        for key in ['a', 'b'].map(u64::from) {
            let want = fresh.sig_at(fresh_plain).bucket(key, ValueDict::NULL);
            assert_eq!(set.sig_at(plain).bucket(key, ValueDict::NULL), want);
            for (code, value) in [(a, "a"), (b, "b")] {
                let fresh_code = fresh.code_of(&Value::str(value)).unwrap();
                let want = fresh.sig_at(fresh_blocked).bucket(key, fresh_code);
                assert_eq!(set.sig_at(blocked).bucket(key, code), want, "{value}");
            }
        }
        assert_eq!(set.sig_at(plain).bucket(u64::from('a'), ValueDict::NULL), &[1, 3, 4, 5]);
        assert_eq!(set.sig_at(blocked).bucket(u64::from('a'), b), &[1, 5]);
    }

    #[test]
    fn tid_index_positions() {
        let d = dataset();
        let idx = TidIndex::build(&d);
        assert_eq!(idx.position(Tid::new(0, 2)), Some(2));
        assert!(idx.contains(Tid::new(0, 0)));
        assert!(!idx.contains(Tid::new(0, 99)));
    }
}
