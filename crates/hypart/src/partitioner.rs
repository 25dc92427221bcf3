//! The HyPart partitioner (paper, Fig. 2): distribute a dataset into `n`
//! fragments such that every valuation of every rule is fully contained in
//! some fragment (Lemma 6), using MQO-shared hash functions, virtual blocks
//! and LPT balancing.
//!
//! ## Parallel distribution
//!
//! The tuple-distribution scan — rules × roles × tuples × broadcast product
//! — is split into cost-model-sized tasks executed on the shared
//! [`WorkPool`] (the session-wide pool when [`HyPartConfig::pool`] is set,
//! a transient one otherwise). Task `s` of `T` owns a fixed row range of
//! every relation (`[len·s/T, len·(s+1)/T)`), so a given tuple is always
//! hashed by the same task; each task carries its own [`HashMemo`], which
//! therefore sees exactly the lookups the one-lane run's single memo would
//! see for those rows, and the summed computed/hit counters are identical
//! at every lane count. Tasks emit `(cell, tid, rule mask)` runs
//! pre-bucketed by `cell % classes`; runs are merged per cell class in
//! fixed task order, and rule masks combine by bitwise OR, so the
//! resulting [`Partition`] — fragments, rule masks, hosts, stats — is
//! bit-identical at every lane count.
//!
//! A one-lane pool runs everything inline, in order, as a single scan task
//! with one memo emitting straight into the cell table: that path is the
//! oracle the multi-lane runs are compared with (`parallel_parity`,
//! `steal_skew`, `tests/hypart_locality.rs`), and `tests/golden.rs` pins
//! its output to a committed file.
//!
//! The task count oversubscribes the lane count by the modeled per-row
//! cost variance (wide rules' broadcast products dominate), giving the
//! pool's work stealing room to absorb whatever the contiguous
//! weight-balanced split misses.
//!
//! Per-rule geometries are built once per *effective* cell count and reused
//! across skew-refinement doublings: memoized hashes stay valid because a
//! coordinate is `h % shares[d]` — only the modulus changes — and wide
//! rules' reduced sub-grids do not change at all when the global cell count
//! doubles. Once a rule's grid saturates, a doubling only changes the
//! final `% cells`, so refinement iterations replay the rule's cached raw
//! emissions instead of re-walking its rows (see `CachedRule`).

use crate::balance::{balance_ratio, lpt_assign};
use crate::hash::HashMemo;
use crate::shares::{allocate_shares, RoleCoverage};
use dcer_mqo::{assign_hashes, MqoPlan, QueryPlan};
use dcer_mrl::{Predicate, RuleSet, TupleVar, VarKey};
use dcer_pool::WorkPool;
use dcer_relation::{Dataset, Tid};
use serde::Serialize;
use std::collections::HashMap;
use std::sync::Arc;

/// Partitioning configuration.
#[derive(Debug, Clone)]
pub struct HyPartConfig {
    /// Number of physical workers `n`.
    pub workers: usize,
    /// Virtual-block factor: the initial cell count is
    /// `workers * virtual_factor` (the paper uses `n²`, i.e. factor `n`).
    pub virtual_factor: usize,
    /// Share hash functions across rules (MQO). `false` reproduces the
    /// `DMatch_noMQO` baseline.
    pub use_mqo: bool,
    /// Upper bound on the cell count.
    pub max_cells: usize,
    /// Skew threshold: refine (double the cells) while the max cell load
    /// exceeds `skew_threshold × average non-empty cell load`, up to
    /// `max_refinements` times — the heavy-block reduction of Section IV's
    /// remarks.
    pub skew_threshold: f64,
    /// Maximum number of refinement rounds.
    pub max_refinements: u32,
    /// Lane count for the distribution scan, merge and fragment build when
    /// no [`pool`](Self::pool) is given; `0` means one per available core.
    /// A caller's pool supersedes it: the pool's size is the lane count.
    /// The output is bit-identical at every lane count; only wall-clock
    /// changes.
    pub threads: usize,
    /// The shared work-stealing pool every parallel region runs on. `None`
    /// creates a transient pool of [`Self::effective_threads`] lanes per
    /// `partition` call (one lane spawns no thread); sessions thread one
    /// pool through here so the whole pipeline reuses the same threads.
    pub pool: Option<Arc<WorkPool>>,
}

impl HyPartConfig {
    /// Defaults for `n` workers: `n²` cells, MQO on, one scan shard per
    /// available core.
    pub fn new(workers: usize) -> HyPartConfig {
        HyPartConfig {
            workers,
            virtual_factor: workers,
            use_mqo: true,
            max_cells: 1 << 14,
            skew_threshold: 3.0,
            max_refinements: 2,
            threads: 0,
            pool: None,
        }
    }

    /// Resolved lane count without a pool: `threads`, or one per available
    /// core.
    pub fn effective_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
    }
}

/// Result of partitioning.
#[derive(Debug)]
pub struct Partition {
    /// Fragments `W₁, …, W_n`, one per worker.
    pub fragments: Vec<Dataset>,
    /// Which workers host each tuple (sorted) — the master's routing table.
    pub hosts: HashMap<Tid, Vec<u16>>,
    /// Per fragment: which *rules* each hosted tuple was distributed for
    /// (bit `i` = rule `i`; rules ≥ 128 share bit 127 conservatively).
    /// A rule's valuations are fully covered by its own distribution
    /// (Lemma 6), so its local evaluation may skip tuples replicated only
    /// for other rules — removing the cross-rule redundancy that would
    /// otherwise grow with the replication factor.
    pub rule_masks: Vec<HashMap<Tid, u128>>,
    /// Work and balance statistics.
    pub stats: PartitionStats,
}

/// Bit for rule `i` in a rule mask (rules ≥ 128 collapse onto bit 127,
/// which readers must treat as "any high rule" — a sound over-approximation).
pub fn rule_bit(rule_idx: usize) -> u128 {
    1u128 << rule_idx.min(127)
}

/// Statistics of one partitioning run.
#[derive(Debug, Clone, Default, PartialEq, Serialize)]
pub struct PartitionStats {
    /// Physical workers.
    pub workers: usize,
    /// Virtual blocks used (after refinement).
    pub cells: usize,
    /// `|H(Σ, D)|`: tuple replicas generated across rules (pre-dedup),
    /// taken from the winning refinement iteration.
    pub generated_tuples: u64,
    /// Real hash computations performed (summed over scan shards).
    pub hash_computations: u64,
    /// Hash computations avoided by the MQO memo (summed over scan shards).
    pub hash_memo_hits: u64,
    /// Tuples per fragment (post-dedup).
    pub fragment_sizes: Vec<usize>,
    /// Σ fragment sizes / |D|.
    pub replication_factor: f64,
    /// Skew-refinement rounds taken.
    pub refinements: u32,
    /// Hash functions in the pool (MQO-shared or per-rule).
    pub hash_functions: usize,
    /// MQO sharing statistics from the hash assignment this run used.
    pub sharing: dcer_mqo::SharingStats,
}

impl PartitionStats {
    /// Publish these counters into the global [`dcer_obs`] registry under
    /// `hypart.*` (no-op unless a recorder is installed). The nested
    /// [`sharing`](Self::sharing) stats are not re-published here —
    /// [`dcer_mqo::assign_hashes`] already publishes them as `mqo.*`.
    pub fn publish(&self) {
        if !dcer_obs::enabled() {
            return;
        }
        dcer_obs::counter_add("hypart.cells", self.cells as u64);
        dcer_obs::counter_add("hypart.generated_tuples", self.generated_tuples);
        dcer_obs::counter_add("hypart.hash_computations", self.hash_computations);
        dcer_obs::counter_add("hypart.hash_memo_hits", self.hash_memo_hits);
        dcer_obs::counter_add("hypart.refinements", self.refinements as u64);
        dcer_obs::counter_add("hypart.hash_functions", self.hash_functions as u64);
        dcer_obs::gauge_set("hypart.replication_factor", self.replication_factor);
        for (i, &size) in self.fragment_sizes.iter().enumerate() {
            dcer_obs::gauge_set_labeled("hypart.fragment_tuples", i as u32, size as f64);
        }
    }
}

/// Per-rule distribution geometry derived from the MQO assignment.
struct RuleGeometry {
    /// Share per dimension (dimension order = `assignment.dim_order`).
    shares: Vec<usize>,
    /// Mixed-radix strides per dimension.
    strides: Vec<usize>,
    /// Rotation added to the cell index (mod the global cell count) so
    /// rules on reduced sub-grids do not all pile onto the first cells.
    offset: usize,
    /// Per tuple variable: `(dim, hash_fn, key)` of covered dimensions, and
    /// the variable's constant filters (distribution-time pruning).
    roles: Vec<RoleInfo>,
}

struct RoleInfo {
    rel: dcer_relation::RelId,
    covered: Vec<(usize, usize, VarKey)>,
    const_filters: Vec<(u16, dcer_relation::Value)>,
    /// Uncovered dimensions with share > 1 (the broadcast product), fixed
    /// per role — precomputed so the scan does not rebuild it per tuple.
    free: Vec<usize>,
}

/// Effective cell count for one rule: wide rules replicate as the product
/// of their uncovered shares, which grows steeply with the cell count; give
/// them a smaller sub-grid (still >= 2 cells per worker, so Lemma 6 and
/// parallelism hold) and let narrow rules use the full virtual-block grid.
fn effective_cells(rules: &RuleSet, rule_idx: usize, cells: usize, workers: usize) -> usize {
    if rules.rules()[rule_idx].num_vars() > 3 {
        cells.min((workers * 2).max(2))
    } else {
        cells
    }
}

/// Build the geometry of `rule_idx` for an (already clamped) cell count.
fn build_geometry(
    rules: &RuleSet,
    plan: &MqoPlan,
    rule_idx: usize,
    dataset: &Dataset,
    cells: usize,
) -> RuleGeometry {
    let rule = &rules.rules()[rule_idx];
    let assignment = &plan.assignments[rule_idx];
    let dims = assignment.num_dims().max(1);

    // Role coverage for share allocation: which dims each variable covers.
    let mut roles: Vec<RoleInfo> = Vec::with_capacity(rule.num_vars());
    for v in 0..rule.num_vars() as u16 {
        let var = TupleVar(v);
        let rel = rule.rel_of(var);
        let mut covered = Vec::new();
        for (pos, &dvar_idx) in assignment.dim_order.iter().enumerate() {
            let d = &assignment.dvars[dvar_idx];
            if let Some(key) = d.keys_of(var).next() {
                covered.push((pos, assignment.hash_fn[dvar_idx], key.clone()));
            }
        }
        let const_filters = rule
            .body
            .iter()
            .filter_map(|p| match p {
                Predicate::ConstEq { var: pv, attr, value } if *pv == var => {
                    Some((*attr, value.clone()))
                }
                _ => None,
            })
            .collect();
        roles.push(RoleInfo { rel, covered, const_filters, free: Vec::new() });
    }

    let coverage: Vec<RoleCoverage> = roles
        .iter()
        .map(|r| RoleCoverage {
            covered: r.covered.iter().map(|&(d, _, _)| d).collect(),
            weight: dataset.relation(r.rel).len() as u64,
        })
        .collect();
    let shares = allocate_shares(dims, cells, &coverage);
    let mut strides = vec![1usize; dims];
    for d in 1..dims {
        strides[d] = strides[d - 1] * shares[d - 1];
    }
    // The broadcast product of each role is fixed by its coverage.
    for role in &mut roles {
        role.free = (0..shares.len())
            .filter(|d| !role.covered.iter().any(|&(cd, _, _)| cd == *d))
            .filter(|&d| shares[d] > 1)
            .collect();
    }
    RuleGeometry { shares, strides, roles, offset: (rule_idx * 7919) }
}

/// Row range of shard `shard` of `shards` over a relation of `len` rows.
/// The split depends only on `len`, so every rule/role scanning the same
/// relation hands the same rows — and therefore the same memo keys — to the
/// same shard.
fn shard_range(len: usize, shard: usize, shards: usize) -> (usize, usize) {
    (len * shard / shards, len * (shard + 1) / shards)
}

/// Emit every *raw* (pre-modulus) replica value of one tuple for one role:
/// `base + Σ combo·stride + offset`, before the final `% cells`. Raw values
/// depend only on the rule's geometry — not on the global cell count — which
/// is what makes them cacheable across skew-refinement doublings for rules
/// whose effective grid has saturated.
fn emit_role_raw(
    geom: &RuleGeometry,
    role: &RoleInfo,
    t: &dcer_relation::Tuple,
    memo: &mut HashMemo,
    fixed: &mut Vec<(usize, usize)>,
    combo: &mut Vec<usize>,
    emit: &mut impl FnMut(u64, Tid),
) {
    for (attr, c) in &role.const_filters {
        if !t.get(*attr).sql_eq(c) {
            return;
        }
    }
    // Coordinates on covered dims; broadcast elsewhere.
    fixed.clear();
    for (dim, fn_id, key) in &role.covered {
        let h = memo.hash(*fn_id, t, key);
        fixed.push((*dim, (h % geom.shares[*dim] as u64) as usize));
    }
    // Enumerate the broadcast product.
    let base: usize = fixed.iter().map(|&(d, coord)| coord * geom.strides[d]).sum();
    combo.clear();
    combo.resize(role.free.len(), 0);
    loop {
        let raw: usize = base
            + role
                .free
                .iter()
                .zip(combo.iter())
                .map(|(&d, &coord)| coord * geom.strides[d])
                .sum::<usize>()
            + geom.offset;
        emit(raw as u64, t.tid);
        // Advance the mixed-radix combo.
        let mut i = 0;
        loop {
            if i == role.free.len() {
                break;
            }
            combo[i] += 1;
            if combo[i] < geom.shares[role.free[i]] {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
        if i == role.free.len() {
            break;
        }
    }
}

/// Emit every `(cell, tid, mask)` replica of one tuple for one role of one
/// rule's geometry — the per-tuple body shared by the full distribution
/// scan and the [`DeltaRouter`]'s single-tuple routing, so routed deltas
/// land in exactly the cells the full scan would choose.
#[allow(clippy::too_many_arguments)]
fn emit_role_cells(
    geom: &RuleGeometry,
    role: &RoleInfo,
    mask: u128,
    t: &dcer_relation::Tuple,
    cells: usize,
    memo: &mut HashMemo,
    fixed: &mut Vec<(usize, usize)>,
    combo: &mut Vec<usize>,
    emit: &mut impl FnMut(usize, Tid, u128),
) {
    emit_role_raw(geom, role, t, memo, fixed, combo, &mut |raw, tid| {
        emit((raw % cells as u64) as usize, tid, mask);
    });
}

/// Per-row scan cost of one role: one memoized hash lookup per covered
/// dimension plus one emission per broadcast combination.
fn role_cost(geom: &RuleGeometry, role: &RoleInfo) -> u64 {
    let bcast: u64 = role.free.iter().map(|&d| geom.shares[d] as u64).product();
    role.covered.len() as u64 + bcast
}

/// Cost-model weights of the `tasks` scan tasks: each task owns a fixed
/// row range of every relation, weighted by the per-row cost of every
/// (rule, role) scanning it — wide rules' broadcast products dominate, so
/// the pool's weight-balanced split gives their rows narrower lanes.
fn scan_task_weights(dataset: &Dataset, geoms: &[&RuleGeometry], tasks: usize) -> Vec<u64> {
    let mut weights = vec![0u64; tasks];
    for geom in geoms {
        for role in &geom.roles {
            let cost = role_cost(geom, role);
            let len = dataset.relation(role.rel).len();
            for (task, w) in weights.iter_mut().enumerate() {
                let (lo, hi) = shard_range(len, task, tasks);
                *w += (hi - lo) as u64 * cost;
            }
        }
    }
    weights
}

/// Scan-task oversubscription factor for multi-lane runs: the average
/// modeled cost per scanned row — a proxy for how much per-row cost varies
/// across the rule set — clamped to `[2, 8]`. More tasks than lanes gives
/// stealing room to absorb what the contiguous split misses. A pure
/// function of the initial geometry, so the task count — and with it each
/// per-task memo's row ranges — stays fixed across refinement doublings
/// (the counter-parity invariant).
fn oversubscription(dataset: &Dataset, geoms: &[&RuleGeometry]) -> usize {
    let mut cost = 0u64;
    let mut rows = 0u64;
    for geom in geoms {
        for role in &geom.roles {
            let len = dataset.relation(role.rel).len() as u64;
            cost += len * role_cost(geom, role);
            rows += len;
        }
    }
    cost.checked_div(rows).map_or(2, |per_row| (per_row as usize).clamp(2, 8))
}

/// Cached raw emissions of one rule for one scan task, filled once the
/// rule's effective grid saturates (`effective_cells < cells`) and another
/// refinement is still possible. On a doubling only the final `% cells`
/// changes for such a rule, so the next iteration replays `raw % cells`
/// instead of re-walking rows. `lookups` is the number of memoized hash
/// lookups the replaced walk performed — on a real rescan they would all
/// be memo hits (the memo persists across iterations and its keys do not
/// involve the cell count), so replaying credits them via
/// [`HashMemo::credit_hits`], keeping the stats counters bit-identical to
/// a full rescan.
struct CachedRule {
    raws: Vec<(u64, Tid)>,
    lookups: u64,
}

/// The one-lane scan: every row of every rule/role, emitting one
/// `(cell, tid, rule mask)` triple per generated replica, in a fixed
/// (rule, role, row, broadcast-combo) order. Tombstoned rows are skipped:
/// deleted tuples generate no replicas.
fn scan_all(
    dataset: &Dataset,
    geoms: &[&RuleGeometry],
    cells: usize,
    memo: &mut HashMemo,
    emit: &mut impl FnMut(usize, Tid, u128),
) {
    let _span = dcer_obs::span("hypart.distribute.shard").with_arg("shard", 0);
    let mut fixed: Vec<(usize, usize)> = Vec::new();
    let mut combo: Vec<usize> = Vec::new();
    for (rule_idx, geom) in geoms.iter().enumerate() {
        let mask = rule_bit(rule_idx);
        for role in &geom.roles {
            let relation = dataset.relation(role.rel);
            for (row, t) in relation.tuples().iter().enumerate() {
                if !relation.is_live(row as u32) {
                    continue;
                }
                emit_role_cells(geom, role, mask, t, cells, memo, &mut fixed, &mut combo, emit);
            }
        }
    }
}

/// Deterministic id for the `hypart.handoff` flow edge carrying scan shard
/// `shard`'s bucket for merge class `class` in refinement round `round`.
/// Namespaced at bit 49, disjoint from the BSP runtime's `bsp.send`
/// (`step << 32 | …`) and `bsp.spawn` (bit 50) id spaces, so edges from
/// different subsystems never mispair in one trace. Stays below 2^53 for
/// JSON round-trips.
fn hypart_flow_id(round: u32, shard: usize, class: usize) -> u64 {
    (1u64 << 49) | ((round as u64) << 40) | ((shard as u64) << 20) | class as u64
}

/// Skew check over *non-empty* cells: whether the max load exceeds the
/// threshold times the average non-empty cell load. Averaging over all
/// cells would let sparse grids deflate the average and trigger spurious
/// refinements (each a full redistribution).
fn is_skewed_loads(loads: &[u64], threshold: f64) -> bool {
    let mut total = 0u64;
    let mut max = 0u64;
    let mut nonempty = 0u64;
    for &load in loads {
        total += load;
        max = max.max(load);
        nonempty += u64::from(load > 0);
    }
    if nonempty == 0 {
        return false;
    }
    let avg = total as f64 / nonempty as f64;
    max as f64 > threshold * avg
}

fn is_skewed(cell_members: &[HashMap<Tid, u128>], threshold: f64) -> bool {
    let loads: Vec<u64> = cell_members.iter().map(|c| c.len() as u64).collect();
    is_skewed_loads(&loads, threshold)
}

/// Partition `dataset` for `rules` into `config.workers` fragments.
pub fn partition(dataset: &Dataset, rules: &RuleSet, config: &HyPartConfig) -> Partition {
    partition_inner(dataset, rules, config, false).0
}

/// [`partition`] plus a [`DeltaRouter`] frozen on the winning geometry:
/// subsequent CDC inserts route through the exact per-rule grids, cell
/// assignment and hash functions this partition used, so Lemma 6 extends
/// to valuations mixing resident and routed tuples.
pub fn partition_with_router(
    dataset: &Dataset,
    rules: &RuleSet,
    config: &HyPartConfig,
) -> (Partition, DeltaRouter) {
    let (partition, router) = partition_inner(dataset, rules, config, true);
    (partition, router.expect("router requested"))
}

fn partition_inner(
    dataset: &Dataset,
    rules: &RuleSet,
    config: &HyPartConfig,
    want_router: bool,
) -> (Partition, Option<DeltaRouter>) {
    assert!(config.workers > 0);
    let qp = QueryPlan::build(rules);
    let plan = assign_hashes(rules, &qp, config.use_mqo);

    // Every parallel region runs on one pool, whose size is the lane count:
    // the caller's when one is threaded through the config, a transient one
    // otherwise.
    let transient;
    let pool: &WorkPool = match &config.pool {
        Some(pool) => pool,
        None => {
            transient = WorkPool::new(config.effective_threads());
            &transient
        }
    };
    let threads = pool.size();

    // Merge classes (and host-table buckets) match the lane count; the scan
    // task count is set on the first iteration from the cost model.
    let classes = threads;
    let mut memos: Vec<HashMemo> = Vec::new();
    let mut caches: Vec<HashMap<usize, CachedRule>> = Vec::new();
    let mut geom_cache: HashMap<(usize, usize), RuleGeometry> = HashMap::new();

    let mut cells = (config.workers * config.virtual_factor.max(1))
        .clamp(config.workers, config.max_cells.max(config.workers));
    let mut refinements = 0u32;

    let (cell_members, cells, generated) = loop {
        let _distribute = dcer_obs::span("hypart.distribute").with_arg("cells", cells as u64);
        // Geometries are memoized per (rule, effective cell count): wide
        // rules keep their reduced sub-grid across doublings, and narrow
        // rules get exactly one build per cell count. Memoized hashes stay
        // valid throughout — coordinates are `h % shares[d]`.
        for rule_idx in 0..rules.len() {
            let eff = effective_cells(rules, rule_idx, cells, config.workers);
            geom_cache
                .entry((rule_idx, eff))
                .or_insert_with(|| build_geometry(rules, &plan, rule_idx, dataset, eff));
        }
        let geoms: Vec<&RuleGeometry> = (0..rules.len())
            .map(|i| &geom_cache[&(i, effective_cells(rules, i, cells, config.workers))])
            .collect();

        // Scan task count: lanes × cost-model oversubscription, or one task
        // on one lane. Fixed on the first iteration — per-task memos (and
        // raw caches) must keep their row ranges across refinement doublings
        // for counter parity.
        if memos.is_empty() {
            let tasks = if threads > 1 { threads * oversubscription(dataset, &geoms) } else { 1 };
            memos = (0..tasks).map(|_| HashMemo::new()).collect();
            caches = (0..tasks).map(|_| HashMap::new()).collect();
        }
        let tasks = memos.len();

        let (cell_members, generated) = if tasks == 1 {
            // One lane: one task with one memo emits straight into the cell
            // table — the oracle path.
            let mut cm: Vec<HashMap<Tid, u128>> = vec![HashMap::new(); cells];
            let mut generated = 0u64;
            scan_all(dataset, &geoms, cells, &mut memos[0], &mut |cell, tid, mask| {
                *cm[cell].entry(tid).or_insert(0) |= mask;
                generated += 1;
            });
            (cm, generated)
        } else {
            // Task-sharded scan: each task hashes a disjoint row range of
            // every relation with its own memo, emitting runs pre-bucketed
            // by merge class (`cell % classes`). Rules whose effective grid
            // has saturated replay their cached raw emissions on refinement
            // iterations instead of re-walking rows; candidates cache their
            // raw values while another refinement is still possible.
            let fill_ok = refinements < config.max_refinements && cells * 2 <= config.max_cells;
            let cacheable: Vec<bool> = (0..rules.len())
                .map(|i| fill_ok && effective_cells(rules, i, cells, config.workers) < cells)
                .collect();
            let weights = scan_task_weights(dataset, &geoms, tasks);
            let geoms = &geoms;
            let cacheable = &cacheable;
            let units: Vec<_> = memos
                .iter_mut()
                .zip(caches.iter_mut())
                .enumerate()
                .map(|(task, (memo, cache))| {
                    move || {
                        let _span = dcer_obs::span("hypart.distribute.shard")
                            .with_arg("shard", task as u64);
                        let mut buckets: Vec<Vec<(usize, Tid, u128)>> = vec![Vec::new(); classes];
                        let mut fixed: Vec<(usize, usize)> = Vec::new();
                        let mut combo: Vec<usize> = Vec::new();
                        for (rule_idx, geom) in geoms.iter().enumerate() {
                            let mask = rule_bit(rule_idx);
                            if let Some(cached) = cache.get(&rule_idx) {
                                memo.credit_hits(cached.lookups);
                                for &(raw, tid) in &cached.raws {
                                    let cell = (raw % cells as u64) as usize;
                                    buckets[cell % classes].push((cell, tid, mask));
                                }
                                continue;
                            }
                            let fill = cacheable[rule_idx];
                            let before = memo.computed() + memo.hits();
                            let mut raws: Vec<(u64, Tid)> = Vec::new();
                            for role in &geom.roles {
                                let relation = dataset.relation(role.rel);
                                let tuples = relation.tuples();
                                let (lo, hi) = shard_range(tuples.len(), task, tasks);
                                for (off, t) in tuples[lo..hi].iter().enumerate() {
                                    if !relation.is_live((lo + off) as u32) {
                                        continue;
                                    }
                                    emit_role_raw(
                                        geom,
                                        role,
                                        t,
                                        memo,
                                        &mut fixed,
                                        &mut combo,
                                        &mut |raw, tid| {
                                            let cell = (raw % cells as u64) as usize;
                                            buckets[cell % classes].push((cell, tid, mask));
                                            if fill {
                                                raws.push((raw, tid));
                                            }
                                        },
                                    );
                                }
                            }
                            if fill {
                                let lookups = memo.computed() + memo.hits() - before;
                                cache.insert(rule_idx, CachedRule { raws, lookups });
                            }
                        }
                        // Open the task→merge handoff edge for every
                        // non-empty bucket; the owning merge unit closes it.
                        for (class, bucket) in buckets.iter().enumerate() {
                            if !bucket.is_empty() {
                                dcer_obs::flow_begin(
                                    "hypart.handoff",
                                    hypart_flow_id(refinements, task, class),
                                );
                            }
                        }
                        buckets
                    }
                })
                .collect();
            let mut runs = pool.run(units, Some(&weights));
            let generated: u64 =
                runs.iter().map(|r| r.iter().map(|b| b.len() as u64).sum::<u64>()).sum();

            // Transpose to per-class columns (task order preserved), then
            // merge each class concurrently: class `k` owns the cells
            // `≡ k (mod classes)`, so the merged maps are disjoint and the
            // bitwise-OR accumulation is order-independent anyway.
            let columns: Vec<Vec<Vec<(usize, Tid, u128)>>> = (0..classes)
                .map(|class| runs.iter_mut().map(|r| std::mem::take(&mut r[class])).collect())
                .collect();
            let merge_weights: Vec<u64> =
                columns.iter().map(|col| col.iter().map(|run| run.len() as u64).sum()).collect();
            let merge_units: Vec<_> = columns
                .into_iter()
                .enumerate()
                .map(|(class, column)| {
                    move || {
                        let _span =
                            dcer_obs::span("hypart.merge.class").with_arg("class", class as u64);
                        for (task, run) in column.iter().enumerate() {
                            if !run.is_empty() {
                                dcer_obs::flow_end(
                                    "hypart.handoff",
                                    hypart_flow_id(refinements, task, class),
                                );
                            }
                        }
                        let slots =
                            if class < cells { (cells - class).div_ceil(classes) } else { 0 };
                        let mut maps: Vec<HashMap<Tid, u128>> = vec![HashMap::new(); slots];
                        for run in column {
                            for (cell, tid, mask) in run {
                                *maps[cell / classes].entry(tid).or_insert(0) |= mask;
                            }
                        }
                        maps
                    }
                })
                .collect();
            let merged = pool.run(merge_units, Some(&merge_weights));
            let mut cm: Vec<HashMap<Tid, u128>> = vec![HashMap::new(); cells];
            for (class, maps) in merged.into_iter().enumerate() {
                for (slot, map) in maps.into_iter().enumerate() {
                    cm[class + slot * classes] = map;
                }
            }
            (cm, generated)
        };

        if refinements < config.max_refinements
            && cells * 2 <= config.max_cells
            && is_skewed(&cell_members, config.skew_threshold)
        {
            refinements += 1;
            cells *= 2;
            continue;
        }
        break (cell_members, cells, generated);
    };

    let (partition, loads, assignment) = assemble(
        dataset,
        &plan,
        config,
        &cell_members,
        cells,
        refinements,
        generated,
        &memos,
        pool,
    );
    let router = want_router.then(|| {
        let geoms: Vec<RuleGeometry> = (0..rules.len())
            .map(|i| {
                geom_cache
                    .remove(&(i, effective_cells(rules, i, cells, config.workers)))
                    .expect("winning geometry was built")
            })
            .collect();
        DeltaRouter {
            geoms,
            cells,
            workers: config.workers,
            assignment,
            loads,
            skew_threshold: config.skew_threshold,
            memo: HashMemo::new(),
            routed_inserts: 0,
            routed_deletes: 0,
            deleted: Default::default(),
        }
    });
    (partition, router)
}

/// Routes CDC deltas through a frozen partition geometry, avoiding the
/// full rules × roles × tuples redistribution scan per update batch.
///
/// The router replays, for one tuple at a time, exactly the per-rule grid
/// walk [`partition`] ran over the whole dataset: same shares, strides,
/// offsets, MQO hash functions and LPT cell assignment. A routed insert
/// therefore lands on every worker the full scan would have chosen, which
/// is what keeps Lemma 6 (valuation locality) true for valuations mixing
/// resident and freshly routed tuples.
///
/// Per-cell loads are maintained across inserts and deletes; when churn
/// concentrates on few cells, [`DeltaRouter::drifted`] reports that the
/// frozen assignment has gone skewed and the caller should fall back to a
/// full re-partition.
pub struct DeltaRouter {
    geoms: Vec<RuleGeometry>,
    cells: usize,
    workers: usize,
    /// Frozen LPT cell → worker assignment.
    assignment: Vec<usize>,
    /// Live distinct-tuple load per cell, updated by every routed delta.
    loads: Vec<u64>,
    skew_threshold: f64,
    memo: HashMemo,
    routed_inserts: u64,
    routed_deletes: u64,
    /// Tids whose deletion has already been noted: repeat (and ghost)
    /// deletes must be no-ops, or each replay keeps draining the victim's
    /// cells and the drift accounting a long-lived router depends on
    /// corrupts — lowered cells shrink the mean load until `drifted()`
    /// flips spuriously. A re-insert of the same tid re-arms it.
    deleted: std::collections::HashSet<u64>,
}

impl DeltaRouter {
    /// Route one inserted tuple: the sorted `(worker, rule mask)` list of
    /// fragments that must host it. Tuples no rule distributes still get a
    /// deterministic home (mask 0), mirroring the full scan's orphan
    /// adoption. Updates per-cell loads.
    pub fn route_insert(&mut self, t: &dcer_relation::Tuple) -> Vec<(u16, u128)> {
        self.routed_inserts += 1;
        self.deleted.remove(&t.tid.pack());
        let cell_masks = self.cells_of(t);
        let mut per_worker: std::collections::BTreeMap<u16, u128> = Default::default();
        for (&cell, &mask) in &cell_masks {
            self.loads[cell] += 1;
            *per_worker.entry(self.assignment[cell] as u16).or_insert(0) |= mask;
        }
        if per_worker.is_empty() {
            per_worker.insert((t.tid.pack() % self.workers as u64) as u16, 0);
        }
        per_worker.into_iter().collect()
    }

    /// Record the deletion of a (previously routed or originally
    /// partitioned) tuple, releasing its per-cell load. The hosts map —
    /// not the router — decides which workers must tombstone it.
    ///
    /// Idempotent per tid: ghost and repeat deletes (which the CDC apply
    /// path tolerates upstream) are counted-but-ignored here, so a
    /// delete storm replaying one victim cannot drain its cells below
    /// reality. Loads still saturate at zero as a second line of defense.
    pub fn note_delete(&mut self, t: &dcer_relation::Tuple) {
        self.routed_deletes += 1;
        if !self.deleted.insert(t.tid.pack()) {
            return; // already noted: repeat/ghost delete
        }
        for &cell in self.cells_of(t).keys() {
            self.loads[cell] = self.loads[cell].saturating_sub(1);
        }
    }

    /// Whether accumulated churn skewed the frozen cell assignment past the
    /// partitioner's refinement threshold — the signal to abandon delta
    /// routing and re-partition from scratch.
    pub fn drifted(&self) -> bool {
        is_skewed_loads(&self.loads, self.skew_threshold)
    }

    /// `(inserts routed, deletes noted)` counters.
    pub fn counters(&self) -> (u64, u64) {
        (self.routed_inserts, self.routed_deletes)
    }

    /// Distinct cells hosting `t`, with the union of rule masks per cell.
    fn cells_of(&mut self, t: &dcer_relation::Tuple) -> HashMap<usize, u128> {
        let mut cell_masks: HashMap<usize, u128> = HashMap::new();
        let mut fixed: Vec<(usize, usize)> = Vec::new();
        let mut combo: Vec<usize> = Vec::new();
        let cells = self.cells;
        for (rule_idx, geom) in self.geoms.iter().enumerate() {
            let mask = rule_bit(rule_idx);
            for role in &geom.roles {
                if role.rel != t.tid.rel {
                    continue;
                }
                emit_role_cells(
                    geom,
                    role,
                    mask,
                    t,
                    cells,
                    &mut self.memo,
                    &mut fixed,
                    &mut combo,
                    &mut |cell, _, m| {
                        *cell_masks.entry(cell).or_insert(0) |= m;
                    },
                );
            }
        }
        cell_masks
    }
}

/// Back half of the partitioner: LPT cell assignment, per-worker fragment
/// and rule-mask build, routing-table build (both on `pool`), orphan
/// adoption, stats. Also returns the per-cell loads and the LPT assignment,
/// which a [`DeltaRouter`] freezes.
#[allow(clippy::too_many_arguments)]
fn assemble(
    dataset: &Dataset,
    plan: &MqoPlan,
    config: &HyPartConfig,
    cell_members: &[HashMap<Tid, u128>],
    cells: usize,
    refinements: u32,
    generated: u64,
    memos: &[HashMemo],
    pool: &WorkPool,
) -> (Partition, Vec<u64>, Vec<usize>) {
    let _assign = dcer_obs::span("hypart.assign").with_arg("cells", cells as u64);
    // LPT-assign cells to workers.
    let loads: Vec<u64> = cell_members.iter().map(|c| c.len() as u64).collect();
    let assignment = lpt_assign(&loads, config.workers);
    if dcer_obs::enabled() {
        dcer_obs::gauge_set(
            "hypart.lpt.balance",
            balance_ratio(&loads, &assignment, config.workers),
        );
    }

    // Build fragments and per-fragment rule masks, one worker per unit:
    // each unit walks its cells in ascending order (members sorted by tid),
    // reproducing the sequential insertion order exactly. Units are
    // weighted by their worker's LPT-assigned load, and additionally bucket
    // their hosted tuples by `tid % T` for the routing-table build below.
    let frag_weights: Vec<u64> = {
        let mut w = vec![0u64; config.workers];
        for (cell, &a) in assignment.iter().enumerate() {
            w[a] += loads[cell];
        }
        w
    };
    let host_tasks = pool.size();
    let assignment_ref = &assignment;
    let units: Vec<_> = (0..config.workers)
        .map(|w| {
            move || {
                let _span = dcer_obs::span("hypart.fragment").with_arg("worker", w as u64);
                let mut fragment = Dataset::new(dataset.catalog().clone());
                let mut masks: HashMap<Tid, u128> = HashMap::new();
                for (cell, members) in cell_members.iter().enumerate() {
                    if assignment_ref[cell] != w {
                        continue;
                    }
                    let mut sorted: Vec<(Tid, u128)> =
                        members.iter().map(|(&t, &m)| (t, m)).collect();
                    sorted.sort_unstable_by_key(|&(t, _)| t);
                    for (tid, mask) in sorted {
                        let t = dataset.tuple(tid).expect("cell member exists in source");
                        fragment.insert_replica(t.clone());
                        *masks.entry(tid).or_insert(0) |= mask;
                    }
                }
                let mut key_buckets: Vec<Vec<Tid>> = vec![Vec::new(); host_tasks];
                for &tid in masks.keys() {
                    key_buckets[(tid.pack() % host_tasks as u64) as usize].push(tid);
                }
                (fragment, masks, key_buckets)
            }
        })
        .collect();
    let built = pool.run(units, Some(&frag_weights));

    // Routing table: each worker's mask keys are exactly its hosted
    // tuples. Bucket `k` owns the tuples with `tid % T == k`, so the
    // partial maps are disjoint and merge by plain extension; each bucket
    // visits workers in ascending order, keeping every host list sorted —
    // the same content a one-lane run produces.
    let built_ref = &built;
    let host_units: Vec<_> = (0..host_tasks)
        .map(|k| {
            move || {
                let _span = dcer_obs::span("hypart.hosts").with_arg("bucket", k as u64);
                let mut part: HashMap<Tid, Vec<u16>> = HashMap::new();
                for (w, (_, _, key_buckets)) in built_ref.iter().enumerate() {
                    for &tid in &key_buckets[k] {
                        part.entry(tid).or_default().push(w as u16);
                    }
                }
                part
            }
        })
        .collect();
    let host_weights: Vec<u64> =
        (0..host_tasks).map(|k| built.iter().map(|(_, _, kb)| kb[k].len() as u64).sum()).collect();
    let parts = pool.run(host_units, Some(&host_weights));
    let mut hosts: HashMap<Tid, Vec<u16>> = HashMap::with_capacity(dataset.total_tuples());
    for part in parts {
        hosts.extend(part);
    }

    let mut fragments: Vec<Dataset> = Vec::with_capacity(config.workers);
    let mut rule_masks: Vec<HashMap<Tid, u128>> = Vec::with_capacity(config.workers);
    for (fragment, masks, _) in built {
        fragments.push(fragment);
        rule_masks.push(masks);
    }

    // Live tuples untouched by any rule still need a home for completeness
    // (mask 0: no rule evaluates them); tombstoned tuples are not adopted.
    for t in dataset.all_tuples() {
        if !dataset.is_live(t.tid) {
            continue;
        }
        if let std::collections::hash_map::Entry::Vacant(e) = hosts.entry(t.tid) {
            let w = (t.tid.pack() % config.workers as u64) as usize;
            fragments[w].insert_replica(t.clone());
            rule_masks[w].insert(t.tid, 0);
            e.insert(vec![w as u16]);
        }
    }

    let fragment_sizes: Vec<usize> = fragments.iter().map(Dataset::total_tuples).collect();
    let total_frag: usize = fragment_sizes.iter().sum();
    let stats = PartitionStats {
        workers: config.workers,
        cells,
        generated_tuples: generated,
        hash_computations: memos.iter().map(HashMemo::computed).sum(),
        hash_memo_hits: memos.iter().map(HashMemo::hits).sum(),
        replication_factor: if dataset.total_live() == 0 {
            0.0
        } else {
            total_frag as f64 / dataset.total_live() as f64
        },
        fragment_sizes,
        refinements,
        hash_functions: plan.num_hash_fns,
        sharing: plan.stats,
    };
    stats.publish();
    (Partition { fragments, hosts, rule_masks, stats }, loads, assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcer_mrl::parse_rules;
    use dcer_relation::{Catalog, RelationSchema, ValueType};
    use std::sync::Arc;

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::from_schemas(vec![
                RelationSchema::of("R", &[("k", ValueType::Str), ("x", ValueType::Str)]),
                RelationSchema::of("S", &[("k", ValueType::Str), ("y", ValueType::Str)]),
            ])
            .unwrap(),
        )
    }

    fn dataset(n: usize) -> Dataset {
        let mut d = Dataset::new(catalog());
        for i in 0..n {
            d.insert(0, vec![format!("k{}", i % 7).into(), format!("x{i}").into()]).unwrap();
            d.insert(1, vec![format!("k{}", i % 7).into(), format!("y{}", i % 3).into()]).unwrap();
        }
        d
    }

    fn rules() -> RuleSet {
        parse_rules(
            &catalog(),
            "match md: R(t), R(s), t.k = s.k -> t.id = s.id;
             match coll: R(t), R(s), S(a), S(b), t.k = a.k, s.k = b.k, a.y = b.y -> t.id = s.id",
        )
        .unwrap()
    }

    /// Lemma 6 as a direct check: every valuation of every rule (computed by
    /// brute force on the full dataset) must be fully contained in at least
    /// one fragment.
    fn assert_locality(d: &Dataset, rules: &RuleSet, p: &Partition) {
        for rule in rules.rules() {
            let mut rows = vec![0usize; rule.num_vars()];
            check_valuations(d, rules, rule, &mut rows, 0, p);
        }
    }

    fn check_valuations(
        d: &Dataset,
        rules: &RuleSet,
        rule: &dcer_mrl::Rule,
        rows: &mut Vec<usize>,
        depth: usize,
        p: &Partition,
    ) {
        if depth == rule.num_vars() {
            // Only valuations satisfying the equality/constant predicates
            // need co-location.
            for pred in &rule.body {
                match pred {
                    Predicate::AttrEq { left, right } => {
                        let lt =
                            &d.relation(rule.rel_of(left.0)).tuples()[rows[left.0 .0 as usize]];
                        let rt =
                            &d.relation(rule.rel_of(right.0)).tuples()[rows[right.0 .0 as usize]];
                        if !lt.get(left.1).sql_eq(rt.get(right.1)) {
                            return;
                        }
                    }
                    Predicate::ConstEq { var, attr, value } => {
                        let t = &d.relation(rule.rel_of(*var)).tuples()[rows[var.0 as usize]];
                        if !t.get(*attr).sql_eq(value) {
                            return;
                        }
                    }
                    _ => {}
                }
            }
            let tids: Vec<Tid> = (0..rule.num_vars())
                .map(|v| d.relation(rule.rel_of(TupleVar(v as u16))).tuples()[rows[v]].tid)
                .collect();
            let colocated =
                p.fragments.iter().any(|f| tids.iter().all(|t| f.relation(t.rel).contains(*t)));
            assert!(colocated, "valuation {tids:?} of rule {} not co-located", rule.name);
            return;
        }
        let n = d.relation(rule.rel_of(TupleVar(depth as u16))).len();
        for r in 0..n {
            rows[depth] = r;
            check_valuations(d, rules, rule, rows, depth + 1, p);
        }
        let _ = rules;
    }

    /// Field-by-field partition equality (fragments compared by tuple
    /// sequence, so row order differences would be caught too).
    pub(crate) fn assert_partitions_identical(a: &Partition, b: &Partition) {
        assert_eq!(a.fragments.len(), b.fragments.len());
        for (fa, fb) in a.fragments.iter().zip(&b.fragments) {
            for (ra, rb) in fa.relations().iter().zip(fb.relations()) {
                assert_eq!(ra.tuples(), rb.tuples());
            }
        }
        assert_eq!(a.hosts, b.hosts);
        assert_eq!(a.rule_masks, b.rule_masks);
        assert_eq!(a.stats, b.stats);
    }

    fn with_threads(workers: usize, threads: usize) -> HyPartConfig {
        let mut cfg = HyPartConfig::new(workers);
        cfg.threads = threads;
        cfg
    }

    #[test]
    fn lemma6_locality_holds() {
        let d = dataset(12);
        let rs = rules();
        for workers in [1, 2, 3, 4, 8] {
            let p = partition(&d, &rs, &HyPartConfig::new(workers));
            assert_eq!(p.fragments.len(), workers);
            assert_locality(&d, &rs, &p);
        }
    }

    #[test]
    fn parallel_output_matches_one_lane_at_every_thread_count() {
        let d = dataset(30);
        let rs = rules();
        for workers in [1, 3, 4] {
            let oracle = partition(&d, &rs, &with_threads(workers, 1));
            for threads in [2, 4, 8] {
                let p = partition(&d, &rs, &with_threads(workers, threads));
                assert_partitions_identical(&p, &oracle);
            }
        }
    }

    #[test]
    fn a_callers_pool_sets_the_lane_count() {
        // `threads` only sizes a transient pool: with a caller's pool, the
        // pool's size is the lane count, whatever `threads` says.
        let d = dataset(30);
        let rs = rules();
        let run = |threads: usize| {
            let pool = Arc::new(WorkPool::new(4));
            let mut cfg = with_threads(3, threads);
            cfg.pool = Some(Arc::clone(&pool));
            (partition(&d, &rs, &cfg), pool.stats().tasks)
        };
        let (auto, auto_tasks) = run(0);
        let (four, four_tasks) = run(4);
        assert_eq!(auto_tasks, four_tasks, "threads: 0 must take the pool's 4 lanes");
        assert_partitions_identical(&auto, &four);
    }

    #[test]
    fn sparse_unskewed_grid_does_not_refine() {
        // Regression for the skew-average bug: a mostly empty grid whose
        // non-empty cells are balanced must not trigger refinement. With the
        // average taken over *all* cells (old behavior), 4 tuples spread
        // over a 64-cell grid deflate the average to ~0.6 and every run
        // refines spuriously. Loads here are 1..=2 per non-empty cell, so
        // max <= 3 <= threshold * avg(non-empty) and no doubling happens.
        let mut d = Dataset::new(catalog());
        for i in 0..4 {
            d.insert(0, vec![format!("unique-key-{i}").into(), format!("x{i}").into()]).unwrap();
        }
        let rs = parse_rules(&catalog(), "match md: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut cfg = HyPartConfig::new(2);
        cfg.virtual_factor = 32; // 64 cells for 4 tuples: mostly empty.
        let p = partition(&d, &rs, &cfg);
        assert_eq!(p.stats.refinements, 0, "sparse but unskewed grid must not refine");
        assert_eq!(p.stats.cells, 64, "cell count must stay at the initial grid");
    }

    #[test]
    fn genuinely_skewed_grid_still_refines() {
        // Counterpart: a hot key concentrates load in a few cells, so the
        // non-empty average is far below the max and refinement must fire.
        let mut d = Dataset::new(catalog());
        for i in 0..40 {
            d.insert(0, vec!["hot".into(), format!("x{i}").into()]).unwrap();
        }
        for i in 0..40 {
            d.insert(0, vec![format!("cold-{i}").into(), format!("y{i}").into()]).unwrap();
        }
        let rs = parse_rules(&catalog(), "match md: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut cfg = HyPartConfig::new(2);
        cfg.virtual_factor = 16;
        let p = partition(&d, &rs, &cfg);
        assert!(p.stats.refinements > 0, "hot-key skew must trigger refinement");
    }

    #[test]
    fn replicas_generated_comes_from_winning_iteration() {
        // A refining run must report the generated count of the final
        // (winning) iteration: rerunning the winning geometry standalone —
        // same cell count, refinement disabled — must reproduce it.
        let mut d = Dataset::new(catalog());
        for i in 0..40 {
            d.insert(0, vec!["hot".into(), format!("x{i}").into()]).unwrap();
        }
        for i in 0..40 {
            d.insert(0, vec![format!("cold-{i}").into(), format!("y{i}").into()]).unwrap();
        }
        let rs = parse_rules(&catalog(), "match md: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut cfg = HyPartConfig::new(2);
        cfg.virtual_factor = 16;
        let p = partition(&d, &rs, &cfg);
        assert!(p.stats.refinements > 0, "fixture must refine to be meaningful");
        let mut replay = cfg.clone();
        replay.virtual_factor = p.stats.cells / replay.workers;
        replay.max_refinements = 0;
        let q = partition(&d, &rs, &replay);
        assert_eq!(q.stats.cells, p.stats.cells);
        assert_eq!(
            p.stats.generated_tuples, q.stats.generated_tuples,
            "generated_tuples must reflect the winning iteration"
        );
    }

    #[test]
    fn every_tuple_is_hosted() {
        let d = dataset(10);
        let p = partition(&d, &rules(), &HyPartConfig::new(4));
        for t in d.all_tuples() {
            let hosts = p.hosts.get(&t.tid).expect("tuple has a host");
            assert!(!hosts.is_empty());
            for &w in hosts {
                assert!(p.fragments[w as usize].relation(t.tid.rel).contains(t.tid));
            }
        }
        // Routing table and fragments agree exactly.
        let from_frags: usize = p.stats.fragment_sizes.iter().sum();
        let from_hosts: usize = p.hosts.values().map(Vec::len).sum();
        assert_eq!(from_frags, from_hosts);
    }

    #[test]
    fn mqo_reduces_hash_computations() {
        let d = dataset(60);
        let rs = rules();
        let mut with = HyPartConfig::new(4);
        with.use_mqo = true;
        let mut without = HyPartConfig::new(4);
        without.use_mqo = false;
        let pw = partition(&d, &rs, &with);
        let po = partition(&d, &rs, &without);
        assert!(
            pw.stats.hash_computations < po.stats.hash_computations,
            "MQO {} !< noMQO {}",
            pw.stats.hash_computations,
            po.stats.hash_computations
        );
        assert!(pw.stats.hash_functions < po.stats.hash_functions);
        // Locality must hold regardless.
        assert_locality(&d, &rs, &pw);
        assert_locality(&d, &rs, &po);
    }

    #[test]
    fn single_worker_gets_whole_dataset() {
        let d = dataset(8);
        let p = partition(&d, &rules(), &HyPartConfig::new(1));
        assert_eq!(p.fragments[0].total_tuples(), d.total_tuples());
        assert!((p.stats.replication_factor - 1.0).abs() < 1e-9);
    }

    #[test]
    fn constant_filter_prunes_distribution() {
        let cat = catalog();
        let mut d = Dataset::new(cat.clone());
        for i in 0..20 {
            d.insert(0, vec![format!("k{i}").into(), "keep".into()]).unwrap();
        }
        let rs_all = parse_rules(&cat, "match a: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let rs_const = parse_rules(
            &cat,
            r#"match a: R(t), R(s), t.k = s.k, t.x = "nomatch", s.x = "nomatch" -> t.id = s.id"#,
        )
        .unwrap();
        let p_all = partition(&d, &rs_all, &HyPartConfig::new(2));
        let p_const = partition(&d, &rs_const, &HyPartConfig::new(2));
        assert!(p_const.stats.generated_tuples < p_all.stats.generated_tuples);
        // Unreferenced tuples still get a home.
        assert_eq!(p_const.hosts.len(), 20);
    }

    #[test]
    fn stats_are_consistent() {
        let d = dataset(25);
        let p = partition(&d, &rules(), &HyPartConfig::new(4));
        assert_eq!(p.stats.workers, 4);
        assert!(p.stats.cells >= 4);
        assert!(p.stats.generated_tuples > 0);
        assert!(p.stats.replication_factor >= 1.0);
        assert_eq!(p.stats.fragment_sizes.len(), 4);
    }

    #[test]
    fn empty_dataset_partitions_cleanly() {
        let d = Dataset::new(catalog());
        for threads in [1, 4] {
            let p = partition(&d, &rules(), &with_threads(3, threads));
            assert_eq!(p.fragments.len(), 3);
            assert!(p.hosts.is_empty());
            assert_eq!(p.stats.replication_factor, 0.0);
        }
    }

    #[test]
    fn routed_inserts_preserve_valuation_locality() {
        // Route new tuples through the frozen geometry, apply the routes to
        // the fragments, and check Lemma 6 by brute force on the *combined*
        // dataset: every valuation mixing resident and routed tuples must be
        // co-located on some worker.
        let base = dataset(12);
        let rs = rules();
        for workers in [2, 4] {
            let (mut p, mut router) =
                partition_with_router(&base, &rs, &HyPartConfig::new(workers));
            let mut full = base.clone();
            let mut fresh = Vec::new();
            for i in 100..108 {
                let tid = full
                    .insert(0, vec![format!("k{}", i % 7).into(), format!("x{i}").into()])
                    .unwrap();
                fresh.push(full.tuple(tid).unwrap().clone());
                let tid = full
                    .insert(1, vec![format!("k{}", i % 7).into(), format!("y{}", i % 3).into()])
                    .unwrap();
                fresh.push(full.tuple(tid).unwrap().clone());
            }
            for t in &fresh {
                let routes = router.route_insert(t);
                assert!(!routes.is_empty(), "every tuple gets a home");
                for &(w, mask) in &routes {
                    p.fragments[w as usize].insert_replica(t.clone());
                    *p.rule_masks[w as usize].entry(t.tid).or_insert(0) |= mask;
                    p.hosts.entry(t.tid).or_default().push(w);
                }
            }
            assert_locality(&full, &rs, &p);
        }
    }

    #[test]
    fn routing_matches_full_scan_cells_for_resident_tuples() {
        // Routing a tuple that was already partitioned must pick exactly the
        // workers that host it (same geometry, same hash functions).
        let d = dataset(20);
        let rs = rules();
        let (p, mut router) = partition_with_router(&d, &rs, &HyPartConfig::new(3));
        for t in d.all_tuples() {
            let routes = router.route_insert(t);
            let routed: Vec<u16> = routes.iter().map(|&(w, _)| w).collect();
            assert_eq!(
                &routed, &p.hosts[&t.tid],
                "router and full scan disagree on hosts of {:?}",
                t.tid
            );
        }
    }

    #[test]
    fn delete_churn_releases_load_and_hot_inserts_drift() {
        let d = dataset(30);
        // A key-hash rule on a fine grid: every "hot"-keyed insert lands in
        // the same cell, so concentration is observable. (On the default
        // 4-cell grid, broadcast replication spreads load uniformly and no
        // churn pattern can skew it.)
        let rs = parse_rules(&catalog(), "match md: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut cfg = HyPartConfig::new(2);
        cfg.virtual_factor = 16;
        let (_, mut router) = partition_with_router(&d, &rs, &cfg);
        assert!(!router.drifted(), "fresh partition starts balanced");
        let baseline = router.loads.clone();

        // Insert-then-delete is load-neutral.
        let mut scratch = d.clone();
        let tid = scratch.insert(0, vec!["k0".into(), "fresh".into()]).unwrap();
        let t = scratch.tuple(tid).unwrap().clone();
        router.route_insert(&t);
        router.note_delete(&t);
        assert_eq!(router.loads, baseline, "insert+delete must restore loads");

        // A flood of hot-key inserts concentrates cells and trips the drift
        // detector.
        let mut hot = d.clone();
        for i in 0..600 {
            let tid = hot.insert(0, vec!["hot".into(), format!("h{i}").into()]).unwrap();
            router.route_insert(&hot.tuple(tid).unwrap().clone());
        }
        assert!(router.drifted(), "hot-key churn must report drift");
        assert_eq!(router.counters().0, 601);
    }

    #[test]
    fn ghost_delete_storm_leaves_loads_and_drift_stable() {
        let d = dataset(30);
        let rs = parse_rules(&catalog(), "match md: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap();
        let mut cfg = HyPartConfig::new(2);
        cfg.virtual_factor = 16;
        let (_, mut router) = partition_with_router(&d, &rs, &cfg);
        assert!(!router.drifted(), "fresh partition starts balanced");

        // One real delete releases the victim's load exactly once...
        let victim = d.relation(0).tuples()[0].clone();
        router.note_delete(&victim);
        let after_first = router.loads.clone();

        // ...and a storm of repeats of the same tombstone (the shape a
        // CDC replay or an at-least-once delivery produces) is a no-op:
        // without the per-tid guard each repeat kept draining the
        // victim's cells, skewing the mean until `drifted()` flipped.
        for _ in 0..10_000 {
            router.note_delete(&victim);
        }
        assert_eq!(router.loads, after_first, "repeat deletes must not drain loads");
        assert!(!router.drifted(), "ghost-delete storm must not report drift");

        // A ghost delete — a tuple that was never partitioned or routed —
        // saturates at zero instead of underflowing and is likewise
        // idempotent.
        let mut scratch = d.clone();
        let tid = scratch.insert(0, vec!["zz".into(), "ghost".into()]).unwrap();
        let ghost = scratch.tuple(tid).unwrap().clone();
        for _ in 0..1_000 {
            router.note_delete(&ghost);
        }
        assert!(!router.drifted(), "ghost deletes must not report drift");

        // Re-inserting the victim re-arms its delete: the cycle stays
        // load-neutral.
        let loads_before = router.loads.clone();
        router.route_insert(&victim);
        router.note_delete(&victim);
        assert_eq!(router.loads, loads_before, "insert+delete stays neutral after re-arm");
    }

    #[test]
    fn tombstoned_tuples_are_not_distributed() {
        let mut d = dataset(10);
        let rs = rules();
        let victim = d.relation(0).tuples()[0].tid;
        assert!(d.delete(victim));
        for threads in [1, 4] {
            let p = partition(&d, &rs, &with_threads(2, threads));
            assert!(!p.hosts.contains_key(&victim), "dead tuple must not be hosted");
            for f in &p.fragments {
                assert!(!f.relation(victim.rel).contains(victim));
            }
        }
        // The one-lane oracle agrees with the pooled run.
        let one = partition(&d, &rs, &with_threads(2, 1));
        assert_partitions_identical(&partition(&d, &rs, &with_threads(2, 4)), &one);
    }

    #[test]
    fn more_shards_than_cells_or_tuples_is_fine() {
        let d = dataset(2);
        let rs = rules();
        let oracle = partition(&d, &rs, &with_threads(2, 1));
        let p = partition(&d, &rs, &with_threads(2, 16));
        assert_partitions_identical(&p, &oracle);
    }
}
