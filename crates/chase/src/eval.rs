//! The valuation enumerator: finds all valuations of a compiled rule whose
//! non-recursive precondition (relation atoms, constant and equality
//! predicates) holds in a dataset.
//!
//! Enumeration executes a [`RuleProgram`] — a join order compiled once per
//! rule from index cardinalities (see [`crate::program`]) — with an
//! explicit frame stack instead of recursion. At each step the candidate
//! source is, in preference order:
//!
//! 1. an inverted-index probe through an equality edge whose other side is
//!    already bound (the hash joins of Section V-A), compared by
//!    dictionary code — no `Value` is hashed or cloned per probe,
//! 2. an inverted-index probe on a constant predicate, compiled to its
//!    code once per program,
//! 3. a signature probe through an ML predicate whose other side is
//!    already bound and whose model certifies blocking keys
//!    ([`dcer_ml::MlModel::signatures`]): the bound side's probe keys are
//!    computed on the fly and the postings they name are unioned, sorted
//!    and de-duplicated in the scratch — the only rows the classifier can
//!    accept, which it still decides as the step's recursive check,
//! 4. a lazy full scan of the variable's relation (only for genuinely
//!    disconnected atoms, e.g. the all-pairs comparisons under a pure ML
//!    predicate whose model certifies no keys).
//!
//! Options 1–3 are priced by candidate count when the frame opens and the
//! smallest wins; a signature probe is materialized only when the sum of
//! its postings lengths already undercuts the best alternative. The visit
//! order depends on the choice; the set of valuations does not.
//!
//! Each frame's candidates are gathered into a columnar window of up to
//! `batch_size` rows; recursive predicates are checked predicate-major over
//! the window and the final step's survivors are visited en masse. Width 1
//! is per-candidate evaluation, and every width visits the same valuations
//! in the same order.
//!
//! Candidates are iterated as borrows of the index's postings storage;
//! bindings, frames, windows and the recursive-check buffers live in a
//! caller-provided [`EvalScratch`], so a warmed enumeration performs **no
//! heap allocation** at any width (asserted by the `eval_noalloc`
//! integration test).
//!
//! Recursive predicates never bind values, but the sink is asked about a
//! candidate the moment both of their variables are bound so it can prune
//! branches whose ML predicate is false *and can never become validated*.
//!
//! The same program powers full enumeration (`Deduce`) and the seeded,
//! update-driven re-evaluation of `IncDeduce`: seeds pre-bind variables
//! and their steps are skipped; probe options are resolved against
//! whatever is bound at runtime, so a seed can enable a cheaper access
//! path than the static order assumed.

use crate::plan::CompiledRule;
use crate::program::RuleProgram;
use dcer_mrl::TupleVar;
use dcer_relation::{Dataset, IndexSet, Tuple, Value, ValueDict};

/// Receiver for enumeration events.
pub trait ValuationSink {
    /// Whether this row may be bound to a tuple variable at all. The engine
    /// uses this to scope a rule's evaluation to the tuples HyPart
    /// distributed *for that rule* (sound: the rule's own distribution
    /// covers all its valuations; replicas for other rules only create
    /// redundant valuations that exist elsewhere anyway).
    fn admit_row(&mut self, var: TupleVar, row: u32) -> bool {
        let _ = (var, row);
        true
    }

    /// Both variables of recursive predicate `pred` (an index into the
    /// plan's `rec_preds`) just became bound. Return `true` to prune this
    /// branch (only sound for predicates whose falsity is final).
    fn prune_rec(&mut self, pred: usize, left: &Tuple, right: &Tuple) -> bool;

    /// Batched [`ValuationSink::prune_rec`]: one recursive predicate
    /// against a whole candidate window. `pairs` holds row positions into
    /// the predicate's `left` and `right` relation tuples. Overwrites `out`
    /// with one verdict per pair (`true` = prune). The default is the
    /// per-pair loop; the engine overrides it to score the window through
    /// one memoized classifier batch. Overrides must return the same
    /// verdicts the per-pair loop would.
    fn prune_rec_batch(
        &mut self,
        pred: usize,
        left: &[Tuple],
        right: &[Tuple],
        pairs: &[(u32, u32)],
        out: &mut Vec<bool>,
    ) {
        out.clear();
        for &(l, r) in pairs {
            out.push(self.prune_rec(pred, &left[l as usize], &right[r as usize]));
        }
    }

    /// A complete support valuation; `rows[i]` is the row (within the
    /// dataset's relation instance) bound to tuple variable `i`.
    fn visit(&mut self, rows: &[u32]);

    /// Batched [`ValuationSink::visit`]: the final step's surviving
    /// candidates, visited in window order with `rows[var]` bound to each
    /// in turn. The default is the per-candidate loop; the engine overrides
    /// it to answer id predicates for the whole window in one union-find
    /// pass. Overrides must visit every candidate, in order.
    fn visit_batch(&mut self, rows: &mut [u32], var: TupleVar, candidates: &[u32]) {
        for &c in candidates {
            rows[var.0 as usize] = c;
            self.visit(rows);
        }
    }
}

/// Sentinel for "variable not bound" in the scratch binding array.
const UNBOUND: u32 = u32::MAX;

/// Where a frame's candidate rows come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Source {
    /// Row positions `pos..end` of the relation itself (lazy scan —
    /// nothing is materialized).
    Scan,
    /// Offsets `pos..end` into this index slot's flat postings array.
    Postings(u32),
    /// Offsets `pos..end` into the signature-candidate stack, whose part
    /// from this offset on belongs to the frame (truncated back to it when
    /// the frame pops).
    Sig(u32),
}

/// One backtracking level: iterates the candidate rows of one program step.
/// Plain data — frames live in the reusable scratch, never on the call
/// stack and never owning borrowed postings.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// Index into [`RuleProgram::steps`].
    step: u32,
    /// The candidate source.
    source: Source,
    /// Next candidate cursor, interpreted by `source`.
    pos: u32,
    /// End of the candidate range (exclusive).
    end: u32,
}

/// A per-depth columnar candidate window: the candidate rows of one frame
/// that survived the step's row-local checks and the batched
/// recursive-predicate pass, drained in order.
#[derive(Debug, Default)]
struct BatchWindow {
    /// Surviving candidate rows, in candidate order.
    cands: Vec<u32>,
    /// Next survivor to drain into a descent.
    cursor: usize,
}

/// Reusable buffers of signature probes: the bound side's attribute values
/// and the probe keys derived from them, and one stack of candidate lists
/// — each signature frame's sorted, de-duplicated union of the postings
/// its keys name, stacked in descent order so every depth shares one
/// warmed allocation.
#[derive(Debug, Default)]
struct SigScratch {
    side: Vec<Value>,
    keys: Vec<u64>,
    stack: Vec<u32>,
}

/// Reusable enumeration state: the binding array, the frame stack, one
/// candidate window per descent depth, the recursive-check buffers and
/// the signature-probe buffers.
///
/// Create once, pass to every [`enumerate_with_program`] call; after the
/// first call warms its capacity, subsequent enumerations of rules with no
/// more variables and no wider windows allocate nothing.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// `rows[var]` = bound row position, or [`UNBOUND`].
    rows: Vec<u32>,
    /// Explicit descent stack, one frame per bound (non-seed) variable.
    frames: Vec<Frame>,
    /// Candidate windows, parallel to `frames`.
    windows: Vec<BatchWindow>,
    /// `(left row, right row)` of each window candidate under the
    /// recursive predicate being checked.
    pairs: Vec<(u32, u32)>,
    /// One prune verdict per entry of `pairs`.
    verdicts: Vec<bool>,
    /// Signature-probe key buffers.
    sig: SigScratch,
}

impl EvalScratch {
    /// Empty scratch.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }
}

/// Hot-path counters, accumulated locally and published to [`dcer_obs`]
/// once per enumeration (`eval.*` series) so `experiments trace` shows
/// where enumeration time goes.
#[derive(Debug, Default, Clone, Copy)]
struct EvalStats {
    /// Edge probe options priced (index lookups by bound join key).
    probes: u64,
    /// Constant probe options priced.
    const_probes: u64,
    /// Candidate rows drawn from chosen probes.
    probe_rows: u64,
    /// Signature probe options priced (probe keys computed).
    sig_probes: u64,
    /// Candidate rows drawn from chosen signature probes.
    sig_rows: u64,
    /// Scan fallbacks taken.
    scans: u64,
    /// Candidate rows drawn from scans.
    scan_rows: u64,
    /// Candidate windows filled.
    batch_windows: u64,
    /// Candidates admitted into windows.
    batch_candidates: u64,
    /// Window candidates pruned by batched recursive checks.
    batch_pruned: u64,
}

impl EvalStats {
    fn publish(&self, valuations: u64) {
        if !dcer_obs::enabled() {
            return;
        }
        dcer_obs::counter_add("eval.probes", self.probes);
        dcer_obs::counter_add("eval.const_probes", self.const_probes);
        dcer_obs::counter_add("eval.probe_rows", self.probe_rows);
        dcer_obs::counter_add("eval.sig_probes", self.sig_probes);
        dcer_obs::counter_add("eval.sig_rows", self.sig_rows);
        dcer_obs::counter_add("eval.scans", self.scans);
        dcer_obs::counter_add("eval.scan_rows", self.scan_rows);
        dcer_obs::counter_add("eval.valuations", valuations);
        dcer_obs::counter_add("eval.batch.windows", self.batch_windows);
        dcer_obs::counter_add("eval.batch.candidates", self.batch_candidates);
        dcer_obs::counter_add("eval.batch.pruned", self.batch_pruned);
    }
}

/// Run a compiled `program` (from [`RuleProgram::compile`] against the
/// same `dataset` / `indexes` generation) with `seeds` pre-bound, over
/// candidate windows of up to `batch_size` rows (clamped to ≥ 1). Returns
/// the number of complete valuations visited.
///
/// Seeds bypass [`ValuationSink::admit_row`] — delta-driven re-evaluation
/// must consider any locally hosted tuple — and are validated (constant
/// filters, fully seeded equality edges and recursive predicates) before
/// enumeration starts.
///
/// Why the width never changes the result: a window collects the
/// candidates of one frame that pass the row-local checks (liveness,
/// admission, constants, equality edges) — none of which read the binding
/// of any *other* candidate — then shrinks it predicate by predicate
/// through [`ValuationSink::prune_rec_batch`], so recursive predicate `j`
/// sees exactly the candidates still alive after predicates `0..j`.
/// Checking a window ahead of the descent is sound because only predicates
/// with *final* falsity may prune ([`ValuationSink::prune_rec`]'s
/// contract), making the verdicts pure in the pair. Survivors then drain
/// in candidate order and final-step survivors go to
/// [`ValuationSink::visit_batch`], so visits, their order, the predicate
/// probe multisets and the frame statistics are the same at every width.
#[allow(clippy::too_many_arguments)]
pub fn enumerate_with_program(
    program: &RuleProgram,
    plan: &CompiledRule,
    dataset: &Dataset,
    indexes: &IndexSet,
    seeds: &[(TupleVar, u32)],
    scratch: &mut EvalScratch,
    sink: &mut dyn ValuationSink,
    batch_size: usize,
) -> u64 {
    let batch_size = batch_size.max(1);
    let mut stats = EvalStats::default();
    if !bind_seeds(program, plan, dataset, indexes, seeds, scratch, sink) {
        return 0;
    }
    let Some(first) = next_unbound_step(program, &scratch.rows, 0) else {
        // Everything seeded: `bind_seeds` validated the lone valuation.
        sink.visit(&scratch.rows);
        stats.publish(1);
        return 1;
    };
    let EvalScratch { rows, frames, windows, pairs, verdicts, sig } = scratch;
    let frame = make_frame(program, dataset, indexes, rows, first, sig, &mut stats);
    frames.push(frame);
    reset_window(windows, 0);

    let mut count = 0u64;
    while let Some(top) = frames.len().checked_sub(1) {
        let f = frames[top];
        let step = &program.steps[f.step as usize];

        // Drain one surviving candidate into a descent (non-final steps
        // only; final-step windows are visited en masse at fill time).
        if windows[top].cursor < windows[top].cands.len() {
            let w = &mut windows[top];
            let row = w.cands[w.cursor];
            w.cursor += 1;
            rows[step.var as usize] = row;
            let next = next_unbound_step(program, rows, f.step as usize + 1)
                .expect("final-step windows are never drained");
            let frame = make_frame(program, dataset, indexes, rows, next, sig, &mut stats);
            frames.push(frame);
            reset_window(windows, top + 1);
            continue;
        }

        if f.pos >= f.end {
            // Candidate source exhausted: unbind and backtrack.
            rows[step.var as usize] = UNBOUND;
            if let Source::Sig(base) = f.source {
                sig.stack.truncate(base as usize);
            }
            frames.pop();
            continue;
        }

        // Fill: gather up to `batch_size` candidates passing the row-local
        // checks. None of these read the candidate binding itself, so they
        // run before `rows[step.var]` is touched.
        let mut cands = std::mem::take(&mut windows[top].cands);
        cands.clear();
        windows[top].cursor = 0;
        {
            let fm = &mut frames[top];
            let scan = f.source == Source::Scan;
            let probed: &[u32] = match f.source {
                Source::Scan => &[],
                Source::Postings(slot) => indexes.at(slot).rows(),
                Source::Sig(_) => &sig.stack,
            };
            while cands.len() < batch_size && fm.pos < fm.end {
                let pos = fm.pos;
                fm.pos += 1;
                let row = if scan { pos } else { probed[pos as usize] };
                // Scans walk raw positions and must skip tombstones
                // themselves; probed candidates self-filter (a tombstoned
                // row's code column is NULL, so the probing edge's or
                // constant's check rejects it), and a signature index
                // never posts a tombstoned row.
                if scan && !dataset.relation(step.rel).is_live(row) {
                    continue;
                }
                if !sink.admit_row(TupleVar(step.var), row) {
                    continue;
                }
                if !nonrec_checks_pass(indexes, rows, step, row) {
                    continue;
                }
                cands.push(row);
            }
        }
        stats.batch_windows += 1;
        stats.batch_candidates += cands.len() as u64;

        // Columnar recursive pass, predicate-major with a shrinking
        // survivor set: predicate `j` sees exactly the candidates still
        // alive after predicates `0..j`.
        for &pi in &step.rec_checks {
            if cands.is_empty() {
                break;
            }
            let (l, r) = plan.rec_preds[pi as usize].vars();
            let (lv, rv) = (l.0 as usize, r.0 as usize);
            let var = step.var as usize;
            // An endpoint that is not this step's variable must already be
            // bound, or the check is skipped for the whole window.
            if (lv != var && rows[lv] == UNBOUND) || (rv != var && rows[rv] == UNBOUND) {
                continue;
            }
            pairs.clear();
            pairs.extend(cands.iter().map(|&c| {
                (if lv == var { c } else { rows[lv] }, if rv == var { c } else { rows[rv] })
            }));
            let left = dataset.relation(plan.atoms[lv]).tuples();
            let right = dataset.relation(plan.atoms[rv]).tuples();
            sink.prune_rec_batch(pi as usize, left, right, pairs, verdicts);
            let mut keep = 0;
            for i in 0..cands.len() {
                if !verdicts[i] {
                    cands[keep] = cands[i];
                    keep += 1;
                }
            }
            stats.batch_pruned += (cands.len() - keep) as u64;
            cands.truncate(keep);
        }

        // Whether this is the final step is candidate-independent: later
        // steps bind different variables. Visit final-step survivors en
        // masse; otherwise leave the window for the drain branch above.
        if next_unbound_step(program, rows, f.step as usize + 1).is_none() {
            count += cands.len() as u64;
            if !cands.is_empty() {
                sink.visit_batch(rows, TupleVar(step.var), &cands);
            }
            cands.clear();
        }
        windows[top].cands = cands;
    }
    stats.publish(count);
    count
}

/// Reset `scratch`, pre-bind `seeds` and validate them (constant filters,
/// fully seeded equality edges and recursive predicates). `false` for a
/// dead program, an invalid seed, or a seed-falsified precondition.
fn bind_seeds(
    program: &RuleProgram,
    plan: &CompiledRule,
    dataset: &Dataset,
    indexes: &IndexSet,
    seeds: &[(TupleVar, u32)],
    scratch: &mut EvalScratch,
    sink: &mut dyn ValuationSink,
) -> bool {
    if program.dead {
        return false;
    }
    let n = program.num_vars;
    scratch.rows.clear();
    scratch.rows.resize(n, UNBOUND);
    scratch.frames.clear();
    scratch.sig.stack.clear();

    // Pre-bind and validate seeds (tombstoned rows support nothing).
    for &(v, row) in seeds {
        let relation = dataset.relation(plan.atoms[v.0 as usize]);
        if row as usize >= relation.len() || !relation.is_live(row) {
            return false;
        }
        scratch.rows[v.0 as usize] = row;
    }
    for &(v, _) in seeds {
        let step = &program.steps[program.step_of(v)];
        let row = scratch.rows[v.0 as usize];
        for c in &step.consts {
            if indexes.at(c.slot).code_of_row(row) != c.code {
                return false;
            }
        }
    }
    // Equality edges and recursive predicates already fully bound by seeds.
    for p in &program.eq_pairs {
        let (lr, rr) = (scratch.rows[p.left_var as usize], scratch.rows[p.right_var as usize]);
        if lr != UNBOUND && rr != UNBOUND {
            let lc = indexes.at(p.left_slot).code_of_row(lr);
            if lc == ValueDict::NULL || lc != indexes.at(p.right_slot).code_of_row(rr) {
                return false;
            }
        }
    }
    for (pi, p) in plan.rec_preds.iter().enumerate() {
        let (l, r) = p.vars();
        let (lr, rr) = (scratch.rows[l.0 as usize], scratch.rows[r.0 as usize]);
        if lr != UNBOUND && rr != UNBOUND {
            let lt = &dataset.relation(plan.atoms[l.0 as usize]).tuples()[lr as usize];
            let rt = &dataset.relation(plan.atoms[r.0 as usize]).tuples()[rr as usize];
            if sink.prune_rec(pi, lt, rt) {
                return false;
            }
        }
    }
    true
}

/// Clear (lazily growing) the candidate window at `depth`.
fn reset_window(windows: &mut Vec<BatchWindow>, depth: usize) {
    if windows.len() <= depth {
        windows.resize_with(depth + 1, BatchWindow::default);
    }
    let w = &mut windows[depth];
    w.cands.clear();
    w.cursor = 0;
}

/// First step at or after `from` whose variable is not already bound (the
/// bound ones are seeds; frame-bound steps are always behind `from`).
fn next_unbound_step(program: &RuleProgram, rows: &[u32], from: usize) -> Option<usize> {
    (from..program.steps.len()).find(|&i| rows[program.steps[i].var as usize] == UNBOUND)
}

/// Price the step's available probe options and open a frame over the
/// cheapest, falling back to a lazy scan when no option is usable. A
/// signature probe pushes its candidates onto the scratch's stack, and
/// only when the sum of its postings lengths undercuts the best option so
/// far (the scan counting as the relation's length), so a losing probe
/// costs only its key lookups.
fn make_frame(
    program: &RuleProgram,
    dataset: &Dataset,
    indexes: &IndexSet,
    rows: &[u32],
    step_idx: usize,
    scratch: &mut SigScratch,
    stats: &mut EvalStats,
) -> Frame {
    let step = &program.steps[step_idx];
    let mut best: Option<(Source, u32, u32)> = None; // (source, start, end)
    for c in &step.consts {
        stats.const_probes += 1;
        let (s, e) = indexes.at(c.slot).bucket_range(c.code);
        if best.is_none_or(|(_, bs, be)| e - s < be - bs) {
            best = Some((Source::Postings(c.slot), s, e));
        }
    }
    for ep in &step.edges {
        let src = rows[ep.src_var as usize];
        if src == UNBOUND {
            continue;
        }
        stats.probes += 1;
        // A null join key yields `ValueDict::NULL`, whose bucket is empty:
        // nulls never join.
        let code = indexes.at(ep.src_slot).code_of_row(src);
        let (s, e) = indexes.at(ep.slot).bucket_range(code);
        if best.is_none_or(|(_, bs, be)| e - s < be - bs) {
            best = Some((Source::Postings(ep.slot), s, e));
        }
    }
    for sp in &step.sigs {
        let src = rows[sp.src_var as usize];
        if src == UNBOUND {
            continue;
        }
        stats.sig_probes += 1;
        let index = indexes.sig_at(sp.slot);
        let tuple = &dataset.relation(sp.src_rel).tuples()[src as usize];
        let SigScratch { side, keys, stack } = scratch;
        side.clear();
        side.extend(sp.src_attrs.iter().map(|&a| tuple.get(a).clone()));
        keys.clear();
        index.scheme().probe_keys(side, keys);
        side.clear();
        // The bound row's block (ignored by an unblocked index); a null
        // one joins nothing, and no row is posted under its code.
        let block = sp.src_block_slot.map_or(ValueDict::NULL, |b| indexes.at(b).code_of_row(src));
        let bound: usize = keys.iter().map(|&k| index.bucket(k, block).len()).sum();
        let to_beat = match best {
            Some((_, s, e)) => (e - s) as usize,
            None => dataset.relation(step.rel).len(),
        };
        if bound >= to_beat {
            continue;
        }
        // A frame opens on top of every live frame's candidates; a second
        // winning probe of the same step replaces the first's.
        let base = match best {
            Some((Source::Sig(base), ..)) => base as usize,
            _ => stack.len(),
        };
        stack.truncate(base);
        for &k in keys.iter() {
            stack.extend_from_slice(index.bucket(k, block));
        }
        stack[base..].sort_unstable();
        let mut end = base;
        for i in base..stack.len() {
            if end == base || stack[i] != stack[end - 1] {
                stack[end] = stack[i];
                end += 1;
            }
        }
        stack.truncate(end);
        best = Some((Source::Sig(base as u32), base as u32, end as u32));
    }
    match best {
        Some((source, s, e)) => {
            if matches!(source, Source::Sig(_)) {
                stats.sig_rows += (e - s) as u64;
            } else {
                stats.probe_rows += (e - s) as u64;
            }
            Frame { step: step_idx as u32, source, pos: s, end: e }
        }
        None => {
            let len = dataset.relation(step.rel).len() as u32;
            stats.scans += 1;
            stats.scan_rows += len as u64;
            Frame { step: step_idx as u32, source: Source::Scan, pos: 0, end: len }
        }
    }
}

/// The candidate checks that read only the candidate row and *other*
/// variables' bindings: constant filters, then equality edges. A self-edge
/// (`other_var == step.var`) compares the candidate against itself, so the
/// window fill — which runs before the candidate is bound — resolves it to
/// `row` explicitly.
fn nonrec_checks_pass(
    indexes: &IndexSet,
    rows: &[u32],
    step: &crate::program::Step,
    row: u32,
) -> bool {
    for c in &step.consts {
        if indexes.at(c.slot).code_of_row(row) != c.code {
            return false;
        }
    }
    for c in &step.eq_checks {
        let other = if c.other_var == step.var { row } else { rows[c.other_var as usize] };
        if other == UNBOUND {
            continue;
        }
        let code = indexes.at(c.slot).code_of_row(row);
        if code == ValueDict::NULL || code != indexes.at(c.other_slot).code_of_row(other) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::facts::MlSigTable;
    use crate::plan::CompiledRule;
    use dcer_mrl::parse_rules;
    use dcer_relation::{Catalog, RelationSchema, Value, ValueType};
    use std::sync::Arc;

    /// Records every visit; `prune` prunes on every recursive predicate
    /// (the only ones these rules have are ML predicates).
    struct Collect {
        all: Vec<Vec<u32>>,
        prune: bool,
    }
    impl ValuationSink for Collect {
        fn prune_rec(&mut self, _pred: usize, _l: &Tuple, _r: &Tuple) -> bool {
            self.prune
        }
        fn visit(&mut self, rows: &[u32]) {
            self.all.push(rows.to_vec());
        }
    }

    fn catalog() -> Arc<Catalog> {
        Arc::new(
            Catalog::from_schemas(vec![
                RelationSchema::of("R", &[("k", ValueType::Str), ("v", ValueType::Str)]),
                RelationSchema::of("S", &[("k", ValueType::Str), ("w", ValueType::Str)]),
            ])
            .unwrap(),
        )
    }

    fn data() -> Dataset {
        let mut d = Dataset::new(catalog());
        d.insert(0, vec!["a".into(), "r0".into()]).unwrap(); // R row 0
        d.insert(0, vec!["a".into(), "r1".into()]).unwrap(); // R row 1
        d.insert(0, vec!["b".into(), "r2".into()]).unwrap(); // R row 2
        d.insert(1, vec!["a".into(), "s0".into()]).unwrap(); // S row 0
        d.insert(1, vec!["b".into(), "s1".into()]).unwrap(); // S row 1
        d.insert(1, vec![Value::Null, "s2".into()]).unwrap(); // S row 2
        d
    }

    fn compile(src: &str) -> (CompiledRule, Dataset) {
        let d = data();
        let rules = parse_rules(d.catalog(), src).unwrap();
        let sigs = MlSigTable::build(&rules);
        (CompiledRule::compile(&rules, &sigs, 0), d)
    }

    /// Compile `plan`'s program over `d` and enumerate at width 1.
    fn enumerate(
        plan: &CompiledRule,
        d: &Dataset,
        idx: &mut IndexSet,
        seeds: &[(TupleVar, u32)],
        sink: &mut dyn ValuationSink,
    ) -> u64 {
        let program = RuleProgram::compile(plan, d, idx);
        enumerate_with_program(&program, plan, d, idx, seeds, &mut EvalScratch::new(), sink, 1)
    }

    #[test]
    fn equi_join_enumerates_exact_matches() {
        let (plan, d) = compile("match j: R(t), S(s), t.k = s.k -> dummy(t.k, s.k)");
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[], &mut sink);
        // (R0,S0), (R1,S0), (R2,S1) — nulls never join.
        assert_eq!(n, 3);
        let mut got = sink.all;
        got.sort();
        assert_eq!(got, vec![vec![0, 0], vec![1, 0], vec![2, 1]]);
    }

    #[test]
    fn self_join_includes_reflexive_and_both_orders() {
        let (plan, d) = compile("match j: R(t), R(s), t.k = s.k -> t.id = s.id");
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[], &mut sink);
        // k=a: rows {0,1} -> 4 pairs; k=b: row {2} -> 1 pair.
        assert_eq!(n, 5);
    }

    #[test]
    fn constant_filter_prunes_scan() {
        let (plan, d) = compile(r#"match j: R(t), S(s), t.k = s.k, t.v = "r2" -> dummy(t.k, s.k)"#);
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[], &mut sink);
        assert_eq!(n, 1);
        assert_eq!(sink.all, vec![vec![2, 1]]);
    }

    #[test]
    fn unmatchable_constant_short_circuits() {
        let (plan, d) = compile(r#"match j: R(t), S(s), t.k = s.k, t.v = "zz" -> dummy(t.k, s.k)"#);
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        assert_eq!(enumerate(&plan, &d, &mut idx, &[], &mut sink), 0);
        // Seeds can't resurrect a dead program either.
        assert_eq!(enumerate(&plan, &d, &mut idx, &[(TupleVar(0), 0)], &mut sink), 0);
    }

    #[test]
    fn disconnected_atoms_cross_product() {
        let (plan, d) = compile("match j: R(t), S(s) -> dummy(t.k, s.k)");
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[], &mut sink);
        assert_eq!(n, 9); // 3 x 3
    }

    #[test]
    fn ml_pruning_cuts_branches() {
        let (plan, d) = compile("match j: R(t), S(s), m(t.k, s.k) -> dummy(t.k, s.k)");
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: true };
        let n = enumerate(&plan, &d, &mut idx, &[], &mut sink);
        assert_eq!(n, 0);
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[], &mut sink);
        assert_eq!(n, 9);
    }

    #[test]
    fn seeds_restrict_enumeration() {
        let (plan, d) = compile("match j: R(t), S(s), t.k = s.k -> dummy(t.k, s.k)");
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[(TupleVar(0), 1)], &mut sink);
        assert_eq!(n, 1);
        assert_eq!(sink.all, vec![vec![1, 0]]);
    }

    #[test]
    fn fully_seeded_valuation_is_validated() {
        let (plan, d) = compile("match j: R(t), S(s), t.k = s.k -> dummy(t.k, s.k)");
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[(TupleVar(0), 0), (TupleVar(1), 0)], &mut sink);
        assert_eq!(n, 1);
        assert_eq!(sink.all, vec![vec![0, 0]]);
    }

    #[test]
    fn inconsistent_seeds_yield_nothing() {
        let (plan, d) = compile("match j: R(t), S(s), t.k = s.k -> dummy(t.k, s.k)");
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        // R row 0 has k=a, S row 1 has k=b: contradiction.
        let n = enumerate(&plan, &d, &mut idx, &[(TupleVar(0), 0), (TupleVar(1), 1)], &mut sink);
        assert_eq!(n, 0);
        // Out-of-range seed row.
        let n = enumerate(&plan, &d, &mut idx, &[(TupleVar(0), 99)], &mut sink);
        assert_eq!(n, 0);
    }

    #[test]
    fn seed_violating_constant_filter_yields_nothing() {
        let (plan, d) = compile(r#"match j: R(t), S(s), t.k = s.k, t.v = "r0" -> dummy(t.k, s.k)"#);
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[(TupleVar(0), 1)], &mut sink);
        assert_eq!(n, 0);
    }

    #[test]
    fn three_way_chain_join() {
        let (plan, d) = compile("match j: R(t), S(s), R(u), t.k = s.k, s.k = u.k -> t.id = u.id");
        let mut idx = IndexSet::new();
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate(&plan, &d, &mut idx, &[], &mut sink);
        // k=a: R{0,1} x S{0} x R{0,1} = 4; k=b: R{2} x S{1} x R{2} = 1.
        assert_eq!(n, 5);
    }

    /// The window width never changes the result: every width visits the
    /// same valuations in the same order as width 1 (per-candidate
    /// evaluation), up to widths far beyond any window.
    #[test]
    fn every_width_visits_in_width_one_order() {
        let rules = [
            "match j: R(t), S(s), t.k = s.k -> dummy(t.k, s.k)",
            "match j: R(t), R(s), t.k = s.k -> t.id = s.id",
            "match j: R(t), S(s) -> dummy(t.k, s.k)",
            "match j: R(t), S(s), m(t.k, s.k) -> dummy(t.k, s.k)",
            "match j: R(t), S(s), R(u), t.k = s.k, s.k = u.k -> t.id = u.id",
            r#"match j: R(t), S(s), t.k = s.k, t.v = "r2" -> dummy(t.k, s.k)"#,
        ];
        let seed_sets: [&[(TupleVar, u32)]; 3] =
            [&[], &[(TupleVar(0), 1)], &[(TupleVar(0), 0), (TupleVar(1), 0)]];
        for src in rules {
            let (plan, d) = compile(src);
            let mut idx = IndexSet::new();
            let program = RuleProgram::compile(&plan, &d, &mut idx);
            let mut scratch = EvalScratch::new();
            let mut run = |seeds, prune, width| {
                let mut sink = Collect { all: vec![], prune };
                let n = enumerate_with_program(
                    &program,
                    &plan,
                    &d,
                    &idx,
                    seeds,
                    &mut scratch,
                    &mut sink,
                    width,
                );
                (n, sink.all)
            };
            for prune in [false, true] {
                for seeds in seed_sets {
                    let want = run(seeds, prune, 1);
                    for width in [2usize, 7, 64, 4096] {
                        assert_eq!(
                            run(seeds, prune, width),
                            want,
                            "{src} width={width} seeds={seeds:?}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn program_reuse_with_scratch_matches_fresh_compile() {
        let (plan, d) = compile("match j: R(t), S(s), t.k = s.k -> dummy(t.k, s.k)");
        let mut idx = IndexSet::new();
        let program = RuleProgram::compile(&plan, &d, &mut idx);
        let mut scratch = EvalScratch::new();
        for _ in 0..3 {
            let mut sink = Collect { all: vec![], prune: false };
            let n =
                enumerate_with_program(&program, &plan, &d, &idx, &[], &mut scratch, &mut sink, 64);
            assert_eq!(n, 3);
        }
        let mut sink = Collect { all: vec![], prune: false };
        let n = enumerate_with_program(
            &program,
            &plan,
            &d,
            &idx,
            &[(TupleVar(1), 0)],
            &mut scratch,
            &mut sink,
            64,
        );
        assert_eq!(n, 2); // R0 and R1 join S0.
    }
}
