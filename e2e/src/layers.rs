//! Measurements only the traced run takes: read primitives on a quiescent
//! resolver, and the workload's dominant ML predicate on its own.

use crate::data::Spec;
use crate::stats::{mean, summarize};
use dcer_core::{DcerSession, ResidentResolver};
use dcer_relation::{Dataset, Tid, Value};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Share of applies slower than four times the lower quartile: the
/// slow-admit mode, when there is one.
pub fn slow_share(apply_ns: &[f64]) -> f64 {
    let floor = 4.0 * summarize(apply_ns).q1;
    apply_ns.iter().filter(|&&ns| ns > floor).count() as f64 / apply_ns.len() as f64
}

/// Read primitives in nanoseconds per call, each the median over rounds of
/// [`CALLS`] back-to-back calls on a resolver nobody is writing to.
pub struct ReadCosts {
    pub snapshot_load_ns: f64,
    pub cluster_of_ns: f64,
    pub members_ns: f64,
    pub explain_ns: f64,
    pub explain_steps: f64,
}

const CALLS: usize = 1024;
const ROUNDS: usize = 33;

fn per_call_ns(mut round: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..ROUNDS)
        .map(|_| {
            let clock = Instant::now();
            round();
            clock.elapsed().as_nanos() as f64 / CALLS as f64
        })
        .collect();
    summarize(&samples).median
}

pub fn read_costs(resolver: &ResidentResolver, probe: &[Tid]) -> ReadCosts {
    let snap = resolver.snapshot();
    let tids: Vec<Tid> = (0..CALLS).map(|i| probe[i * 7919 % probe.len()]).collect();
    let clusters = snap.clusters().len().max(1) as u32;
    let pairs: Vec<(Tid, Tid)> =
        snap.clusters().iter().take(CALLS).map(|c| (c[0], c[c.len() - 1])).collect();
    let mut steps = Vec::new();
    let explain_ns = if pairs.is_empty() {
        0.0
    } else {
        per_call_ns(|| {
            steps.clear();
            for i in 0..CALLS {
                let (a, b) = pairs[i % pairs.len()];
                steps.push(snap.explain(a, b).map_or(0, |s| s.len()) as f64);
            }
        })
    };
    ReadCosts {
        snapshot_load_ns: per_call_ns(|| {
            for _ in 0..CALLS {
                black_box(resolver.snapshot());
            }
        }),
        cluster_of_ns: per_call_ns(|| {
            for &t in &tids {
                black_box(snap.cluster_of(t));
            }
        }),
        members_ns: per_call_ns(|| {
            for i in 0..CALLS as u32 {
                black_box(snap.members(i % clusters));
            }
        }),
        explain_ns,
        explain_steps: if steps.is_empty() { 0.0 } else { mean(&steps) },
    }
}

/// Pairs `ml.pair_ns` scores: co-blocked, as the rule's equality would pair
/// them before the predicate runs.
const ML_PAIRS: usize = 10_000;

/// Nanoseconds per pair of one `classify_batch` over [`ML_PAIRS`] pairs of
/// the workload's dominant model.
pub fn ml_pair_ns(spec: &Spec, session: &DcerSession, dataset: &Dataset) -> f64 {
    let (model, rel, attr, block) = spec.ml_probe;
    let catalog = session.catalog();
    let (rel, attr) = catalog.attr(rel, attr).expect("probe attribute exists");
    let block = catalog.schema(rel).attr(block).expect("block attribute exists");
    let model = session.registry().get(model).expect("probe model is registered");
    let mut blocks: BTreeMap<String, Vec<&Value>> = BTreeMap::new();
    for t in dataset.relation(rel).live_tuples() {
        blocks.entry(t.get(block).to_text()).or_default().push(t.get(attr));
    }
    let mut pairs = Vec::with_capacity(ML_PAIRS);
    'fill: for gap in 1.. {
        let before = pairs.len();
        for values in blocks.values() {
            for w in values.windows(gap + 1) {
                pairs.push((vec![w[0].clone()], vec![w[gap].clone()]));
                if pairs.len() == ML_PAIRS {
                    break 'fill;
                }
            }
        }
        if pairs.len() == before {
            break; // every block is exhausted: fewer pairs than asked
        }
    }
    let clock = Instant::now();
    black_box(model.classify_batch(&pairs));
    clock.elapsed().as_nanos() as f64 / pairs.len().max(1) as f64
}
