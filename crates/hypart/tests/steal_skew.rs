//! Work stealing absorbs skew the cost model cannot see, and skew
//! refinement improves the LPT balance the cost model *can* see.
//!
//! The dataset has two deliberately different skew shapes:
//!
//! - **Cost skew** (invisible to task weights): the first rows carry
//!   pathologically long values. Hash cost is proportional to value
//!   length, but scan-task weights only know row counts and rule
//!   geometry, so lane 0 of the pool is badly underestimated. The other
//!   lanes drain early and steal from it — `pool.steal` must fire.
//! - **Cell skew** (visible to the partitioner): a band of medium-hot
//!   keys collides in the few initial virtual blocks. Refinement doubles
//!   the cell count, the collisions separate, and the LPT assignment's
//!   `hypart.lpt.balance` gauge (makespan / ideal, 1.0 = even) improves.
//!
//! Lives in its own integration binary because it installs the process
//! global recorder.

use dcer_hypart::{partition, HyPartConfig, Partition};
use dcer_mrl::{parse_rules, RuleSet};
use dcer_obs::{InMemoryCollector, Metric};
use dcer_pool::WorkPool;
use dcer_relation::{Catalog, Dataset, RelationSchema, ValueType};
use std::sync::Arc;

fn catalog() -> Arc<Catalog> {
    Arc::new(
        Catalog::from_schemas(vec![RelationSchema::of("R", &[("k", ValueType::Str)])]).unwrap(),
    )
}

fn rules(catalog: &Arc<Catalog>) -> RuleSet {
    parse_rules(catalog, "match same_k: R(t), R(s), t.k = s.k -> t.id = s.id").unwrap()
}

/// 400 distinct 8000-char keys (cost skew, all landing in the leading
/// scan tasks) followed by two hot short keys × 150 rows each: at the
/// initial 4-cell grid the hot keys land together (max cell ≈ 1.4× the
/// average, over the 1.15 threshold), and two doublings separate them
/// (cell skew for the refinement half of the test).
fn skewed_dataset(catalog: &Arc<Catalog>) -> Dataset {
    let mut d = Dataset::new(catalog.clone());
    let pad = "x".repeat(8000);
    for i in 0..400 {
        d.insert(0, vec![format!("{i:06}{pad}").into()]).unwrap();
    }
    for key in 0..2 {
        for _ in 0..150 {
            d.insert(0, vec![format!("hot{key}").into()]).unwrap();
        }
    }
    d
}

fn assert_identical(a: &Partition, b: &Partition, context: &str) {
    for (w, (fa, fb)) in a.fragments.iter().zip(&b.fragments).enumerate() {
        for (ra, rb) in fa.relations().iter().zip(fb.relations()) {
            assert_eq!(ra.tuples(), rb.tuples(), "{context}: fragment {w} rows");
        }
    }
    assert_eq!(a.hosts, b.hosts, "{context}: hosts");
    assert_eq!(a.stats, b.stats, "{context}: stats");
}

/// Run one partition under a fresh collector; return the partition and
/// the final `hypart.lpt.balance` gauge value.
fn partition_with_balance(d: &Dataset, rs: &RuleSet, cfg: &HyPartConfig) -> (Partition, f64) {
    let collector = Arc::new(InMemoryCollector::new());
    dcer_obs::install(collector.clone());
    let p = partition(d, rs, cfg);
    dcer_obs::uninstall();
    let balance = collector
        .metrics()
        .into_iter()
        .find_map(|(name, _, metric)| match (name.as_str(), metric) {
            ("hypart.lpt.balance", Metric::Gauge(v)) => Some(v),
            _ => None,
        })
        .expect("partitioner publishes hypart.lpt.balance");
    (p, balance)
}

#[test]
fn stealing_absorbs_cost_skew_and_refinement_improves_balance() {
    let catalog = catalog();
    let rs = rules(&catalog);
    let d = skewed_dataset(&catalog);

    let pool = Arc::new(WorkPool::new(4));
    let mut cfg = HyPartConfig::new(4);
    cfg.virtual_factor = 1; // few initial cells → the hot keys collide
    cfg.skew_threshold = 1.15;
    cfg.threads = 4;
    cfg.pool = Some(Arc::clone(&pool));

    let one_lane = HyPartConfig { threads: 1, pool: None, ..cfg.clone() };
    let oracle = partition(&d, &rs, &one_lane);
    let (refined, refined_balance) = partition_with_balance(&d, &rs, &cfg);

    // Stealing never changes the output: shard results merge in fixed
    // task order regardless of which lane ran them.
    assert_identical(&refined, &oracle, "pooled vs. one lane");

    let stats = pool.stats();
    assert!(stats.tasks > 0, "scan work must run on the shared pool");
    assert!(
        stats.steals > 0,
        "idle lanes must steal from the long-string lane (tasks={}, steals={})",
        stats.tasks,
        stats.steals
    );

    // Refinement must have engaged on the colliding hot keys…
    assert!(refined.stats.refinements > 0, "cell skew must trigger refinement");

    // …and the LPT balance after refinement must beat the unrefined
    // assignment of the very same data.
    let mut unrefined_cfg = cfg.clone();
    unrefined_cfg.max_refinements = 0;
    let (unrefined, unrefined_balance) = partition_with_balance(&d, &rs, &unrefined_cfg);
    assert_eq!(unrefined.stats.refinements, 0);
    assert!(
        refined_balance < unrefined_balance,
        "refinement must improve hypart.lpt.balance: {refined_balance} vs {unrefined_balance}"
    );
}
