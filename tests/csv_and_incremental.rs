//! CSV persistence round-trips through the full pipeline, and the
//! incremental (ΔD) engine agrees with from-scratch chasing at session
//! level — streaming e-commerce data arriving order by order.

use dcer::prelude::*;
use dcer_datagen::ecommerce;
use dcer_relation::csv;

fn session() -> DcerSession {
    DcerSession::from_source(
        ecommerce::catalog(),
        &ecommerce::paper_rules_source_extended(),
        ecommerce::paper_registry(),
    )
    .unwrap()
}

#[test]
fn csv_roundtrip_preserves_chase_results() {
    let (data, _) = ecommerce::paper_example();
    // Dump every relation, reload into a fresh dataset.
    let dumps: Vec<String> =
        (0..data.catalog().len() as u16).map(|r| csv::dump_relation(&data, r)).collect();
    let mut reloaded = Dataset::new(ecommerce::catalog());
    for (r, text) in dumps.iter().enumerate() {
        let n = csv::load_into(&mut reloaded, r as u16, text).unwrap();
        assert_eq!(n, data.relation(r as u16).len(), "relation {r}");
    }
    // Values identical (including the Null for the paper's `-` markers).
    for (orig, back) in data.all_tuples().zip(reloaded.all_tuples()) {
        assert_eq!(orig.values, back.values, "{}", orig.tid);
    }
    let s = session();
    let mut a = s.run_sequential(&data);
    let mut b = s.run_sequential(&reloaded);
    assert_eq!(a.matches.clusters(), b.matches.clusters());
}

#[test]
fn incremental_arrival_of_orders_reaches_the_same_fixpoint() {
    let (full, _) = ecommerce::paper_example();
    let s = session();

    // Start with everything except the Orders table.
    let mut base = Dataset::new(ecommerce::catalog());
    for rel in 0..3u16 {
        for t in full.relation(rel).tuples() {
            base.insert_replica(t.clone());
        }
    }
    let mut engine = s.incremental_engine(&base).unwrap();
    engine.update_fixpoint();
    // Without orders: only phi1 (c2~c3), phi2 (p2~p3) and phi3 (s4~s5) can
    // fire; phi4/phi5 need order evidence.
    assert!(engine.state_mut().holds_id(Tid::new(0, 1), Tid::new(0, 2)));
    assert!(!engine.state_mut().holds_id(Tid::new(0, 0), Tid::new(0, 2)));

    // Orders arrive one at a time.
    for t in full.relation(3).tuples() {
        engine.apply_update(vec![t.clone()], &[]);
    }
    let mut incremental = engine.into_outcome();
    let mut scratch = s.run_sequential(&full);
    assert_eq!(incremental.matches.clusters(), scratch.matches.clusters());
    assert_eq!(
        incremental.validated.len(),
        scratch.validated.len(),
        "validated ML predictions converge too"
    );
    // The deep deduction c1 ~ c3 now holds.
    assert!(incremental.matches.are_matched(Tid::new(0, 0), Tid::new(0, 2)));
}

#[test]
fn incremental_customer_arrivals_on_generated_data() {
    let (full, _truth) =
        ecommerce::generate(&ecommerce::EcommerceConfig { customers: 60, dup_rate: 0.4, seed: 3 });
    let s = DcerSession::from_source(
        ecommerce::catalog(),
        ecommerce::generated_rules_source(),
        ecommerce::paper_registry(),
    )
    .unwrap();

    // Hold back the last 20 customer rows; stream them in batches of 7.
    let customers = full.relation(0).tuples();
    let holdback = 20.min(customers.len());
    let mut base = Dataset::new(ecommerce::catalog());
    for rel in 0..4u16 {
        for t in full.relation(rel).tuples() {
            if rel == 0 && t.tid.row as usize >= customers.len() - holdback {
                continue;
            }
            base.insert_replica(t.clone());
        }
    }
    let mut engine = s.incremental_engine(&base).unwrap();
    engine.update_fixpoint();
    let held: Vec<_> = customers[customers.len() - holdback..].to_vec();
    for chunk in held.chunks(7) {
        engine.apply_update(chunk.to_vec(), &[]);
    }
    let mut incremental = engine.into_outcome();
    let mut scratch = s.run_sequential(&full);
    assert_eq!(incremental.matches.clusters(), scratch.matches.clusters());
}
