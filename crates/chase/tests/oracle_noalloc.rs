//! Asserts the ML oracle's allocation-free probe path: once
//! [`MlOracle::predict_batch`] has been warmed to a window width, a window
//! of memo hits performs zero heap allocations, and a window of fresh
//! misses scored by `LevenshteinClassifier` allocates a fixed number of
//! times (the model's answer vector) however many misses it holds — the
//! pending map, miss keys, per-position miss indices and classifier inputs
//! are reused, and the bounded edit distance runs on the stack.
//!
//! Lives in its own integration binary so the counting global allocator
//! can't interact with other tests (same harness as `eval_noalloc.rs`).

use dcer_chase::{MlOracle, MlSigTable};
use dcer_ml::{LevenshteinClassifier, MlRegistry};
use dcer_relation::{Catalog, Dataset, RelationSchema, Tuple, ValueType};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// The widest window, and the warm-up width.
const WIDTH: usize = 1024;

/// Memo entries before the measured windows: 12 288 entries sit in a table
/// sized for 14 336 (hashbrown's 7/8 load on 16 384 buckets; 16 384 at a
/// 1/2 load), so the 256 + 1 024 fresh answers below fit without a rehash.
const PREGROWN: usize = 12 * WIDTH;

/// Allocations made by `f`.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn warmed_probes_allocate_nothing_per_miss() {
    let cat = Arc::new(
        Catalog::from_schemas(vec![RelationSchema::of("R", &[("plate", ValueType::Str)])]).unwrap(),
    );
    let rules = dcer_mrl::parse_rules(
        &cat,
        "match r: R(t), R(s), plate_sim(t.plate, s.plate) -> t.id = s.id",
    )
    .unwrap();
    let table = MlSigTable::build(&rules);
    let sig = table.sig_id(&rules, "plate_sim", 0, &[0], 0, &[0]).unwrap();
    assert!(table.sig(sig).is_symmetric());
    let mut reg = MlRegistry::new();
    reg.register("plate_sim", Arc::new(LevenshteinClassifier::new(0.7)));
    let mut oracle = MlOracle::new(&rules, &reg).unwrap();

    let mut ds = Dataset::new(cat);
    let tuples: Vec<Tuple> = (0..200)
        .map(|i| {
            let plate = format!("AB{:02} X{:03}", i % 37, i % 90);
            let tid = ds.insert(0, vec![plate.into()]).unwrap();
            ds.tuple(tid).unwrap().clone()
        })
        .collect();
    // Every unordered pair once: each is a fresh miss on first probe.
    let n = tuples.len();
    let fresh: Vec<(&Tuple, &Tuple)> = tuples
        .iter()
        .enumerate()
        .flat_map(|(i, l)| tuples[i + 1..].iter().map(move |r| (l, r)))
        .collect();
    let (warm, rest) = fresh.split_at(PREGROWN);
    let (miss256, rest) = rest.split_at(256);
    let miss1024 = &rest[..WIDTH];
    // The last warm-up window again, mirrored: all hits.
    let hits: Vec<(&Tuple, &Tuple)> =
        warm[PREGROWN - WIDTH..].iter().map(|&(l, r)| (r, l)).collect();

    let mut out = Vec::new();
    for window in warm.chunks(WIDTH) {
        oracle.predict_batch(&table, sig, window, 0, None, &mut out);
    }
    assert_eq!(oracle.memo_entries(), PREGROWN);

    let hit_allocs = allocations(|| oracle.predict_batch(&table, sig, &hits, 0, None, &mut out));
    assert_eq!(hit_allocs, 0, "an all-hit window of {WIDTH} allocated {hit_allocs} times");
    assert_eq!((oracle.calls(), oracle.hits()), (PREGROWN as u64, WIDTH as u64));

    let small = allocations(|| oracle.predict_batch(&table, sig, miss256, 0, None, &mut out));
    let small_answers = out.clone();
    let large = allocations(|| oracle.predict_batch(&table, sig, miss1024, 0, None, &mut out));
    assert_eq!(oracle.calls(), (PREGROWN + 256 + WIDTH) as u64, "every miss window is fresh");
    assert_eq!(oracle.memo_entries(), PREGROWN + 256 + WIDTH);
    assert!(small_answers.contains(&true) && out.contains(&true) && out.contains(&false));
    assert_eq!(
        small, large,
        "fresh-miss windows must allocate a fixed number of times: 256 misses made {small}, \
         {WIDTH} made {large}"
    );
    assert!(large <= 1, "only the model's answer vector may be allocated, got {large}");

    // Warmed scalar probes: a hit and a fresh miss allocate nothing.
    let (l, r) = (&tuples[n - 1], &tuples[n - 2]);
    let scalar = allocations(|| {
        oracle.predict(&table, sig, miss256[0].1, miss256[0].0, 0);
        oracle.predict(&table, sig, l, r, 0);
    });
    assert_eq!(scalar, 0, "warmed scalar probes allocated {scalar} times");
}
