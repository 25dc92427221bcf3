//! Property tests for [`Value`]'s total order: the container `Ord`/`Eq`
//! must agree with each other, with `Hash`, and with predicate-level
//! [`Value::sql_eq`] on non-null numerics — including `Int`s beyond 2⁵³
//! where the old `as f64` widening rounded distinct values together.

use dcer_relation::Value;
use proptest::{prop_assert, prop_assert_eq, proptest, ProptestConfig};
use std::cmp::Ordering;
use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

fn hash_of(v: &Value) -> u64 {
    let mut h = DefaultHasher::new();
    v.hash(&mut h);
    h.finish()
}

/// Decode a numeric `Value` from raw generator words. Three families so the
/// interesting collisions actually occur: raw-bit floats (NaN/∞/denormals),
/// floats derived from the int (exact and off-by-one at every magnitude),
/// and the int itself.
fn decode(kind: u8, i: i64, bits: u64) -> Value {
    match kind % 6 {
        0 => Value::Int(i),
        1 => Value::Float(f64::from_bits(bits)),
        2 => Value::Float(i as f64),
        3 => Value::Float(i as f64 + 0.5),
        4 => Value::Int(i.wrapping_add(1)),
        _ => Value::Float((i as f64).trunc()),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    /// The issue's contract: `cmp == Equal ⇒ sql_eq` for non-null values
    /// (sql_eq is strictly stricter only through its Null semantics).
    #[test]
    fn cmp_equal_implies_sql_eq(ka in proptest::any::<u8>(), kb in proptest::any::<u8>(),
                                i in proptest::any::<i64>(), j in proptest::any::<i64>(),
                                ba in proptest::any::<u64>(), bb in proptest::any::<u64>()) {
        let a = decode(ka, i, ba);
        let b = decode(kb, j, bb);
        if a.cmp(&b) == Ordering::Equal {
            prop_assert!(a.sql_eq(&b), "cmp Equal but !sql_eq: {a:?} vs {b:?}");
            // Ord contract: Equal ⇔ Eq, and Eq ⇒ same hash.
            prop_assert_eq!(&a, &b);
            prop_assert_eq!(hash_of(&a), hash_of(&b), "{:?} vs {:?}", a, b);
        } else {
            prop_assert!(a != b, "cmp non-Equal but Eq: {a:?} vs {b:?}");
        }
    }

    /// Antisymmetry + transitivity over random numeric triples: sorting
    /// relies on this, and the old NaN bit-fallback violated it.
    #[test]
    fn order_is_antisymmetric_and_transitive(
        ks in proptest::any::<u32>(),
        is in (proptest::any::<i64>(), proptest::any::<i64>(), proptest::any::<i64>()),
        bs in (proptest::any::<u64>(), proptest::any::<u64>(), proptest::any::<u64>()),
    ) {
        let a = decode(ks as u8, is.0, bs.0);
        let b = decode((ks >> 8) as u8, is.1, bs.1);
        let c = decode((ks >> 16) as u8, is.2, bs.2);
        prop_assert_eq!(a.cmp(&b), b.cmp(&a).reverse());
        // Transitivity: a ≤ b ≤ c ⇒ a ≤ c (check all orderings via sort).
        let mut v = [a.clone(), b.clone(), c.clone()];
        v.sort(); // panics in debug if the comparator is inconsistent
        for w in v.windows(2) {
            prop_assert!(w[0].cmp(&w[1]) != Ordering::Greater);
        }
    }
}
