//! Property tests for `fastmap`: the open-addressing `AddrMap` is checked
//! against `std::collections::HashMap` as an oracle over random operation
//! sequences, and the bounded `MemoCache` is checked for deterministic
//! capacity-capped eviction.

use cmpsim_harness::fastmap::{fx_hash64, AddrMap, MemoCache};
use cmpsim_harness::{gen, prop::check, prop_assert, prop_assert_eq};
use std::collections::HashMap;

/// One map operation: 0 = insert, 1 = remove, 2 = get.
type Op = (u32, u64, u64);

/// Operation sequences over a small key domain so collisions, tombstones
/// and re-insertions are frequent; a few huge keys exercise hashing of
/// real block addresses.
fn ops() -> gen::Gen<Vec<Op>> {
    let key = gen::select(vec![
        0u64,
        1,
        2,
        3,
        5,
        8,
        13,
        21,
        0x40,
        0x41,
        0x1000,
        0x1040,
        u64::MAX,
        0xFFFF_FFFF_0000_0040,
    ]);
    let op = gen::triple(gen::u32s(0..=2), key, gen::u64s(..));
    gen::vec_of(op, 0..=200)
}

/// `AddrMap` agrees with `HashMap` after any operation sequence: same
/// return values, same length, same final contents.
#[test]
fn matches_std_hashmap_oracle() {
    check("matches_std_hashmap_oracle", &ops(), |ops| {
        let mut map = AddrMap::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for &(op, key, value) in ops {
            match op {
                0 => prop_assert_eq!(map.insert(key, value), oracle.insert(key, value)),
                1 => prop_assert_eq!(map.remove(key), oracle.remove(&key)),
                _ => {
                    prop_assert_eq!(map.get(key).copied(), oracle.get(&key).copied());
                    prop_assert_eq!(map.contains_key(key), oracle.contains_key(&key));
                }
            }
            prop_assert_eq!(map.len(), oracle.len());
        }
        // Final contents agree in both directions.
        for (&k, &v) in &oracle {
            prop_assert_eq!(map.get(k).copied(), Some(v));
        }
        let mut keys: Vec<u64> = map.keys().collect();
        keys.sort_unstable();
        let mut oracle_keys: Vec<u64> = oracle.keys().copied().collect();
        oracle_keys.sort_unstable();
        prop_assert_eq!(keys, oracle_keys);
        Ok(())
    });
}

/// `get_mut` writes through to the stored value.
#[test]
fn get_mut_writes_through() {
    check("get_mut_writes_through", &ops(), |ops| {
        let mut map = AddrMap::new();
        let mut oracle: HashMap<u64, u64> = HashMap::new();
        for &(op, key, value) in ops {
            match op {
                0 => {
                    map.insert(key, value);
                    oracle.insert(key, value);
                }
                1 => {
                    map.remove(key);
                    oracle.remove(&key);
                }
                _ => {
                    // Mutate through get_mut in both maps.
                    if let Some(v) = map.get_mut(key) {
                        *v = v.wrapping_add(1);
                    }
                    if let Some(v) = oracle.get_mut(&key) {
                        *v = v.wrapping_add(1);
                    }
                }
            }
        }
        for (&k, &v) in &oracle {
            prop_assert_eq!(map.get(k).copied(), Some(v));
        }
        Ok(())
    });
}

/// Churning insert/remove cycles over a small *repeating* key set (32
/// keys) must stay correct: a re-inserted key reclaims a tombstone on its
/// probe path, and the map answers exactly for the working set after the
/// churn. Fresh-key churn, where tombstones are never re-used, is covered
/// by `fresh_key_churn_keeps_table_bounded`.
#[test]
fn tombstone_churn_bounds_table() {
    check(
        "tombstone_churn_bounds_table",
        &gen::vec_of(gen::u64s(0..=31), 1..=400),
        |keys| {
            let mut map = AddrMap::with_capacity(64);
            for &k in keys {
                // Insert then remove: net size stays 0 or 1, so however
                // long the churn, a correctly tombstone-reusing table
                // holds at most the 32-key working set.
                map.insert(k, k);
                map.remove(k);
            }
            prop_assert_eq!(map.len(), 0);
            for k in 0..32u64 {
                prop_assert!(!map.contains_key(k));
                map.insert(k, k * 2);
            }
            for k in 0..32u64 {
                prop_assert_eq!(map.get(k).copied(), Some(k * 2));
            }
            Ok(())
        },
    );
}

/// An MSHR-style map sees a fresh block address on almost every miss
/// while holding at most a handful of live entries. Tombstones from such
/// churn must be swept by rehashing at the same capacity, not by doubling
/// the table: after 200k distinct keys with at most 16 live, the table
/// stays at the size 16 live entries need.
#[test]
fn fresh_key_churn_keeps_table_bounded() {
    let mut map: AddrMap<u64> = AddrMap::with_capacity(32);
    let initial = map.capacity();
    let mut live = std::collections::VecDeque::new();
    for k in 0..200_000u64 {
        let key = k.wrapping_mul(64) ^ 0xA5A5_0000;
        map.insert(key, k);
        live.push_back(key);
        if live.len() > 16 {
            let old = live.pop_front().unwrap();
            assert!(map.remove(old).is_some());
        }
        assert!(map.capacity() <= initial, "table grew to {} slots at key {k}", map.capacity());
    }
    assert_eq!(map.len(), 16);
    for &key in &live {
        assert!(map.contains_key(key));
    }
}

/// The memo cache never exceeds its capacity and never returns a value
/// that was not inserted for exactly that key.
#[test]
fn memo_cache_is_bounded_and_keyed() {
    check(
        "memo_cache_is_bounded_and_keyed",
        &gen::vec_of(gen::u64s(0..=4096), 1..=300),
        |keys| {
            let mut memo = MemoCache::new(64);
            for &k in keys {
                // The "computation" is a pure function of the key, as on
                // the engine's segment-sizing path.
                let v = memo.get_or_insert_with(k, || k.wrapping_mul(3));
                prop_assert_eq!(v, k.wrapping_mul(3));
                if let Some(hit) = memo.get(k) {
                    prop_assert_eq!(hit, k.wrapping_mul(3));
                }
                prop_assert!(memo.len() <= memo.capacity());
            }
            Ok(())
        },
    );
}

/// Capacity-capped eviction is deterministic: two caches fed the same key
/// sequence end in the same state, hit for hit.
#[test]
fn memo_eviction_is_deterministic() {
    check(
        "memo_eviction_is_deterministic",
        &gen::vec_of(gen::u64s(..), 1..=300),
        |keys| {
            let mut a = MemoCache::new(32);
            let mut b = MemoCache::new(32);
            for &k in keys {
                let va = a.get_or_insert_with(k, || fx_hash64(k));
                let vb = b.get_or_insert_with(k, || fx_hash64(k));
                prop_assert_eq!(va, vb);
            }
            for &k in keys {
                prop_assert_eq!(a.get(k), b.get(k));
            }
            Ok(())
        },
    );
}
