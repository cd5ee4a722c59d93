//! `Assignment` (sorted `(id, value)` pairs) against a `HashMap` reference
//! model: the same answers under any sequence of writes, map-insert
//! semantics for repeated ids, and the same serialized bytes as the map
//! encoding it replaced.

use std::collections::HashMap;

use ddt_expr::{Assignment, SymId};
use proptest::prelude::*;
use serde::{Deserialize, Serialize};

/// The map-typed form `Assignment` used to have; its encoding is the
/// persisted format (trace manifests, checkpoint bug maps).
#[derive(Serialize, Deserialize)]
struct MapAssignment {
    values: HashMap<SymId, u64>,
}

/// Pairs over a small id range, so repeated ids are common.
fn arb_pairs() -> impl Strategy<Value = Vec<(u32, u64)>> {
    prop::collection::vec((0u32..24, any::<u64>()), 0..40)
}

fn to_ids(pairs: &[(u32, u64)]) -> Vec<(SymId, u64)> {
    pairs.iter().map(|&(id, v)| (SymId(id), v)).collect()
}

fn reference(pairs: &[(SymId, u64)]) -> HashMap<SymId, u64> {
    pairs.iter().copied().collect()
}

/// Checks every read of `asg` against the reference map.
fn agrees(asg: &Assignment, map: &HashMap<SymId, u64>) -> Result<(), TestCaseError> {
    prop_assert_eq!(asg.len(), map.len());
    prop_assert_eq!(asg.is_empty(), map.is_empty());
    for id in 0..26 {
        let id = SymId(id);
        prop_assert_eq!(asg.get(id), map.get(&id).copied());
        prop_assert_eq!(asg.get_or_zero(id), map.get(&id).copied().unwrap_or(0));
    }
    let listed: Vec<(SymId, u64)> = asg.iter().collect();
    prop_assert!(listed.windows(2).all(|w| w[0].0 < w[1].0), "iter not ascending: {listed:?}");
    let mut expected: Vec<(SymId, u64)> = map.iter().map(|(k, v)| (*k, *v)).collect();
    expected.sort();
    prop_assert_eq!(listed, expected);
    Ok(())
}

proptest! {
    /// Interleaved `set`/`get` sequences read back what a map would hold.
    #[test]
    fn set_get_matches_map(ops in prop::collection::vec((any::<bool>(), 0u32..24, any::<u64>()), 0..60)) {
        let mut asg = Assignment::new();
        let mut map = HashMap::new();
        for (write, id, v) in ops {
            let id = SymId(id);
            if write {
                asg.set(id, v);
                map.insert(id, v);
            } else {
                prop_assert_eq!(asg.get(id), map.get(&id).copied());
            }
        }
        agrees(&asg, &map)?;
    }

    /// `FromIterator` keeps the last value of a repeated id, like map
    /// inserts and like successive `set` calls.
    #[test]
    fn from_iter_keeps_last_value(pairs in arb_pairs()) {
        let pairs = to_ids(&pairs);
        let collected: Assignment = pairs.iter().copied().collect();
        agrees(&collected, &reference(&pairs))?;
        let mut by_set = Assignment::new();
        for &(id, v) in &pairs {
            by_set.set(id, v);
        }
        prop_assert_eq!(&collected, &by_set);
        // Already ascending but with runs of one id: still one pair per id.
        let mut grouped = pairs.clone();
        grouped.sort_by_key(|&(id, _)| id);
        let from_grouped: Assignment = grouped.iter().copied().collect();
        agrees(&from_grouped, &reference(&grouped))?;
        prop_assert_eq!(from_grouped, collected);
    }

    /// Equality is map equality, whatever order the pairs arrived in.
    #[test]
    fn equality_matches_map(a in arb_pairs(), b in arb_pairs()) {
        let (a, b) = (to_ids(&a), to_ids(&b));
        let (ma, mb) = (reference(&a), reference(&b));
        let asg_a: Assignment = a.iter().copied().collect();
        let asg_b: Assignment = b.iter().copied().collect();
        prop_assert_eq!(asg_a == asg_b, ma == mb);
        let reversed: Assignment = ma.iter().map(|(k, v)| (*k, *v)).collect::<Vec<_>>().into_iter().rev().collect();
        prop_assert_eq!(&reversed, &asg_a);
    }

    /// Serialized bytes equal the map encoding, and decode round-trips.
    #[test]
    fn serde_bytes_match_map_encoding(pairs in arb_pairs()) {
        let pairs = to_ids(&pairs);
        let asg: Assignment = pairs.iter().copied().collect();
        let map = MapAssignment { values: reference(&pairs) };
        let json = serde_json::to_string(&asg).unwrap();
        prop_assert_eq!(&json, &serde_json::to_string(&map).unwrap());
        prop_assert_eq!(
            serde_json::to_string_pretty(&asg).unwrap(),
            serde_json::to_string_pretty(&map).unwrap()
        );
        let back: Assignment = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, asg);
    }

    /// Unsorted pair lists with repeated ids (hand-written or foreign
    /// documents) decode to the normalized form, as they would into a map.
    #[test]
    fn decode_normalizes_unsorted_and_repeated_pairs(pairs in arb_pairs()) {
        let body: Vec<String> = pairs.iter().map(|(id, v)| format!("[{id},{v}]")).collect();
        let doc = format!("{{\"values\":[{}]}}", body.join(","));
        let decoded: Assignment = serde_json::from_str(&doc).unwrap();
        let map: MapAssignment = serde_json::from_str(&doc).unwrap();
        agrees(&decoded, &map.values)?;
        prop_assert_eq!(&decoded, &to_ids(&pairs).into_iter().collect::<Assignment>());
        prop_assert_eq!(serde_json::to_string(&decoded).unwrap(), serde_json::to_string(&map).unwrap());
    }
}

#[test]
fn malformed_documents_are_errors() {
    for doc in [
        "{}",
        "{\"values\":7}",
        "{\"values\":[[1]]}",
        "{\"values\":[[1,2,3]]}",
        "{\"values\":[[\"a\",2]]}",
        "[[1,2]]",
    ] {
        assert!(serde_json::from_str::<Assignment>(doc).is_err(), "{doc} decoded");
        assert!(serde_json::from_str::<MapAssignment>(doc).is_err(), "{doc} decoded by the map");
    }
}
