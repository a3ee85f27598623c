//! The one-pass family builder (`Zdd::from_sets` / `Zdd::try_from_sets`)
//! against the fold of unions it replaced, kept here only as an oracle.

use proptest::prelude::*;
use zdd::{NodeId, Var, Zdd};

/// The reference construction: one `set` and one `union` per row.
fn union_fold(z: &mut Zdd, rows: &[Vec<u32>]) -> NodeId {
    let mut acc = NodeId::EMPTY;
    for row in rows {
        let one = z.set(row.iter().map(|&v| Var(v)));
        acc = z.union(acc, one);
    }
    acc
}

fn bulk(z: &mut Zdd, rows: &[Vec<u32>]) -> NodeId {
    z.from_sets(rows.iter().map(|row| row.iter().map(|&v| Var(v))))
}

/// Rows in no particular order, with repeated rows, repeated variables
/// and empty rows all possible.
fn rows_strategy() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0u32..10, 0..6), 0..16).prop_map(|mut rows| {
        if rows.len() > 2 {
            let again = rows[rows.len() / 2].clone();
            rows.push(again);
        }
        rows
    })
}

/// The bulk build against the fold: same family, same node count, and
/// a store holding nothing but the family.
fn check(rows: &[Vec<u32>]) -> Result<(), TestCaseError> {
    let mut fold_z = Zdd::default();
    let fold = union_fold(&mut fold_z, rows);
    let mut bulk_z = Zdd::default();
    let built = bulk(&mut bulk_z, rows);
    prop_assert_eq!(bulk_z.to_sets(built), fold_z.to_sets(fold));
    prop_assert_eq!(bulk_z.node_count(built), fold_z.node_count(fold));
    prop_assert_eq!(bulk_z.len(), bulk_z.node_count(built) + 2);
    prop_assert_eq!(bulk_z.stats().cache_lookups(), 0);
    // Canonicity: in one manager both constructions give the same node.
    let again = union_fold(&mut bulk_z, rows);
    prop_assert_eq!(again, built);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bulk_build_matches_the_union_fold(rows in rows_strategy()) {
        check(&rows)?;
    }
}

#[test]
fn edge_cases_match_the_union_fold() {
    let cases: [&[Vec<u32>]; 4] = [
        // The empty matrix: the empty family.
        &[],
        // A lone empty row: `{∅}`, the infeasible matrix.
        &[vec![]],
        // An empty row among others, out of order.
        &[vec![3, 1], vec![], vec![2]],
        // Repeated rows and repeated variables.
        &[vec![2, 0, 2], vec![0, 2], vec![1], vec![2, 0]],
    ];
    for rows in cases {
        check(rows).unwrap();
    }
    let mut z = Zdd::default();
    assert_eq!(bulk(&mut z, &[]), NodeId::EMPTY);
    assert_eq!(bulk(&mut z, &[vec![]]), NodeId::BASE);
    let f = bulk(&mut z, &[vec![3, 1], vec![], vec![2]]);
    assert!(z.contains_empty(f));
}
