//! `DirichletBcs` against a `BTreeMap<usize, f64>` oracle: any sequence of
//! `set_dof`, `set_node` and `clamp_nodes` calls — ascending, descending,
//! interleaved, or overwriting DoFs already set — leaves the two agreeing
//! on `len`, `value`, `iter` and `free_dofs`.

use std::collections::BTreeMap;

use morestress_fem::DirichletBcs;
use proptest::prelude::*;

/// Nodes the generated calls touch: DoFs `0..3·NODES`.
const NODES: usize = 24;

#[derive(Debug, Clone)]
enum Call {
    Dof(usize, f64),
    Node(usize, [f64; 3]),
    Clamp(Vec<usize>),
}

impl Call {
    /// The smallest DoF the call sets — the key the ordered sequences sort
    /// by.
    fn first_dof(&self) -> usize {
        match self {
            Call::Dof(dof, _) => *dof,
            Call::Node(node, _) => 3 * node,
            Call::Clamp(nodes) => 3 * nodes.iter().min().expect("non-empty clamp"),
        }
    }

    /// The same call with every value replaced (a clamp stays a clamp, so
    /// it re-clamps DoFs other calls may have set to nonzero values).
    fn overwritten(&self) -> Self {
        match self {
            Call::Dof(dof, v) => Call::Dof(*dof, -2.0 * v - 1.0),
            Call::Node(node, v) => Call::Node(*node, v.map(|x| 0.5 * x + 3.0)),
            Call::Clamp(nodes) => Call::Clamp(nodes.clone()),
        }
    }
}

fn apply(call: &Call, bcs: &mut DirichletBcs, oracle: &mut BTreeMap<usize, f64>) {
    match call {
        Call::Dof(dof, v) => {
            bcs.set_dof(*dof, *v);
            oracle.insert(*dof, *v);
        }
        Call::Node(node, v) => {
            bcs.set_node(*node, *v);
            for (c, &x) in v.iter().enumerate() {
                oracle.insert(3 * node + c, x);
            }
        }
        Call::Clamp(nodes) => {
            bcs.clamp_nodes(nodes);
            for &node in nodes {
                for c in 0..3 {
                    oracle.insert(3 * node + c, 0.0);
                }
            }
        }
    }
}

/// Every observable of `bcs` equals the oracle's, bit for bit, including
/// `free_dofs` of systems that end before, inside and past the constrained
/// range.
fn assert_agrees(label: &str, bcs: &DirichletBcs, oracle: &BTreeMap<usize, f64>) {
    assert_eq!(bcs.len(), oracle.len(), "{label}: len");
    assert_eq!(bcs.is_empty(), oracle.is_empty(), "{label}: is_empty");
    for dof in 0..3 * NODES + 3 {
        assert_eq!(
            bcs.value(dof).map(f64::to_bits),
            oracle.get(&dof).map(|v| v.to_bits()),
            "{label}: value({dof})"
        );
    }
    let iter: Vec<(usize, u64)> = bcs.iter().map(|(d, v)| (d, v.to_bits())).collect();
    let expect: Vec<(usize, u64)> = oracle.iter().map(|(&d, v)| (d, v.to_bits())).collect();
    assert_eq!(iter, expect, "{label}: iter");
    for ndof in [0, 1, 3 * NODES / 2, 3 * NODES, 3 * NODES + 5] {
        let free: Vec<usize> = (0..ndof).filter(|d| !oracle.contains_key(d)).collect();
        assert_eq!(bcs.free_dofs(ndof), free, "{label}: free_dofs({ndof})");
    }
}

fn call_strategy() -> impl Strategy<Value = Call> {
    (
        0usize..3,
        0usize..NODES,
        -1.0f64..1.0,
        prop::collection::vec(0usize..NODES, 1..5),
    )
        .prop_map(|(kind, node, v, nodes)| match kind {
            0 => Call::Dof(3 * node + (nodes[0] % 3), v),
            1 => Call::Node(node, [v, -v, 0.25 * v]),
            _ => Call::Clamp(nodes),
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Order 0 ascending, 1 descending, 2 interleaved (as drawn), 3 as
    /// drawn and then every call again with new values.
    #[test]
    fn flat_constraints_match_the_btreemap_oracle(
        order in 0usize..4,
        calls in prop::collection::vec(call_strategy(), 0..40),
    ) {
        let mut calls = calls;
        match order {
            0 => calls.sort_by_key(Call::first_dof),
            1 => calls.sort_by_key(|call| std::cmp::Reverse(call.first_dof())),
            2 => {}
            _ => {
                let again: Vec<Call> = calls.iter().map(Call::overwritten).collect();
                calls.extend(again);
            }
        }
        let mut bcs = DirichletBcs::new();
        let mut oracle = BTreeMap::new();
        for (i, call) in calls.iter().enumerate() {
            apply(call, &mut bcs, &mut oracle);
            if i % 7 == 0 {
                assert_agrees(&format!("order {order}, after call {i}"), &bcs, &oracle);
            }
        }
        assert_agrees(&format!("order {order}, final"), &bcs, &oracle);
    }
}

/// The chiplet model's 3-2-1 pin pattern — a whole node, two components
/// of a second, one of a third — in every order of the three corners.
#[test]
fn three_two_one_pins_match_the_oracle() {
    for [a, b, c] in [[0, 7, 19], [19, 0, 7], [7, 19, 0], [19, 7, 0]] {
        let calls = [
            Call::Node(a, [0.0; 3]),
            Call::Dof(3 * b + 1, 0.0),
            Call::Dof(3 * b + 2, 0.0),
            Call::Dof(3 * c + 2, 0.0),
        ];
        let mut bcs = DirichletBcs::new();
        let mut oracle = BTreeMap::new();
        for call in &calls {
            apply(call, &mut bcs, &mut oracle);
        }
        assert_eq!(bcs.len(), 6);
        assert_agrees(&format!("corners {a}, {b}, {c}"), &bcs, &oracle);
    }
}
