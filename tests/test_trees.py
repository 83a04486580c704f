import os
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import dynkin
from dynkin.trees import (
    NEVER,
    NEVER_RULE,
    Node,
    ScenarioTree,
    StoppingRule,
    canonicalize_rule,
    leaf_stop_nodes,
    leaf_stop_times,
    min_of_rules,
    stop_everywhere_at,
    validate_tree,
)
from gens import (
    chain_block_trees,
    full_binary_tree,
    linked_trees,
    path_process,
    scenario_trees,
    single_path_tree,
    thirds_and_sevenths,
    tree_with_flags,
    tree_with_process,
)
from snell_reference import one_step_expectation
from trees_reference import (
    children_table,
    expectation_under_rule,
    path_probability,
    path_to,
    reference_validate_tree,
    stop_node,
    stop_time,
)


def ancestor_walk_canonical(tree, flags):
    """Reference canonical form: keep each flag unless one of its strict
    ancestors is flagged, found by walking the parent links."""
    by_id = {node.id: node for node in tree.nodes}
    kept = set()
    for node_id in flags:
        node = by_id[node_id]
        while node.parent is not None:
            node = by_id[node.parent]
            if node.id in flags:
                break
        else:
            kept.add(node_id)
    return StoppingRule(frozenset(kept))


def test_validate_single_path_ok():
    assert validate_tree(single_path_tree(2)) == []


def test_validate_sibling_probs_must_sum_to_one():
    nodes = (
        Node(0, 0, None, Fraction(1)),
        Node(1, 1, 0, Fraction(1, 2)),
        Node(2, 1, 0, Fraction(1, 3)),
    )
    violations = validate_tree(ScenarioTree(nodes))
    assert len(violations) == 1
    assert "sum to 5/6" in violations[0]


@pytest.mark.parametrize(
    "probs,total", [(("1/2", "1/3"), "5/6"), (("1/2", "1/2", "1/3"), "4/3")]
)
def test_validate_reports_sibling_sums_off_one(probs, total):
    nodes = (Node(0, 0, None, Fraction(1)),) + tuple(
        Node(k, 1, 0, Fraction(p)) for k, p in enumerate(probs, start=1)
    )
    assert validate_tree(ScenarioTree(nodes)) == [
        f"node 0: children probabilities sum to {total}, expected 1"
    ]


def test_validate_four_level_binary_ok():
    assert validate_tree(full_binary_tree(3)) == []


def test_validate_catches_structural_breakage():
    ragged = ScenarioTree(
        (
            Node(0, 0, None, Fraction(1)),
            Node(1, 1, 0, Fraction(1, 2)),
            Node(2, 1, 0, Fraction(1, 2)),
            Node(3, 2, 1, Fraction(1)),  # node 2 stays a leaf at time 1
        )
    )
    assert any("uniform depth" in v for v in validate_tree(ragged))

    orphan = ScenarioTree((Node(0, 0, None, Fraction(1)), Node(1, 1, 7, Fraction(1))))
    assert any("parent 7 does not exist" in v for v in validate_tree(orphan))

    two_roots = ScenarioTree((Node(0, 0, None, Fraction(1)), Node(1, 0, None, Fraction(1))))
    assert any("roots" in v for v in validate_tree(two_roots))

    late_root = ScenarioTree((Node(0, 1, None, Fraction(1)),))
    assert any("root time" in v for v in validate_tree(late_root))

    dup = ScenarioTree((Node(0, 0, None, Fraction(1)), Node(0, 0, None, Fraction(1))))
    assert any("duplicate id" in v for v in validate_tree(dup))


def _descendants(tree, node_id):
    """Ids reachable down the child links, each once, cycles included."""
    kids = children_table(tree)
    below, stack = set(), [node_id]
    while stack:
        for kid in kids[stack.pop()]:
            if kid.id not in below:
                below.add(kid.id)
                stack.append(kid.id)
    return sorted(below)


@st.composite
def broken_trees(draw):
    """A valid tree, then up to three of: a branch probability off by one
    unit, all of a node's probability or more moved to a sibling (the sum
    stays 1), a time shifted, a leaf cut off, a root probability other
    than 1, a duplicate id, an orphan, a cycle through unique ids and a
    cycle closed by a duplicate of the root's id."""
    tree = draw(st.one_of(scenario_trees(), thirds_and_sevenths(), linked_trees()))
    nodes = list(tree.nodes)
    for _ in range(draw(st.integers(0, 3))):
        current = ScenarioTree(tuple(nodes))
        k = draw(st.integers(0, len(nodes) - 1))
        node = nodes[k]
        kind = draw(st.sampled_from(
            ["prob", "move", "time", "cut", "root", "duplicate", "orphan", "cycle", "closing"]
        ))
        siblings = [i for i, n in enumerate(nodes) if n.parent == node.parent and i != k]
        if kind == "prob":
            unit = Fraction(1, node.branch_prob.denominator * draw(st.sampled_from([1, 2, 3])))
            nodes[k] = node._replace(branch_prob=node.branch_prob + draw(st.sampled_from([unit, -unit])))
        elif kind == "move" and siblings:
            moved = node.branch_prob * draw(st.sampled_from([1, 2]))
            j = draw(st.sampled_from(siblings))
            nodes[k] = node._replace(branch_prob=node.branch_prob - moved)
            nodes[j] = nodes[j]._replace(branch_prob=nodes[j].branch_prob + moved)
        elif kind == "time":
            nodes[k] = node._replace(time=node.time + draw(st.sampled_from([-2, -1, 1, 2])))
        elif kind == "cut":
            leaves = [n for n in nodes if not children_table(current)[n.id]]
            if 0 < len(leaves) < len(nodes):
                nodes.remove(draw(st.sampled_from(leaves)))
        elif kind == "root":
            nodes[0] = nodes[0]._replace(branch_prob=draw(
                st.sampled_from([Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(-1)])
            ))
        elif kind == "duplicate":
            nodes[k] = node._replace(id=draw(st.sampled_from(nodes)).id)
        elif kind == "orphan":
            nodes[k] = node._replace(parent=max(n.id for n in nodes) + 1)
        elif kind == "cycle":
            nodes[k] = node._replace(parent=draw(st.sampled_from(
                [node.id, *_descendants(current, node.id)]
            )))
        else:
            leaves = [n for n in nodes if not children_table(current)[n.id]]
            leaf = draw(st.sampled_from(leaves or nodes))
            nodes.append(Node(nodes[0].id, leaf.time + 1, leaf.id, Fraction(1)))
    return ScenarioTree(tuple(nodes))


@settings(max_examples=400, deadline=None)
@given(broken_trees())
def test_validate_tree_agrees_with_the_node_order_reference(tree):
    assert validate_tree(tree) == reference_validate_tree(tree)


def test_index_of_a_cycle_closed_by_duplicate_ids_raises():
    # a breadth-first pass that trusted the ids would grow without end, so
    # the check runs in a child process with its memory and time bounded
    code = textwrap.dedent(
        """
        import resource
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
        from dynkin.trees import Node, ScenarioTree
        tree = ScenarioTree((Node(0, 0, None, 1), Node(1, 1, 0, 1), Node(0, 2, 1, 1)))
        try:
            tree.index
        except ValueError as exc:
            print(exc)
        """
    )
    env = dict(os.environ, PYTHONPATH=str(Path(dynkin.__file__).resolve().parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=30
    )
    assert done.returncode == 0, done.stderr[-500:]
    assert done.stdout == "tree ids are not unique or not all linked to the root\n"


@settings(max_examples=100, deadline=None)
@given(thirds_and_sevenths())
def test_unit_sibling_sums_imply_unit_leaf_mass(tree):
    # why validate_tree checks no leaf mass: the sibling sums already fix it
    assert not any("children probabilities" in v for v in validate_tree(tree))
    index = tree.index
    scale = index.scale[0]
    weights = [index.weight[index.position[leaf.id]] for leaf in index.leaves]
    assert all(w.denominator == 1 for w in weights)
    assert sum(weights) == scale
    # each weight is the leaf's path probability, a product of branch
    # probabilities, times scale[0]
    for leaf, w in zip(index.leaves, weights):
        prob = Fraction(1)
        for node in path_to(tree, leaf.id):
            prob *= node.branch_prob
        assert w == prob * scale


def chain_end_from_the_parent_links(tree):
    """``TreeIndex.chain_end`` read from the children counts of the parent
    links: stage ``t`` is a chain stage when each of its nodes has exactly
    one child."""
    kids = children_table(tree)
    horizon = max(node.time for node in tree.nodes)
    single = [
        all(len(kids[node.id]) == 1 for node in tree.nodes if node.time == t)
        for t in range(horizon + 1)
    ]
    return tuple(
        next(end for end in range(t, horizon + 1) if not single[end])
        for t in range(horizon + 1)
    )


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        scenario_trees(max_depth=5, max_nodes=24),
        chain_block_trees().map(lambda tree_columns: tree_columns[0]),
        linked_trees(),
    )
)
def test_chain_end_follows_the_children_counts(tree):
    assert tree.index.chain_end == chain_end_from_the_parent_links(tree)


def test_a_leaf_above_the_horizon_makes_no_chain_stage():
    # stage 1 is as wide as stage 2, but node 1 is a leaf and node 2 splits
    half = Fraction(1, 2)
    tree = ScenarioTree(
        (
            Node(0, 0, None, Fraction(1)),
            Node(1, 1, 0, half),
            Node(2, 1, 0, half),
            Node(3, 2, 2, half),
            Node(4, 2, 2, half),
        )
    )
    assert validate_tree(tree)  # the leaf is above the horizon
    assert tree.index.chain_end == (0, 1, 2)


def test_one_step_expectation_single_child():
    tree = single_path_tree(1)
    process = path_process(tree, 0, "1/2")
    assert one_step_expectation(tree, process, 0) == Fraction(1, 2)


def test_one_step_expectation_even_split():
    tree = full_binary_tree(1)
    process = {0: Fraction(0), 1: Fraction(1), 2: Fraction(1, 2)}
    assert one_step_expectation(tree, process, 0) == Fraction(3, 4)


def test_one_step_expectation_weighted():
    nodes = (
        Node(0, 0, None, Fraction(1)),
        Node(1, 1, 0, Fraction(1, 4)),
        Node(2, 1, 0, Fraction(3, 4)),
    )
    tree = ScenarioTree(nodes)
    process = {0: Fraction(0), 1: Fraction(0), 2: Fraction(1)}
    assert one_step_expectation(tree, process, 0) == Fraction(3, 4)


def test_one_step_expectation_rejects_leaf():
    tree = single_path_tree(1)
    with pytest.raises(ValueError, match="no successor stage"):
        one_step_expectation(tree, path_process(tree, 0, 0), 1)


def test_expectation_under_rule_immediate_stop():
    tree = single_path_tree(2)
    process = path_process(tree, "1/8", "1/2", 0)
    assert expectation_under_rule(tree, process, StoppingRule(frozenset({0}))) == Fraction(1, 8)


def test_expectation_under_rule_stage_one():
    tree = single_path_tree(2)
    process = path_process(tree, "1/8", "1/2", 0)
    rule = StoppingRule(frozenset({1}))
    assert expectation_under_rule(tree, process, rule) == Fraction(1, 2)


def test_expectation_under_rule_never_uses_leaf_values():
    tree = full_binary_tree(1)
    process = {0: Fraction(7), 1: Fraction(1), 2: Fraction(0)}
    assert expectation_under_rule(tree, process, NEVER_RULE) == Fraction(1, 2)


def test_expectation_under_rule_rejects_foreign_nodes():
    tree = single_path_tree(1)
    with pytest.raises(ValueError, match="not in tree"):
        expectation_under_rule(tree, path_process(tree, 0, 0), StoppingRule(frozenset({9})))


@settings(max_examples=50, deadline=None)
@given(tree_with_process())
def test_expectation_under_rule_matches_path_enumeration(tp):
    tree, process = tp
    ids = sorted(n.id for n in tree.nodes)
    rule = canonicalize_rule(tree, set(ids[::2]))
    # oracle: explicit product of branch probabilities, first flagged node wins
    total = Fraction(0)
    for leaf in tree.leaves:
        prob = Fraction(1)
        value = None
        for node in path_to(tree, leaf.id):
            prob *= node.branch_prob
            if value is None and node.id in rule.stop_set:
                value = process[node.id]
        if value is None:
            value = process[leaf.id]
        total += prob * value
    assert expectation_under_rule(tree, process, rule) == total
    # the same sum from the index: first stops by leaf range, integer weights
    index = tree.index
    assert total == sum(
        Fraction(index.weight[index.position[leaf.id]], index.scale[0])
        * process[leaf.id if stop is None else stop.id]
        for leaf, stop in zip(tree.leaves, leaf_stop_nodes(tree, rule))
    )


def test_canonicalize_root_dominates_everything():
    tree = single_path_tree(2)
    assert canonicalize_rule(tree, {0, 2}).stop_set == frozenset({0})


def test_canonicalize_fixpoint_on_antichain():
    tree = full_binary_tree(1)
    assert canonicalize_rule(tree, {1, 2}).stop_set == frozenset({1, 2})


def test_canonicalize_prunes_descendants_only():
    tree = full_binary_tree(2)
    child_of_1 = children_table(tree)[1][0].id
    assert canonicalize_rule(tree, {1, child_of_1, 2}).stop_set == frozenset({1, 2})


def test_canonicalize_rejects_unknown_nodes():
    with pytest.raises(ValueError, match="unknown node ids"):
        canonicalize_rule(single_path_tree(1), {42})


@settings(max_examples=50, deadline=None)
@given(tree_with_flags())
def test_canonicalize_idempotent_and_time_preserving(tf):
    tree, flags = tf
    rule = canonicalize_rule(tree, flags)
    again = canonicalize_rule(tree, rule.stop_set)
    assert again == rule
    for leaf in tree.leaves:
        naive = NEVER
        for node in path_to(tree, leaf.id):
            if node.id in flags:
                naive = node.time
                break
        assert stop_time(tree, rule, leaf.id) == naive


def test_min_never_is_neutral():
    tree = single_path_tree(2)
    stop1 = stop_everywhere_at(tree, 1)
    assert min_of_rules(tree, [NEVER_RULE, stop1]) == stop1


def test_min_root_is_absorbing():
    tree = full_binary_tree(2)
    root = StoppingRule(frozenset({0}))
    other = stop_everywhere_at(tree, 2)
    assert min_of_rules(tree, [root, other]) == root


def test_min_pointwise_on_single_path():
    tree = single_path_tree(2)
    assert min_of_rules(
        tree, [stop_everywhere_at(tree, 2), stop_everywhere_at(tree, 1)]
    ) == stop_everywhere_at(tree, 1)


def test_min_of_rules_rejects_empty():
    with pytest.raises(ValueError):
        min_of_rules(single_path_tree(1), [])


def test_min_of_rules_rejects_unknown_nodes():
    # the unknown ids of all the rules, sorted, in one message
    tree = full_binary_tree(2)
    rules = [StoppingRule(frozenset({1, 43})), NEVER_RULE, StoppingRule(frozenset({42, 2}))]
    with pytest.raises(ValueError, match=r"^rule references nodes not in tree: \[42, 43\]$"):
        min_of_rules(tree, rules)


@settings(max_examples=50, deadline=None)
@given(tree_with_flags(), tree_with_flags())
def test_min_of_rules_is_pointwise_min_and_commutes(tf_a, tf_b):
    tree, flags_a = tf_a
    _, flags_b = tf_b
    flags_b = {f for f in flags_b if f in tree}
    a = canonicalize_rule(tree, flags_a)
    b = canonicalize_rule(tree, flags_b)
    ab = min_of_rules(tree, [a, b])
    assert ab == min_of_rules(tree, [b, a])
    assert min_of_rules(tree, [a, b, NEVER_RULE]) == ab
    assert min_of_rules(tree, [min_of_rules(tree, [a, b]), b]) == ab  # idempotent fold
    for leaf in tree.leaves:
        assert stop_time(tree, ab, leaf.id) == min(
            stop_time(tree, a, leaf.id), stop_time(tree, b, leaf.id)
        )


@settings(max_examples=50, deadline=None)
@given(scenario_trees())
def test_generated_trees_validate_and_paths_sum_to_one(tree):
    assert validate_tree(tree) == []
    assert sum(path_probability(tree, l.id) for l in tree.leaves) == 1


@settings(max_examples=100, deadline=None)
@given(tree_with_flags())
def test_leaf_stop_nodes_match_the_root_walks(tf):
    tree, flags = tf
    for rule in (canonicalize_rule(tree, flags), StoppingRule(frozenset(flags))):
        assert leaf_stop_nodes(tree, rule) == [
            stop_node(tree, rule, leaf.id) for leaf in tree.leaves
        ]


def test_stop_everywhere_at_rejects_stages_outside_the_tree():
    tree = full_binary_tree(2)
    assert stop_everywhere_at(tree, 0) == StoppingRule(frozenset({0}))
    for time in (-1, 3):
        with pytest.raises(ValueError, match=f"no nodes at time {time}"):
            stop_everywhere_at(tree, time)


@settings(max_examples=100, deadline=None)
@given(tree_with_flags())
def test_canonicalize_equals_the_ancestor_walk(tf):
    tree, flags = tf
    reference = ancestor_walk_canonical(tree, flags)
    assert canonicalize_rule(tree, flags) == reference
    assert canonicalize_rule(tree, reference.stop_set) == reference


@settings(max_examples=100, deadline=None)
@given(linked_trees(), st.data())
def test_leaf_ranges_hold_on_trees_of_any_shape(tree, data):
    index = tree.index
    count = len(index.leaves)
    assert sorted(index.leaf_rank) == list(range(count))
    by_rank = [None] * count
    for leaf, rank in zip(index.leaves, index.leaf_rank):
        by_rank[rank] = leaf.id
    for pos, node in enumerate(index.nodes):
        below = {
            leaf.id
            for leaf in index.leaves
            if node.id in {n.id for n in path_to(tree, leaf.id)}
        }
        assert set(by_rank[index.leaf_lo[pos] : index.leaf_hi[pos]]) == below
        assert index.leaf_hi[pos] - index.leaf_lo[pos] == len(below)

    flags = data.draw(st.sets(st.sampled_from([n.id for n in tree.nodes])))
    rule = canonicalize_rule(tree, flags)
    assert rule == ancestor_walk_canonical(tree, flags)
    for candidate in (rule, StoppingRule(frozenset(flags))):
        assert leaf_stop_nodes(tree, candidate) == [
            stop_node(tree, candidate, leaf.id) for leaf in tree.leaves
        ]
    times = dict(zip((leaf.id for leaf in tree.leaves), leaf_stop_times(tree, rule)))
    assert times == {leaf.id: stop_time(tree, rule, leaf.id) for leaf in tree.leaves}


@settings(max_examples=200, deadline=None)
@given(scenario_trees(max_depth=4, max_nodes=20), st.data())
def test_min_of_two_rules_moves_the_first_iff_it_stops_later_somewhere(tree, data):
    # the sweep's round check: on canonical rules min(a, b) != a exactly
    # when a stops after b on some leaf
    ids = [node.id for node in tree.nodes]
    b = canonicalize_rule(tree, data.draw(st.sets(st.sampled_from(ids))))
    flags = data.draw(st.sets(st.sampled_from(ids)))
    # half the time a adds flags to b, so it stops no later anywhere
    a = canonicalize_rule(tree, b.stop_set | flags if data.draw(st.booleans()) else flags)
    later = any(stop_time(tree, a, l.id) > stop_time(tree, b, l.id) for l in tree.leaves)
    assert (min_of_rules(tree, [a, b]) != a) == later


def test_leaf_stop_nodes_rejects_unknown_nodes():
    tree = full_binary_tree(2)
    with pytest.raises(ValueError, match=r"rule references nodes not in tree: \[42, 43\]"):
        leaf_stop_nodes(tree, StoppingRule(frozenset({1, 43, 42})))
