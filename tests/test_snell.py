from fractions import Fraction
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from dynkin.snell import integer_snell
from dynkin.trees import Node, ScenarioTree
from dynkin.verify import enumerate_rules
from gens import (
    chain_block_trees,
    path_process,
    rationals,
    scenario_trees,
    single_path_tree,
    tree_with_process,
)
from snell_reference import (
    eps_optimal_rule,
    is_supermartingale_dominating,
    kernel_input,
    one_step_expectation,
    optimal_value,
    scaled_values,
    snell_envelope,
    solve_stopping,
)
from trees_reference import children_table, expectation_under_rule, path_to, stop_node, stop_time

KERNEL_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 97)


def test_envelope_single_path_small_peak():
    tree = single_path_tree(2)
    reward = path_process(tree, "1/8", "1/2", 0)
    envelope = snell_envelope(tree, reward)
    assert [envelope[t] for t in range(3)] == [Fraction(1, 2), Fraction(1, 2), 0]


def test_envelope_single_path_tall_peak():
    tree = single_path_tree(2)
    reward = path_process(tree, "1/8", "3/2", 0)
    envelope = snell_envelope(tree, reward)
    assert [envelope[t] for t in range(3)] == [Fraction(3, 2), Fraction(3, 2), 0]


def test_envelope_of_constant_reward_is_constant():
    tree = single_path_tree(3)
    reward = path_process(tree, "2/3", "2/3", "2/3", "2/3")
    envelope = snell_envelope(tree, reward)
    assert all(envelope[t] == Fraction(2, 3) for t in range(4))


def test_eps_rule_waits_for_small_epsilon():
    tree = single_path_tree(2)
    reward = path_process(tree, "1/8", "1/2", 0)
    envelope = snell_envelope(tree, reward)
    rule = eps_optimal_rule(tree, reward, envelope, Fraction(1, 4))
    assert rule.stop_set == frozenset({1})


def test_eps_rule_stops_at_root_when_epsilon_dominates():
    tree = single_path_tree(2)
    reward = path_process(tree, "1/8", "1/2", 0)
    envelope = snell_envelope(tree, reward)
    assert eps_optimal_rule(tree, reward, envelope, Fraction(10)).stop_set == frozenset({0})
    # the root gap is exactly 3/8, and ties stop
    assert eps_optimal_rule(tree, reward, envelope, Fraction(1, 2)).stop_set == frozenset({0})
    assert eps_optimal_rule(tree, reward, envelope, Fraction(3, 8)).stop_set == frozenset({0})


def test_eps_rule_rejects_negative_epsilon():
    tree = single_path_tree(1)
    reward = path_process(tree, 0, 0)
    envelope = snell_envelope(tree, reward)
    with pytest.raises(ValueError, match="epsilon"):
        eps_optimal_rule(tree, reward, envelope, Fraction(-1, 2))


def test_optimal_value_examples():
    tree = single_path_tree(2)
    assert optimal_value(tree, path_process(tree, "1/8", "1/2", 0)) == Fraction(1, 2)
    assert optimal_value(tree, path_process(tree, "1/3", "1/3", "1/3")) == Fraction(1, 3)


@settings(max_examples=40, deadline=None)
@given(tree_with_process())
def test_optimal_value_equals_enumeration_max(tp):
    tree, reward = tp
    best = max(
        expectation_under_rule(tree, reward, rule) for rule in enumerate_rules(tree)
    )
    assert optimal_value(tree, reward) == best


@settings(max_examples=40, deadline=None)
@given(tree_with_process())
def test_envelope_dominates_and_is_supermartingale(tp):
    tree, reward = tp
    envelope = snell_envelope(tree, reward)
    assert is_supermartingale_dominating(tree, envelope, reward)
    kids = children_table(tree)
    for node in tree.nodes:
        if kids[node.id]:
            continuation = one_step_expectation(tree, envelope, node.id)
            if envelope[node.id] > reward[node.id]:
                assert envelope[node.id] == continuation


@settings(max_examples=40, deadline=None)
@given(tree_with_process())
def test_envelope_is_minimal_among_dominating_supermartingales(tp):
    tree, reward = tp
    envelope = snell_envelope(tree, reward)
    # lowering the envelope anywhere breaks domination or the supermartingale
    # one-step inequality somewhere
    for node in tree.nodes:
        lowered = dict(envelope)
        lowered[node.id] -= Fraction(1, 16)
        assert not is_supermartingale_dominating(tree, lowered, reward)


@settings(max_examples=40, deadline=None)
@given(tree_with_process())
def test_eps_rule_loses_at_most_eps(tp):
    tree, reward = tp
    result_value = optimal_value(tree, reward)
    envelope = snell_envelope(tree, reward)
    for epsilon in (Fraction(0), Fraction(1, 7), Fraction(1, 2)):
        rule = eps_optimal_rule(tree, reward, envelope, epsilon)
        assert rule.stop_set
        for leaf in tree.leaves:
            assert stop_time(tree, rule, leaf.id) <= tree.horizon
        achieved = expectation_under_rule(tree, reward, rule)
        assert Fraction(0) <= result_value - achieved <= epsilon


@settings(max_examples=40, deadline=None)
@given(tree_with_process())
def test_envelope_is_martingale_before_the_stop(tp):
    tree, reward = tp
    result = solve_stopping(tree, reward, Fraction(1, 7))
    for leaf in tree.leaves:
        stop = stop_node(tree, result.eps_rule, leaf.id)
        assert stop is not None
        for node in path_to(tree, leaf.id):
            if node.time >= stop.time:
                break
            assert result.envelope[node.id] == one_step_expectation(
                tree, result.envelope, node.id
            )


def test_zero_epsilon_rule_is_exactly_optimal():
    tree = single_path_tree(3)
    reward = path_process(tree, "-1", "1/4", "3/4", "1/2")
    result = solve_stopping(tree, reward, Fraction(0))
    assert expectation_under_rule(tree, reward, result.eps_rule) == result.value
    assert result.eps_rule.stop_set == frozenset({2})


def assert_kernel_matches_reference(tree, reward, epsilon):
    envelope = snell_envelope(tree, reward)
    u, d = kernel_input(tree, reward, epsilon)
    scaled, rule = integer_snell(tree, u, d, frozenset(), epsilon)
    assert scaled_values(tree, scaled, d) == envelope
    assert rule == eps_optimal_rule(tree, reward, envelope, epsilon)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_kernel_equals_fraction_reference(data):
    tree = data.draw(scenario_trees(max_depth=4, max_nodes=20, max_weight=9))
    reward = {
        node.id: data.draw(rationals(denominators=KERNEL_DENOMINATORS))
        for node in tree.nodes
    }
    envelope = snell_envelope(tree, reward)
    # the tree's own margins put ties exactly at epsilon, and ties stop
    margins = sorted({envelope[n.id] - reward[n.id] for n in tree.nodes})
    epsilon = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), *margins]))
    assert_kernel_matches_reference(tree, reward, epsilon)


def assert_frozen_kernel_matches_reference(data, tree, flags):
    """U is held constant strictly below the antichain of the first
    ``flags`` positions on each path, while the kernel input carries
    unrelated values there; epsilon is 0, 1/3 or one of the tree's own
    margins, so ties sit exactly at epsilon.  The kernel's W equals the
    reference at every node, its input is left as it was strictly below a
    frozen position, and its rule equals the reference's."""
    index = tree.index
    n = len(index.nodes)
    below = [False] * n  # strictly below a frozen position
    frozen = set()
    parent = [index.position.get(node.parent) for node in index.nodes]  # None at the root
    for pos, up in enumerate(parent):  # parents before children
        below[pos] = up is not None and (below[up] or up in frozen)
        if pos in flags and not below[pos]:
            frozen.add(pos)
    raw = [data.draw(rationals(denominators=KERNEL_DENOMINATORS)) for _ in range(n)]
    held = list(raw)
    for pos in range(n):
        if below[pos]:
            held[pos] = held[parent[pos]]
    ids = [node.id for node in index.nodes]
    reward = dict(zip(ids, held))
    envelope = snell_envelope(tree, reward)
    margins = sorted({envelope[i] - reward[i] for i in ids})
    epsilon = data.draw(st.sampled_from([Fraction(0), Fraction(1, 3), *margins]))
    u, d = kernel_input(tree, dict(zip(ids, raw)), epsilon)
    scaled, rule = integer_snell(tree, u, d, frozenset(frozen), epsilon)
    assert scaled_values(tree, scaled, d, frozenset(frozen)) == envelope
    assert [w for w, low in zip(scaled, below) if low] == [x for x, low in zip(u, below) if low]
    assert rule == eps_optimal_rule(tree, reward, envelope, epsilon)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_integer_kernel_with_frozen_positions_equals_fraction_reference(data):
    """A sweep step's shape.  Fanout 1..3 puts one-child nodes beside split
    ones on a stage, so a one-child node's ``unit`` is often that stage's
    lcm rather than 1."""
    tree = data.draw(scenario_trees(max_depth=4, max_nodes=20, max_weight=9))
    flags = data.draw(st.sets(st.integers(0, len(tree.nodes) - 1)))
    assert_frozen_kernel_matches_reference(data, tree, flags)


@settings(max_examples=300, deadline=None)
@given(chain_block_trees(), st.data())
def test_integer_kernel_on_chain_blocks_equals_fraction_reference(tree_columns, data):
    """Columns of single-child stages, frozen at a column's top, in mid
    column, at the block's last stage or at the column's end, besides
    frozen positions anywhere; the first frozen position on a path wins."""
    tree, columns = tree_columns
    position = tree.index.position
    flags = set(data.draw(st.sets(st.integers(0, len(tree.nodes) - 1), max_size=3)))
    for column in columns:
        last = len(column) - 2  # the block's last stage, above the column's end
        where = data.draw(st.sampled_from([None, 0, "mid", last, last + 1]))
        if where == "mid":
            where = data.draw(st.integers(1, max(1, last - 1)))
        if where is not None:
            flags.add(position[column[where]])
    assert_frozen_kernel_matches_reference(data, tree, flags)


def test_integer_kernel_on_a_deep_path_with_thirds_near_the_root():
    """200 stages; each of the first 20 spine nodes sends 1/3 on along the
    spine and 2/3 into a chain of its own, so the stage-0 scale is 3**20."""
    horizon, branching = 200, 20
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    frontier = [0]
    for t in range(1, horizon + 1):
        new = []
        for k, parent in enumerate(frontier):
            split = t <= branching and k == 0  # only the spine branches
            for prob in (Fraction(1, 3), Fraction(2, 3)) if split else (Fraction(1),):
                nodes.append(Node(id=len(nodes), time=t, parent=parent, branch_prob=prob))
                new.append(len(nodes) - 1)
        frontier = new
    tree = ScenarioTree(tuple(nodes))
    assert tree.index.scale[0] == 3**branching
    rng = Random(5)
    reward = {
        node.id: Fraction(rng.randint(-400, 400), rng.choice(KERNEL_DENOMINATORS))
        for node in tree.nodes
    }
    envelope = snell_envelope(tree, reward)
    margin = envelope[0] - reward[0]
    for epsilon in (Fraction(0), Fraction(1, 3), margin):
        assert_kernel_matches_reference(tree, reward, epsilon)
