"""Reference tree code that only the tests use.

Everything here reads a tree's parent links, never its index, so the
tests can hold the index-based kernels of :mod:`dynkin.trees` to it:

* :func:`reference_validate_tree` is the node-by-node routine
  :func:`dynkin.trees.validate_tree` ran before it decided validity from
  the tree index; it also words the errors of trees whose index cannot be
  built.
* :func:`root_paths` and :func:`path_to` walk from a node up to the root;
  :func:`stop_node`, :func:`stop_time`, :func:`path_probability` and
  :func:`expectation_under_rule` answer one path at a time from those
  walks, and :class:`RootWalks` keeps one tree's walks for many rules.
"""

from __future__ import annotations

import math
from fractions import Fraction

from dynkin.trees import NEVER, AdaptedProcess, Node, NodeId, ScenarioTree, Stage, StoppingRule


def children_table(tree: ScenarioTree) -> dict[NodeId, list[Node]]:
    """Each id's child nodes, in ``tree.nodes`` order, read from the parent
    links of any tree, malformed ones included: a duplicated id gathers
    the children of all its nodes, and a missing parent gathers none."""
    kids: dict[NodeId, list[Node]] = {node.id: [] for node in tree.nodes}
    for node in tree.nodes:
        if node.parent is not None and node.parent in kids:
            kids[node.parent].append(node)
    return kids


def root_node(tree: ScenarioTree) -> Node:
    """The one node without a parent."""
    (root,) = [node for node in tree.nodes if node.parent is None]
    return root


def root_paths(tree: ScenarioTree) -> dict[NodeId, tuple[Node, ...]]:
    """Every node's path from the root down to it, inclusive, found by
    walking its parent links up to the root (or to a node already walked)."""
    by_id = {node.id: node for node in tree.nodes}
    paths: dict[NodeId, tuple[Node, ...]] = {}
    for node in tree.nodes:
        climb = []
        while node.id not in paths:
            climb.append(node)
            if node.parent is None:
                path: tuple[Node, ...] = ()
                break
            node = by_id[node.parent]
        else:
            path = paths[node.id]
        for below in reversed(climb):
            path += (below,)
            paths[below.id] = path
    return paths


def path_to(tree: ScenarioTree, node_id: NodeId) -> tuple[Node, ...]:
    """Nodes from the root down to ``node_id``, inclusive."""
    return root_paths(tree)[node_id]


def first_stop(path: tuple[Node, ...], rule: StoppingRule) -> Node | None:
    """The first node of ``path`` in the rule's stop set, or None."""
    for node in path:
        if node.id in rule.stop_set:
            return node
    return None


def stop_node(tree: ScenarioTree, rule: StoppingRule, leaf_id: NodeId) -> Node | None:
    """First stop node on the root path of ``leaf_id``, or None."""
    return first_stop(path_to(tree, leaf_id), rule)


def stop_time(tree: ScenarioTree, rule: StoppingRule, leaf_id: NodeId) -> Stage:
    node = stop_node(tree, rule, leaf_id)
    return NEVER if node is None else node.time


def probability(path: tuple[Node, ...]) -> Fraction:
    """The product of the branch probabilities down ``path``."""
    prob = Fraction(1)
    for node in path:
        prob *= node.branch_prob
    return prob


def path_probability(tree: ScenarioTree, node_id: NodeId) -> Fraction:
    return probability(path_to(tree, node_id))


def expectation_under_rule(
    tree: ScenarioTree, process: AdaptedProcess, rule: StoppingRule
) -> Fraction:
    """Expected process value sampled at the rule's stop node.

    Paths the rule never stops contribute the value at their leaf: values
    are treated as constant from the terminal stage on, so "never stop" and
    "stop at the horizon" pay the same.  Raises ValueError if the rule
    names nodes the tree does not have.
    """
    paths = root_paths(tree)
    unknown = sorted(i for i in rule.stop_set if i not in paths)
    if unknown:
        raise ValueError(f"rule references nodes not in tree: {unknown}")
    total = Fraction(0)
    for leaf in tree.leaves:
        path = paths[leaf.id]
        stop = first_stop(path, rule)
        total += probability(path) * process.values[leaf.id if stop is None else stop.id]
    return total


class RootWalks:
    """One tree's leaf paths and their probabilities, walked once, and each
    rule's first stop on every leaf, walked once per rule and kept."""

    def __init__(self, tree: ScenarioTree) -> None:
        paths = root_paths(tree)
        self.leaves = tree.leaves
        self.paths = [paths[leaf.id] for leaf in self.leaves]
        self.probabilities = [probability(path) for path in self.paths]
        self._stops: dict[StoppingRule, list[Node | None]] = {}

    def stop_nodes(self, rule: StoppingRule) -> list[Node | None]:
        """The rule's first stop node on every leaf, in ``tree.leaves`` order."""
        stops = self._stops.get(rule)
        if stops is None:
            stops = self._stops[rule] = [first_stop(path, rule) for path in self.paths]
        return stops


def reference_validate_tree(tree: ScenarioTree) -> list[str]:
    """Return a description of every broken tree invariant (empty if valid).

    Checked: unique ids; exactly one root at time 0 with branch probability
    1; parent links exist and advance time by one step; sibling branch
    probabilities are in (0, 1] and sum to 1; all leaves sit at the same
    terminal stage.  The leaf path probabilities then sum to 1 without a
    check of their own: each node's path probability is the sum of its
    children's, so the mass at the root passes down to the leaves.
    """
    violations: list[str] = []
    by_id: dict[NodeId, Node] = {}
    for node in tree.nodes:
        if node.id in by_id:
            violations.append(f"node {node.id}: duplicate id")
        by_id.setdefault(node.id, node)
    if not tree.nodes:
        return ["tree has no nodes"]
    kids_of = children_table(tree)

    roots = [n for n in tree.nodes if n.parent is None]
    if len(roots) != 1:
        violations.append(f"tree has {len(roots)} roots, expected exactly 1")
    else:
        root = roots[0]
        if root.time != 0:
            violations.append(f"node {root.id}: root time is {root.time}, expected 0")
        if root.branch_prob != 1:
            violations.append(
                f"node {root.id}: root branch probability is "
                f"{root.branch_prob}, expected 1"
            )

    linked = True
    for node in tree.nodes:
        if node.parent is not None:
            if node.parent not in by_id:
                violations.append(f"node {node.id}: parent {node.parent} does not exist")
                linked = False
            else:
                parent = by_id[node.parent]
                if node.time != parent.time + 1:
                    violations.append(
                        f"node {node.id}: time {node.time} is not parent time + 1"
                    )
        prob = node.branch_prob
        if not 0 < prob.numerator <= prob.denominator:
            violations.append(
                f"node {node.id}: branch probability {prob} outside (0, 1]"
            )

    # sibling sums on int: sum_k p_k == 1 iff sum_k p_k * L == L, with L
    # the lcm of the siblings' denominators
    for node in tree.nodes:
        kids = kids_of[node.id]
        if kids:
            common = math.lcm(*[k.branch_prob.denominator for k in kids])
            total = 0
            for k in kids:
                prob = k.branch_prob
                total += prob.numerator * (common // prob.denominator)
            if total != common:
                violations.append(
                    f"node {node.id}: children probabilities sum to "
                    f"{Fraction(total, common)}, expected 1"
                )

    if linked and len(roots) == 1 and not violations:
        horizon = tree.horizon
        for leaf in tree.leaves:
            if leaf.time != horizon:
                violations.append(
                    f"node {leaf.id}: leaf at time {leaf.time}, expected uniform depth {horizon}"
                )
    return violations
