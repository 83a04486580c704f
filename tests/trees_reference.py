"""Reference tree validation that only the tests use.

:func:`reference_validate_tree` is the node-by-node routine
:func:`dynkin.trees.validate_tree` ran before it decided validity from the
tree index; the tests hold the library's violation lists to it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from dynkin.trees import NodeId, ScenarioTree


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
    seen: set[NodeId] = set()
    for node in tree.nodes:
        if node.id in seen:
            violations.append(f"node {node.id}: duplicate id")
        seen.add(node.id)
    if not tree.nodes:
        return ["tree has no nodes"]

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
            if node.parent not in tree:
                violations.append(f"node {node.id}: parent {node.parent} does not exist")
                linked = False
            else:
                parent = tree.node(node.parent)
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
        kids = tree.children(node.id)
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
