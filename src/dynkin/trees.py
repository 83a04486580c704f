"""Finite filtered probability spaces as uniform-depth scenario trees.

A scenario tree carries the whole probabilistic setup: outcomes are
root-to-leaf paths, the stage-t information is "which time-t node the path
goes through", and one-step transition probabilities live on the edges.
Adapted processes attach one rational value per node; stopping rules are
antichains of nodes ("stop the first time the path hits the set").

All probabilities and values are exact ``fractions.Fraction``; nothing in
this package ever rounds.

A tree's structure is read through its :class:`TreeIndex` alone: positions,
parents, children, leaves and integer path weights.  Per-leaf questions
(where a rule first stops) read the index's depth-first leaf ranges; the
root walks that answer them one leaf at a time live in the tests, as the
reference these kernels are held to.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence

NodeId = int

# Sentinel stage for "never stops on this path".  Compares strictly greater
# than every integer stage; only ever used in stage comparisons, never in
# payoff arithmetic.
NEVER: float = math.inf

Stage = float  # an int stage or NEVER


class Node(NamedTuple):
    """One tree node: stage, parent link and conditional branch probability."""

    id: NodeId
    time: int
    parent: NodeId | None
    branch_prob: Fraction


class TreeIndex(NamedTuple):
    """Dense top-down view of a well-linked tree, built once per tree.

    Positions ``0..n-1`` list the nodes in time order (breadth first from
    the root, so every parent precedes its children and stage ``t`` is the
    slice ``stage_start[t]:stage_start[t + 1]``).  Siblings and leaves keep
    the order of ``tree.nodes``.

    The integer scales let expectations run on ``int``: with ``B_t`` the
    lcm of the branch-probability denominators of the stage-``t + 1``
    nodes, ``unit[k] = p_k * B_t`` is an integer for each stage-``t + 1``
    position ``k`` (1 at the root), and ``scale[t] = B_t * ... * B_{H-1}``
    (1 at the horizon) makes
    ``sum_k unit[k] * X(k) * scale[t + 1] == scale[t] * sum_k p_k * X(k)``
    over the children ``k`` of a stage-``t`` node.

    ``weight[p]`` is the path probability of position ``p`` times
    ``scale[0]``, an integer: the product of ``unit`` down the path, times
    ``scale[t]`` at stage ``t``.  An expectation over the
    leaves is then a sum of ``int`` divided by ``scale[0]``.

    Leaves are also ranked depth first (children in order), so the leaves
    below position ``p`` are exactly the ranks ``leaf_lo[p]:leaf_hi[p]``;
    two ranges are nested when one node is an ancestor of the other and
    disjoint otherwise.  ``leaf_rank[k]`` is the rank of ``leaves[k]``.
    """

    nodes: tuple[Node, ...]
    position: dict[NodeId, int]
    parent: tuple[int, ...]  # parent position, -1 at the root
    children: tuple[tuple[int, ...], ...]
    unit: tuple[int, ...]  # branch probability times B_(t-1), 1 at the root
    stage_start: tuple[int, ...]
    scale: tuple[int, ...]
    leaves: tuple[Node, ...]
    weight: tuple[int, ...]
    leaf_lo: tuple[int, ...]
    leaf_hi: tuple[int, ...]
    leaf_rank: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.stage_start) - 2


def _children_by_id(nodes: Sequence[Node]) -> dict[NodeId, list[Node]]:
    """Each id's child nodes in ``nodes`` order, from the parent links; a
    duplicated id gathers the children of all its nodes."""
    kids_of: dict[NodeId, list[Node]] = {node.id: [] for node in nodes}
    for node in nodes:
        if node.parent is not None and node.parent in kids_of:
            kids_of[node.parent].append(node)
    return kids_of


def _build_index(tree: "ScenarioTree") -> TreeIndex:
    """Index a tree whose ids are unique and whose parent links all lead to
    a single root; raise ValueError otherwise."""
    roots = [n for n in tree.nodes if n.parent is None]
    if len(roots) != 1:
        raise ValueError(f"tree has {len(roots)} roots, expected exactly 1")
    # with unique ids the breadth-first pass reaches each node at most once;
    # duplicates could close a cycle it would never leave
    kids_of = _children_by_id(tree.nodes)
    if len(kids_of) != len(tree.nodes):
        raise ValueError("tree ids are not unique or not all linked to the root")
    order = [roots[0]]
    for node in order:  # grows while iterating: breadth first
        order += kids_of[node.id]
    if len(order) != len(tree.nodes):
        raise ValueError("tree ids are not unique or not all linked to the root")
    n = len(order)
    position = {node.id: pos for pos, node in enumerate(order)}
    parent = [-1] + [position[node.parent] for node in order[1:]]
    # the children of position p are the positions first[p]:first[p + 1]
    first = list(itertools.accumulate([len(kids_of[node.id]) for node in order], initial=1))
    stage_start = [0]
    while stage_start[-1] < n:
        stage_start.append(first[stage_start[-1]])
    horizon = len(stage_start) - 2
    stages = list(zip(stage_start, stage_start[1:]))

    # B_t, the lcm of the stage-(t + 1) denominators, and p * B_t per node
    stage_lcm = [
        math.lcm(*{node.branch_prob.denominator for node in order[lo:hi]})
        for lo, hi in stages[1:]
    ]
    scale = [1] * (horizon + 1)
    for t in range(horizon - 1, -1, -1):
        scale[t] = scale[t + 1] * stage_lcm[t]
    unit = [1]
    weight = [scale[0]]  # path probability times scale[0]
    for b, (lo, hi) in zip(stage_lcm, stages[1:]):
        probs = [node.branch_prob for node in order[lo:hi]]
        unit += [p.numerator * (b // p.denominator) for p in probs]
        weight += [weight[up] // b * c for up, c in zip(parent[lo:hi], unit[lo:hi])]
    positions = tuple(range(n))

    count = [1 if lo == hi else 0 for lo, hi in zip(first, first[1:])]  # leaves below
    for pos in range(n - 1, 0, -1):  # children before parents
        count[parent[pos]] += count[pos]
    # a child's first leaf rank is its parent's plus its earlier siblings' counts
    before = list(itertools.accumulate(count, initial=0))
    leaf_lo = [0]
    for lo, hi in stages[1:]:
        leaf_lo += [
            leaf_lo[up] + before[pos] - before[first[up]]
            for pos, up in zip(positions[lo:hi], parent[lo:hi])
        ]
    leaves = tuple(node for node in tree.nodes if not kids_of[node.id])
    return TreeIndex(
        nodes=tuple(order),
        position=position,
        parent=tuple(parent),
        children=tuple([positions[lo:hi] for lo, hi in zip(first, first[1:])]),
        unit=tuple(unit),
        stage_start=tuple(stage_start),
        scale=tuple(scale),
        leaves=leaves,
        weight=tuple(weight),
        leaf_lo=tuple(leaf_lo),
        leaf_hi=tuple(lo + c for lo, c in zip(leaf_lo, count)),
        leaf_rank=tuple(leaf_lo[position[leaf.id]] for leaf in leaves),
    )


class ScenarioTree:
    """Rooted uniform-depth tree; see :func:`validate_tree` for the invariants.

    Construction is lenient so that malformed inputs can still be inspected
    and diagnosed; every other operation in this package assumes the tree
    validates cleanly, and reads its structure from :attr:`index`.  Trees
    are immutable and compare by their nodes.  A plain class, not a
    ``NamedTuple``, because the memoized index lives in its ``__dict__``.
    """

    def __init__(self, nodes: tuple[Node, ...]) -> None:
        object.__setattr__(self, "nodes", nodes)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.nodes == other.nodes

    def __hash__(self) -> int:
        return hash(self.nodes)

    def __repr__(self) -> str:
        return f"ScenarioTree(nodes={self.nodes!r})"

    @cached_property
    def index(self) -> TreeIndex:
        """The tree's :class:`TreeIndex` (memoized); raises ValueError
        unless ids are unique and every node links up to a single root."""
        return _build_index(self)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.index.position

    @property
    def horizon(self) -> int:
        return self.index.horizon

    @property
    def leaves(self) -> tuple[Node, ...]:
        return self.index.leaves


def validate_tree(tree: ScenarioTree) -> list[str]:
    """Return a description of every broken tree invariant (empty if valid).

    Checked: unique ids; exactly one root at time 0 with branch probability
    1; parent links exist and advance time by one step; sibling branch
    probabilities are in (0, 1] and sum to 1; all leaves sit at the same
    terminal stage.  The leaf path probabilities then sum to 1 without a
    check of their own: each node's path probability is the sum of its
    children's, so the mass at the root passes down to the leaves.

    Validity is decided from the tree's index, whose construction already
    proves the ids unique, the root single and every node linked to it;
    the node loops that word the messages run only on a tree that fails.
    """
    try:
        index = tree.index
    except ValueError:
        index = None
    if index is not None:
        nodes, start, scale = index.nodes, index.stage_start, index.scale
        children, unit = index.children, index.unit
        stages = range(len(start) - 1)
        if (
            nodes[0].branch_prob == 1
            and all(node.time == t for t in stages for node in nodes[start[t] : start[t + 1]])
            # unit is p * B_t: each position before the last stage has
            # children, with probabilities that are positive and sum to 1
            and all(
                kids and sum(unit[kids[0] : kids[-1] + 1]) == scale[t] // scale[t + 1]
                for t in stages[:-1]
                for kids in children[start[t] : start[t + 1]]
            )
            and min(unit) > 0
        ):
            return []
    violations: list[str] = []
    by_id: dict[NodeId, Node] = {}  # the first node of each id
    for node in tree.nodes:
        if node.id in by_id:
            violations.append(f"node {node.id}: duplicate id")
        by_id.setdefault(node.id, node)
    if not tree.nodes:
        return ["tree has no nodes"]
    kids_of = _children_by_id(tree.nodes)

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


class AdaptedProcess(NamedTuple):
    """One exact value per node.  Adaptedness is structural: a value hangs
    on a node, hence depends only on the information revealed by that node.
    """

    values: dict[NodeId, Fraction]

    def missing_on(self, tree: ScenarioTree) -> list[NodeId]:
        return [n.id for n in tree.nodes if n.id not in self.values]


class StoppingRule(NamedTuple):
    """Pure strategy: stop the first time the path enters ``stop_set``.

    Canonical form is an antichain (no stop node strictly below another);
    build rules through :func:`canonicalize_rule` unless the set is known to
    be one.  The empty rule never stops anywhere.
    """

    stop_set: frozenset[NodeId]


NEVER_RULE = StoppingRule(frozenset())


def _sorted_positions(
    index: TreeIndex, ids: Iterable[NodeId], unknown: str
) -> list[int]:
    """Index positions of ``ids`` in ascending order, so every ancestor
    comes before its descendants; ids the tree lacks raise ValueError with
    the message ``unknown`` followed by their sorted list."""
    position = index.position
    try:
        return sorted([position[i] for i in ids])
    except KeyError:
        missing = sorted(i for i in ids if i not in position)
        raise ValueError(f"{unknown}: {missing}") from None


def _first_entries(
    index: TreeIndex, positions: Sequence[int]
) -> tuple[list[Node], list[Node | None]]:
    """Flags at ascending ``positions``: their antichain and first entries.

    Each flag covers its leaf range unless a kept flag already covers its
    first leaf; leaf ranges nest exactly along ancestry, so that flag lies
    below a kept one.  Returns the kept nodes (the canonical antichain) and,
    per depth-first leaf rank, the first flagged node on that leaf's root
    path (None if there is none), in O(len(positions) + leaves).
    """
    nodes, lo, hi = index.nodes, index.leaf_lo, index.leaf_hi
    first: list[Node | None] = [None] * len(index.leaves)
    kept = []
    for pos in positions:
        start = lo[pos]
        if first[start] is None:
            node = nodes[pos]
            first[start : hi[pos]] = [node] * (hi[pos] - start)
            kept.append(node)
    return kept, first


def leaf_stop_nodes(tree: ScenarioTree, rule: StoppingRule) -> list[Node | None]:
    """The rule's first stop node on every leaf's root path, in
    ``tree.leaves`` order (None where it never stops).

    Read from the stop nodes' leaf ranges instead of one root walk per
    leaf.  Raises ValueError if the rule names nodes the tree does not
    have.
    """
    index = tree.index
    positions = _sorted_positions(
        index, rule.stop_set, "rule references nodes not in tree"
    )
    first = _first_entries(index, positions)[1]
    return [first[rank] for rank in index.leaf_rank]


def leaf_stop_times(tree: ScenarioTree, rule: StoppingRule) -> list[Stage]:
    """The rule's first stop stage on every leaf's root path, in
    ``tree.leaves`` order (NEVER where it never stops), read from
    :func:`leaf_stop_nodes`."""
    return [NEVER if node is None else node.time for node in leaf_stop_nodes(tree, rule)]


def _antichain(tree: ScenarioTree, ids: Iterable[NodeId], unknown: str) -> StoppingRule:
    """The rule stopping at the first of ``ids`` on every path; unknown ids
    raise ValueError with the message ``unknown``."""
    index = tree.index
    kept = _first_entries(index, _sorted_positions(index, ids, unknown))[0]
    return StoppingRule(frozenset(node.id for node in kept))


def canonicalize_rule(tree: ScenarioTree, stop_flags: Iterable[NodeId]) -> StoppingRule:
    """Prune flags with a flagged strict ancestor; first-stop times are kept."""
    return _antichain(tree, set(stop_flags), "unknown node ids in stop flags")


def min_of_rules(tree: ScenarioTree, rules: Sequence[StoppingRule]) -> StoppingRule:
    """Pathwise minimum of stopping rules (the never-rule is neutral).

    The first stop of the union of the stop sets is, on every path, the
    minimum of the individual first stops, so the pointwise minimum is just
    the canonicalized union.  Raises ValueError if the rules name nodes the
    tree does not have.
    """
    if not rules:
        raise ValueError("min_of_rules needs at least one rule")
    union: set[NodeId] = set()
    for rule in rules:
        union |= rule.stop_set
    return _antichain(tree, union, "rule references nodes not in tree")


def stop_everywhere_at(tree: ScenarioTree, time: int) -> StoppingRule:
    """The deterministic rule stopping at the given stage on every path."""
    index = tree.index
    if not 0 <= time <= index.horizon:
        raise ValueError(f"tree has no nodes at time {time}")
    nodes = index.nodes[index.stage_start[time] : index.stage_start[time + 1]]
    return StoppingRule(frozenset(n.id for n in nodes))
