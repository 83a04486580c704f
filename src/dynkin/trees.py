"""Finite filtered probability spaces as uniform-depth scenario trees.

A scenario tree carries the whole probabilistic setup: outcomes are
root-to-leaf paths, the stage-t information is "which time-t node the path
goes through", and one-step transition probabilities live on the edges.
An adapted process maps each node id to one rational value;
stopping rules are antichains of nodes ("stop the first time the path hits
the set").

All probabilities and values are exact ``fractions.Fraction``; nothing in
this package ever rounds.

A tree's structure is read through its :class:`TreeIndex` alone: positions,
children, leaves and integer path weights.  Per-leaf questions
(where a rule first stops) read the index's depth-first leaf ranges; the
root walks that answer them one leaf at a time live in the tests, as the
reference these kernels are held to.
"""

from __future__ import annotations

import contextlib
import itertools
import math
import operator
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

    A stage whose every node has exactly one child is a chain stage: its
    next stage is as wide, and the child of position ``stage_start[t] + j``
    is ``stage_start[t + 1] + j``; on a valid tree that child has
    probability 1, so ``unit`` is 1 and ``scale[t] == scale[t + 1]``.
    ``chain_end[t]`` is the first stage at or after ``t`` that is not a
    chain stage (``t`` itself unless ``t`` is one; the horizon never is).
    """

    nodes: tuple[Node, ...]
    position: dict[NodeId, int]
    children: tuple[range, ...]
    unit: tuple[int, ...]  # branch probability times B_(t-1), 1 at the root
    stage_start: tuple[int, ...]
    scale: tuple[int, ...]
    leaves: tuple[Node, ...]
    weight: tuple[int, ...]
    leaf_lo: tuple[int, ...]
    leaf_hi: tuple[int, ...]
    leaf_rank: tuple[int, ...]
    chain_end: tuple[int, ...]

    @property
    def horizon(self) -> int:
        return len(self.stage_start) - 2


def _build_index(
    nodes: Sequence[Node],
    ids: Sequence[NodeId],
    parents: Sequence[NodeId | None],
    probs: Sequence[Fraction],
) -> TreeIndex:
    """Index the tree of ``nodes`` from their id, parent and probability
    columns, if its ids are unique and its parent links all lead to a
    single root; raise ValueError otherwise.  A tree listed breadth first
    already, root first and each node after its parent with parents in
    order, keeps its order without a search.
    """
    n = len(nodes)
    roots = parents.count(None)
    if roots != 1:
        raise ValueError(f"tree has {roots} roots, expected exactly 1")
    at = dict(zip(ids, range(n)))  # each id's place in tree.nodes
    unlinked = ValueError("tree ids are not unique or not all linked to the root")
    if len(at) != n:
        raise unlinked
    ups = list(map(at.get, parents, itertools.repeat(-1)))  # parent's place, -1 at the root
    rest = ups[1:]
    if ups[0] == -1 and rest == sorted(rest) and all(map(operator.lt, rest, range(1, n))):
        if rest and rest[0] < 0:  # a second node without a linked parent
            raise unlinked
        order: Sequence[int] = range(n)
        ordered, position, parent = nodes, at, ups
    else:
        kids: list[list[int]] = [[] for _ in ups]
        for k, up in enumerate(ups):
            if up >= 0:
                kids[up].append(k)
        order = [parents.index(None)]
        for k in order:  # grows while iterating: breadth first
            order += kids[k]
        if len(order) != n:
            raise unlinked
        ordered = tuple(map(nodes.__getitem__, order))
        position = {node.id: pos for pos, node in enumerate(ordered)}
        parent = [-1] + [position[node.parent] for node in ordered[1:]]
    fanout = [0] * n
    for up in parent[1:]:
        fanout[up] += 1
    # the children of position p are the positions first[p]:first[p + 1]
    first = list(itertools.accumulate(fanout, initial=1))
    stage_start = [0]
    while stage_start[-1] < n:
        stage_start.append(first[stage_start[-1]])
    horizon = len(stage_start) - 2
    stages = list(zip(stage_start, stage_start[1:]))

    # B_t, the lcm of the stage-(t + 1) denominators, and p * B_t per node
    probs = probs if order == range(n) else list(map(probs.__getitem__, order))
    stage_lcm = [math.lcm(*{p.denominator for p in probs[lo:hi]}) for lo, hi in stages[1:]]
    scale = [1] * (horizon + 1)
    for t in range(horizon - 1, -1, -1):
        scale[t] = scale[t + 1] * stage_lcm[t]
    unit = [1]
    weight = [scale[0]]  # path probability times scale[0]
    for b, (lo, hi) in zip(stage_lcm, stages[1:]):
        unit += [p.numerator * (b // p.denominator) for p in probs[lo:hi]]
        weight += [weight[up] // b * c for up, c in zip(parent[lo:hi], unit[lo:hi])]
    positions = tuple(range(n))

    chain_end = list(range(horizon + 1))
    for t in range(horizon - 1, -1, -1):
        lo, hi = stages[t]
        if fanout[lo:hi].count(1) == hi - lo:
            chain_end[t] = chain_end[t + 1]

    count = [1 if c == 0 else 0 for c in fanout]  # leaves below
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
    # leaves in tree.nodes order
    leaves = sorted([pos for pos in positions if not fanout[pos]], key=order.__getitem__)
    return TreeIndex(
        nodes=ordered,
        position=position,
        children=tuple(map(range, first, first[1:])),
        unit=tuple(unit),
        stage_start=tuple(stage_start),
        scale=tuple(scale),
        leaves=tuple(map(ordered.__getitem__, leaves)),
        weight=tuple(weight),
        leaf_lo=tuple(leaf_lo),
        leaf_hi=tuple(map(operator.add, leaf_lo, count)),
        leaf_rank=tuple(map(leaf_lo.__getitem__, leaves)),
        chain_end=tuple(chain_end),
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
        ids, _, parents, probs = zip(*self.nodes) if self.nodes else ((),) * 4
        return _build_index(self.nodes, ids, parents, probs)

    def __contains__(self, node_id: NodeId) -> bool:
        return node_id in self.index.position

    @property
    def horizon(self) -> int:
        return self.index.horizon

    @property
    def leaves(self) -> tuple[Node, ...]:
        return self.index.leaves


def tree_from_columns(
    ids: list[NodeId], times: list[int], parents: list[NodeId | None], probs: list[Fraction]
) -> ScenarioTree:
    """The tree of the nodes with these fields, its index built from the
    columns as they are when it has one."""
    # tuple.__new__ skips the field-by-field constructor of Node
    nodes = tuple(map(tuple.__new__, itertools.repeat(Node), zip(ids, times, parents, probs)))
    tree = ScenarioTree(nodes)
    with contextlib.suppress(ValueError):  # raised again when the index is read
        tree.__dict__["index"] = _build_index(nodes, ids, parents, probs)
    return tree


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
        nodes, start, unit, scale = index.nodes, index.stage_start, index.unit, index.scale
        stage_of: list[int] = []  # by position
        ratio: list[int] = []  # B_t by position, before the last stage
        for t, (lo, hi) in enumerate(zip(start, start[1:])):
            stage_of += [t] * (hi - lo)
            ratio += [scale[t] // scale[t + 1]] * (hi - lo) if t < index.horizon else []
        # unit is p * B_t: each position before the last stage has children,
        # with probabilities that are positive and sum to 1
        total = list(itertools.accumulate(unit, initial=0))
        if (
            nodes[0].branch_prob == 1
            and [node.time for node in nodes] == stage_of
            and [total[k.stop] - total[k.start] for k in index.children[: len(ratio)]] == ratio
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
    kids_of: dict[NodeId, list[Node]] = {node.id: [] for node in tree.nodes}
    for node in tree.nodes:  # a duplicated id gathers the children of all its nodes
        if node.parent in kids_of:
            kids_of[node.parent].append(node)

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

    for node in tree.nodes:
        kids = kids_of[node.id]
        total = sum([k.branch_prob for k in kids], Fraction(0))
        if kids and total != 1:
            violations.append(
                f"node {node.id}: children probabilities sum to {total}, expected 1"
            )

    if linked and len(roots) == 1 and not violations:
        horizon = tree.horizon
        for leaf in tree.leaves:
            if leaf.time != horizon:
                violations.append(
                    f"node {leaf.id}: leaf at time {leaf.time}, expected uniform depth {horizon}"
                )
    return violations


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
