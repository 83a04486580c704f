"""Snell envelopes and epsilon-optimal stopping rules on scenario trees.

The envelope of a reward process is the smallest supermartingale dominating
it, computed by the backward recursion

    envelope(leaf) = reward(leaf)
    envelope(v)    = max(reward(v), E[envelope at v's children])

Its root value is the optimal stopping value, and stopping the first time
``envelope <= reward + eps`` loses at most ``eps`` of it.  On a finite tree
the threshold always triggers by the terminal stage, and ``eps = 0`` is
allowed and exactly optimal.

The sweep calls :func:`integer_snell`, which computes the envelope and
the rule in scaled integers, only on the live region: a sweep step's reward
is constant strictly below each of its frozen positions (the others'
earliest stops), so there the envelope equals the reward and the rule has
already stopped.  It plans that region stage by stage from the tree
index.  A branching stage is a list of live nodes, each summing its
children; a block of chain stages (one child each, with probability 1) is
a set of columns, strided ranges of positions up which the envelope is a
running maximum, each cut at its frozen position and each keeping its
first entry into the threshold region, so the rule's top-down walk crosses
a block in one step per column.  The envelope it returns still holds a
value for every position: a position below a frozen one keeps the
reward's value there, which the kernel never reads.  The plain
``Fraction`` recursion over the whole tree lives in the tests
(``tests/snell_reference.py``), as the reference for this kernel and for
the certifier's own integer best responses in :mod:`dynkin.verify`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .trees import ScenarioTree, StoppingRule


def integer_snell(
    tree: ScenarioTree,
    u: Sequence[int],
    denominator: int,
    frozen: frozenset[int],
    epsilon: Fraction,
) -> tuple[list[int], StoppingRule]:
    """Envelope W and first-entry rule of ``W <= U + epsilon``.

    ``u`` holds the reward U by index position: the node at position ``p``,
    at stage ``t``, has the value ``u[p] / (denominator * index.scale[t])``.
    ``frozen`` is an antichain of positions strictly below which U is
    constant, so ``u`` is read only at the positions not strictly below
    one.  W comes back in the same form, as a new list.

    Exactly the module's backward recursion and its first-entry rule for
    those node values, computed on ``int`` over the live region only: the
    positions not strictly below a frozen one.  A stage-``t`` value ``X``
    is carried as ``X * D * index.scale[t]``, with ``D = denominator`` a
    multiple of epsilon's denominator, so W is
    ``W(v) = max(U(v), sum_k unit[k] * W(k))`` over the live inner
    positions, children before parents, and epsilon is
    ``epsilon * D * scale[t]`` at stage ``t``.  On a chain stage the sum
    is the one child's W (``unit`` 1, the scale unchanged), so a column of
    chain stages carries W up as ``max(U(v), W)`` with no lookup.  At a
    frozen position ``W = U``: its children carry U's value, and their
    ``unit`` weights sum to the stage scale ratio, so the sum equals U
    there too.  A frozen position is thus inside the threshold region, and
    the rule, one top-down pass to the first nodes inside the region,
    never passes it.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    if denominator % epsilon.denominator:
        raise ValueError(
            f"reward denominator {denominator} is not a multiple of "
            f"epsilon's {epsilon.denominator}"
        )
    index = tree.index
    nodes, children, unit, scale = index.nodes, index.children, index.unit, index.scale
    start, chain_end, horizon = index.stage_start, index.chain_end, index.horizon
    num, den = epsilon.numerator, epsilon.denominator  # properties: read once

    # the live region stage by stage, top down: a branching stage's live
    # inner positions (neither leaves nor frozen, which keep W = U), and a
    # chain block's live column tops, each column cut at its frozen
    # position if it has one (one at most: the frozen set is an antichain)
    plan = []
    live = [0]
    t = 0
    while live and t < horizon:
        end = chain_end[t]
        if end == t:
            inner = [pos for pos in live if children[pos] and pos not in frozen]
            plan.append((t, inner, None))
            live = [k for pos in inner for k in children[pos]]
            t += 1
            continue
        width = start[t + 1] - start[t]
        depth = (end - t) * width  # from a column's top to its end
        cut = {  # column top: the frozen position below it in the block
            start[t] + (f - start[t]) % width: f
            for f in frozen
            if start[t + 1] <= f < start[end]
        }
        tops = [pos for pos in live if pos not in frozen]
        plan.append((t, tops, (width, depth, cut)))
        live = [top + depth for top in tops if top not in cut]
        t = end

    # W, children before parents; a position is outside the threshold
    # region where W > U + epsilon.  A column carries W up with unit
    # weight and keeps its first position inside the region, from the top
    # (its bottom when none is above it), for the rule's walk
    envelope = list(u)
    outside = [False] * len(u)
    first = {}  # column top: its first position inside the region
    for t, positions, chain in reversed(plan):
        slack = num * (denominator * scale[t] // den)
        if chain is None:
            for pos in reversed(positions):
                kids = children[pos]
                if len(kids) == 1:
                    k = kids[0]
                    w = unit[k] * envelope[k]
                else:
                    w = 0
                    for k in kids:
                        w += unit[k] * envelope[k]
                here = u[pos]
                if w > here:
                    envelope[pos] = w
                    outside[pos] = w > here + slack
            continue
        width, depth, cut = chain
        for top in positions:
            bottom = cut.get(top, top + depth)
            w = envelope[bottom]
            entry = bottom
            for pos in range(bottom - width, top - 1, -width):
                here = u[pos]
                if w > here:
                    envelope[pos] = w
                    if w <= here + slack:
                        entry = pos
                else:
                    w = here
                    entry = pos
            first[top] = entry

    # the rule: top down to the first positions inside the region; a
    # column whose first is its end goes on below the block
    stops = []
    frontier = [0]
    for _, _, chain in plan:
        reached = []
        if chain is None:
            for pos in frontier:
                if outside[pos]:
                    reached.extend(children[pos])
                else:
                    stops.append(pos)
        else:
            depth = chain[1]
            for top in frontier:
                entry = first.get(top, top)  # a frozen top is inside
                if entry == top + depth:
                    reached.append(entry)
                else:
                    stops.append(entry)
        frontier = reached
    stops += frontier  # leaves at the horizon
    return envelope, StoppingRule(frozenset([nodes[pos].id for pos in stops]))
