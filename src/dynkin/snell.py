"""Snell envelopes and epsilon-optimal stopping rules on scenario trees.

The envelope of a reward process is the smallest supermartingale dominating
it, computed by the backward recursion

    envelope(leaf) = reward(leaf)
    envelope(v)    = max(reward(v), E[envelope at v's children])

Its root value is the optimal stopping value, and stopping the first time
``envelope <= reward + eps`` loses at most ``eps`` of it.  On a finite tree
the threshold always triggers by the terminal stage, and ``eps = 0`` is
allowed and exactly optimal.

The sweep calls :func:`integer_snell`, which computes the envelope, in one
reversed pass, and the rule in scaled integers, only on the live region: a
sweep step's reward is constant strictly below each of its frozen positions
(the others' earliest stops), so there the envelope equals the reward and
the rule has already stopped.  A :class:`ScaledProcess` answers for every
node all the same, reading a node below a frozen position at that position.
The plain ``Fraction`` recursion over the whole tree lives in the tests
(``tests/snell_reference.py``), as the reference for this kernel and for
the certifier's own integer best responses in :mod:`dynkin.verify`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .trees import NodeId, ScenarioTree, StoppingRule, TreeIndex


class ScaledProcess(NamedTuple):
    """One sweep step's values per node, kept as the integers computed.

    The node at position ``p`` of ``index``, at stage ``t``, has the value
    ``scaled[p] / (denominator * index.scale[t])``; it becomes a
    ``Fraction`` only when read.  Strictly below a position in
    ``frozen_at`` (an antichain) the process is constant, so ``scaled`` is
    read only at the positions not strictly below one: a node below a
    frozen position reads that position's value.
    """

    index: TreeIndex
    scaled: Sequence[int]
    denominator: int
    frozen_at: frozenset[int] = frozenset()

    def at(self, node_id: NodeId) -> Fraction:
        index = self.index
        pos = index.position[node_id]
        if self.frozen_at:
            parent = index.parent
            up = parent[pos]
            while up >= 0:
                if up in self.frozen_at:
                    pos = up
                    break
                up = parent[up]
        scale = index.scale[index.nodes[pos].time]
        return Fraction(self.scaled[pos], self.denominator * scale)


def integer_snell(
    tree: ScenarioTree, reward: ScaledProcess, epsilon: Fraction
) -> tuple[ScaledProcess, StoppingRule]:
    """Envelope and first-entry rule of ``envelope <= reward + epsilon``.

    Exactly the module's backward recursion and its first-entry rule for
    the reward ``reward.at``, computed on ``int`` over the live region
    only: the positions not strictly below a frozen one.  A
    stage-``t`` value ``X`` is carried as ``X * D * index.scale[t]``, with
    ``D = reward.denominator`` a multiple of epsilon's denominator, so W
    is one reversed pass ``W(v) = max(U(v), sum_k unit[k] * W(k))`` over
    the live inner positions, children before parents, and epsilon is
    ``epsilon * D * scale[t]`` at stage ``t``.  At a frozen position
    ``W = U``: its children carry U's value, and their ``unit`` weights sum
    to the stage scale ratio, so the sum equals U there too.  A frozen
    position is thus inside the threshold region, and the rule, one
    top-down pass to the first nodes inside the region, never passes it.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    d = reward.denominator
    if d % epsilon.denominator:
        raise ValueError(
            f"reward denominator {d} is not a multiple of epsilon's {epsilon.denominator}"
        )
    index = tree.index
    nodes, children, unit = index.nodes, index.children, index.unit
    frozen, u = reward.frozen_at, reward.scaled
    num, den = epsilon.numerator, epsilon.denominator  # properties: read once
    slack = [num * (d * s // den) for s in index.scale]

    # the live positions whose W needs their children: neither leaves nor
    # frozen, which keep W = U
    inner = []
    live = [0]
    for pos in live:  # grows while iterating: breadth first, in position order
        kids = children[pos]
        if kids and pos not in frozen:
            inner.append(pos)
            live.extend(kids)

    envelope = list(u)
    inside = [True] * len(nodes)
    for pos in reversed(inner):  # children before parents
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
            inside[pos] = w <= here + slack[nodes[pos].time]

    stops = []
    frontier = [0]
    for pos in frontier:  # grows while iterating: stops at the first entries
        if inside[pos]:
            stops.append(nodes[pos].id)
        else:
            frontier.extend(children[pos])
    envelope_process = ScaledProcess(index, envelope, d, frozen)
    return envelope_process, StoppingRule(frozenset(stops))
