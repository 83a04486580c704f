"""Snell envelopes and epsilon-optimal stopping rules on scenario trees.

The envelope of a reward process is the smallest supermartingale dominating
it, computed by the backward recursion

    envelope(leaf) = reward(leaf)
    envelope(v)    = max(reward(v), E[envelope at v's children])

Its root value is the optimal stopping value, and stopping the first time
``envelope <= reward + eps`` loses at most ``eps`` of it.  On a finite tree
the threshold always triggers by the terminal stage, and ``eps = 0`` is
allowed and exactly optimal.

The sweep calls :func:`integer_snell`, which computes the envelope and the
rule together in scaled integers; :func:`snell_envelope` and
:func:`eps_optimal_rule` keep the plain ``Fraction`` recursion, which the
tests keep as the reference for the sweep's kernel and for the
certifier's own integer best responses in :mod:`dynkin.verify`.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple

from .trees import (
    AdaptedProcess,
    NodeId,
    ScenarioTree,
    StoppingRule,
    TreeIndex,
    canonicalize_rule,
)


def snell_envelope(tree: ScenarioTree, reward: AdaptedProcess) -> AdaptedProcess:
    """Backward recursion over stages, deepest first."""
    values: dict = {}
    for node in reversed(tree.index.nodes):  # children before parents
        kids = tree.children(node.id)
        if not kids:
            values[node.id] = reward.at(node.id)
        else:
            continuation = sum(
                (k.branch_prob * values[k.id] for k in kids), Fraction(0)
            )
            values[node.id] = max(reward.at(node.id), continuation)
    return AdaptedProcess(values)


def eps_optimal_rule(
    tree: ScenarioTree,
    reward: AdaptedProcess,
    envelope: AdaptedProcess,
    epsilon: Fraction,
) -> StoppingRule:
    """First-entry rule of the region ``envelope <= reward + epsilon``.

    Ties stop.  Since envelope equals reward on leaves the rule stops every
    path by the terminal stage, never returning NEVER.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    flags = {
        node.id
        for node in tree.nodes
        if envelope.at(node.id) <= reward.at(node.id) + epsilon
    }
    return canonicalize_rule(tree, flags)


class ScaledEnvelope(NamedTuple):
    """Envelope values kept as the integers :func:`integer_snell` computed.

    The node at position ``p`` of ``index``, at stage ``t``, has the value
    ``scaled[p] / (denominator * index.scale[t])``; it becomes a
    ``Fraction`` only when read.
    """

    index: TreeIndex
    scaled: tuple[int, ...]
    denominator: int

    def at(self, node_id: NodeId) -> Fraction:
        pos = self.index.position[node_id]
        scale = self.index.scale[self.index.stage_of(pos)]
        return Fraction(self.scaled[pos], self.denominator * scale)


def integer_snell(
    tree: ScenarioTree, reward: AdaptedProcess, epsilon: Fraction
) -> tuple[ScaledEnvelope, StoppingRule]:
    """Envelope and first-entry rule of ``envelope <= reward + epsilon``.

    Exactly what :func:`snell_envelope` then :func:`eps_optimal_rule`
    return, computed on ``int``.  With ``D`` the lcm of the reward's and
    epsilon's denominators, a stage-``t`` value ``X`` is carried as
    ``X * D * index.scale[t]``, so the recursion becomes
    ``W(v) = max(U(v), sum_k c_k * W(k))`` with the integer child weights
    ``c_k`` of the tree index.  The rule is then one top-down pass: the
    nodes inside the threshold region that have no ancestor inside it.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    index = tree.index
    nodes = index.nodes
    rewards = [reward.values[node.id] for node in nodes]
    d = math.lcm(epsilon.denominator, *[u.denominator for u in rewards])

    children, weights, start = index.children, index.child_weights, index.stage_start
    envelope = [0] * len(nodes)
    inside = [False] * len(nodes)
    for t in range(index.horizon, -1, -1):
        s = d * index.scale[t]
        slack = epsilon.numerator * (s // epsilon.denominator)
        for pos in range(start[t], start[t + 1]):
            u = rewards[pos]
            u = u.numerator * (s // u.denominator)
            kids = children[pos]
            if kids:
                w = 0
                for k, c in zip(kids, weights[pos]):
                    w += c * envelope[k]
                if w < u:
                    w = u
            else:
                w = u
            envelope[pos] = w
            inside[pos] = w <= u + slack

    parent = index.parent
    stopped = inside[:1]  # stopped[p]: the root path of p enters the region
    stops = [nodes[0].id] if inside[0] else []
    for pos in range(1, len(nodes)):
        if stopped[parent[pos]]:
            stopped.append(True)
        else:
            stopped.append(inside[pos])
            if inside[pos]:
                stops.append(nodes[pos].id)
    return ScaledEnvelope(index, tuple(envelope), d), StoppingRule(frozenset(stops))

