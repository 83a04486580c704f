"""Reference helpers for the certifier that only the tests use.

The deviation reward as one ``Fraction`` per node, the process the
certifier's integer vector ``A(v) = w(v) * Y(v) * D`` scales, and that
vector computed from it.
"""

from __future__ import annotations

import math
from fractions import Fraction

from dynkin.games import GameSpec, StrategyProfile
from dynkin.trees import NodeId
from trees_reference import probability, root_paths


def deviation_reward(
    spec: GameSpec, profile: StrategyProfile, player: int
) -> dict[NodeId, Fraction]:
    """What the player earns, node by node, when deviating unilaterally.

    Strictly before the others' earliest stop: the solo payoff.  At the
    others' stop node: the payoff for joining that coalition.  After it:
    frozen at the payoff for having let the coalition stop alone (stopping
    later cannot reopen an ended game).  Expectations of this process under
    a deviation rule reproduce the game payoff of the deviated profile, so
    its optimal stopping value is the exact best-response value; the
    join-versus-stay comparison is left to the envelope recursion.
    """
    stoppers: dict[NodeId, list[int]] = {}
    for j in spec.players:
        if j != player:
            for node_id in profile.rule_for(j).stop_set:
                stoppers.setdefault(node_id, []).append(j)
    coalition_at = {node_id: tuple(sorted(js)) for node_id, js in stoppers.items()}
    # each coalition's value dicts, looked up once: (it stops alone, joined)
    tables = {
        c: (spec.payoffs[(player, c)], spec.payoffs[(player, tuple(sorted({*c, player})))])
        for c in set(coalition_at.values())
    }
    solo = spec.payoffs[(player, (player,))]
    values: dict[NodeId, Fraction] = {}
    frozen: dict[NodeId, Fraction] = {}
    for node in spec.tree.index.nodes:  # parents before children
        if node.parent in frozen:
            values[node.id] = frozen[node.id] = frozen[node.parent]
        elif node.id in coalition_at:
            alone, joined = tables[coalition_at[node.id]]
            frozen[node.id] = alone[node.id]
            values[node.id] = joined[node.id]
        else:
            values[node.id] = solo[node.id]
    return values


def weighted_reward(
    spec: GameSpec, profile: StrategyProfile, player: int, epsilon: Fraction
) -> tuple[list[int], int]:
    """``(A, D)`` from :func:`deviation_reward`: ``D`` the lcm of the
    reward's and epsilon's denominators, ``A`` by index position the path
    probability times ``scale[0]``, times the reward, times ``D``."""
    tree = spec.tree
    index = tree.index
    reward = deviation_reward(spec, profile, player)
    values = [reward[node.id] for node in index.nodes]
    d = math.lcm(epsilon.denominator, *[y.denominator for y in values])
    paths = root_paths(tree)
    vector = []
    for node, y in zip(index.nodes, values):
        a = probability(paths[node.id]) * index.scale[0] * y * d
        if a.denominator != 1:
            raise ValueError(f"A is not an integer at node {node.id}: {a}")
        vector.append(a.numerator)
    return vector, d
