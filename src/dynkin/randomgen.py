"""Seeded random instances for oracle sweeps and experiments.

Everything is driven by a caller-supplied ``random.Random`` so sweeps are
reproducible; values are dyadic rationals to keep exact arithmetic cheap.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .games import GameSpec, all_coalitions
from .trees import Node, ScenarioTree


def random_dyadic(rng: Random, lo: int = -2, hi: int = 2) -> Fraction:
    denominator = rng.choice((1, 2, 4, 8))
    return Fraction(rng.randint(lo * denominator, hi * denominator), denominator)


def random_binary_tree(rng: Random, depth: int) -> ScenarioTree:
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    frontier = [0]
    next_id = 1
    for t in range(1, depth + 1):
        new_frontier = []
        for parent in frontier:
            left = rng.randint(1, 7)
            right = rng.randint(1, 7)
            for w in (left, right):
                nodes.append(
                    Node(id=next_id, time=t, parent=parent, branch_prob=Fraction(w, left + right))
                )
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return ScenarioTree(tuple(nodes))


def random_game(
    rng: Random, num_players: int, horizon: int, lo: int = -2, hi: int = 2
) -> GameSpec:
    """Random binary-tree game satisfying the model's structural hypotheses.

    Payoffs are drawn freely, then repaired: terminal values are unified
    across coalitions, and joint-stop values X(i, {i,j}) are clamped below
    the corresponding solo-stop values X(i, {j}) at pre-terminal nodes.
    """
    tree = random_binary_tree(rng, horizon)
    payoffs: dict[tuple[int, tuple[int, ...]], dict[int, Fraction]] = {}
    coalitions = all_coalitions(num_players)
    for i in range(1, num_players + 1):
        terminal = {leaf.id: random_dyadic(rng, lo, hi) for leaf in tree.leaves}
        for coalition in coalitions:
            values = {}
            for node in tree.nodes:
                if node.time == horizon:
                    values[node.id] = terminal[node.id]
                else:
                    values[node.id] = random_dyadic(rng, lo, hi)
            payoffs[(i, coalition)] = values
    for i in range(1, num_players + 1):
        for j in range(1, num_players + 1):
            if i == j:
                continue
            joint, alone = payoffs[(i, (min(i, j), max(i, j)))], payoffs[(i, (j,))]
            for node in tree.nodes:
                if node.time < horizon:
                    joint[node.id] = min(joint[node.id], alone[node.id])
    return GameSpec(
        num_players=num_players, horizon=horizon, tree=tree, payoffs=payoffs
    )
