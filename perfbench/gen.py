"""Seeded game documents for the benchmark workloads.

The generators are the benchmark's own: they do not import ``dynkin``, so
the program under test only ever sees the documents written here.  Every
value is a rational string, as the document format requires.
"""

from __future__ import annotations

import itertools
import json
from fractions import Fraction
from random import Random


def _coalitions(players: int) -> list[tuple[int, ...]]:
    return [
        combo
        for size in range(1, players + 1)
        for combo in itertools.combinations(range(1, players + 1), size)
    ]


def _document(players: int, horizon: int, nodes: list[dict], payoffs: dict) -> dict:
    """Game document from node rows and {(player, coalition): {id: Fraction}}."""
    return {
        "schema_version": "1",
        "players": players,
        "horizon": horizon,
        "tree": {"nodes": nodes},
        "payoffs": [
            {
                "player": player,
                "coalition": list(coalition),
                "values": {str(k): str(v) for k, v in values.items()},
            }
            for (player, coalition), values in sorted(payoffs.items())
        ],
    }


def _dyadic(rng: Random, lo: int = -2, hi: int = 2) -> Fraction:
    den = rng.choice((1, 2, 4, 8))
    return Fraction(rng.randint(lo * den, hi * den), den)


def random_binary_game(
    rng: Random, players: int, depth: int, follower: int | None = None
) -> dict:
    """Full binary tree with random branch weights and dyadic payoffs.

    Payoffs are drawn freely and then repaired so the game is valid for
    ``solve``: every coalition shares the leaf value (terminal coincidence)
    and X(i, {i, j}) <= X(i, {j}) before the horizon (joint-stop hypothesis).

    With ``follower`` set, that player's solo payoffs lie in [-2, -1] and
    every other payoff of theirs in [0, 2], so they never pre-empt anyone
    and the sweep always ends after two rounds.  Free draws end after two
    to five rounds, a spread in cost that drowns other changes.
    """
    nodes = [{"id": 0, "time": 0, "parent": None, "prob": "1"}]
    times = [0]
    frontier = [0]
    for t in range(1, depth + 1):
        next_frontier = []
        for parent in frontier:
            weights = (rng.randint(1, 7), rng.randint(1, 7))
            for w in weights:
                node_id = len(nodes)
                prob = Fraction(w, sum(weights))
                nodes.append(
                    {"id": node_id, "time": t, "parent": parent, "prob": str(prob)}
                )
                times.append(t)
                next_frontier.append(node_id)
        frontier = next_frontier

    coalitions = _coalitions(players)
    payoffs: dict = {}
    for i in range(1, players + 1):
        lo = 0 if i == follower else -2
        terminal = {leaf: _dyadic(rng, lo) for leaf in frontier}
        for coalition in coalitions:
            solo_lo, solo_hi = (-2, -1) if coalition == (i,) == (follower,) else (lo, 2)
            payoffs[(i, coalition)] = {
                node_id: terminal[node_id] if t == depth else _dyadic(rng, solo_lo, solo_hi)
                for node_id, t in enumerate(times)
            }
    for i, j in itertools.permutations(range(1, players + 1), 2):
        joint = payoffs[(i, tuple(sorted((i, j))))]
        alone = payoffs[(i, (j,))]
        for node_id, t in enumerate(times):
            if t < depth:
                joint[node_id] = min(joint[node_id], alone[node_id])
    return _document(players, depth, nodes, payoffs)


def preemption_game(
    rng: Random, players: int, horizon: int, branching_stages: int
) -> dict:
    """Binary tree for ``branching_stages`` stages, then one chain per path.

    On each chain, stopping alone pays more the later it happens (slope
    below 1/2 per stage), being pre-empted pays 1 less than stopping alone,
    and stopping jointly pays 1/4 less again, so the joint-stop hypothesis
    holds with room to spare.  Every coalition pays the same at the leaf,
    and that value is below the last pre-terminal solo payoff, so the first
    player visited stops one stage before the horizon and every later
    visit pre-empts the previous stop by one stage.  Before the chains
    begin, stopping pays at most -4, below anything a chain pays, so the
    descent ends where the chains begin and the sweep's length is the same
    on every seed.
    """
    nodes = [{"id": 0, "time": 0, "parent": None, "prob": "1"}]
    chain_of = [None]
    frontier = [0]
    for t in range(1, horizon + 1):
        next_frontier = []
        for parent in frontier:
            if t <= branching_stages:
                w = rng.randint(1, 3)
                branches = (Fraction(w, 4), Fraction(4 - w, 4))
            else:
                branches = (Fraction(1),)
            for prob in branches:
                node_id = len(nodes)
                nodes.append(
                    {"id": node_id, "time": t, "parent": parent, "prob": str(prob)}
                )
                next_frontier.append(node_id)
                if t == branching_stages:
                    chain_of.append(len(next_frontier) - 1)
                else:
                    chain_of.append(None if t < branching_stages else chain_of[parent])
        frontier = next_frontier

    chains = len(frontier)
    # per (player, chain): base solo payoff and its slope per stage
    base = {
        (i, c): Fraction(rng.randint(-16, 16), 8)
        for i in range(1, players + 1)
        for c in range(chains)
    }
    slope = {key: Fraction(rng.randint(1, 7), 16) for key in base}
    early = {
        (i, node_id): _dyadic(rng, -5, -4)
        for i in range(1, players + 1)
        for node_id, c in enumerate(chain_of)
        if c is None
    }

    def solo(i: int, node: dict) -> Fraction:
        c = chain_of[node["id"]]
        if c is None:
            return early[(i, node["id"])]
        return base[(i, c)] + slope[(i, c)] * node["time"]

    payoffs: dict = {}
    for i in range(1, players + 1):
        for coalition in _coalitions(players):
            values = {}
            for node in nodes:
                value = solo(i, node)
                if node["time"] == horizon:
                    value = solo(i, nodes[node["parent"]]) - 1
                elif coalition != (i,):
                    value -= 1 if i not in coalition else Fraction(5, 4)
                values[node["id"]] = value
            payoffs[(i, coalition)] = values
    return _document(players, horizon, nodes, payoffs)


def document_text(doc: dict) -> str:
    """Same layout as ``dynkin example`` writes."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"
