"""Built-in example games, emitted as canonical JSON documents.

Names are part of the command line contract.  All four games have every
coalition's terminal payoff coerced to the all-players value, which the
finite-horizon model requires (stopping at the horizon always involves
everyone); the two "counterexample" games additionally violate the
joint-stop hypothesis on purpose, so they load only with that check off.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .documents import SCHEMA_VERSION
from .games import all_coalitions


def _doc(players: int, horizon: int, nodes: list[dict], payoffs: list[dict]) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "players": players,
        "horizon": horizon,
        "tree": {"nodes": nodes},
        "payoffs": payoffs,
    }


def _payoff_entry(player: int, coalition, values: dict[int, Fraction]) -> dict:
    return {
        "player": player,
        "coalition": list(coalition),
        "values": {str(k): str(v) for k, v in sorted(values.items())},
    }


def _single_path_nodes(horizon: int) -> list[dict]:
    nodes = [{"id": 0, "time": 0, "parent": None, "prob": "1"}]
    for t in range(1, horizon + 1):
        nodes.append({"id": t, "time": t, "parent": t - 1, "prob": "1"})
    return nodes


def three_player_deterministic() -> dict:
    """Three players, horizon 2, deterministic payoffs on a single branch.

    Everyone gets 1/8 for stopping at stage 0 and 0 at the end; the stage-1
    payoffs reward letting exactly one opponent stop (1/2 when player 1 or
    3 stops alone, 3/2 for player 2 stopping alone) and punish joint stops.
    Small tolerances make the sweep stop one player at stage 1 while both
    others wait, and which player that is depends on the visiting order.
    """
    table = {
        1: {(1,): "1/2", (2,): "1/4", (3,): "1/2", (1, 2): "1/4",
            (1, 3): "1/2", (2, 3): "1/4", (1, 2, 3): "1/4"},
        2: {(1,): "1/2", (2,): "3/2", (3,): "1/2", (1, 2): "1/4",
            (1, 3): "1/2", (2, 3): "1/4", (1, 2, 3): "1/2"},
        3: {(1,): "1/2", (2,): "1/4", (3,): "1/2", (1, 2): "1/4",
            (1, 3): "1/2", (2, 3): "1/4", (1, 2, 3): "1/4"},
    }
    payoffs = []
    for player in (1, 2, 3):
        for coalition in all_coalitions(3):
            values = {
                0: Fraction(1, 8),
                1: Fraction(table[player][coalition]),
                2: Fraction(0),
            }
            payoffs.append(_payoff_entry(player, coalition, values))
    return _doc(3, 2, _single_path_nodes(2), payoffs)


def two_player_walk() -> dict:
    """Two players, horizon 3, driven by a symmetric +-1 walk.

    Each stage reveals an independent pair (M, Q) uniform on {-1, 1}^2; the
    walk is the running sum of the M draws.  Player 1's payoffs track the
    walk (stopping alone pays the walk itself, +1/2 jointly, +1 when
    player 2 stops alone); player 2's add the fresh Q draw, so stopping is
    attractive exactly after an up-tick of Q.  Root payoffs sit at -2 (and
    -3/2 / -1 for the larger coalitions) so that no tolerance up to 1/2
    makes stopping before the first draw worthwhile.
    """
    nodes: list[dict] = [{"id": 0, "time": 0, "parent": None, "prob": "1"}]
    state = {0: (0, 0)}  # per node id: (walk sum, latest Q draw)
    for node in nodes:  # grows while iterating: breadth first
        t, walk = node["time"], state[node["id"]][0]
        for m, q in [(1, 1), (1, -1), (-1, 1), (-1, -1)] if t < 3 else []:
            state[len(nodes)] = (walk + m, q)
            nodes.append({"id": len(nodes), "time": t + 1, "parent": node["id"], "prob": "1/4"})
    half = Fraction(1, 2)
    # per (player, coalition): the bump over the player's base process
    # (-2 at the root, then the walk, plus Q for player 2); the leaves pay
    # base + 1/2 whoever stops
    bumps = {(1, (1,)): 0, (1, (1, 2)): half, (1, (2,)): 1}
    bumps |= {(2, (2,)): 0, (2, (1, 2)): half, (2, (1,)): 1}
    payoffs = []
    for player in (1, 2):
        for coalition in all_coalitions(2):
            values = {}
            for node in nodes:
                s, q = state[node["id"]]
                base = Fraction(-2 if node["time"] == 0 else s + (q if player == 2 else 0))
                bump = half if node["time"] == 3 else bumps[(player, coalition)]
                values[node["id"]] = base + bump
            payoffs.append(_payoff_entry(player, coalition, values))
    return _doc(2, 3, nodes, payoffs)


def timing_matching_pennies() -> dict:
    """Two players, horizon 3, deterministic: player 1 wins 1 when both stop
    at the same effective stage, player 2 loses it.  No profile is stable
    for tolerances below 1, hence there is nothing for a solver to find.
    """
    p1 = {(1,): 0, (2,): 0, (1, 2): 1}
    p2 = {(2,): 0, (1,): 0, (1, 2): -1}
    payoffs = []
    for player, table in ((1, p1), (2, p2)):
        for coalition in all_coalitions(2):
            terminal = Fraction(table[(1, 2)])
            values = {
                t: (terminal if t == 3 else Fraction(table[coalition]))
                for t in range(4)
            }
            payoffs.append(_payoff_entry(player, coalition, values))
    return _doc(2, 3, _single_path_nodes(3), payoffs)


def one_sided_timing() -> dict:
    """Variant of the matching game where player 2 is fully indifferent:
    simultaneous stops at any stage are equilibria despite the violated
    joint-stop hypothesis.
    """
    payoffs = []
    for coalition in all_coalitions(2):
        values1 = {
            t: Fraction(1 if (coalition == (1, 2) or t == 3) else 0)
            for t in range(4)
        }
        payoffs.append(_payoff_entry(1, coalition, values1))
    for coalition in all_coalitions(2):
        payoffs.append(_payoff_entry(2, coalition, {t: Fraction(0) for t in range(4)}))
    return _doc(2, 3, _single_path_nodes(3), payoffs)


EXAMPLES: dict[str, Callable[[], dict]] = {
    "paper-5-1": three_player_deterministic,
    "paper-5-3": two_player_walk,
    "counterexample-a": timing_matching_pennies,
    "counterexample-b": one_sided_timing,
}


def example_document(name: str) -> dict:
    try:
        builder = EXAMPLES[name]
    except KeyError:
        known = ", ".join(sorted(EXAMPLES))
        raise KeyError(f"unknown example {name!r}; available: {known}") from None
    return builder()
