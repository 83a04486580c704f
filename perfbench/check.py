"""Correctness checks on command outputs, independent of the timed run.

Expected payoffs are recomputed here by a leaf walk straight from the game
document, without dynkin.  The trace audit is the one exception: it replays
the exported trace through ``dynkin.verify.check_trace_invariants``, which
the certifier owns.
"""

from __future__ import annotations

import json
from fractions import Fraction


class Game:
    """Root paths, path probabilities and payoffs read from a document."""

    def __init__(self, doc: dict) -> None:
        self.players = doc["players"]
        nodes = sorted(doc["tree"]["nodes"], key=lambda n: n["time"])
        path, prob = {None: ()}, {None: Fraction(1)}
        for node in nodes:
            parent = node["parent"]
            path[node["id"]] = path[parent] + (node["id"],)
            prob[node["id"]] = prob[parent] * Fraction(node["prob"])
        leaves = {n["id"] for n in nodes} - {n["parent"] for n in nodes}
        self.paths = {leaf: path[leaf] for leaf in leaves}
        self.probs = {leaf: prob[leaf] for leaf in leaves}
        self.payoff = {
            (p["player"], tuple(sorted(p["coalition"]))): p["values"]
            for p in doc["payoffs"]
        }

    def expected_payoffs(self, stops: dict[int, set[int]]) -> list[Fraction]:
        """Payoff vector of a profile given as each player's stop node set."""
        totals = [Fraction(0)] * self.players
        everyone = tuple(range(1, self.players + 1))
        for leaf, path in self.paths.items():
            first = {}
            for i in everyone:
                first[i] = next(
                    (t for t, node in enumerate(path) if node in stops[i]), None
                )
            times = [t for t in first.values() if t is not None]
            if times:
                stage = min(times)
                coalition = tuple(i for i in everyone if first[i] == stage)
                node = path[stage]
            else:
                coalition, node = everyone, leaf
            for i in everyone:
                value = Fraction(self.payoff[(i, coalition)][str(node)])
                totals[i - 1] += self.probs[leaf] * value
        return totals


def _stops(rules: list[dict]) -> dict[int, set[int]]:
    return {rule["player"]: set(rule["stops"]) for rule in rules}


def _check_certificate(payoffs: list[Fraction], certificate: dict) -> list[str]:
    problems = []
    if certificate["is_eps_nep"] is not True:
        problems.append("certificate is not an eps-equilibrium")
    if [Fraction(v) for v in certificate["achieved"]] != payoffs:
        problems.append("certificate payoffs differ from the leaf walk")
    return problems


def check_solve(game: Game, report: dict) -> list[str]:
    payoffs = game.expected_payoffs(_stops(report["profile"]["capped"]))
    problems = _check_certificate(payoffs, report["certificate"])
    if [Fraction(v) for v in report["expected_payoffs"]] != payoffs:
        problems.append("expected_payoffs differ from the leaf walk")
    return problems


def check_enumerate(game: Game, report: dict) -> list[str]:
    problems = []
    if report["count"] != len(report["profiles"]) or not report["profiles"]:
        problems.append(f"count {report['count']} with {len(report['profiles'])} profiles")
    for entry in report["profiles"]:
        payoffs = game.expected_payoffs(_stops(entry["rules"]))
        problems += _check_certificate(payoffs, entry["certificate"])
    return list(dict.fromkeys(problems))


def check_trace(game_text: str, report: dict, trace_text: str) -> list[str]:
    """Audit the exported sweep trace with dynkin's trace invariants."""
    from dynkin.documents import parse_game
    from dynkin.games import StrategyProfile
    from dynkin.scheme import EquilibriumProfile, SchemeConfig, SchemeStep
    from dynkin.trees import StoppingRule, min_of_rules
    from dynkin.verify import check_trace_invariants

    rows = report["trace"]
    if json.loads(trace_text) != rows:
        return ["trace file differs from the report's trace"]
    spec = parse_game(game_text)

    def rule(stops) -> StoppingRule:
        return StoppingRule(frozenset(stops))

    steps = tuple(
        SchemeStep(
            n=row["n"],
            player=row["player"],
            theta=rule(row["theta_stops"]),
            coalition_at_theta={},
            stage_reward=None,
            envelope=None,
            mu=rule(row["mu_stops"]),
            tau=rule(row["tau_stops"]),
        )
        for row in rows
    )
    by_player = sorted(report["profile"]["uncapped"], key=lambda r: r["player"])
    uncapped = StrategyProfile(tuple(rule(r["stops"]) for r in by_player))
    profile = EquilibriumProfile(
        uncapped=uncapped,
        capped=uncapped.capped(spec.tree),
        termination_rule=min_of_rules(spec.tree, list(uncapped.rules)),
        rounds_used=report["rounds_used"],
        trace=steps,
        tree=spec.tree,
        config=SchemeConfig(epsilon=Fraction(report["epsilon"])),
    )
    return check_trace_invariants(steps, profile)
