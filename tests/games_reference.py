"""Reference game outcomes that only the tests use.

Each player's first stop on a path is read by a root walk
(:mod:`trees_reference`), and a payoff is a sum over the leaves of the
path probability, a product of branch probabilities, times the payoff at
the realized outcome: the path the tests hold
:func:`dynkin.games.leaf_outcomes` and
:func:`dynkin.games.expected_payoffs` to.  :func:`with_rule` swaps one
player's rule in a profile.  :func:`reference_validate_game` reads every
payoff as a ``Fraction``, node by node, in the order the violations are
listed: the routine :func:`dynkin.games.validate_game` is held to.
"""

from __future__ import annotations

from fractions import Fraction

from dynkin.games import GameSpec, StrategyProfile, all_coalitions
from dynkin.trees import NEVER, NodeId, Stage, StoppingRule
from trees_reference import RootWalks, reference_validate_tree, stop_time


def with_rule(
    profile: StrategyProfile, player: int, rule: StoppingRule
) -> StrategyProfile:
    """The profile with the player's rule replaced by ``rule``."""
    rules = list(profile.rules)
    rules[player - 1] = rule
    return StrategyProfile(tuple(rules))


def realized_outcome(
    spec: GameSpec, profile: StrategyProfile, leaf_id: NodeId
) -> tuple[Stage, tuple[int, ...]]:
    """Termination stage and stopping coalition on one path.

    The stage is the minimum of the players' stop times; the coalition is
    the set of players attaining it.  When nobody stops, the coalition is
    all players by convention.
    """
    times = {i: stop_time(spec.tree, profile.rule_for(i), leaf_id) for i in spec.players}
    stage = min(times.values())
    if stage == NEVER:
        return NEVER, tuple(range(1, spec.num_players + 1))
    return stage, tuple(sorted(i for i, t in times.items() if t == stage))


def walk_payoff(
    spec: GameSpec, profile: StrategyProfile, player: int, walks: RootWalks
) -> Fraction:
    """The player's expected payoff under the profile, leaf by leaf from
    ``walks`` (the game tree's :class:`RootWalks`, which keeps each rule's
    first stops for the next call)."""
    everyone = spec.payoffs[(player, tuple(range(1, spec.num_players + 1)))]
    tables: dict[tuple[int, ...], dict[NodeId, Fraction]] = {}  # by coalition
    rows = zip(*[walks.stop_nodes(rule) for rule in profile.rules])
    total = Fraction(0)
    for leaf, path, prob, row in zip(walks.leaves, walks.paths, walks.probabilities, rows):
        times = [NEVER if node is None else node.time for node in row]
        stage = min(times)
        if stage == NEVER:
            total += prob * everyone[leaf.id]
            continue
        members = tuple(i for i, t in enumerate(times, start=1) if t == stage)
        values = tables.get(members)
        if values is None:
            values = tables[members] = spec.payoffs[(player, members)]
        total += prob * values[path[int(stage)].id]
    return total


def reference_validate_game(spec: GameSpec, enforce_assumption_a: bool = True) -> list[str]:
    """The violations :func:`dynkin.games.validate_game` lists, found node
    by node on ``spec.payoffs`` values: the tree's, then missing payoffs,
    then terminal coincidence leaf by leaf, then the joint-stop hypothesis
    node by node before the horizon."""
    violations = [f"tree: {v}" for v in reference_validate_tree(spec.tree)]
    if spec.num_players < 2:
        violations.append(f"num_players is {spec.num_players}, expected >= 2")
    if spec.horizon < 1:
        violations.append(f"horizon is {spec.horizon}, expected >= 1")
    if violations:
        return violations
    if spec.tree.horizon != spec.horizon:
        violations.append(f"tree depth {spec.tree.horizon} does not match horizon {spec.horizon}")
    coalitions = all_coalitions(spec.num_players)
    for i in spec.players:
        for coalition in coalitions:
            if (i, coalition) not in spec.payoffs:
                violations.append(f"payoffs not total: missing (player {i}, coalition {coalition})")
                continue
            for node in spec.tree.nodes:
                if node.id not in spec.payoffs[(i, coalition)]:
                    violations.append(
                        f"payoff (player {i}, coalition {coalition}): no value at node {node.id}"
                    )
    if violations:
        return violations
    everyone = tuple(spec.players)
    for leaf in spec.tree.leaves:
        for i in spec.players:
            terminal = spec.payoffs[(i, everyone)][leaf.id]
            for coalition in coalitions:
                value = spec.payoffs[(i, coalition)][leaf.id]
                if value != terminal:
                    violations.append(
                        f"terminal coincidence: player {i}, coalition {coalition} at leaf "
                        f"{leaf.id} is {value}, expected {terminal}"
                    )
    if enforce_assumption_a:
        for node in spec.tree.nodes:
            if node.time == spec.horizon:
                continue
            for i in spec.players:
                for j in spec.players:
                    if i == j:
                        continue
                    joint = Fraction(spec.payoffs[(i, tuple(sorted((i, j))))][node.id])
                    alone = Fraction(spec.payoffs[(i, (j,))][node.id])
                    if joint > alone:
                        violations.append(
                            f"joint-stop hypothesis: player {i} vs {j} at node {node.id}: "
                            f"X(i,{{i,j}})={joint} > X(i,{{j}})={alone}"
                        )
    return violations
