"""Reference game outcomes that only the tests use.

Each player's first stop on a path is read by a root walk
(:mod:`trees_reference`), and a payoff is a sum over the leaves of the
path probability, a product of branch probabilities, times the payoff at
the realized outcome: the path the tests hold
:func:`dynkin.games.leaf_outcomes` and
:func:`dynkin.games.expected_payoffs` to.  :func:`with_rule` swaps one
player's rule in a profile.
"""

from __future__ import annotations

from fractions import Fraction

from dynkin.games import Coalition, GameSpec, StrategyProfile
from dynkin.trees import NEVER, NodeId, Stage, StoppingRule
from trees_reference import RootWalks, stop_time


def with_rule(
    profile: StrategyProfile, player: int, rule: StoppingRule
) -> StrategyProfile:
    """The profile with the player's rule replaced by ``rule``."""
    rules = list(profile.rules)
    rules[player - 1] = rule
    return StrategyProfile(tuple(rules))


def realized_outcome(
    spec: GameSpec, profile: StrategyProfile, leaf_id: NodeId
) -> tuple[Stage, Coalition]:
    """Termination stage and stopping coalition on one path.

    The stage is the minimum of the players' stop times; the coalition is
    the set of players attaining it.  When nobody stops, the coalition is
    all players by convention.
    """
    times = {i: stop_time(spec.tree, profile.rule_for(i), leaf_id) for i in spec.players}
    stage = min(times.values())
    if stage == NEVER:
        return NEVER, Coalition.everyone(spec.num_players)
    return stage, Coalition.of(i for i, t in times.items() if t == stage)


def walk_payoff(
    spec: GameSpec, profile: StrategyProfile, player: int, walks: RootWalks
) -> Fraction:
    """The player's expected payoff under the profile, leaf by leaf from
    ``walks`` (the game tree's :class:`RootWalks`, which keeps each rule's
    first stops for the next call)."""
    everyone = spec.payoff(player, Coalition.everyone(spec.num_players)).values
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
            values = tables[members] = spec.payoff(player, Coalition.of(members)).values
        total += prob * values[path[int(stage)].id]
    return total
