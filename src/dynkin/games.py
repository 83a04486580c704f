"""N-player stopping games with coalition-dependent payoffs.

The game ends at the earliest stage any player stops; each player i is then
paid from the process attached to (i, coalition), where the coalition is
the set of players whose rule attains that earliest stage.  If nobody ever
stops, every player collects the all-players terminal value, which is why
the model requires every coalition's process to coincide at the terminal
stage.

The structural hypothesis validated here (joint stopping with another
player never beats letting that player stop alone) is what makes the
constructive solver in :mod:`dynkin.scheme` converge to an equilibrium.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple

from .trees import (
    NEVER,
    NodeId,
    ScenarioTree,
    Stage,
    StoppingRule,
    leaf_stop_nodes,
    min_of_rules,
    stop_everywhere_at,
    validate_tree,
)


def all_coalitions(num_players: int) -> list[tuple[int, ...]]:
    """Every non-empty subset of {1..N} as a sorted tuple of its players,
    in tuple order."""
    out = []
    for size in range(1, num_players + 1):
        out.extend(itertools.combinations(range(1, num_players + 1), size))
    return sorted(out)


class GameSpec(NamedTuple):
    """Players, horizon, tree and one payoff process per (player, coalition).

    A coalition is the sorted tuple of its players, e.g. ``(1, 3)``; a
    payoff process is its exact value at every node, keyed by node id.
    """

    num_players: int
    horizon: int
    tree: ScenarioTree
    payoffs: dict[tuple[int, tuple[int, ...]], dict[NodeId, Fraction]]

    def payoff(
        self, player: int, coalition: tuple[int, ...]
    ) -> dict[NodeId, Fraction]:
        try:
            return self.payoffs[(player, coalition)]
        except KeyError:
            raise KeyError(
                f"no payoff process for player {player}, coalition {coalition}"
            ) from None

    @property
    def players(self) -> range:
        return range(1, self.num_players + 1)


class StrategyProfile(NamedTuple):
    """One stopping rule per player, index i-1 for player i."""

    rules: tuple[StoppingRule, ...]

    def rule_for(self, player: int) -> StoppingRule:
        return self.rules[player - 1]

    def capped(self, tree: ScenarioTree) -> "StrategyProfile":
        """Replace every rule by its minimum with stop-at-horizon."""
        horizon_rule = stop_everywhere_at(tree, tree.horizon)
        return StrategyProfile(
            tuple(min_of_rules(tree, [r, horizon_rule]) for r in self.rules)
        )


def validate_game(spec: GameSpec, enforce_assumption_a: bool = True) -> list[str]:
    """Return all violated game invariants (empty if the game is well formed).

    Checked: the tree validates and its depth matches the horizon; a total
    payoff process exists for all N * (2^N - 1) (player, coalition) pairs;
    all coalition processes agree at every leaf; and, unless disabled, the
    joint-stop hypothesis X{i, {i,j}} <= X{i, {j}} at every pre-terminal
    node.  Disabling the hypothesis check lets deliberately ill-behaved
    games be loaded for brute-force analysis.
    """
    violations = [f"tree: {v}" for v in validate_tree(spec.tree)]
    if spec.num_players < 2:
        violations.append(f"num_players is {spec.num_players}, expected >= 2")
    if spec.horizon < 1:
        violations.append(f"horizon is {spec.horizon}, expected >= 1")
    if violations:
        return violations
    if spec.tree.horizon != spec.horizon:
        violations.append(
            f"tree depth {spec.tree.horizon} does not match horizon {spec.horizon}"
        )

    coalitions = all_coalitions(spec.num_players)
    index = spec.tree.index
    for i in spec.players:
        for coalition in coalitions:
            process = spec.payoffs.get((i, coalition))
            if process is None:
                violations.append(
                    f"payoffs not total: missing (player {i}, coalition {coalition})"
                )
                continue
            if process.keys() >= index.position.keys():
                continue
            for node in spec.tree.nodes:
                if node.id not in process:
                    violations.append(
                        f"payoff (player {i}, coalition {coalition}): "
                        f"no value at node {node.id}"
                    )
    if violations:
        return violations

    # a parse shares one Fraction between equal strings, so most pairs
    # compared below are one object; the others are compared exactly
    everyone = tuple(spec.players)
    by_player = [
        (
            i,
            spec.payoff(i, everyone),
            [(c, spec.payoff(i, c)) for c in coalitions if c != everyone],
        )
        for i in spec.players
    ]
    for leaf in index.leaves:
        for i, everyone_values, coalition_values in by_player:
            terminal = everyone_values[leaf.id]
            for coalition, values in coalition_values:
                value = values[leaf.id]
                if value is not terminal and value != terminal:
                    violations.append(
                        f"terminal coincidence: player {i}, coalition "
                        f"{coalition} at leaf {leaf.id} is "
                        f"{value}, expected {terminal}"
                    )

    if enforce_assumption_a:
        pairs = [
            (
                i,
                j,
                spec.payoff(i, (min(i, j), max(i, j))),
                spec.payoff(i, (j,)),
            )
            for i in spec.players
            for j in spec.players
            if i != j
        ]
        inner = [node.id for node in spec.tree.nodes if node.time < spec.horizon]
        for node_id in inner:
            for i, j, joint_values, alone_values in pairs:
                joint = joint_values[node_id]
                alone = alone_values[node_id]
                if joint is not alone and (
                    joint.numerator * alone.denominator > alone.numerator * joint.denominator
                ):
                    violations.append(
                        f"joint-stop hypothesis: player {i} vs {j} at node "
                        f"{node_id}: X(i,{{i,j}})={joint} > X(i,{{j}})={alone}"
                    )
    return violations


def _ends(
    spec: GameSpec, profile: StrategyProfile
) -> dict[NodeId, tuple[Stage, tuple[int, ...]]]:
    """Termination stage and stopping coalition at each node where the game
    ends: the termination rule capped at the horizon, an antichain that
    covers every leaf once.

    No rule stops strictly above an end node, so the players stopping on
    its leaves are exactly those whose stop set holds it.  An end that no
    stop set holds is a leaf nobody stops on: stage NEVER, all players by
    convention.
    Raises ValueError if a rule names nodes the tree does not have.
    """
    tree = spec.tree
    nodes, position = tree.index.nodes, tree.index.position
    ends = min_of_rules(tree, [*profile.rules, stop_everywhere_at(tree, tree.horizon)])
    never = (NEVER, tuple(spec.players))
    stop_sets = [rule.stop_set for rule in profile.rules]
    outcomes = {}
    for node_id in ends.stop_set:
        members = tuple(i for i, stops in enumerate(stop_sets, start=1) if node_id in stops)
        outcomes[node_id] = (
            (nodes[position[node_id]].time, members) if members else never
        )
    return outcomes


def leaf_outcomes(
    spec: GameSpec, profile: StrategyProfile
) -> list[tuple[Stage, tuple[int, ...]]]:
    """Termination stage and stopping coalition on every leaf, in
    ``tree.leaves`` order: those of the node where the game ends on the
    leaf's path."""
    ends = _ends(spec, profile)
    return [ends[node.id] for node in leaf_stop_nodes(spec.tree, StoppingRule(frozenset(ends)))]


def expected_payoffs(spec: GameSpec, profile: StrategyProfile) -> tuple[Fraction, ...]:
    """Expected payoff vector of the profile, one exact value per player:
    the sum over the nodes where the game ends of the node's probability
    times the payoff to the coalition stopping there.

    On never-stopped paths each player collects the all-players value at
    the leaf, which every coalition process shares by terminal coincidence.
    The sums run on ``int``: with the index's integer node weights ``w``
    and ``D`` the lcm of the denominators of a player's values read,
    ``sum w * X * D`` is exactly ``D * scale[0]`` times that player's
    expectation.
    """
    index = spec.tree.index
    scale = index.scale[0]
    weight, position = index.weight, index.position
    weights = []
    read: list[list[Fraction]] = [[] for _ in spec.players]
    # each coalition's value dicts, one per player, looked up once per call
    tables: dict[tuple[int, ...], list[dict[NodeId, Fraction]]] = {}
    for node_id, (_, coalition) in _ends(spec, profile).items():
        weights.append(weight[position[node_id]])
        by_player = tables.get(coalition)
        if by_player is None:
            by_player = tables[coalition] = [
                spec.payoff(i, coalition) for i in spec.players
            ]
        for values, table in zip(read, by_player):
            values.append(table[node_id])
    totals = []
    for values in read:
        common = math.lcm(*[x.denominator for x in values])
        total = 0
        for w, x in zip(weights, values):
            total += w * x.numerator * (common // x.denominator)
        totals.append(Fraction(total, common * scale))
    return tuple(totals)
