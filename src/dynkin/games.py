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
from functools import total_ordering
from typing import Iterable, Iterator, NamedTuple

from .trees import (
    NEVER,
    AdaptedProcess,
    NodeId,
    ScenarioTree,
    Stage,
    StoppingRule,
    leaf_stop_nodes,
    min_of_rules,
    stop_everywhere_at,
    validate_tree,
)


@total_ordering
class Coalition:
    """Non-empty sorted set of player indices.

    Immutable, hashable and ordered by ``players``.  A plain class, not a
    ``NamedTuple``: its own iteration, length and membership are over the
    players, and it never equals a plain tuple.
    """

    __slots__ = ("players",)

    def __init__(self, players: tuple[int, ...]) -> None:
        object.__setattr__(self, "players", players)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.players == other.players

    def __lt__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.players < other.players

    def __hash__(self) -> int:
        return hash(self.players)

    def __repr__(self) -> str:
        return f"Coalition(players={self.players!r})"

    @classmethod
    def of(cls, players: Iterable[int]) -> "Coalition":
        members = tuple(sorted(set(players)))
        if not members:
            raise ValueError("coalition must be non-empty")
        if any(p < 1 for p in members):
            raise ValueError(f"player indices must be >= 1, got {members}")
        return cls(members)

    @classmethod
    def everyone(cls, num_players: int) -> "Coalition":
        return cls.of(range(1, num_players + 1))

    def with_member(self, player: int) -> "Coalition":
        return Coalition.of(self.players + (player,))

    def __contains__(self, player: int) -> bool:
        return player in self.players

    def __iter__(self) -> Iterator[int]:
        return iter(self.players)

    def __len__(self) -> int:
        return len(self.players)


def all_coalitions(num_players: int) -> list[Coalition]:
    """Every non-empty subset of {1..N}, canonically ordered."""
    out = []
    for size in range(1, num_players + 1):
        for combo in itertools.combinations(range(1, num_players + 1), size):
            out.append(Coalition(combo))
    return sorted(out)


class GameSpec(NamedTuple):
    """Players, horizon, tree and one payoff process per (player, coalition)."""

    num_players: int
    horizon: int
    tree: ScenarioTree
    payoffs: dict[tuple[int, Coalition], AdaptedProcess]

    def payoff(self, player: int, coalition: Coalition) -> AdaptedProcess:
        try:
            return self.payoffs[(player, coalition)]
        except KeyError:
            raise KeyError(f"no payoff process for player {player}, coalition {coalition.players}") from None

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
                    f"payoffs not total: missing (player {i}, coalition {coalition.players})"
                )
                continue
            if process.values.keys() >= index.position.keys():
                continue
            for node_id in process.missing_on(spec.tree):
                violations.append(
                    f"payoff (player {i}, coalition {coalition.players}): "
                    f"no value at node {node_id}"
                )
    if violations:
        return violations

    # a parse shares one Fraction between equal strings, so most pairs
    # compared below are one object; the others are compared exactly
    everyone = Coalition.everyone(spec.num_players)
    by_player = [
        (
            i,
            spec.payoff(i, everyone).values,
            [(c, spec.payoff(i, c).values) for c in coalitions if c != everyone],
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
                        f"{coalition.players} at leaf {leaf.id} is "
                        f"{value}, expected {terminal}"
                    )

    if enforce_assumption_a:
        pairs = [
            (
                i,
                j,
                spec.payoff(i, Coalition.of((i, j))).values,
                spec.payoff(i, Coalition.of((j,))).values,
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


def leaf_outcomes(
    spec: GameSpec, profile: StrategyProfile
) -> list[tuple[Stage, Coalition, NodeId]]:
    """Termination stage, stopping coalition and payoff node on every leaf,
    in ``tree.leaves`` order.

    The stage is the minimum of the players' stop times on the leaf's root
    path, and the coalition is the set of players attaining it; the
    payoffs are collected at the stop node at that stage.  When nobody
    stops, the stage is NEVER, the coalition is all players by convention
    and the node is the leaf itself.  Read from the players'
    :func:`leaf_stop_nodes` vectors instead of one root walk per player and
    leaf.
    """
    everyone = Coalition.everyone(spec.num_players)
    stops = [leaf_stop_nodes(spec.tree, rule) for rule in profile.rules]
    outcomes = []
    for leaf, *row in zip(spec.tree.leaves, *stops):
        times = [NEVER if node is None else node.time for node in row]
        stage = min(times)
        if stage == NEVER:
            outcomes.append((NEVER, everyone, leaf.id))
        else:
            members = tuple(i for i, t in enumerate(times, start=1) if t == stage)
            outcomes.append((stage, Coalition(members), row[members[0] - 1].id))
    return outcomes


def expected_payoffs(
    spec: GameSpec,
    profile: StrategyProfile,
    outcomes: list[tuple[Stage, Coalition, NodeId]] | None = None,
) -> tuple[Fraction, ...]:
    """Expected payoff vector of the profile, one exact value per player.

    On never-stopped paths each player collects the all-players value at
    the leaf, which every coalition process shares by terminal coincidence.
    Each leaf's payoff node and coalition come from :func:`leaf_outcomes`;
    pass ``outcomes`` when they are already at hand for this profile.

    The sums run on ``int``: with the index's integer leaf weights ``w``
    and ``D`` the lcm of the denominators of a player's values read,
    ``sum w * X * D`` is exactly ``D * scale[0]`` times that player's
    expectation.
    """
    index = spec.tree.index
    scale = index.scale[0]
    if outcomes is None:
        outcomes = leaf_outcomes(spec, profile)
    weight, position = index.weight, index.position
    weights = []
    read: list[list[Fraction]] = [[] for _ in spec.players]
    # each coalition's value dicts, one per player, looked up once per call
    tables: dict[tuple[int, ...], list[dict[NodeId, Fraction]]] = {}
    for leaf, (_, coalition, node_id) in zip(index.leaves, outcomes):
        weights.append(weight[position[leaf.id]])
        by_player = tables.get(coalition.players)
        if by_player is None:
            by_player = tables[coalition.players] = [
                spec.payoff(i, coalition).values for i in spec.players
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
