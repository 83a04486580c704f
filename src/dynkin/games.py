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
import operator
from collections.abc import Iterator, Mapping
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

from .trees import (
    NEVER,
    Node,
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


class PayoffProcess(Mapping):
    """One payoff process by tree index position, read-only: the node at
    ``position[id]`` has the value ``numerators[position[id]] / denominator``
    (none where the numerator is None; ``size`` nodes have one), over the
    lcm of the values' denominators."""

    __slots__ = ("numerators", "denominator", "position", "size")

    def __init__(self, numerators: list, denominator: int, position: dict, size: int) -> None:
        self.numerators, self.denominator, self.position = numerators, denominator, position
        self.size = size

    def __getitem__(self, node_id: NodeId) -> Fraction:
        x = self.numerators[self.position[node_id]]
        if x is None:
            raise KeyError(node_id)
        return Fraction(x, self.denominator)

    def __iter__(self) -> Iterator[NodeId]:
        return (i for i, pos in self.position.items() if self.numerators[pos] is not None)

    def __len__(self) -> int:
        return self.size


class _GameFields(NamedTuple):
    num_players: int
    horizon: int
    tree: ScenarioTree
    payoffs: dict[tuple[int, tuple[int, ...]], Mapping[NodeId, Fraction]]


class GameSpec(_GameFields):
    """Players, horizon, tree and one payoff process per (player, coalition).

    A coalition is the sorted tuple of its players, e.g. ``(1, 3)``; a
    payoff process maps every node id to its exact value: a parse gives
    :class:`PayoffProcess` tables, code may give plain dicts.  The package
    reads them through :attr:`table`, memoized in the ``__dict__`` that
    this subclass of a ``NamedTuple`` has.
    """

    @property
    def players(self) -> range:
        return range(1, self.num_players + 1)

    @cached_property
    def table(self) -> dict[tuple[int, tuple[int, ...]], PayoffProcess]:
        """Each process of :attr:`payoffs` as a :class:`PayoffProcess` on
        the tree's index: one already on it as it is, any other read once.
        Raises ValueError unless the tree has an index."""
        index = self.tree.index
        table = dict(self.payoffs)
        for key, values in table.items():
            if type(values) is not PayoffProcess or values.position is not index.position:
                xs = [values.get(node.id) for node in index.nodes]
                read = [x for x in xs if x is not None]
                d = math.lcm(*[x.denominator for x in read])
                nums = [None if x is None else x.numerator * (d // x.denominator) for x in xs]
                table[key] = PayoffProcess(nums, d, index.position, len(read))
        return table


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
    table = spec.table
    for i in spec.players:
        for coalition in coalitions:
            row = table.get((i, coalition))
            if row is None:
                violations.append(
                    f"payoffs not total: missing (player {i}, coalition {coalition})"
                )
            elif len(row) < len(index.nodes):
                violations += [
                    f"payoff (player {i}, coalition {coalition}): no value at node {node.id}"
                    for node in spec.tree.nodes
                    if row.numerators[index.position[node.id]] is None
                ]
    if violations:
        return violations

    # each check compares whole slices by position first (the leaves are
    # the last stage, the inner nodes all before it), and words its
    # violations node by node only when it fails
    everyone, inner, n = tuple(spec.players), index.stage_start[-2], len(index.nodes)
    if not all(
        operator.eq(*_comparable(table[(i, c)], table[(i, everyone)], inner, n))
        for i in spec.players
        for c in coalitions
    ):
        for leaf, i, coalition in itertools.product(index.leaves, spec.players, coalitions):
            value, terminal = table[(i, coalition)][leaf.id], table[(i, everyone)][leaf.id]
            if value != terminal:
                violations.append(
                    f"terminal coincidence: player {i}, coalition {coalition} at leaf "
                    f"{leaf.id} is {value}, expected {terminal}"
                )
    pairs = [
        (i, j, table[(i, (min(i, j), max(i, j)))], table[(i, (j,))])
        for i, j in itertools.permutations(spec.players, 2)
    ]
    if enforce_assumption_a and not all(
        all(map(operator.le, *_comparable(a, b, 0, inner))) for *_, a, b in pairs
    ):
        for node in [node for node in spec.tree.nodes if node.time < spec.horizon]:
            for i, j, joint, alone in pairs:
                if joint[node.id] > alone[node.id]:
                    violations.append(
                        f"joint-stop hypothesis: player {i} vs {j} at node {node.id}: "
                        f"X(i,{{i,j}})={joint[node.id]} > X(i,{{j}})={alone[node.id]}"
                    )
    return violations


def _comparable(a: PayoffProcess, b: PayoffProcess, lo: int, hi: int) -> tuple[list, list]:
    """The numerators of ``a`` and ``b`` at positions ``lo:hi``, over one
    denominator."""
    x, y = a.numerators[lo:hi], b.numerators[lo:hi]
    if a.denominator != b.denominator:  # over the product of the two
        x, y = [v * b.denominator for v in x], [v * a.denominator for v in y]
    return x, y


def _ends(
    spec: GameSpec, profile: StrategyProfile
) -> tuple[list[Node | None], dict[NodeId, tuple[Stage, tuple[int, ...]]]]:
    """Each leaf's first stop node in ``tree.leaves`` order (None where
    nobody stops), and the stage and stopping coalition at each node where
    the game ends: on a path, the first node of the union of the stop sets,
    where exactly the players whose stop set holds it stop, or the leaf if
    nobody stops (stage NEVER, all players by convention).
    Raises ValueError if a rule names nodes the tree does not have.
    """
    tree = spec.tree
    stop_sets = [rule.stop_set for rule in profile.rules]
    firsts = leaf_stop_nodes(tree, StoppingRule(frozenset().union(*stop_sets)))
    never = (NEVER, tuple(spec.players))
    outcomes = {}
    for leaf, node in zip(tree.leaves, firsts):
        if node is None:
            outcomes[leaf.id] = never
        elif node.id not in outcomes:
            members = [i for i, stops in enumerate(stop_sets, start=1) if node.id in stops]
            outcomes[node.id] = (node.time, tuple(members))
    return firsts, outcomes


def leaf_outcomes(
    spec: GameSpec, profile: StrategyProfile
) -> list[tuple[Stage, tuple[int, ...]]]:
    """Termination stage and stopping coalition on every leaf, in
    ``tree.leaves`` order: those of the node where the game ends on the
    leaf's path."""
    firsts, outcomes = _ends(spec, profile)
    ends = [leaf if node is None else node for leaf, node in zip(spec.tree.leaves, firsts)]
    return [outcomes[node.id] for node in ends]


def expected_payoffs(spec: GameSpec, profile: StrategyProfile) -> tuple[Fraction, ...]:
    """Expected payoff vector of the profile, one exact value per player:
    the sum over the nodes where the game ends of the node's probability
    times the payoff to the coalition stopping there.

    On never-stopped paths each player collects the all-players value at
    the leaf, which every coalition process shares by terminal coincidence.
    The sums run on ``int``: with the index's integer node weights ``w``
    and ``D`` the lcm of the denominators of the processes read, ``sum w *
    X * D`` is exactly ``D * scale[0]`` times that player's expectation.
    """
    index = spec.tree.index
    weight, position = index.weight, index.position
    ends: dict[tuple[int, ...], list[int]] = {}  # coalition: positions
    for node_id, (_, coalition) in _ends(spec, profile)[1].items():
        ends.setdefault(coalition, []).append(position[node_id])
    totals = []
    for i in spec.players:
        rows = [(spec.table[(i, coalition)], at) for coalition, at in ends.items()]
        common = math.lcm(*[row.denominator for row, _ in rows])
        total = 0
        for row, at in rows:
            numerators, factor = row.numerators, common // row.denominator
            total += factor * sum([weight[p] * numerators[p] for p in at])
        totals.append(Fraction(total, common * index.scale[0]))
    return tuple(totals)
