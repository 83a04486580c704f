"""Circular best-reply construction of epsilon-equilibrium stopping profiles.

Players are visited cyclically.  At each step the visited player faces a
one-player stopping problem against the latest rules of the others: before
their earliest stop the player collects their own solo payoff, and from
that stop on the reward freezes at the better of joining the stopping
coalition or letting it stop without them.  The player's answer is the
first-entry rule of the Snell envelope threshold, and their strategy is
updated where that answer strictly precedes the others' stop:

    theta_n = earliest stop among the other players' current rules
    U^n     = solo payoff before theta_n, frozen join/stay value after
    W^n     = Snell envelope of U^n
    mu_n    = first stage with W^n <= U^n + eps
    tau_n   = mu_n where mu_n < theta_n, else the player's previous rule

Rules start at "never stop" and can only move earlier, so on a finite tree
the sweep reaches a fixed point; the fixed profile is an eps-equilibrium of
the game (certified independently in :mod:`dynkin.verify`).

Each step runs on ``int``.  A run scales each player's solo payoff once,
before its first round; a step copies that vector and overwrites only the
theta nodes with their frozen values.  The envelope and mu then visit only
the live region, the nodes not strictly below a theta node
(:func:`dynkin.snell.integer_snell`).  A step keeps what it decides, the
rules theta, mu and tau, and drops U and W when it returns, so a run's
trace grows with its steps' stop sets, not with steps times nodes.  The
tau update and the round check decide on stop sets with
:func:`dynkin.trees.min_of_rules`; per-leaf stop times only word a check
that failed.  The tests replay each step's U and W from its theta
coalitions and hold them and mu to a full-tree ``Fraction`` reference,
and the tau update to a leaf-by-leaf one (``tests/snell_reference.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .games import GameSpec, StrategyProfile, validate_game
from .snell import integer_snell
from .trees import (
    NEVER_RULE,
    NodeId,
    ScenarioTree,
    StoppingRule,
    leaf_stop_times,
    min_of_rules,
    stop_everywhere_at,
)


class SchemeConfig(NamedTuple):
    """Tolerance, visiting order and a safety cap on sweep rounds.

    ``order[k]`` is the player visited at the (k+1)-th step of every round;
    it must be a permutation of 1..N (identity when omitted).  The reached
    equilibrium may genuinely depend on this order.  ``max_rounds = None``
    uses the worst-case bound N * leaves * (horizon + 1) + 1, past which a
    run cannot still be making progress.
    """

    epsilon: Fraction = Fraction(0)
    order: tuple[int, ...] | None = None
    max_rounds: int | None = None

    def order_for(self, num_players: int) -> tuple[int, ...]:
        order = tuple(range(1, num_players + 1)) if self.order is None else self.order
        if sorted(order) != list(range(1, num_players + 1)):
            raise ValueError(f"order {order} is not a permutation of 1..{num_players}")
        return order


class SchemeStep(NamedTuple):
    """The rules decided while one player was visited at step ``n``.

    ``stage_reward`` and ``envelope`` are always None: the step's U and W
    are not kept.  The two fields remain so that rows of an exported trace
    can still be rebuilt with them as keywords.
    """

    n: int
    player: int
    theta: StoppingRule
    coalition_at_theta: dict[NodeId, tuple[int, ...]]
    mu: StoppingRule
    tau: StoppingRule
    stage_reward: None = None
    envelope: None = None


class EquilibriumProfile(NamedTuple):
    """Fixed point of the sweep, with every step's rules for auditing."""

    uncapped: StrategyProfile
    capped: StrategyProfile
    termination_rule: StoppingRule
    rounds_used: int
    trace: tuple[SchemeStep, ...]
    tree: ScenarioTree
    config: SchemeConfig
    initialized_at_horizon: bool = False


class SweepInvariantError(RuntimeError):
    """A step or round broke an identity the sweep provably maintains."""


class ConvergenceError(RuntimeError):
    """Raised when the sweep hits the round cap; carries the partial trace."""

    def __init__(self, message: str, trace: tuple[SchemeStep, ...]):
        super().__init__(message)
        self.trace = trace


def rounds_bound(spec: GameSpec) -> int:
    """Worst-case sweep rounds: every rule can move earlier at most
    (horizon + 1) times on each path, and a non-final round moves some rule."""
    return spec.num_players * len(spec.tree.leaves) * (spec.horizon + 1) + 1


def _stop_coalitions(
    theta: StoppingRule, others: Mapping[int, StoppingRule]
) -> dict[NodeId, tuple[int, ...]]:
    """The coalition of the other players stopping at each theta node;
    ``others`` lists them in increasing order."""
    return {
        node_id: tuple(j for j, rule in others.items() if node_id in rule.stop_set)
        for node_id in theta.stop_set
    }


def _scaled_solo(
    spec: GameSpec, player: int, epsilon: Fraction
) -> tuple[list[int], int]:
    """The player's solo payoff as ``X(v) * D * index.scale[t]`` by index
    position, with ``D`` the lcm of epsilon's and the values' denominators."""
    index = spec.tree.index
    solo = spec.table[(player, (player,))]
    d = math.lcm(epsilon.denominator, solo.denominator)
    start = index.stage_start
    scaled: list[int] = []
    for t, scale in enumerate(index.scale):
        s = d // solo.denominator * scale
        scaled += [x * s for x in solo.numerators[start[t] : start[t + 1]]]
    return scaled, d


def _stage_reward(
    spec: GameSpec,
    player: int,
    coalition_at: Mapping[NodeId, tuple[int, ...]],
    solo: tuple[list[int], int],
) -> tuple[list[int], int, frozenset[int]]:
    """U^n on ``int``: a copy of the scaled solo payoff with every theta
    node set to max(join, stay), frozen from there down, with its
    denominator and the theta nodes' positions, as
    :func:`dynkin.snell.integer_snell` reads them.

    A frozen value whose denominator does not divide ``D * scale[t]``
    raises this step's ``D`` to the least multiple it does divide, and the
    copy is rescaled to match; nothing rounds.  Each coalition's join and
    stay processes are looked up once per step.
    """
    index = spec.tree.index
    scaled, d = solo
    frozen: dict[int, tuple[int, int, int]] = {}  # position: (value as p, q; stage scale)
    rows: dict[tuple[int, ...], tuple] = {}  # coalition: (join, stay)
    raised = d
    for node_id, coalition in coalition_at.items():
        pair = rows.get(coalition)
        if pair is None:
            pair = rows[coalition] = (
                spec.table[(player, tuple(sorted((*coalition, player))))],
                spec.table[(player, coalition)],
            )
        pos = index.position[node_id]
        join, stay = pair
        if join.numerators[pos] * stay.denominator >= stay.numerators[pos] * join.denominator:
            p, q = join.numerators[pos], join.denominator
        else:
            p, q = stay.numerators[pos], stay.denominator
        g = math.gcd(p, q)
        p, q = p // g, q // g
        scale = index.scale[index.nodes[pos].time]
        raised = math.lcm(raised, q // math.gcd(q, scale))
        frozen[pos] = (p, q, scale)
    factor = raised // d
    u = [x * factor for x in scaled] if factor > 1 else list(scaled)
    for pos, (p, q, scale) in frozen.items():
        u[pos] = p * (raised * scale // q)
    return u, raised, frozenset(frozen)


def _first_leaf(
    tree: ScenarioTree, rules: Sequence[StoppingRule], broken: Callable[..., bool]
) -> tuple:
    """``(leaf, *times)`` for the first leaf, in ``tree.leaves`` order, whose
    stop times under ``rules`` satisfy ``broken``: the wording of a check
    that failed on stop sets, the only place the sweep reads leaf times."""
    for leaf, *times in zip(tree.leaves, *[leaf_stop_times(tree, r) for r in rules]):
        if broken(*times):
            return (leaf, *times)
    raise SweepInvariantError("a check failed on stop sets but on no leaf")


def _updated_tau(
    tree: ScenarioTree,
    mu: StoppingRule,
    theta: StoppingRule,
    previous: StoppingRule,
) -> StoppingRule:
    """Pathwise update: mu where it strictly precedes theta, else previous.

    Decided on stop sets.  ``fresh``, the stop nodes of min(mu, theta) that
    theta lacks, are the mu nodes strictly before theta on their paths
    (exact even for a mu that stops below a theta node).  The rule
    returned, min(previous, fresh), is the unsimplified form: mu & previous
    where that precedes theta, else previous.  A fresh node drops out of it
    exactly when a previous stop lies strictly above it, that is, where
    previous < mu < theta on its leaves, which is exactly where the
    simplified form disagrees.  The fresh answer never comes later than
    the player's previous rule, so this cannot happen; if it does,
    :class:`SweepInvariantError` names the first such leaf.
    """
    fresh = min_of_rules(tree, [mu, theta]).stop_set - theta.stop_set
    tau = min_of_rules(tree, [previous, StoppingRule(fresh)])
    if fresh <= tau.stop_set:
        return tau
    leaf, m, th, prev = _first_leaf(
        tree, (mu, theta, previous), lambda m, th, prev: prev < m < th
    )
    raise SweepInvariantError(
        f"tau update forms disagree on leaf {leaf.id}: "
        f"mu={m} theta={th} previous={prev}"
    )


def scheme_step(
    spec: GameSpec,
    epsilon: Fraction,
    n: int,
    player: int,
    taus: Sequence[StoppingRule],
    solo: tuple[list[int], int],
) -> SchemeStep:
    """Step ``n``: visit ``player`` against the others' rules in ``taus``
    (index i-1 = player i) and compute their updated rule.  ``solo`` is the
    player's solo payoff as :func:`_scaled_solo` scales it for ``epsilon``.
    """
    others = {p: taus[p - 1] for p in spec.players if p != player}
    theta = min_of_rules(spec.tree, list(others.values()))
    coalition_at = _stop_coalitions(theta, others)
    u, d, frozen = _stage_reward(spec, player, coalition_at, solo)
    _, mu = integer_snell(spec.tree, u, d, frozen, epsilon)
    tau = _updated_tau(spec.tree, mu, theta, taus[player - 1])
    return SchemeStep(n, player, theta, coalition_at, mu, tau)


def run_scheme(
    spec: GameSpec,
    config: SchemeConfig,
    initialize_at_horizon: bool = False,
    *,
    validated: bool = False,
) -> EquilibriumProfile:
    """Sweep until a full round leaves every player's rule unchanged.

    The game must satisfy the joint-stop hypothesis; the returned profile
    is reported both uncapped (never-stop allowed) and capped at the
    horizon, which pay identically.  Raises :class:`ConvergenceError` with
    the partial trace if the round cap is hit, which cannot happen below
    the worst-case bound.

    All players start at never-stop, or with ``initialize_at_horizon`` at
    stop-at-horizon, a variant that must reach the same capped profile on
    valid games.  Steps are numbered from N + 1, as in the paper.

    The game is validated first, and a ValueError lists its violations.
    Pass ``validated=True`` only for a spec that
    ``validate_game(spec, enforce_assumption_a=True)`` has just passed,
    as :func:`dynkin.documents.parse_game` does for the command line.
    """
    if not validated:
        violations = validate_game(spec, enforce_assumption_a=True)
        if violations:
            raise ValueError(
                "game is not valid for the scheme: " + "; ".join(violations)
            )

    order = config.order_for(spec.num_players)  # fail fast on a bad order
    cap = config.max_rounds if config.max_rounds is not None else rounds_bound(spec)
    if cap < 1:
        raise ValueError(f"max_rounds must be >= 1, got {cap}")

    start = stop_everywhere_at(spec.tree, spec.horizon) if initialize_at_horizon else NEVER_RULE
    taus = [start] * spec.num_players
    solo = [_scaled_solo(spec, p, config.epsilon) for p in spec.players]
    trace: list[SchemeStep] = []
    rounds = 0
    while True:
        if rounds >= cap:
            raise ConvergenceError(
                f"no stationary round within {cap} rounds", tuple(trace)
            )
        before = list(taus)
        for player in order:
            n = spec.num_players + 1 + len(trace)
            step = scheme_step(spec, config.epsilon, n, player, taus, solo[player - 1])
            trace.append(step)
            taus[player - 1] = step.tau
        rounds += 1
        if taus == before:
            break
        # a round visits every player once and must never push a rule
        # later; on canonical antichains min(now, then) == now exactly when
        # now stops no later than then on every leaf
        for p, now, then in zip(spec.players, taus, before):
            if min_of_rules(spec.tree, [now, then]) != now:
                leaf, was, later = _first_leaf(
                    spec.tree, (then, now), lambda was, later: later > was
                )
                raise SweepInvariantError(
                    f"round {rounds} moved player {p}'s stop on leaf "
                    f"{leaf.id} later ({was} -> {later})"
                )

    uncapped = StrategyProfile(tuple(taus))
    return EquilibriumProfile(
        uncapped=uncapped,
        capped=uncapped.capped(spec.tree),
        termination_rule=min_of_rules(spec.tree, taus),
        rounds_used=rounds,
        trace=tuple(trace),
        tree=spec.tree,
        config=config,
        initialized_at_horizon=initialize_at_horizon,
    )


def trace_as_json(trace: Sequence[SchemeStep]) -> list[dict]:
    """Trace rows in the exportable shape used by the command line."""
    rows = []
    for step in trace:
        rows.append(
            {
                "n": step.n,
                "player": step.player,
                "theta_stops": sorted(step.theta.stop_set),
                "coalitions": {
                    str(node_id): list(coalition)
                    for node_id, coalition in sorted(step.coalition_at_theta.items())
                },
                "mu_stops": sorted(step.mu.stop_set),
                "tau_stops": sorted(step.tau.stop_set),
            }
        )
    return rows
