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
on their first visit; a step copies that vector and overwrites only the
theta nodes with their frozen values.  The envelope and mu then visit only
the live region, the nodes not strictly below a theta node
(:func:`dynkin.snell.integer_snell`); below one, ``U`` and ``W`` read the
theta node's value.  The tau update and the round check decide on stop
sets with :func:`dynkin.trees.min_of_rules`; per-leaf stop times only word
a check that failed.  The tests hold every step's U, W and mu to a
full-tree ``Fraction`` reference, and the tau update to a leaf-by-leaf
one (``tests/snell_reference.py``).
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable, Mapping, NamedTuple, Sequence

from .games import Coalition, GameSpec, StrategyProfile, validate_game
from .snell import ScaledProcess, integer_snell
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
        order = self.order or tuple(range(1, num_players + 1))
        if sorted(order) != list(range(1, num_players + 1)):
            raise ValueError(f"order {order} is not a permutation of 1..{num_players}")
        return order


class SchemeStep(NamedTuple):
    """Everything computed while one player was visited at step ``n``."""

    n: int
    player: int
    theta: StoppingRule
    coalition_at_theta: dict[NodeId, Coalition]
    stage_reward: ScaledProcess
    envelope: ScaledProcess
    mu: StoppingRule
    tau: StoppingRule


class SchemeState(NamedTuple):
    """Step counter plus each player's current rule (index i-1 = player i)."""

    n: int
    taus: tuple[StoppingRule, ...]


class EquilibriumProfile(NamedTuple):
    """Fixed point of the sweep, with the full trace for auditing."""

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


def initial_state(spec: GameSpec, at_horizon: bool = False) -> SchemeState:
    """All players start at never-stop; optionally at stop-at-horizon
    (a variant that must reach the same capped profile on valid games)."""
    start = stop_everywhere_at(spec.tree, spec.horizon) if at_horizon else NEVER_RULE
    return SchemeState(n=spec.num_players + 1, taus=(start,) * spec.num_players)


def _stop_coalitions(
    theta: StoppingRule, others: Mapping[int, StoppingRule]
) -> dict[NodeId, Coalition]:
    """The coalition of the other players stopping at each theta node; the
    nodes one coalition stops at share one ``Coalition``."""
    coalition_at: dict[NodeId, Coalition] = {}
    coalitions: dict[tuple[int, ...], Coalition] = {}
    for node_id in theta.stop_set:
        members = tuple(j for j, rule in others.items() if node_id in rule.stop_set)
        coalition = coalitions.get(members)
        if coalition is None:
            coalition = coalitions[members] = Coalition.of(members)
        coalition_at[node_id] = coalition
    return coalition_at


def _scaled_solo(
    spec: GameSpec, player: int, epsilon: Fraction
) -> tuple[list[int], int]:
    """The player's solo payoff as ``X(v) * D * index.scale[t]`` by index
    position, with ``D`` the lcm of epsilon's and the values' denominators."""
    index = spec.tree.index
    values = spec.payoff(player, Coalition.of((player,))).values
    solo = [values[node.id] for node in index.nodes]
    d = math.lcm(epsilon.denominator, *[x.denominator for x in solo])
    start = index.stage_start
    scaled = []
    for t, scale in enumerate(index.scale):
        s = d * scale
        for x in solo[start[t] : start[t + 1]]:
            scaled.append(x.numerator * (s // x.denominator))
    return scaled, d


def _stage_reward(
    spec: GameSpec,
    player: int,
    coalition_at: Mapping[NodeId, Coalition],
    solo: tuple[list[int], int],
) -> ScaledProcess:
    """U^n on ``int``: a copy of the scaled solo payoff with every theta
    node set to max(join, stay), frozen from there down.

    A frozen value whose denominator does not divide ``D * scale[t]``
    raises this step's ``D`` to the least multiple it does divide, and the
    copy is rescaled to match; nothing rounds.  Each coalition's join and
    stay values are looked up once per step.
    """
    index = spec.tree.index
    scaled, d = solo
    frozen: dict[int, tuple[Fraction, int]] = {}  # position: (value, stage scale)
    tables: dict[Coalition, tuple[dict, dict]] = {}  # coalition: (join, stay)
    raised = d
    for node_id, coalition in coalition_at.items():
        table = tables.get(coalition)
        if table is None:
            table = tables[coalition] = (
                spec.payoff(player, coalition.with_member(player)).values,
                spec.payoff(player, coalition).values,
            )
        value = max(table[0][node_id], table[1][node_id])
        pos = index.position[node_id]
        scale = index.scale[index.nodes[pos].time]
        den = value.denominator
        raised = math.lcm(raised, den // math.gcd(den, scale))
        frozen[pos] = (value, scale)
    factor = raised // d
    u = [x * factor for x in scaled] if factor > 1 else list(scaled)
    for pos, (value, scale) in frozen.items():
        u[pos] = value.numerator * (raised * scale // value.denominator)
    return ScaledProcess(index, u, raised, frozenset(frozen))


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
    config: SchemeConfig,
    state: SchemeState,
    solo_rewards: dict[int, tuple[list[int], int]] | None = None,
    *,
    order: tuple[int, ...] | None = None,
) -> SchemeStep:
    """Visit one player and compute their updated rule.

    ``solo_rewards`` keeps each player's scaled solo payoff from their
    first visit on; :func:`run_scheme` passes one dict for its whole run.
    ``order`` is the config's order as :func:`run_scheme` checked it once
    per run; left out, the step checks ``config.order_for`` itself.
    """
    if order is None:
        order = config.order_for(spec.num_players)
    position = (state.n - 1) % spec.num_players
    player = order[position]
    others = {
        p: state.taus[p - 1] for p in spec.players if p != player
    }
    theta = min_of_rules(spec.tree, list(others.values()))
    coalition_at = _stop_coalitions(theta, others)
    if solo_rewards is None:
        solo_rewards = {}
    solo = solo_rewards.get(player)
    if solo is None:
        solo = solo_rewards[player] = _scaled_solo(spec, player, config.epsilon)
    stage_reward = _stage_reward(spec, player, coalition_at, solo)
    envelope, mu = integer_snell(spec.tree, stage_reward, config.epsilon)
    tau = _updated_tau(spec.tree, mu, theta, state.taus[player - 1])
    return SchemeStep(
        n=state.n,
        player=player,
        theta=theta,
        coalition_at_theta=coalition_at,
        stage_reward=stage_reward,
        envelope=envelope,
        mu=mu,
        tau=tau,
    )


def advance(state: SchemeState, step: SchemeStep) -> SchemeState:
    taus = list(state.taus)
    taus[step.player - 1] = step.tau
    return SchemeState(n=state.n + 1, taus=tuple(taus))


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

    state = initial_state(spec, at_horizon=initialize_at_horizon)
    solo_rewards: dict[int, tuple[list[int], int]] = {}
    trace: list[SchemeStep] = []
    rounds = 0
    while True:
        if rounds >= cap:
            raise ConvergenceError(
                f"no stationary round within {cap} rounds", tuple(trace)
            )
        start = state.taus
        for _ in range(spec.num_players):
            step = scheme_step(spec, config, state, solo_rewards, order=order)
            trace.append(step)
            state = advance(state, step)
        rounds += 1
        if state.taus == start:
            break
        # a round visits every player once and must never push a rule
        # later; on canonical antichains min(now, then) == now exactly when
        # now stops no later than then on every leaf
        for p, now, then in zip(spec.players, state.taus, start):
            if min_of_rules(spec.tree, [now, then]) != now:
                leaf, was, later = _first_leaf(
                    spec.tree, (then, now), lambda was, later: later > was
                )
                raise SweepInvariantError(
                    f"round {rounds} moved player {p}'s stop on leaf "
                    f"{leaf.id} later ({was} -> {later})"
                )

    uncapped = StrategyProfile(state.taus)
    return EquilibriumProfile(
        uncapped=uncapped,
        capped=uncapped.capped(spec.tree),
        termination_rule=min_of_rules(spec.tree, list(state.taus)),
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
                    str(node_id): list(coalition.players)
                    for node_id, coalition in sorted(step.coalition_at_theta.items())
                },
                "mu_stops": sorted(step.mu.stop_set),
                "tau_stops": sorted(step.tau.stop_set),
            }
        )
    return rows
