"""Independent certification of equilibrium claims by brute force.

Nothing here reuses the constructive sweep: rules are enumerated
exhaustively, best responses are computed from first principles on the
deviation reward, and traces are audited against the identities the sweep
is supposed to maintain.  Desk-scale guardrails fail loudly instead of
sampling when an enumeration would blow up.

Best responses and the exhaustive search share one integer kernel in
path-weighted form: with ``w(v)`` the tree index's integer ``weight`` of
node ``v`` (its path probability times ``scale[0]``) and ``D`` an integer
clearing the denominators of the deviation reward ``Y``, the vector
``A(v) = w(v) * Y(v) * D`` turns every expectation under a stopping rule
into a sum of integers.  Nothing of it is shared with the sweep's
stage-scaled kernel in :mod:`dynkin.snell`.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import NamedTuple, Sequence

from .games import (
    Coalition,
    GameSpec,
    StrategyProfile,
    expected_payoffs,
)
from .scheme import EquilibriumProfile, SchemeStep
from .trees import (
    NEVER,
    NodeId,
    ScenarioTree,
    Stage,
    StoppingRule,
    leaf_stop_times,
)

DEFAULT_RULE_CAP = 4096
DEFAULT_PROFILE_CAP = 1 << 20


class CapExceededError(RuntimeError):
    """An enumeration would exceed its configured size cap."""


class CertificationError(RuntimeError):
    """The certifier's own computations contradict each other."""


class NepCertificate(NamedTuple):
    """Per-player best-response gap report for one profile.

    ``gains[i-1]`` is how much player i could improve by deviating alone;
    the profile is an eps-equilibrium exactly when every gain is <= eps.
    Gains are never negative since staying put is always a deviation.
    """

    epsilon: Fraction
    achieved: tuple[Fraction, ...]
    best_response: tuple[Fraction, ...]
    gains: tuple[Fraction, ...]
    is_eps_nep: bool


def count_rules(tree: ScenarioTree) -> int:
    """Number of canonical stopping rules: antichain count including empty.

    Product recursion over subtrees: a subtree's rules either stop at its
    root or combine independent choices in the child subtrees.
    """
    index = tree.index
    counts = [0] * len(index.nodes)
    for pos in range(len(counts) - 1, -1, -1):  # children before parents
        total = 1
        for kid in index.children[pos]:
            total *= counts[kid]
        counts[pos] = total + 1
    return counts[0]


def enumerate_rules(tree: ScenarioTree, cap: int = DEFAULT_RULE_CAP) -> list[StoppingRule]:
    """All canonical stopping rules on the tree, never-stop included.

    Distinct antichains induce distinct per-path stop times on a uniform
    tree, so generating each antichain once already deduplicates.  Raises
    :class:`CapExceededError` naming the count when it exceeds ``cap``.
    """
    total = count_rules(tree)
    if total > cap:
        raise CapExceededError(f"tree admits {total} stopping rules, cap is {cap}")

    index = tree.index
    subtree: list = [None] * len(index.nodes)
    for pos in range(len(subtree) - 1, -1, -1):  # children before parents
        choices: list[frozenset[NodeId]] = [frozenset((index.nodes[pos].id,))]
        kid_sets = [subtree[k] for k in index.children[pos]]
        for combo in itertools.product(*kid_sets):
            choices.append(frozenset().union(*combo))
        subtree[pos] = choices
        for k in index.children[pos]:
            subtree[k] = None
    return [StoppingRule(s) for s in subtree[0]]


def _deviation_vector(
    spec: GameSpec, profile: StrategyProfile, player: int, epsilon: Fraction
) -> tuple[list[int], int]:
    """``A(v) = w(v) * Y(v) * D`` by index position, and ``D``: the lcm of
    the reward's and epsilon's denominators.  A rule's expected reward is
    then the sum of ``A`` over its stop nodes and the leaves it never
    stops, divided by ``D * scale[0]``.

    ``Y`` is what the player earns, node by node, when deviating alone.
    Strictly before the others' earliest stop: the solo payoff.  At the
    others' stop node: the payoff for joining that coalition.  After it:
    frozen at the payoff for having let the coalition stop alone (stopping
    later cannot reopen an ended game).  Expectations of ``Y`` under a
    deviation rule reproduce the game payoff of the deviated profile, so
    its optimal stopping value is the exact best-response value; the
    join-versus-stay comparison is left to the envelope recursion.
    """
    index = spec.tree.index
    nodes, children = index.nodes, index.children
    position = index.position
    stoppers: dict[int, list[int]] = {}  # position: the others stopping there
    for j in spec.players:
        if j != player:
            for node_id in profile.rule_for(j).stop_set:
                if node_id in position:
                    stoppers.setdefault(position[node_id], []).append(j)
    solo = spec.payoff(player, Coalition.of((player,))).values
    rewards = [solo[node.id] for node in nodes]
    # each coalition's value dicts, looked up once: (it stops alone, joined)
    tables: dict[tuple[int, ...], tuple[dict, dict]] = {}
    frozen = bytearray(len(rewards))
    for pos in sorted(stoppers):  # ancestors before descendants
        if frozen[pos]:
            continue
        members = tuple(stoppers[pos])
        table = tables.get(members)
        if table is None:
            coalition = Coalition.of(members)
            table = tables[members] = (
                spec.payoff(player, coalition).values,
                spec.payoff(player, coalition.with_member(player)).values,
            )
        node_id = nodes[pos].id
        rewards[pos] = table[1][node_id]
        alone = table[0][node_id]
        below = list(children[pos])
        for q in below:  # grows while iterating: the whole subtree
            rewards[q] = alone
            frozen[q] = 1
            below.extend(children[q])
    d = math.lcm(epsilon.denominator, *{y.denominator for y in rewards})
    return [
        w * y.numerator * (d // y.denominator) for w, y in zip(index.weight, rewards)
    ], d


def best_response_value(
    spec: GameSpec,
    profile: StrategyProfile,
    player: int,
    *,
    vector: tuple[list[int], int] | None = None,
) -> Fraction:
    """Best expected payoff the player can get against the others' rules.

    Only the value, which is all the certifier needs: the optimal stopping
    value of the deviation reward, by the recursion
    ``V(v) = max(A(v), sum_k V(k))`` over the children ``k`` of ``v``, on
    ``int``.  Path weights make the children's plain sum the continuation
    value, so the root's ``V`` is the value times ``D * scale[0]``.
    ``vector`` supplies ``(A, D)`` as :func:`_deviation_vector` builds it
    for this profile and player, at any epsilon; when omitted it is built
    here.
    """
    index = spec.tree.index
    if vector is None:
        vector = _deviation_vector(spec, profile, player, Fraction(0))
    weighted, d = vector
    envelope = weighted[:]
    children = index.children
    for pos in range(len(envelope) - 1, -1, -1):  # children before parents
        kids = children[pos]
        if kids:
            continuation = sum([envelope[k] for k in kids])
            if continuation > envelope[pos]:
                envelope[pos] = continuation
    return Fraction(envelope[0], d * index.scale[0])


def certify(
    spec: GameSpec,
    profile: StrategyProfile,
    epsilon: Fraction,
    *,
    best_responses: Sequence[Fraction] | None = None,
    outcomes: list[tuple[Stage, Coalition, NodeId]] | None = None,
) -> NepCertificate:
    """Best-response analysis of a profile against the equilibrium bar.

    ``best_responses`` supplies each player's best-response value against
    this profile's other rules, as :func:`best_response_value` returns it;
    when omitted they are computed here.  ``outcomes`` supplies the
    profile's :func:`~dynkin.games.leaf_outcomes`, for a caller that
    reports them too.
    """
    achieved = expected_payoffs(spec, profile, outcomes)
    if best_responses is None:
        best = tuple(
            best_response_value(spec, profile, i) for i in spec.players
        )
    else:
        best = tuple(best_responses)
    gains = tuple(b - a for b, a in zip(best, achieved))
    for i, (b, a) in enumerate(zip(best, achieved), start=1):
        if b < a:
            raise CertificationError(
                f"player {i}: best response {b} falls below the achieved payoff {a}"
            )
    return NepCertificate(
        epsilon=epsilon,
        achieved=achieved,
        best_response=best,
        gains=gains,
        is_eps_nep=max(gains) <= epsilon,
    )


def _best_response_sets(
    spec: GameSpec,
    rules: Sequence[StoppingRule],
    player: int,
    epsilon: Fraction,
) -> dict[tuple[int, ...], tuple[int, Fraction]]:
    """For each tuple of the other players' rule indices: the bitmask of
    the player's rules within epsilon of the best payoff, and the value
    :func:`best_response_value` returns for that tuple.

    With ``S(v)`` the sum of ``A`` over the leaves below ``v`` (``A`` at a
    leaf, the children's sum elsewhere), a rule ``r`` pays
    ``S(root) - sum_{v in r} (S(v) - A(v))`` times ``D * scale[0]``: its
    stop nodes form an antichain, so their leaf ranges are disjoint.
    Raises :class:`CertificationError` when the maximum of these payoffs
    is not the best-response value.
    """
    index = spec.tree.index
    children = index.children
    stop_positions = [[index.position[i] for i in rule.stop_set] for rule in rules]
    slot = player - 1
    table = {}
    for others in itertools.product(range(len(rules)), repeat=spec.num_players - 1):
        picks = others[:slot] + (0,) + others[slot:]
        profile = StrategyProfile(tuple(rules[k] for k in picks))
        vector = _deviation_vector(spec, profile, player, epsilon)
        value = best_response_value(spec, profile, player, vector=vector)
        weighted, d = vector
        below = weighted[:]
        for pos in range(len(below) - 1, -1, -1):  # children before parents
            kids = children[pos]
            if kids:
                below[pos] = sum([below[k] for k in kids])
        gap = [s - a for s, a in zip(below, weighted)]
        payoffs = [below[0] - sum([gap[p] for p in stops]) for stops in stop_positions]
        best = max(payoffs)
        scale = d * index.scale[0]
        enumerated = Fraction(best, scale)
        if value < enumerated:
            raise CertificationError(
                f"player {player}: best response {value} falls below "
                f"the achieved payoff {enumerated}"
            )
        if value != enumerated:
            raise CertificationError(
                f"best response mismatch for player {player}: "
                f"envelope {value}, enumeration {enumerated}"
            )
        bar = best - epsilon.numerator * (scale // epsilon.denominator)
        mask = 0
        for k, payoff in enumerate(payoffs):
            if payoff >= bar:
                mask |= 1 << k
        table[others] = (mask, value)
    return table


def find_all_eps_neps(
    spec: GameSpec,
    epsilon: Fraction,
    rule_cap: int = DEFAULT_RULE_CAP,
    profile_cap: int = DEFAULT_PROFILE_CAP,
) -> list[tuple[StrategyProfile, NepCertificate]]:
    """Exhaustive equilibrium search over all canonical profiles.

    A player's best response depends only on the other players' rules, so
    for each player and tuple of the others' rules one integer table gives
    the value and the set of the player's rules within epsilon of it:
    N * R^(N-1) tables for R rules.  A profile is an eps-equilibrium
    exactly when every player's rule lies in its set, one bitmask test per
    player and profile.  Only the profiles found are certified, and one
    that fails its certificate raises :class:`CertificationError`.
    """
    rules = enumerate_rules(spec.tree, rule_cap)
    total = len(rules) ** spec.num_players
    if total > profile_cap:
        raise CapExceededError(f"{total} profiles to scan, cap is {profile_cap}")
    tables = [_best_response_sets(spec, rules, i, epsilon) for i in spec.players]
    found = []
    for picks in itertools.product(range(len(rules)), repeat=spec.num_players):
        best = []
        for slot, table in enumerate(tables):
            mask, value = table[picks[:slot] + picks[slot + 1 :]]
            if not mask >> picks[slot] & 1:
                break
            best.append(value)
        else:
            profile = StrategyProfile(tuple(rules[k] for k in picks))
            certificate = certify(spec, profile, epsilon, best_responses=best)
            if not certificate.is_eps_nep:
                raise CertificationError(
                    f"profile {[sorted(r.stop_set) for r in profile.rules]} is in "
                    f"every best-response set but fails its certificate, gains "
                    f"{[str(g) for g in certificate.gains]}"
                )
            found.append((profile, certificate))
    return found


def check_trace_invariants(
    trace: Sequence[SchemeStep], profile: EquilibriumProfile
) -> list[str]:
    """Audit a sweep trace pathwise against its structural identities.

    Checked on every root-leaf path and step where both sides exist:
    rules only move earlier between a player's consecutive visits (tau,
    theta and mu all non-increasing); mu = min(tau, theta); the fresh
    answer never comes later than the player's previous rule; a player's
    update never lands exactly on the others' finite stop; if mu is
    unchanged between visits then so is tau; and, at the fixed point,
    exactly one player attains any finite termination stage.  The two
    coincidence-flavored checks presume the never-stop initialization and
    are skipped for horizon-initialized runs, which violate them benignly.
    """
    violations: list[str] = []
    tree = profile.tree
    leaves = [leaf.id for leaf in tree.leaves]
    steps = list(trace)
    # per step, the (mu, tau, theta) stop times on every leaf; a step n
    # compares with the last step numbered n - N, the player's previous visit
    times = [
        tuple(leaf_stop_times(tree, rule) for rule in (step.mu, step.tau, step.theta))
        for step in steps
    ]
    by_n = {step.n: k for k, step in enumerate(steps)}

    num_players = len(profile.uncapped.rules)
    for step, (mu, tau, theta) in zip(steps, times):
        before = by_n.get(step.n - num_players)
        previous = None if before is None else times[before]
        for k, leaf_id in enumerate(leaves):
            if mu[k] != min(tau[k], theta[k]):
                violations.append(
                    f"step {step.n}, leaf {leaf_id}: mu != min(tau, theta)"
                )
            if not profile.initialized_at_horizon:
                if tau[k] == theta[k] != NEVER:
                    violations.append(
                        f"step {step.n}, leaf {leaf_id}: tau coincides with "
                        f"theta at finite stage {tau[k]}"
                    )
            if previous is None:
                continue
            mu_then, tau_then, theta_then = (row[k] for row in previous)
            if tau[k] > tau_then:
                violations.append(
                    f"step {step.n}, leaf {leaf_id}: tau increased "
                    f"({tau_then} -> {tau[k]})"
                )
            if theta[k] > theta_then:
                violations.append(
                    f"step {step.n}, leaf {leaf_id}: theta increased"
                )
            if mu[k] > mu_then:
                violations.append(f"step {step.n}, leaf {leaf_id}: mu increased")
            if mu[k] > tau_then:
                violations.append(
                    f"step {step.n}, leaf {leaf_id}: mu exceeds the player's "
                    "previous tau"
                )
            if mu_then == mu[k] and tau_then != tau[k]:
                violations.append(
                    f"step {step.n}, leaf {leaf_id}: mu stationary but tau moved"
                )

    if not profile.initialized_at_horizon:
        termination = leaf_stop_times(tree, profile.termination_rule)
        by_player = [leaf_stop_times(tree, rule) for rule in profile.uncapped.rules]
        for k, leaf_id in enumerate(leaves):
            stage = termination[k]
            if stage == NEVER:
                continue
            attaining = [
                i for i, row in enumerate(by_player, start=1) if row[k] == stage
            ]
            if len(attaining) != 1:
                violations.append(
                    f"leaf {leaf_id}: players {attaining} jointly attain the "
                    f"finite termination stage {stage}"
                )

    bound = num_players * len(leaves) * (tree.horizon + 1) + 1
    if profile.rounds_used > bound:
        violations.append(
            f"rounds_used {profile.rounds_used} exceeds the bound {bound}"
        )
    return violations
