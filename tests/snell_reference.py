"""Reference helpers for optimal stopping that only the tests use.

Plain ``Fraction`` code over the whole tree, read from its parent links:
the Snell envelope by backward recursion (:func:`snell_envelope`), the
first-entry rule of its epsilon threshold by root walks
(:func:`eps_optimal_rule`), the one-step expectation, the optimal value,
the envelope/rule/value triple of one stopping problem and the
supermartingale-domination check the envelope's tests assert.  Also the
sweep's stage reward as a full-tree ``Fraction`` node loop, its tau update
leaf by leaf on root walks, the conversion that hands a plain process to
the sweep's integer kernel, and the read of one node's value from the
kernel's scaled form (:func:`scaled_value`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from dynkin.games import GameSpec
from dynkin.scheme import SweepInvariantError
from dynkin.snell import ScaledProcess
from dynkin.trees import NEVER, NodeId, ScenarioTree, StoppingRule
from trees_reference import children_table, first_stop, root_node, root_paths


def snell_envelope(
    tree: ScenarioTree, reward: dict[NodeId, Fraction]
) -> dict[NodeId, Fraction]:
    """Backward recursion over stages, deepest first."""
    kids = children_table(tree)
    values: dict = {}
    for node in sorted(tree.nodes, key=lambda n: n.time, reverse=True):
        if not kids[node.id]:
            values[node.id] = reward[node.id]
        else:
            continuation = sum(
                (k.branch_prob * values[k.id] for k in kids[node.id]), Fraction(0)
            )
            values[node.id] = max(reward[node.id], continuation)
    return values


def eps_optimal_rule(
    tree: ScenarioTree,
    reward: dict[NodeId, Fraction],
    envelope: dict[NodeId, Fraction],
    epsilon: Fraction,
) -> StoppingRule:
    """First-entry rule of the region ``envelope <= reward + epsilon``: the
    first node of the region on every leaf's root path.

    Ties stop.  Since envelope equals reward on leaves the rule stops every
    path by the terminal stage, never returning NEVER.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be >= 0, got {epsilon}")
    region = StoppingRule(
        frozenset(
            node.id
            for node in tree.nodes
            if envelope[node.id] <= reward[node.id] + epsilon
        )
    )
    paths = root_paths(tree)
    return StoppingRule(
        frozenset(first_stop(paths[leaf.id], region).id for leaf in tree.leaves)
    )


@dataclass(frozen=True)
class SnellResult:
    """Envelope, threshold rule and optimal value of one stopping problem."""

    envelope: dict[NodeId, Fraction]
    eps_rule: StoppingRule
    value: Fraction


def scaled_value(process: ScaledProcess, node_id: NodeId) -> Fraction:
    """The sweep kernel's value at ``node_id`` as a ``Fraction``: a node
    strictly below a frozen position reads that position's value."""
    index = process.index
    pos = index.position[node_id]
    if process.frozen_at:
        parent = index.parent
        up = parent[pos]
        while up >= 0:
            if up in process.frozen_at:
                pos = up
                break
            up = parent[up]
    scale = index.scale[index.nodes[pos].time]
    return Fraction(process.scaled[pos], process.denominator * scale)


def one_step_expectation(
    tree: ScenarioTree, process: dict[NodeId, Fraction], node_id: NodeId
) -> Fraction:
    """Conditional expectation of the next-stage value given ``node_id``."""
    kids = children_table(tree)[node_id]
    if not kids:
        raise ValueError(f"node {node_id!r} has no successor stage")
    return sum((k.branch_prob * process[k.id] for k in kids), Fraction(0))


def optimal_value(tree: ScenarioTree, reward: dict[NodeId, Fraction]) -> Fraction:
    """Best expected reward over all stopping rules (envelope at the root)."""
    return snell_envelope(tree, reward)[root_node(tree).id]


def solve_stopping(
    tree: ScenarioTree, reward: dict[NodeId, Fraction], epsilon: Fraction
) -> SnellResult:
    envelope = snell_envelope(tree, reward)
    rule = eps_optimal_rule(tree, reward, envelope, epsilon)
    return SnellResult(envelope=envelope, eps_rule=rule, value=envelope[root_node(tree).id])


def is_supermartingale_dominating(
    tree: ScenarioTree,
    candidate: dict[NodeId, Fraction],
    reward: dict[NodeId, Fraction],
) -> bool:
    """True iff candidate dominates the reward and one-step decreases in mean."""
    kids = children_table(tree)
    for node in tree.nodes:
        if candidate[node.id] < reward[node.id]:
            return False
        if kids[node.id]:
            if candidate[node.id] < one_step_expectation(tree, candidate, node.id):
                return False
    return True


def kernel_input(
    tree: ScenarioTree,
    reward: dict[NodeId, Fraction],
    epsilon: Fraction,
    frozen_at: frozenset[int] = frozenset(),
) -> ScaledProcess:
    """``reward`` in the scaled form :func:`dynkin.snell.integer_snell`
    reads: stage-``t`` values times ``D * scale[t]``, ``D`` the lcm of the
    reward's and epsilon's denominators.  With no ``frozen_at`` positions
    the whole tree is live; below a frozen position the kernel reads
    nothing, so the values there may be anything, as in a sweep step."""
    index = tree.index
    rewards = [reward[node.id] for node in index.nodes]
    d = math.lcm(epsilon.denominator, *[x.denominator for x in rewards])
    scaled = [
        x.numerator * (d * index.scale[node.time] // x.denominator)
        for node, x in zip(index.nodes, rewards)
    ]
    return ScaledProcess(index, scaled, d, frozen_at)


def reference_stage_reward(
    spec: GameSpec,
    player: int,
    theta: StoppingRule,
    others: Mapping[int, StoppingRule],
) -> dict[NodeId, Fraction]:
    """U^n as one ``Fraction`` per node: the node loop the sweep ran before
    its integer kernel visited only the live region."""
    coalition_at: dict[NodeId, tuple[int, ...]] = {}
    for node_id in theta.stop_set:
        members = [j for j, rule in others.items() if node_id in rule.stop_set]
        coalition_at[node_id] = tuple(sorted(members))

    solo = spec.payoff(player, (player,))
    values: dict[NodeId, Fraction] = {}
    frozen: dict[NodeId, Fraction] = {}
    for node in spec.tree.index.nodes:
        if node.id in coalition_at:
            coalition = coalition_at[node.id]
            join = spec.payoff(player, tuple(sorted({*coalition, player})))[node.id]
            stay = spec.payoff(player, coalition)[node.id]
            frozen[node.id] = max(join, stay)
            values[node.id] = frozen[node.id]
        elif node.parent is not None and node.parent in frozen:
            frozen[node.id] = frozen[node.parent]
            values[node.id] = frozen[node.id]
        else:
            values[node.id] = solo[node.id]
    return values


def reference_updated_tau(
    tree: ScenarioTree, mu: StoppingRule, theta: StoppingRule, previous: StoppingRule
) -> StoppingRule:
    """tau_n leaf by leaf on root walks: mu's stop where it comes strictly
    before theta's, else the previous rule's.  On the first leaf, in
    ``tree.leaves`` order, where that differs from the unsimplified
    (mu & previous) where that precedes theta, else previous, raises the
    sweep's :class:`SweepInvariantError` with the sweep's message."""
    paths = root_paths(tree)
    kept = set()
    for leaf in tree.leaves:
        stops = [first_stop(paths[leaf.id], rule) for rule in (mu, theta, previous)]
        m, th, prev = [NEVER if node is None else node.time for node in stops]
        simplified = m if m < th else prev
        raw = min(m, prev) if min(m, prev) < th else prev
        if simplified != raw:
            raise SweepInvariantError(
                f"tau update forms disagree on leaf {leaf.id}: "
                f"mu={m} theta={th} previous={prev}"
            )
        node = stops[0] if m < th else stops[2]
        if node is not None:
            kept.add(node.id)
    return StoppingRule(frozenset(kept))
