"""Reference helpers for optimal stopping that only the tests use.

Plain ``Fraction`` code on top of :func:`dynkin.snell.snell_envelope` and
:func:`dynkin.snell.eps_optimal_rule`: the one-step expectation, the
optimal value, the envelope/rule/value triple of one stopping problem and
the supermartingale-domination check the envelope's tests assert.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from dynkin.snell import eps_optimal_rule, snell_envelope
from dynkin.trees import AdaptedProcess, NodeId, ScenarioTree, StoppingRule


@dataclass(frozen=True)
class SnellResult:
    """Envelope, threshold rule and optimal value of one stopping problem."""

    envelope: AdaptedProcess
    eps_rule: StoppingRule
    value: Fraction


def one_step_expectation(
    tree: ScenarioTree, process: AdaptedProcess, node_id: NodeId
) -> Fraction:
    """Conditional expectation of the next-stage value given ``node_id``."""
    kids = tree.children(node_id)
    if not kids:
        raise ValueError(f"node {node_id!r} has no successor stage")
    return sum((k.branch_prob * process.at(k.id) for k in kids), Fraction(0))


def optimal_value(tree: ScenarioTree, reward: AdaptedProcess) -> Fraction:
    """Best expected reward over all stopping rules (envelope at the root)."""
    return snell_envelope(tree, reward).at(tree.root.id)


def solve_stopping(
    tree: ScenarioTree, reward: AdaptedProcess, epsilon: Fraction
) -> SnellResult:
    envelope = snell_envelope(tree, reward)
    rule = eps_optimal_rule(tree, reward, envelope, epsilon)
    return SnellResult(envelope=envelope, eps_rule=rule, value=envelope.at(tree.root.id))


def is_supermartingale_dominating(
    tree: ScenarioTree, candidate: AdaptedProcess, reward: AdaptedProcess
) -> bool:
    """True iff candidate dominates the reward and one-step decreases in mean."""
    for node in tree.nodes:
        if candidate.at(node.id) < reward.at(node.id):
            return False
        if not tree.is_leaf(node.id):
            if candidate.at(node.id) < one_step_expectation(tree, candidate, node.id):
                return False
    return True
