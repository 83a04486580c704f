"""Exact solver for N-player nonzero-sum stopping games on scenario trees."""

from .games import (
    GameSpec, PayoffProcess, StrategyProfile, all_coalitions, expected_payoffs, validate_game,
)
from .scheme import (
    ConvergenceError, EquilibriumProfile, SchemeConfig, SchemeStep, run_scheme, scheme_step,
)
from .trees import (
    NEVER, NEVER_RULE, Node, ScenarioTree, StoppingRule, canonicalize_rule, min_of_rules,
    stop_everywhere_at, validate_tree,
)
from .verify import (
    CapExceededError, NepCertificate, best_response_value, certify, check_trace_invariants,
    count_rules, enumerate_rules, find_all_eps_neps,
)

__all__ = [
    "CapExceededError", "ConvergenceError", "EquilibriumProfile", "GameSpec", "NEVER",
    "NEVER_RULE", "NepCertificate", "Node", "PayoffProcess", "ScenarioTree", "SchemeConfig",
    "SchemeStep", "StoppingRule", "StrategyProfile", "all_coalitions", "best_response_value",
    "canonicalize_rule", "certify", "check_trace_invariants", "count_rules", "enumerate_rules",
    "expected_payoffs", "find_all_eps_neps", "min_of_rules", "run_scheme", "scheme_step",
    "stop_everywhere_at", "validate_game", "validate_tree",
]
