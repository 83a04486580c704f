"""Solve every built-in game under a few tolerances and orders, print reports.

Usage: python scripts/solve_builtin_games.py
"""

from fractions import Fraction
from itertools import permutations

from dynkin.documents import document_text, parse_game
from dynkin.fixtures import EXAMPLES, example_document
from dynkin.games import expected_payoffs, leaf_outcomes, validate_game
from dynkin.scheme import SchemeConfig, run_scheme
from dynkin.trees import NEVER
from dynkin.verify import certify, check_trace_invariants


def describe(spec, result):
    per_leaf = {}
    for stage, coalition in leaf_outcomes(spec, result.capped):
        key = (None if stage == NEVER else int(stage), coalition)
        per_leaf[key] = per_leaf.get(key, 0) + 1
    return per_leaf


def main():
    for name in sorted(EXAMPLES):
        spec = parse_game(
            document_text(example_document(name)), enforce_assumption_a=False
        )
        print(f"\n=== {name}: {spec.num_players} players, horizon {spec.horizon}, "
              f"{len(spec.tree.nodes)} nodes ===")
        if validate_game(spec, enforce_assumption_a=True):
            print("  joint-stop hypothesis violated; sweep not applicable "
                  "(use enumerate/verify on this game)")
            continue
        epsilons = [Fraction(1, 100), Fraction(1, 4), Fraction(1, 2)]
        for epsilon in epsilons:
            for order in permutations(spec.players):
                config = SchemeConfig(epsilon=epsilon, order=order)
                result = run_scheme(spec, config)
                certificate = certify(spec, result.capped, epsilon)
                violations = check_trace_invariants(result.trace, result)
                outcomes = describe(spec, result)
                print(f"  eps={epsilon} order={order}: rounds={result.rounds_used} "
                      f"certified={certificate.is_eps_nep} "
                      f"max-gain={max(certificate.gains)} "
                      f"payoffs={tuple(str(v) for v in expected_payoffs(spec, result.capped))}")
                print(f"    outcomes (stage, coalition) -> paths: {outcomes}")
                if violations:
                    print(f"    TRACE VIOLATIONS: {violations}")


if __name__ == "__main__":
    main()
