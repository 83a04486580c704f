"""Random-game sweep: solve, certify, audit traces, summarize.

Usage: python scripts/random_sweep.py [--games 200] [--seed 7] [--eps 1/10]

Exits 1 when any game fails its certificate, its trace audit or the
worst-case round bound.
"""

import argparse
import sys
from collections import Counter
from fractions import Fraction
from random import Random

from dynkin.randomgen import random_game
from dynkin.scheme import SchemeConfig, run_scheme, rounds_bound
from dynkin.trees import NEVER, leaf_stop_times
from dynkin.verify import certify, check_trace_invariants


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--games", type=int, default=200)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--eps", default="1/10")
    args = parser.parse_args()

    epsilon = Fraction(args.eps)
    rng = Random(args.seed)
    rounds = Counter()
    termination = Counter()
    worst_gain = Fraction(0)
    failures = 0
    for k in range(args.games):
        game = random_game(rng, rng.choice((2, 3)), rng.choice((2, 3)))
        order = tuple(rng.sample(range(1, game.num_players + 1), game.num_players))
        result = run_scheme(game, SchemeConfig(epsilon=epsilon, order=order))
        certificate = certify(game, result.capped, epsilon)
        violations = check_trace_invariants(result.trace, result)
        rounds[result.rounds_used] += 1
        for stage in leaf_stop_times(game.tree, result.termination_rule):
            termination["never" if stage == NEVER else int(stage)] += 1
        worst_gain = max(worst_gain, *certificate.gains)
        bound = rounds_bound(game)
        if not certificate.is_eps_nep or violations or result.rounds_used > bound:
            failures += 1
            print(
                f"game {k}: FAILED gains={certificate.gains} violations={violations} "
                f"rounds={result.rounds_used} bound={bound}"
            )

    print(f"\n{args.games} games at eps={epsilon}: {failures} failures")
    print(f"rounds distribution: {dict(sorted(rounds.items()))}")
    print(f"termination stages over paths: {dict(sorted(termination.items(), key=str))}")
    print(f"worst best-response gain: {worst_gain} (must be <= {epsilon})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
