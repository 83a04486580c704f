"""Acceptance criteria, one test per criterion, exact arithmetic throughout.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Random sweeps are seeded and deterministic.
"""

import itertools
from fractions import Fraction
from random import Random

import pytest

from dynkin.cli import main
from dynkin.games import expected_payoffs, validate_game
from dynkin.randomgen import random_game
from dynkin.scheme import SchemeConfig, rounds_bound, run_scheme
from dynkin.verify import (
    best_response_value,
    certify,
    check_trace_invariants,
    enumerate_rules,
    find_all_eps_neps,
)
from games_reference import realized_outcome, walk_payoff, with_rule
from gens import random_process, random_tree
from snell_reference import eps_optimal_rule, optimal_value, snell_envelope
from trees_reference import RootWalks, children_table, expectation_under_rule, path_to, stop_time

EPS_100 = Fraction(1, 100)


def stop_times(spec, profile, leaf_id):
    return tuple(stop_time(spec.tree, rule, leaf_id) for rule in profile.rules)


def walk_case(tree, leaf_id):
    draws = []
    for node in path_to(tree, leaf_id)[1:]:
        siblings = [s.id for s in children_table(tree)[node.parent]]
        draws.append([1, -1, 1, -1][siblings.index(node.id)])
    if draws[0] == 1:
        return "i"
    if draws[1] == 1:
        return "ii"
    return "iii"


@pytest.fixture(scope="module")
def random_sweep():
    """Shared 100-game sweep used by criteria 7, 8 and 9."""
    rng = Random(1789)
    runs = []
    for _ in range(100):
        game = random_game(rng, rng.choice((2, 3)), rng.choice((2, 3)))
        assert validate_game(game) == []
        order = tuple(rng.sample(range(1, game.num_players + 1), game.num_players))
        epsilon = rng.choice((Fraction(0), Fraction(1, 10)))
        result = run_scheme(game, SchemeConfig(epsilon=epsilon, order=order))
        runs.append((game, epsilon, result))
    return runs


@pytest.fixture(scope="module")
def fixture_runs(deterministic_game, walk_game):
    cases = [
        ("det-123", deterministic_game, SchemeConfig(epsilon=EPS_100, order=(1, 2, 3))),
        ("det-231", deterministic_game, SchemeConfig(epsilon=EPS_100, order=(2, 3, 1))),
        ("walk-quarter-12", walk_game, SchemeConfig(epsilon=Fraction(1, 4), order=(1, 2))),
        ("walk-half-12", walk_game, SchemeConfig(epsilon=Fraction(1, 2), order=(1, 2))),
        ("walk-quarter-21", walk_game, SchemeConfig(epsilon=Fraction(1, 4), order=(2, 1))),
    ]
    return {
        name: (spec, config, run_scheme(spec, config)) for name, spec, config in cases
    }


def test_criterion_1_identity_order_reproduction(deterministic_game, fixture_runs):
    spec, _, result = fixture_runs["det-123"]
    leaf = spec.tree.leaves[0].id
    assert stop_times(spec, result.capped, leaf) == (1, 2, 2)
    stage, coalition = realized_outcome(spec, result.capped, leaf)
    assert (stage, coalition.players) == (1, (1,))
    assert expected_payoffs(spec, result.capped) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert certify(spec, result.capped, Fraction(0)).is_eps_nep
    print("criterion 1: PASS - identity order reaches (1,2,2), coalition {1}, "
          "payoffs (1/2,1/2,1/2), certified at 0")


def test_criterion_2_reversed_order_reproduction(fixture_runs):
    spec, _, result = fixture_runs["det-231"]
    leaf = spec.tree.leaves[0].id
    assert stop_times(spec, result.capped, leaf) == (2, 1, 2)
    stage, coalition = realized_outcome(spec, result.capped, leaf)
    assert (stage, coalition.players) == (1, (2,))
    assert expected_payoffs(spec, result.capped) == (
        Fraction(1, 4),
        Fraction(3, 2),
        Fraction(1, 4),
    )
    print("criterion 2: PASS - order (2,3,1) reaches (2,1,2), coalition {2}, "
          "payoffs (1/4,3/2,1/4)")


def test_criterion_3_exhaustive_search_vs_scheme_outputs(deterministic_game):
    spec = deterministic_game
    leaf = spec.tree.leaves[0].id
    found = {
        stop_times(spec, profile, leaf)
        for profile, _ in find_all_eps_neps(spec, Fraction(0))
    }
    assert {(1, 2, 1), (1, 1, 1), (1, 2, 2)} <= found
    reached = set()
    for order in itertools.permutations((1, 2, 3)):
        for epsilon in (Fraction(0), EPS_100):
            result = run_scheme(spec, SchemeConfig(epsilon=epsilon, order=order))
            reached.add(stop_times(spec, result.capped, leaf))
    assert (1, 2, 1) not in reached
    assert (1, 1, 1) not in reached
    print("criterion 3: PASS - exhaustive search finds (1,2,1),(1,1,1),(1,2,2); "
          f"the sweep only ever reaches {sorted(reached)}")


def test_criterion_4_walk_game_casewise_profiles(fixture_runs):
    spec, _, quarter = fixture_runs["walk-quarter-12"]
    expected = {"i": (3, 1), "ii": (3, 2), "iii": (3, 3)}
    for leaf in spec.tree.leaves:
        case = walk_case(spec.tree, leaf.id)
        assert stop_times(spec, quarter.capped, leaf.id) == expected[case]

    _, _, half = fixture_runs["walk-half-12"]
    for leaf in spec.tree.leaves:
        assert stop_times(spec, half.capped, leaf.id) == (1, 3)

    _, _, reversed_quarter = fixture_runs["walk-quarter-21"]
    assert reversed_quarter.capped == quarter.capped
    print("criterion 4: PASS - walk game gives (3,1)/(3,2)/(3,3) casewise at 1/4, "
          "(1,3) at 1/2, and is order-insensitive at 1/4")


def test_criterion_5_counterexample_games(pennies_game, one_sided_game, capsys):
    assert find_all_eps_neps(pennies_game, Fraction(1, 2)) == []
    code = main(
        ["enumerate", "--example", "counterexample-a", "--epsilon", "1/2", "--allow-empty"]
    )
    capsys.readouterr()
    assert code == 0

    found = find_all_eps_neps(one_sided_game, Fraction(0))
    leaf = one_sided_game.tree.leaves[0].id
    times = {stop_times(one_sided_game, profile, leaf) for profile, _ in found}
    for t in range(4):
        assert (t, t) in times
    print("criterion 5: PASS - matching game has no 1/2-equilibrium; the "
          "one-sided game admits (t,t) for t in 0..3")


def test_criterion_6_oracle_equivalence_on_random_trees():
    rng = Random(97)
    epsilons = (Fraction(0), Fraction(1, 7), Fraction(1, 2))
    for k in range(200):
        tree = random_tree(rng, max_nodes=12)
        assert len(tree.nodes) <= 12
        reward = random_process(rng, tree)
        rules = enumerate_rules(tree, cap=100_000)
        brute = max(expectation_under_rule(tree, reward, rule) for rule in rules)
        value = optimal_value(tree, reward)
        assert value == brute, f"tree {k}: {value} != {brute}"
        envelope = snell_envelope(tree, reward)
        for epsilon in epsilons:
            rule = eps_optimal_rule(tree, reward, envelope, epsilon)
            achieved = expectation_under_rule(tree, reward, rule)
            assert Fraction(0) <= value - achieved <= epsilon
    print("criterion 6: PASS - 200 random trees: envelope value equals "
          "brute-force maximum; threshold rules lose at most eps for "
          "eps in {0, 1/7, 1/2}")


def test_criterion_7_equilibrium_property_sweep(random_sweep):
    for game, epsilon, result in random_sweep:
        certificate = certify(game, result.capped, epsilon)
        assert certificate.is_eps_nep, (
            f"gains {certificate.gains} exceed {epsilon}"
        )
        rules = enumerate_rules(game.tree, cap=100_000)
        walks = RootWalks(game.tree)  # each rule's root walks, shared by the players
        for player in game.players:
            snell_value = best_response_value(game, result.capped, player)
            brute = max(
                walk_payoff(game, with_rule(result.capped, player, rule), player, walks)
                for rule in rules
            )
            assert snell_value == brute
    print(f"criterion 7: PASS - {len(random_sweep)} random games: the sweep's "
          "capped profile certifies at its epsilon; envelope best responses "
          "equal enumeration for every player")


def test_criterion_8_trace_invariants_everywhere(fixture_runs, random_sweep):
    checked = 0
    for _, _, result in fixture_runs.values():
        assert check_trace_invariants(result.trace, result) == []
        checked += 1
    for _, _, result in random_sweep:
        assert check_trace_invariants(result.trace, result) == []
        checked += 1
    print(f"criterion 8: PASS - {checked} traces satisfy monotonicity, "
          "mu = tau ^ theta, domination, no finite tau/theta coincidence, "
          "mu-stationarity propagation and singleton limit coalitions")


def test_criterion_9_termination_and_initialization(fixture_runs, random_sweep):
    for spec, config, result in fixture_runs.values():
        assert result.rounds_used <= rounds_bound(spec)
        again = run_scheme(spec, config, initialize_at_horizon=True)
        assert again.capped == result.capped
    for game, epsilon, result in random_sweep:
        assert result.rounds_used <= rounds_bound(game)
    print("criterion 9: PASS - every run converged within the worst-case "
          "round bound; never-stop and stop-at-horizon initializations give "
          "identical capped profiles on the runnable examples")
