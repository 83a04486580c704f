import itertools
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin.games import GameSpec, StrategyProfile, all_coalitions, expected_payoffs
from dynkin.randomgen import random_game
from dynkin.scheme import SchemeConfig, run_scheme
from dynkin.trees import (
    NEVER,
    NEVER_RULE,
    AdaptedProcess,
    StoppingRule,
    canonicalize_rule,
    min_of_rules,
    stop_everywhere_at,
)
from dynkin import verify
from dynkin.verify import (
    CapExceededError,
    CertificationError,
    best_response_value,
    certify,
    check_trace_invariants,
    count_rules,
    enumerate_rules,
    find_all_eps_neps,
)
from gens import (
    draw_rules,
    full_binary_tree,
    scenario_trees,
    single_path_tree,
    thirds_and_sevenths,
    thirds_chain_tree,
)
from snell_reference import eps_optimal_rule, snell_envelope
from games_reference import with_rule
from trees_reference import children_table, root_node, stop_time
from verify_reference import deviation_reward, weighted_reward

KERNEL_DENOMINATORS = (1, 2, 3, 5, 7, 11, 13, 97)


def independent_antichain_count(tree, node_id=None):
    """Reference count, written as the textbook product recursion."""
    if node_id is None:
        node_id = root_node(tree).id
    product = 1
    for kid in children_table(tree)[node_id]:
        product *= independent_antichain_count(tree, kid.id)
    return product + 1


def path_profile(tree, *stop_times):
    return StrategyProfile(
        tuple(
            NEVER_RULE if t is None else StoppingRule(frozenset({t}))
            for t in stop_times
        )
    )


def test_enumerate_single_path():
    tree = single_path_tree(2)
    rules = enumerate_rules(tree)
    assert len(rules) == 4
    times = sorted(stop_time(tree, rule, 2) for rule in rules)
    assert times == [0, 1, 2, float("inf")]


def test_enumerate_depth_one_binary():
    tree = full_binary_tree(1)
    rules = enumerate_rules(tree)
    assert len(rules) == 5
    assert {rule.stop_set for rule in rules} == {
        frozenset(),
        frozenset({0}),
        frozenset({1}),
        frozenset({2}),
        frozenset({1, 2}),
    }


def test_enumerate_matches_reference_count():
    for tree in (full_binary_tree(2), full_binary_tree(3), single_path_tree(3)):
        rules = enumerate_rules(tree, cap=100_000)
        assert len(rules) == independent_antichain_count(tree) == count_rules(tree)
        # all canonical, all inducing distinct stop-time functions
        signatures = {
            tuple(stop_time(tree, rule, leaf.id) for leaf in tree.leaves)
            for rule in rules
        }
        assert len(signatures) == len(rules)


def test_enumerate_cap_fails_loudly():
    tree = full_binary_tree(3)
    with pytest.raises(CapExceededError, match="26"):
        enumerate_rules(full_binary_tree(2), cap=25)
    with pytest.raises(CapExceededError):
        enumerate_rules(tree, cap=100)


def test_deviation_reward_join_stay_split(deterministic_game):
    profile = path_profile(deterministic_game.tree, 1, 2, 2)
    reward = deviation_reward(deterministic_game, profile, 2)
    assert reward.values[0] == Fraction(1, 8)  # solo payoff before the others stop
    assert reward.values[1] == Fraction(1, 4)  # joining player 1 at stage 1
    assert reward.values[2] == Fraction(1, 2)  # frozen: player 1 stopped alone
    value = best_response_value(deterministic_game, profile, 2)
    assert value == Fraction(1, 2)
    assert value == max(
        expected_payoffs(deterministic_game, with_rule(profile, 2, rule))[1]
        for rule in enumerate_rules(deterministic_game.tree, 64)
    )
    achieved = expected_payoffs(deterministic_game, profile)[1]
    assert value - achieved == 0


def test_best_response_fixpoint_gain_is_zero(deterministic_game):
    profile = path_profile(deterministic_game.tree, 1, 2, 2)
    value = best_response_value(deterministic_game, profile, 3)
    reward = deviation_reward(deterministic_game, profile, 3)
    envelope = snell_envelope(deterministic_game.tree, reward)
    rule = eps_optimal_rule(deterministic_game.tree, reward, envelope, Fraction(0))
    replayed = expected_payoffs(deterministic_game, with_rule(profile, 3, rule))[2]
    assert replayed == value


def test_certify_published_zero_equilibria(deterministic_game):
    tree = deterministic_game.tree
    for times in [(1, 2, 2), (1, 1, 1), (1, 2, 1)]:
        certificate = certify(deterministic_game, path_profile(tree, *times), Fraction(0))
        assert certificate.is_eps_nep, times
        assert certificate.gains == (0, 0, 0)


def test_certify_rejects_profitable_deviation(deterministic_game):
    certificate = certify(
        deterministic_game, path_profile(deterministic_game.tree, 2, 2, 2), Fraction(0)
    )
    assert not certificate.is_eps_nep
    assert certificate.gains[0] == Fraction(1, 2)


def test_certify_monotone_in_epsilon(deterministic_game):
    # (2,2,2) achieves (0,0,0); player 2 alone can deviate to stage 1 for 3/2
    profile = path_profile(deterministic_game.tree, 2, 2, 2)
    certificate = certify(deterministic_game, profile, Fraction(0))
    assert max(certificate.gains) == Fraction(3, 2)
    passing = [
        eps
        for eps in (Fraction(0), Fraction(1, 2), Fraction(3, 2), Fraction(2))
        if certify(deterministic_game, profile, eps).is_eps_nep
    ]
    assert passing == [Fraction(3, 2), Fraction(2)]


def test_certify_all_never_with_huge_epsilon(deterministic_game):
    profile = StrategyProfile((NEVER_RULE,) * 3)
    certificate = certify(deterministic_game, profile, Fraction(2))
    assert certificate.is_eps_nep
    assert certificate.best_response == (Fraction(1, 2), Fraction(3, 2), Fraction(1, 2))


def test_matching_game_always_leaves_a_loser(pennies_game):
    tree = pennies_game.tree
    for times in [(0, 0), (1, 2), (3, 3), (None, None), (2, None)]:
        certificate = certify(pennies_game, path_profile(tree, *times), Fraction(1, 2))
        assert not certificate.is_eps_nep
        assert max(certificate.gains) == 1


def test_find_all_contains_published_equilibria(deterministic_game):
    found = find_all_eps_neps(deterministic_game, Fraction(0))
    times = {
        tuple(
            stop_time(deterministic_game.tree, profile.rule_for(i), 2) for i in (1, 2, 3)
        )
        for profile, _ in found
    }
    assert {(1, 2, 1), (1, 1, 1), (1, 2, 2)} <= times


def test_find_all_empty_for_matching_game(pennies_game):
    assert find_all_eps_neps(pennies_game, Fraction(1, 2)) == []


def test_find_all_simultaneous_stops_in_one_sided_game(one_sided_game):
    found = find_all_eps_neps(one_sided_game, Fraction(0))
    times = {
        tuple(stop_time(one_sided_game.tree, profile.rule_for(i), 3) for i in (1, 2))
        for profile, _ in found
    }
    assert {(t, t) for t in range(4)} <= times


def test_find_all_respects_profile_cap(deterministic_game):
    with pytest.raises(CapExceededError, match="profiles"):
        find_all_eps_neps(deterministic_game, Fraction(0), profile_cap=10)


def test_trace_invariants_clean_on_fixture_runs(deterministic_game, walk_game):
    for spec, config in [
        (deterministic_game, SchemeConfig(epsilon=Fraction(1, 100))),
        (deterministic_game, SchemeConfig(epsilon=Fraction(1, 100), order=(2, 3, 1))),
        (walk_game, SchemeConfig(epsilon=Fraction(1, 4), order=(1, 2))),
        (walk_game, SchemeConfig(epsilon=Fraction(1, 2), order=(1, 2))),
    ]:
        result = run_scheme(spec, config)
        assert check_trace_invariants(result.trace, result) == []


def test_trace_invariants_catch_injected_fault(deterministic_game):
    result = run_scheme(deterministic_game, SchemeConfig(epsilon=Fraction(1, 100)))
    trace = list(result.trace)
    # player 1 stopped at stage 1 in step 4; pretend step 7 moved back to 2
    corrupted = trace[3]._replace(tau=stop_everywhere_at(deterministic_game.tree, 2))
    trace[3] = corrupted
    violations = check_trace_invariants(tuple(trace), result)
    assert any("tau increased" in v for v in violations)


def root_walk_trace_audit(trace, profile):
    """Reference audit: the checks of ``check_trace_invariants``, in its
    order, with every stop time read by a root walk per rule and leaf."""
    violations = []
    tree = profile.tree
    by_n = {step.n: step for step in trace}
    num_players = len(profile.uncapped.rules)

    def t(rule, leaf_id):
        return stop_time(tree, rule, leaf_id)

    for step in trace:
        previous = by_n.get(step.n - num_players)
        for leaf in tree.leaves:
            i = leaf.id
            if t(step.mu, i) != min(t(step.tau, i), t(step.theta, i)):
                violations.append(f"step {step.n}, leaf {i}: mu != min(tau, theta)")
            if not profile.initialized_at_horizon and t(step.tau, i) == t(step.theta, i) != NEVER:
                violations.append(
                    f"step {step.n}, leaf {i}: tau coincides with "
                    f"theta at finite stage {t(step.tau, i)}"
                )
            if previous is None:
                continue
            if t(step.tau, i) > t(previous.tau, i):
                violations.append(
                    f"step {step.n}, leaf {i}: tau increased "
                    f"({t(previous.tau, i)} -> {t(step.tau, i)})"
                )
            if t(step.theta, i) > t(previous.theta, i):
                violations.append(f"step {step.n}, leaf {i}: theta increased")
            if t(step.mu, i) > t(previous.mu, i):
                violations.append(f"step {step.n}, leaf {i}: mu increased")
            if t(step.mu, i) > t(previous.tau, i):
                violations.append(
                    f"step {step.n}, leaf {i}: mu exceeds the player's previous tau"
                )
            if t(previous.mu, i) == t(step.mu, i) and t(previous.tau, i) != t(step.tau, i):
                violations.append(f"step {step.n}, leaf {i}: mu stationary but tau moved")
    if not profile.initialized_at_horizon:
        for leaf in tree.leaves:
            stage = t(profile.termination_rule, leaf.id)
            if stage == NEVER:
                continue
            attaining = [
                i for i, rule in enumerate(profile.uncapped.rules, start=1)
                if t(rule, leaf.id) == stage
            ]
            if len(attaining) != 1:
                violations.append(
                    f"leaf {leaf.id}: players {attaining} jointly attain the "
                    f"finite termination stage {stage}"
                )
    bound = num_players * len(tree.leaves) * (tree.horizon + 1) + 1
    if profile.rounds_used > bound:
        violations.append(f"rounds_used {profile.rounds_used} exceeds the bound {bound}")
    return violations


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_trace_audit_equals_the_root_walk_reference(data):
    num_players = data.draw(st.integers(2, 3), label="players")
    game = random_game(
        Random(data.draw(st.integers(0, 2**32 - 1))),
        num_players,
        data.draw(st.integers(1, 3), label="horizon"),
    )
    result = run_scheme(game, SchemeConfig())
    trace = list(result.trace)
    # corrupt some rules of some steps, and maybe the final profile, so that
    # every check has something to report
    for k in data.draw(st.sets(st.sampled_from(range(len(trace))), max_size=4)):
        field = data.draw(st.sampled_from(("mu", "tau", "theta")))
        (rule,) = draw_rules(data, game.tree, 1)
        trace[k] = trace[k]._replace(**{field: rule})
    if data.draw(st.booleans(), label="joint final stops"):
        rules = draw_rules(data, game.tree, num_players)
        result = result._replace(
            uncapped=StrategyProfile(rules),
            termination_rule=min_of_rules(game.tree, list(rules)),
        )
    result = result._replace(initialized_at_horizon=data.draw(st.booleans()))
    audit = check_trace_invariants(tuple(trace), result)
    assert audit == root_walk_trace_audit(tuple(trace), result)


def test_certify_raises_on_a_negative_gain(monkeypatch, deterministic_game):
    # a best response below the achieved payoff contradicts the certifier itself
    def low_best_response(spec, profile, player):
        return Fraction(-9)

    monkeypatch.setattr(verify, "best_response_value", low_best_response)
    profile = StrategyProfile((NEVER_RULE,) * 3)
    with pytest.raises(CertificationError, match="player 1: best response -9 falls"):
        certify(deterministic_game, profile, Fraction(0))


@pytest.mark.parametrize("game", ["deterministic_game", "one_sided_game", "pennies_game"])
@pytest.mark.parametrize("epsilon", [Fraction(0), Fraction(1, 2)])
def test_find_all_equals_certifying_every_profile(request, game, epsilon):
    spec = request.getfixturevalue(game)
    rules = enumerate_rules(spec.tree)
    expected = []
    for combo in itertools.product(rules, repeat=spec.num_players):
        profile = StrategyProfile(combo)
        certificate = certify(spec, profile, epsilon)
        if certificate.is_eps_nep:
            expected.append((profile, certificate))
    assert find_all_eps_neps(spec, epsilon) == expected


def test_find_all_computes_one_best_response_per_others_rules(
    monkeypatch, deterministic_game
):
    calls = []

    def counting(spec, profile, player, *, vector=None):
        calls.append(player)
        return best_response_value(spec, profile, player, vector=vector)

    monkeypatch.setattr(verify, "best_response_value", counting)
    find_all_eps_neps(deterministic_game, Fraction(0))
    n = deterministic_game.num_players
    r = count_rules(deterministic_game.tree)
    assert len(calls) == n * r ** (n - 1)
    assert sorted(set(calls)) == [1, 2, 3]


def test_find_all_raises_on_a_negative_gain(monkeypatch, deterministic_game):
    def low_best_response(spec, profile, player, *, vector=None):
        return Fraction(-9)

    monkeypatch.setattr(verify, "best_response_value", low_best_response)
    with pytest.raises(CertificationError, match="best response -9 falls"):
        find_all_eps_neps(deterministic_game, Fraction(0))


def test_find_all_raises_on_a_best_response_above_every_rule(
    monkeypatch, deterministic_game
):
    def high_best_response(spec, profile, player, *, vector=None):
        return Fraction(9)

    monkeypatch.setattr(verify, "best_response_value", high_best_response)
    with pytest.raises(
        CertificationError, match="best response mismatch for player 1: envelope 9"
    ):
        find_all_eps_neps(deterministic_game, Fraction(0))


def test_find_all_raises_when_a_found_profile_fails_its_certificate(
    monkeypatch, deterministic_game
):
    # payoffs one lower than the integer tables price them: every profile
    # found has gains of 1 in its certificate
    def lowered_payoffs(spec, profile, outcomes=None):
        return tuple(v - 1 for v in expected_payoffs(spec, profile, outcomes))

    monkeypatch.setattr(verify, "expected_payoffs", lowered_payoffs)
    with pytest.raises(CertificationError, match="fails its certificate"):
        find_all_eps_neps(deterministic_game, Fraction(0))


def certify_every_profile(spec, epsilon):
    """Reference search: certify each profile in product order from
    scratch and keep the eps-equilibria."""
    found = []
    for combo in itertools.product(enumerate_rules(spec.tree), repeat=spec.num_players):
        profile = StrategyProfile(combo)
        certificate = certify(spec, profile, epsilon)
        if certificate.is_eps_nep:
            found.append((profile, certificate))
    return found


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_find_all_equals_the_certify_every_profile_reference(data):
    num_players, horizon = data.draw(
        st.sampled_from([(2, 1), (2, 2), (3, 1)]), label="players, horizon"
    )
    spec = random_game(Random(data.draw(st.integers(0, 2**32 - 1))), num_players, horizon)
    # the game's own gains put ties exactly at epsilon
    gains = {
        gain
        for _, certificate in certify_every_profile(spec, Fraction(10**6))
        for gain in certificate.gains
    }
    epsilon = data.draw(st.sampled_from(sorted(gains | {Fraction(0)})), label="epsilon")
    assert find_all_eps_neps(spec, epsilon) == certify_every_profile(spec, epsilon)



@pytest.mark.parametrize(
    "num_players, epsilon", [(2, Fraction(133, 88)), (3, Fraction(21, 8))]
)
def test_find_all_at_an_epsilon_off_the_payoff_grid(num_players, epsilon):
    # epsilon's denominator must enter the integer scale of the sets' bar
    spec = random_game(Random(0), num_players, 1)
    assert find_all_eps_neps(spec, epsilon) == certify_every_profile(spec, epsilon)

def envelope_reference(spec, profile, player):
    reward = deviation_reward(spec, profile, player)
    return snell_envelope(spec.tree, reward).values[root_node(spec.tree).id]


def random_payoffs(rng, tree, num_players):
    """Unvalidated payoffs: best responses need neither hypothesis."""
    return {
        (i, coalition): AdaptedProcess(
            {
                node.id: Fraction(rng.randint(-400, 400), rng.choice(KERNEL_DENOMINATORS))
                for node in tree.nodes
            }
        )
        for i in range(1, num_players + 1)
        for coalition in all_coalitions(num_players)
    }


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_integer_best_response_equals_the_fraction_envelope(data):
    num_players = data.draw(st.integers(2, 3), label="players")
    tree = data.draw(scenario_trees(max_depth=4, max_nodes=20, max_weight=9))
    rng = Random(data.draw(st.integers(0, 2**32 - 1), label="payoff seed"))
    spec = GameSpec(num_players, tree.horizon, tree, random_payoffs(rng, tree, num_players))
    profile = StrategyProfile(draw_rules(data, tree, num_players))
    for player in spec.players:
        assert best_response_value(spec, profile, player) == envelope_reference(
            spec, profile, player
        )


def test_integer_best_response_on_a_deep_path_with_thirds_near_the_root():
    tree = thirds_chain_tree()
    assert tree.index.scale[0] == 3**20
    rng = Random(5)
    spec = GameSpec(2, tree.horizon, tree, random_payoffs(rng, tree, 2))
    ids = [node.id for node in tree.nodes]
    for _ in range(4):
        profile = StrategyProfile(
            tuple(canonicalize_rule(tree, rng.sample(ids, 5)) for _ in (1, 2))
        )
        for player in (1, 2):
            value = best_response_value(spec, profile, player)
            assert value == envelope_reference(spec, profile, player)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_deviation_vector_equals_w_y_d_of_the_reference(data):
    # A(v) = w(v) * Y(v) * D, built by index position, against the Fraction
    # deviation reward on random trees and on thirds/sevenths splits
    num_players = data.draw(st.integers(2, 3), label="players")
    tree = data.draw(
        st.one_of(scenario_trees(max_depth=4, max_nodes=20, max_weight=9), thirds_and_sevenths())
    )
    rng = Random(data.draw(st.integers(0, 2**32 - 1), label="payoff seed"))
    spec = GameSpec(num_players, tree.horizon, tree, random_payoffs(rng, tree, num_players))
    profile = StrategyProfile(draw_rules(data, tree, num_players))
    epsilon = data.draw(st.sampled_from([Fraction(0), Fraction(1, 10), Fraction(5, 21)]))
    for player in spec.players:
        assert verify._deviation_vector(spec, profile, player, epsilon) == weighted_reward(
            spec, profile, player, epsilon
        )


def test_deviation_vector_on_a_deep_path_with_thirds_near_the_root():
    tree = thirds_chain_tree(horizon=60, branching=20)
    rng = Random(6)
    spec = GameSpec(2, tree.horizon, tree, random_payoffs(rng, tree, 2))
    ids = [node.id for node in tree.nodes]
    profile = StrategyProfile(
        tuple(canonicalize_rule(tree, rng.sample(ids, 5)) for _ in (1, 2))
    )
    for player in (1, 2):
        assert verify._deviation_vector(
            spec, profile, player, Fraction(1, 7)
        ) == weighted_reward(spec, profile, player, Fraction(1, 7))


def test_find_all_builds_one_deviation_vector_per_others_rules(
    monkeypatch, deterministic_game
):
    # one integer vector per tuple serves the envelope and the epsilon sets
    calls = []
    build = verify._deviation_vector

    def counting(spec, profile, player, epsilon):
        calls.append(player)
        return build(spec, profile, player, epsilon)

    monkeypatch.setattr(verify, "_deviation_vector", counting)
    find_all_eps_neps(deterministic_game, Fraction(0))
    n = deterministic_game.num_players
    r = count_rules(deterministic_game.tree)
    assert len(calls) == n * r ** (n - 1)
