from fractions import Fraction
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from dynkin.games import Coalition, GameSpec, expected_payoffs, validate_game
from dynkin.randomgen import random_game
from dynkin import scheme
from dynkin.scheme import (
    ConvergenceError,
    SchemeConfig,
    SchemeState,
    SchemeStep,
    SweepInvariantError,
    advance,
    initial_state,
    run_scheme,
    scheme_step,
    trace_as_json,
)
from dynkin.trees import (
    NEVER_RULE,
    AdaptedProcess,
    ScenarioTree,
    StoppingRule,
    canonicalize_rule,
    min_of_rules,
    stop_everywhere_at,
)
from dynkin.verify import certify, check_trace_invariants
from games_reference import realized_outcome
from gens import full_binary_tree, late_stop_game, scenario_trees
from snell_reference import (
    eps_optimal_rule,
    reference_stage_reward,
    reference_updated_tau,
    scaled_value,
    snell_envelope,
)
from trees_reference import children_table, path_to, root_node, stop_time


def capped_times(result, spec):
    leaf = spec.tree.leaves[0].id
    return tuple(
        int(stop_time(spec.tree, result.capped.rule_for(i), leaf)) for i in spec.players
    )


def stage_reward_step(spec, player, taus):
    """The sweep step visiting ``player`` against the rules ``taus``, with
    its stage reward checked against the full-tree reference."""
    state = SchemeState(n=player, taus=taus)
    step = scheme_step(spec, SchemeConfig(), state)
    others = {p: taus[p - 1] for p in spec.players if p != player}
    reference = reference_stage_reward(spec, player, step.theta, others)
    assert step.player == player
    assert all(
        scaled_value(step.stage_reward, node.id) == reference.values[node.id] for node in spec.tree.nodes
    )
    return step


def test_stage_reward_with_no_opponent_stop(deterministic_game):
    step = stage_reward_step(deterministic_game, 1, (NEVER_RULE,) * 3)
    reward = step.stage_reward
    assert [scaled_value(reward, t) for t in range(3)] == [Fraction(1, 8), Fraction(1, 2), 0]
    assert step.coalition_at_theta == {}


def test_stage_reward_freezes_at_opponent_stop(deterministic_game):
    stop1 = StoppingRule(frozenset({1}))
    step = stage_reward_step(deterministic_game, 2, (stop1, NEVER_RULE, NEVER_RULE))
    reward = step.stage_reward
    # before the stop: own payoff; at stage 1: max(join {1,2}, stay {1}) = 1/2
    assert scaled_value(reward, 0) == Fraction(1, 8)
    assert scaled_value(reward, 1) == Fraction(1, 2)
    assert scaled_value(reward, 2) == Fraction(1, 2)
    assert step.coalition_at_theta == {1: Coalition.of((1,))}


def test_stage_reward_frozen_from_root(deterministic_game):
    root_stop = StoppingRule(frozenset({0}))
    step = stage_reward_step(deterministic_game, 2, (root_stop, NEVER_RULE, NEVER_RULE))
    assert all(scaled_value(step.stage_reward, t) == Fraction(1, 8) for t in range(3))


def test_first_step_stops_player_one_at_stage_one(deterministic_game):
    config = SchemeConfig(epsilon=Fraction(1, 100))
    step = scheme_step(deterministic_game, config, initial_state(deterministic_game))
    assert step.n == 4 and step.player == 1
    assert step.mu.stop_set == frozenset({1})
    assert step.tau.stop_set == frozenset({1})


def test_second_step_keeps_player_two_waiting(deterministic_game):
    from dynkin.scheme import advance

    config = SchemeConfig(epsilon=Fraction(1, 100))
    state = initial_state(deterministic_game)
    state = advance(state, scheme_step(deterministic_game, config, state))
    step = scheme_step(deterministic_game, config, state)
    assert step.player == 2
    assert step.mu.stop_set == frozenset({1})  # threshold met exactly at theta
    assert step.theta.stop_set == frozenset({1})
    assert step.tau == NEVER_RULE  # falls back to the previous rule


def test_first_step_under_reversed_order(deterministic_game):
    config = SchemeConfig(epsilon=Fraction(1, 100), order=(2, 3, 1))
    step = scheme_step(deterministic_game, config, initial_state(deterministic_game))
    assert step.player == 2
    assert scaled_value(step.stage_reward, 1) == Fraction(3, 2)
    assert step.tau.stop_set == frozenset({1})


def test_run_reproduces_identity_order_profile(deterministic_game):
    result = run_scheme(deterministic_game, SchemeConfig(epsilon=Fraction(1, 100)))
    assert capped_times(result, deterministic_game) == (1, 2, 2)
    assert result.rounds_used == 2
    leaf = deterministic_game.tree.leaves[0].id
    stage, coalition = realized_outcome(deterministic_game, result.capped, leaf)
    assert (stage, coalition.players) == (1, (1,))
    assert expected_payoffs(deterministic_game, result.capped) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )


def test_run_reproduces_reversed_order_profile(deterministic_game):
    result = run_scheme(
        deterministic_game, SchemeConfig(epsilon=Fraction(1, 100), order=(2, 3, 1))
    )
    assert capped_times(result, deterministic_game) == (2, 1, 2)
    leaf = deterministic_game.tree.leaves[0].id
    assert realized_outcome(deterministic_game, result.capped, leaf)[1].players == (2,)


def walk_case(tree, leaf_id):
    """Which up/down pattern of the second coordinate a walk-game leaf saw."""
    draws = []
    for node in path_to(tree, leaf_id)[1:]:
        siblings = [s.id for s in children_table(tree)[node.parent]]
        draws.append([1, -1, 1, -1][siblings.index(node.id)])
    if draws[0] == 1:
        return "first-up"
    if draws[1] == 1:
        return "second-up"
    return "both-down"


def test_walk_game_casewise_profiles(walk_game):
    result = run_scheme(walk_game, SchemeConfig(epsilon=Fraction(1, 4), order=(1, 2)))
    per_case = {}
    for leaf in walk_game.tree.leaves:
        times = tuple(
            int(stop_time(walk_game.tree, result.capped.rule_for(i), leaf.id))
            for i in (1, 2)
        )
        per_case.setdefault(walk_case(walk_game.tree, leaf.id), set()).add(times)
    assert per_case == {
        "first-up": {(3, 1)},
        "second-up": {(3, 2)},
        "both-down": {(3, 3)},
    }


def test_walk_game_large_epsilon_stops_player_one_first(walk_game):
    result = run_scheme(walk_game, SchemeConfig(epsilon=Fraction(1, 2), order=(1, 2)))
    for leaf in walk_game.tree.leaves:
        assert stop_time(walk_game.tree, result.capped.rule_for(1), leaf.id) == 1
        assert stop_time(walk_game.tree, result.capped.rule_for(2), leaf.id) == 3


def test_walk_game_order_does_not_matter_below_half(walk_game):
    forward = run_scheme(walk_game, SchemeConfig(epsilon=Fraction(1, 4), order=(1, 2)))
    reverse = run_scheme(walk_game, SchemeConfig(epsilon=Fraction(1, 4), order=(2, 1)))
    assert forward.capped == reverse.capped


def test_both_initializations_agree_on_fixtures(deterministic_game, walk_game):
    cases = [
        (deterministic_game, SchemeConfig(epsilon=Fraction(1, 100))),
        (deterministic_game, SchemeConfig(epsilon=Fraction(1, 100), order=(3, 1, 2))),
        (walk_game, SchemeConfig(epsilon=Fraction(1, 4), order=(1, 2))),
        (walk_game, SchemeConfig(epsilon=Fraction(1, 2), order=(1, 2))),
    ]
    for spec, config in cases:
        never_init = run_scheme(spec, config)
        horizon_init = run_scheme(spec, config, initialize_at_horizon=True)
        assert never_init.capped == horizon_init.capped


def test_horizon_initialization_state(deterministic_game):
    state = initial_state(deterministic_game, at_horizon=True)
    assert state.taus == (stop_everywhere_at(deterministic_game.tree, 2),) * 3


def test_round_cap_raises_with_partial_trace(deterministic_game):
    config = SchemeConfig(epsilon=Fraction(1, 100), max_rounds=1)
    with pytest.raises(ConvergenceError) as info:
        run_scheme(deterministic_game, config)
    assert len(info.value.trace) == 3  # one full round was computed


def test_run_rejects_games_violating_the_hypothesis(pennies_game):
    with pytest.raises(ValueError, match="joint-stop"):
        run_scheme(pennies_game, SchemeConfig(epsilon=Fraction(1, 2)))


def test_config_rejects_bad_order(deterministic_game):
    with pytest.raises(ValueError, match="permutation"):
        run_scheme(deterministic_game, SchemeConfig(order=(1, 2)))
    state = initial_state(deterministic_game)
    with pytest.raises(ValueError, match="permutation"):
        scheme_step(deterministic_game, SchemeConfig(order=(1, 1, 3)), state)


def test_run_checks_the_order_once(monkeypatch, deterministic_game):
    checks = []
    real = SchemeConfig.order_for

    def counting(config, num_players):
        checks.append(num_players)
        return real(config, num_players)

    monkeypatch.setattr(SchemeConfig, "order_for", counting)
    result = run_scheme(deterministic_game, SchemeConfig(order=(3, 1, 2)))
    assert len(result.trace) > deterministic_game.num_players
    assert [step.player for step in result.trace[:3]] == [3, 1, 2]
    assert checks == [deterministic_game.num_players]


def test_trace_export_shape(deterministic_game):
    result = run_scheme(deterministic_game, SchemeConfig(epsilon=Fraction(1, 100)))
    rows = trace_as_json(result.trace)
    assert [row["n"] for row in rows] == [4, 5, 6, 7, 8, 9]
    first = rows[0]
    assert first["player"] == 1
    assert first["tau_stops"] == [1]
    assert first["theta_stops"] == []
    assert set(first) == {"n", "player", "theta_stops", "coalitions", "mu_stops", "tau_stops"}
    later = rows[1]
    assert later["coalitions"] == {"1": [1]}


def test_random_games_converge_and_only_move_earlier():
    rng = Random(5)
    for _ in range(20):
        game = random_game(rng, rng.choice((2, 3)), rng.choice((2, 3)))
        epsilon = rng.choice((Fraction(0), Fraction(1, 10)))
        result = run_scheme(game, SchemeConfig(epsilon=epsilon))
        assert result.rounds_used <= 2 * len(game.tree.leaves) * (game.horizon + 1) * game.num_players + 1
        by_player = {}
        for step in result.trace:
            for leaf in game.tree.leaves:
                t = stop_time(game.tree, step.tau, leaf.id)
                key = (step.player, leaf.id)
                if key in by_player:
                    assert t <= by_player[key]
                by_player[key] = t


def test_tau_update_forms_must_agree(monkeypatch, deterministic_game):
    # answers that stop at the root first and at the horizon afterwards make
    # player 1's second answer come later than their rule, with nobody else
    # stopping: the simplified update takes it, the raw one keeps the root
    answers = []

    def fake_kernel(tree, reward, epsilon):
        answers.append(0 if not answers else tree.horizon)
        return None, stop_everywhere_at(tree, answers[-1])

    monkeypatch.setattr(scheme, "integer_snell", fake_kernel)
    with pytest.raises(SweepInvariantError, match="tau update forms disagree"):
        run_scheme(deterministic_game, SchemeConfig())


def test_round_must_not_move_a_rule_later(monkeypatch, deterministic_game, walk_game):
    update = scheme._updated_tau

    def forgetful_update(tree, mu, theta, previous):
        # from the second visit on, drop the stop node with the largest id
        if not previous.stop_set:
            return update(tree, mu, theta, previous)
        return StoppingRule(previous.stop_set - {max(previous.stop_set)})

    monkeypatch.setattr(scheme, "_updated_tau", forgetful_update)
    # the message names the first leaf, in tree.leaves order, that moved
    # later: on the walk game leaves 21 to 83 keep their stops
    for game, leaf, times in [(deterministic_game, 2, "1 -> inf"), (walk_game, 84, "3 -> inf")]:
        message = f"^round 2 moved player 1's stop on leaf {leaf} later \\({times}\\)$"
        with pytest.raises(SweepInvariantError, match=message):
            run_scheme(game, SchemeConfig())


@settings(max_examples=400, deadline=None)
@given(scenario_trees(max_depth=4, max_nodes=20), st.data())
def test_tau_update_equals_the_leaf_by_leaf_reference(tree, data):
    # arbitrary canonical triples, so the update also meets previous < mu
    # < theta, where it must raise the reference's message; drawn from a
    # few shared nodes, so the rules often stop at the same node
    ids = [node.id for node in tree.nodes]
    pool = data.draw(st.lists(st.sampled_from(ids), min_size=1, max_size=8, unique=True))
    mu, theta, previous = [
        canonicalize_rule(tree, data.draw(st.sets(st.sampled_from(pool)))) for _ in range(3)
    ]
    # often previous also stops just above a mu node, so previous < mu there
    above = sorted({n.parent for n in tree.nodes if n.id in mu.stop_set} - {None})
    if above and data.draw(st.booleans()):
        previous = canonicalize_rule(tree, previous.stop_set | {data.draw(st.sampled_from(above))})
    try:
        expected = reference_updated_tau(tree, mu, theta, previous)
    except SweepInvariantError as exc:
        with pytest.raises(SweepInvariantError) as info:
            scheme._updated_tau(tree, mu, theta, previous)
        assert str(info.value) == str(exc)
    else:
        assert scheme._updated_tau(tree, mu, theta, previous) == expected


def test_tau_update_names_the_first_leaf_where_its_forms_disagree():
    # leaves 3 and 4 have previous == mu < theta, where the forms agree;
    # leaves 5 and 6 have previous < mu < theta
    tree = full_binary_tree(2)
    mu, previous = StoppingRule(frozenset({1, 5, 6})), StoppingRule(frozenset({1, 2}))
    message = "^tau update forms disagree on leaf 5: mu=2 theta=inf previous=1$"
    with pytest.raises(SweepInvariantError, match=message):
        scheme._updated_tau(tree, mu, NEVER_RULE, previous)


def test_a_passing_run_reads_no_leaf_stop_times(monkeypatch, deterministic_game, walk_game):
    # the sweep decides its update and round check on stop sets; per-leaf
    # times only word a failure
    def banned(tree, rule):
        raise AssertionError("a passing run read per-leaf stop times")

    monkeypatch.setattr(scheme, "leaf_stop_times", banned)
    late = late_stop_game(Random(3), 3, 30)
    for game in (deterministic_game, walk_game, late):
        for order in (None, tuple(reversed(game.players))):
            result = run_scheme(game, SchemeConfig(order=order))
            assert check_trace_invariants(result.trace, result) == []
    assert result.rounds_used >= 10


def with_thirds_and_sevenths(game, rng):
    """The game on its own tree shape, every sibling pair split in thirds
    or sevenths."""
    splits = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(3, 7), Fraction(4, 7)),
              (Fraction(6, 7), Fraction(1, 7))]
    nodes = [root_node(game.tree)]
    kids_of = children_table(game.tree)
    for node in game.tree.index.nodes:
        kids = kids_of[node.id]
        if kids:
            for kid, prob in zip(kids, rng.choice(splits)):
                nodes.append(kid._replace(branch_prob=prob))
    return game._replace(tree=ScenarioTree(tuple(nodes)))


def with_frozen_values_off_grid(game, denominator):
    """Every non-solo value before the horizon lowered by 1/denominator: the
    joint-stop hypothesis and terminal coincidence still hold, and the
    join/stay values leave the solo payoffs' denominators."""
    shift = Fraction(1, denominator)
    payoffs = {}
    for (i, coalition), process in game.payoffs.items():
        if coalition.players == (i,):
            payoffs[(i, coalition)] = process
            continue
        payoffs[(i, coalition)] = AdaptedProcess(
            {
                node.id: process.values[node.id] - (shift if node.time < game.horizon else 0)
                for node in game.tree.nodes
            }
        )
    return game._replace(payoffs=payoffs)


def assert_step_matches_reference(spec, step, others, epsilon):
    """U, W and mu of one step against the full-tree Fraction reference."""
    tree = spec.tree
    reward = reference_stage_reward(spec, step.player, step.theta, others)
    envelope = snell_envelope(tree, reward)
    for node in tree.nodes:
        assert scaled_value(step.stage_reward, node.id) == reward.values[node.id]
        assert scaled_value(step.envelope, node.id) == envelope.values[node.id]
    assert step.mu == eps_optimal_rule(tree, reward, envelope, epsilon)


def assert_run_matches_reference(spec, result):
    """Every step of a never-initialized run against the reference, with
    each step's others read from the steps before it."""
    taus = list(initial_state(spec).taus)
    for step in result.trace:
        others = {p: taus[p - 1] for p in spec.players if p != step.player}
        assert step.theta == min_of_rules(spec.tree, list(others.values()))
        assert_step_matches_reference(spec, step, others, result.config.epsilon)
        taus[step.player - 1] = step.tau


def observed_gaps(spec, result):
    """The positive margins W - U the run's steps met, at every node."""
    return sorted(
        {
            scaled_value(step.envelope, node.id) - scaled_value(step.stage_reward, node.id)
            for step in result.trace
            for node in spec.tree.nodes
        }
        - {Fraction(0)}
    )


def assert_root_theta_step(spec, epsilon):
    """A step whose others all stop at the root: only the root is live."""
    root = StoppingRule(frozenset({root_node(spec.tree).id}))
    taus = (NEVER_RULE,) + (root,) * (spec.num_players - 1)
    state = SchemeState(n=spec.num_players + 1, taus=taus)
    step = scheme_step(spec, SchemeConfig(epsilon=epsilon), state)
    assert step.player == 1 and step.theta == root and step.mu == root
    others = {p: root for p in spec.players if p != 1}
    assert_step_matches_reference(spec, step, others, epsilon)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_sweep_steps_equal_the_fraction_reference(data):
    num_players = data.draw(st.integers(2, 3), label="players")
    horizon = data.draw(st.integers(1, 4 if num_players == 2 else 3), label="horizon")
    rng = Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    game = random_game(rng, num_players, horizon)
    if data.draw(st.booleans(), label="thirds and sevenths"):
        game = with_thirds_and_sevenths(game, rng)
    off_grid = data.draw(st.sampled_from([None, 3, 5, 7, 17]), label="join/stay shift")
    if off_grid is not None:
        game = with_frozen_values_off_grid(game, off_grid)
    assert validate_game(game) == []

    first = run_scheme(game, SchemeConfig(epsilon=Fraction(0)))
    assert first.trace[0].theta == NEVER_RULE  # the first step is all live
    # ties land exactly at epsilon when it is one of the margins met
    epsilon = data.draw(
        st.sampled_from([Fraction(0), *observed_gaps(game, first)]), label="epsilon"
    )
    result = run_scheme(game, SchemeConfig(epsilon=epsilon))
    assert_run_matches_reference(game, result)
    assert_root_theta_step(game, epsilon)


def test_frozen_values_off_the_solo_grid_raise_the_step_denominator():
    # branch weights of random_binary_tree sum to at most 14, so no stage
    # scale has the factor 17, and the solo payoffs are dyadic
    game = with_frozen_values_off_grid(random_game(Random(3), 2, 3), 17)
    result = run_scheme(game, SchemeConfig(epsilon=Fraction(1, 4)))
    raised = [s for s in result.trace if s.stage_reward.denominator % 17 == 0]
    assert raised and all(s.theta.stop_set for s in raised)
    assert_run_matches_reference(game, result)


@settings(max_examples=12, deadline=None)
@given(st.data())
def test_late_stop_games_run_long_and_stay_exact(data):
    num_players = data.draw(st.integers(2, 3), label="players")
    horizon = data.draw(st.integers(9 * num_players + 2, 9 * num_players + 6), label="horizon")
    game = late_stop_game(Random(data.draw(st.integers(0, 2**32 - 1))), num_players, horizon)
    # below every stage's rise, so each visit pre-empts by one stage only
    epsilon = data.draw(st.sampled_from([Fraction(0), Fraction(1, 32)]))
    result = run_scheme(game, SchemeConfig(epsilon=epsilon))
    assert result.rounds_used >= 10
    assert_run_matches_reference(game, result)
    assert certify(game, result.capped, epsilon).is_eps_nep
    assert check_trace_invariants(result.trace, result) == []


def test_trace_audit_reads_no_sweep_values():
    # the benchmark's audit rebuilds steps from the exported rules alone
    game = late_stop_game(Random(4), 3, 32)
    result = run_scheme(game, SchemeConfig(epsilon=Fraction(0)))
    steps = tuple(
        SchemeStep(
            n=step.n,
            player=step.player,
            theta=step.theta,
            coalition_at_theta={},
            stage_reward=None,
            envelope=None,
            mu=step.mu,
            tau=step.tau,
        )
        for step in result.trace
    )
    audited = result._replace(trace=steps)
    assert len(steps) >= 30
    assert check_trace_invariants(steps, audited) == []


def test_run_validates_an_unvalidated_spec(pennies_game):
    # a library caller that passes no validated flag still gets the full list
    violations = validate_game(pennies_game, enforce_assumption_a=True)
    assert violations
    with pytest.raises(ValueError) as info:
        run_scheme(pennies_game, SchemeConfig(epsilon=Fraction(1, 2)))
    assert str(info.value) == "game is not valid for the scheme: " + "; ".join(violations)


def test_validated_run_skips_validation_and_agrees(monkeypatch, deterministic_game):
    config = SchemeConfig(epsilon=Fraction(1, 100))
    checked = run_scheme(deterministic_game, config)
    monkeypatch.setattr(scheme, "validate_game", None)  # any call would raise
    trusted = run_scheme(deterministic_game, config, validated=True)
    assert trusted.uncapped == checked.uncapped
    assert trusted.rounds_used == checked.rounds_used
    assert trace_as_json(trusted.trace) == trace_as_json(checked.trace)


def test_a_step_looks_each_stop_coalition_up_once(monkeypatch):
    # many theta nodes share a few coalitions; each coalition's join and
    # stay values are read once per step
    game = late_stop_game(Random(4), 3, 32)
    config = SchemeConfig()
    state = initial_state(game)
    solo_rewards = {}
    lookups = []
    lookup = GameSpec.payoff

    def counting(spec, player, coalition):
        lookups.append(coalition)
        return lookup(spec, player, coalition)

    for _ in range(3 * game.num_players):
        step = scheme_step(game, config, state, solo_rewards)
        state = advance(state, step)
    assert len(solo_rewards) == game.num_players  # solo lookups are done
    monkeypatch.setattr(GameSpec, "payoff", counting)
    step = scheme_step(game, config, state, solo_rewards)
    coalitions = set(step.coalition_at_theta.values())
    assert len(step.coalition_at_theta) > len(coalitions)
    assert len(lookups) == 2 * len(coalitions)
