from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin.games import (
    Coalition,
    GameSpec,
    StrategyProfile,
    all_coalitions,
    expected_payoffs,
    validate_game,
)
from dynkin.randomgen import random_game
from dynkin.trees import (
    NEVER,
    NEVER_RULE,
    AdaptedProcess,
    ScenarioTree,
    StoppingRule,
    canonicalize_rule,
    stop_everywhere_at,
)
from games_reference import realized_outcome, walk_payoff
from gens import draw_rules, single_path_tree
from trees_reference import (
    RootWalks,
    children_table,
    path_probability,
    path_to,
    root_node,
    stop_time,
)


def path_profile(tree, *stop_times):
    """Profile on a single-path tree from per-player stop stages (None = never)."""
    rules = tuple(
        NEVER_RULE if t is None else StoppingRule(frozenset({t})) for t in stop_times
    )
    return StrategyProfile(rules)


def two_player_path_game(values):
    """Single-path game from {(player, coalition): stage values} for quick cases."""
    horizon = len(next(iter(values.values()))) - 1
    tree = single_path_tree(horizon)
    payoffs = {}
    for player in (1, 2):
        for coalition in all_coalitions(2):
            stages = values[(player, coalition.players)]
            payoffs[(player, coalition)] = AdaptedProcess(
                {t: Fraction(v) for t, v in enumerate(stages)}
            )
    return GameSpec(num_players=2, horizon=horizon, tree=tree, payoffs=payoffs)


def test_coalition_canonical_form():
    assert Coalition.of([3, 1, 1]).players == (1, 3)
    assert Coalition.everyone(3).players == (1, 2, 3)
    assert Coalition.of((2,)).with_member(1).players == (1, 2)
    assert 2 in Coalition.of((1, 2))
    with pytest.raises(ValueError):
        Coalition.of([])
    with pytest.raises(ValueError):
        Coalition.of([0, 1])


def test_plain_classes_keep_the_frozen_record_semantics():
    # Coalition and ScenarioTree are hand-written classes, not tuples: they
    # equal only their own kind, hash by value, sort and print as before,
    # and refuse assignment
    c = Coalition.of((2, 1))
    assert c == Coalition((1, 2)) and hash(c) == hash(Coalition((1, 2)))
    assert c != (1, 2) and (1, 2) != c and {c: 1}.get((1, 2)) is None
    assert Coalition((1,)) < c < Coalition((2,)) and c <= c and c >= Coalition((1,))
    assert repr(c) == "Coalition(players=(1, 2))"
    tree = single_path_tree(1)
    assert tree == single_path_tree(1) and hash(tree) == hash(single_path_tree(1))
    assert tree != tree.nodes and tree != single_path_tree(2)
    assert repr(tree) == f"ScenarioTree(nodes={tree.nodes!r})"
    for record, field in ((c, "players"), (tree, "nodes"), (tree, "index")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
    assert c.players == (1, 2) and tree.index.horizon == 1


def test_all_coalitions_counts():
    assert len(all_coalitions(2)) == 3
    assert len(all_coalitions(3)) == 7
    assert all_coalitions(2)[0].players == (1,)


def test_validate_accepts_fixture(deterministic_game):
    assert validate_game(deterministic_game) == []


def test_validate_flags_joint_stop_violation():
    game = two_player_path_game(
        {
            (1, (1,)): (0, 0, 1),
            (1, (2,)): (0, 0, 1),
            (1, (1, 2)): (0, 1, 1),  # joint beats solo at stage 1
            (2, (2,)): (0, 0, 2),
            (2, (1,)): (0, 0, 2),
            (2, (1, 2)): (0, 0, 2),
        }
    )
    violations = validate_game(game, enforce_assumption_a=True)
    assert len(violations) == 1
    assert "player 1 vs 2 at node 1" in violations[0]
    assert validate_game(game, enforce_assumption_a=False) == []


def test_validate_flags_missing_coalition(deterministic_game):
    payoffs = dict(deterministic_game.payoffs)
    del payoffs[(2, Coalition.of((1, 3)))]
    broken = GameSpec(
        num_players=3,
        horizon=2,
        tree=deterministic_game.tree,
        payoffs=payoffs,
    )
    violations = validate_game(broken)
    assert any("payoffs not total" in v and "player 2" in v for v in violations)


def test_validate_flags_terminal_mismatch():
    game = two_player_path_game(
        {
            (1, (1,)): (0, 0, 0),
            (1, (2,)): (0, 0, 0),
            (1, (1, 2)): (0, 0, 1),  # differs from the others at the leaf
            (2, (2,)): (0, 0, 0),
            (2, (1,)): (0, 0, 0),
            (2, (1, 2)): (0, 0, 0),
        }
    )
    violations = validate_game(game, enforce_assumption_a=False)
    assert any("terminal coincidence" in v for v in violations)


def test_validate_compares_values_exactly_across_denominators():
    game = two_player_path_game(
        {
            (1, (1,)): ("0", "0", "1/4"),  # same numerator as the leaf's 1/2
            (1, (2,)): ("0", "1/3", "1/2"),
            (1, (1, 2)): ("0", "2/7", "1/2"),  # 2/7 <= 1/3 despite 2 > 1
            (2, (2,)): ("0", "0", "1/2"),
            (2, (1,)): ("0", "1/4", "1/2"),
            (2, (1, 2)): ("0", "1/3", "1/2"),  # 1/3 > 1/4
        }
    )
    assert validate_game(game) == [
        "terminal coincidence: player 1, coalition (1,) at leaf 2 is 1/4, expected 1/2",
        "joint-stop hypothesis: player 2 vs 1 at node 1: X(i,{i,j})=1/3 > X(i,{j})=1/4",
    ]


def test_realized_outcome_examples(deterministic_game):
    tree = deterministic_game.tree
    leaf = tree.leaves[0].id
    stage, coalition = realized_outcome(deterministic_game, path_profile(tree, 1, 2, 2), leaf)
    assert (stage, coalition.players) == (1, (1,))
    stage, coalition = realized_outcome(
        deterministic_game, path_profile(tree, None, None, None), leaf
    )
    assert stage == NEVER and coalition.players == (1, 2, 3)
    stage, coalition = realized_outcome(deterministic_game, path_profile(tree, 1, 2, 1), leaf)
    assert (stage, coalition.players) == (1, (1, 3))


def test_expected_payoffs_against_published_table(deterministic_game):
    tree = deterministic_game.tree
    assert expected_payoffs(deterministic_game, path_profile(tree, 1, 2, 2)) == (
        Fraction(1, 2),
        Fraction(1, 2),
        Fraction(1, 2),
    )
    assert expected_payoffs(deterministic_game, path_profile(tree, 2, 1, 2)) == (
        Fraction(1, 4),
        Fraction(3, 2),
        Fraction(1, 4),
    )
    assert expected_payoffs(deterministic_game, path_profile(tree, 2, 2, 2)) == (
        Fraction(0),
        Fraction(0),
        Fraction(0),
    )


def random_profile(rng, game, density=0.2):
    rules = []
    for _ in game.players:
        flags = {n.id for n in game.tree.nodes if rng.random() < density}
        rules.append(canonicalize_rule(game.tree, flags))
    return StrategyProfile(tuple(rules))


def test_capping_never_rules_keeps_payoffs(walk_game):
    rng = Random(11)
    for _ in range(25):
        profile = random_profile(rng, walk_game, density=0.1)
        capped = profile.capped(walk_game.tree)
        assert expected_payoffs(walk_game, profile) == expected_payoffs(walk_game, capped)


def test_capping_random_games_keeps_payoffs():
    rng = Random(23)
    for _ in range(25):
        game = random_game(rng, rng.choice((2, 3)), rng.choice((2, 3)))
        profile = random_profile(rng, game)
        assert expected_payoffs(game, profile) == expected_payoffs(
            game, profile.capped(game.tree)
        )


def test_exactly_one_coalition_event_fires_per_leaf(deterministic_game):
    tree = deterministic_game.tree
    profile = path_profile(tree, 1, 1, 2)
    for leaf in tree.leaves:
        stage, _ = realized_outcome(deterministic_game, profile, leaf.id)
        active = []
        for coalition in all_coalitions(3):
            times = {
                i: stop_time(tree, profile.rule_for(i), leaf.id)
                for i in deterministic_game.players
            }
            if all(times[j] == stage for j in coalition) and all(
                times[j] > stage for j in deterministic_game.players if j not in coalition
            ):
                active.append(coalition)
        assert len(active) == 1


def test_stop_everywhere_at_covers_every_path(walk_game):
    tree = walk_game.tree
    rule = stop_everywhere_at(tree, 2)
    assert all(stop_time(tree, rule, leaf.id) == 2 for leaf in tree.leaves)


def with_odd_denominators(game, rng):
    """The game's tree and players with sibling probabilities in thirds or
    sevenths and every payoff value over 3, 7 or 97, so neither the path
    weights nor the values are dyadic."""
    nodes = [root_node(game.tree)]
    kids_of = children_table(game.tree)
    for node in game.tree.index.nodes:
        kids = kids_of[node.id]
        if kids:
            denominator = rng.choice((3, 7))
            cuts = sorted(rng.sample(range(1, denominator), len(kids) - 1))
            shares = [b - a for a, b in zip([0] + cuts, cuts + [denominator])]
            nodes.extend(
                kid._replace(branch_prob=Fraction(share, denominator))
                for kid, share in zip(kids, shares)
            )
    payoffs = {}
    for key, process in game.payoffs.items():
        values = {}
        for node_id in process.values:
            denominator = rng.choice((3, 7, 97))
            values[node_id] = Fraction(rng.randint(-2 * denominator, 2 * denominator), denominator)
        payoffs[key] = AdaptedProcess(values)
    return game._replace(tree=ScenarioTree(tuple(nodes)), payoffs=payoffs)


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_expected_payoffs_equal_the_realized_outcome_sum(data):
    num_players = data.draw(st.integers(2, 3), label="players")
    horizon = data.draw(st.integers(1, 3), label="horizon")
    rng = Random(data.draw(st.integers(0, 2**32 - 1)))
    game = random_game(rng, num_players, horizon)
    if data.draw(st.booleans(), label="odd denominators"):
        game = with_odd_denominators(game, rng)
    tree = game.tree
    profile = StrategyProfile(draw_rules(data, tree, num_players))

    reference = [Fraction(0)] * num_players
    for leaf in tree.leaves:
        stage, coalition = realized_outcome(game, profile, leaf.id)
        node_id = leaf.id if stage == NEVER else path_to(tree, leaf.id)[int(stage)].id
        for i in game.players:
            value = game.payoff(i, coalition).values[node_id]
            reference[i - 1] += path_probability(tree, leaf.id) * value
    assert expected_payoffs(game, profile) == tuple(reference)
    # criterion 7's oracle, one walk per rule and leaf, sums the same
    walks = RootWalks(tree)
    assert tuple(walk_payoff(game, profile, i, walks) for i in game.players) == tuple(reference)


def test_expected_payoffs_reject_rules_naming_unknown_nodes(deterministic_game):
    profile = StrategyProfile((NEVER_RULE, StoppingRule(frozenset({99})), NEVER_RULE))
    with pytest.raises(ValueError, match=r"rule references nodes not in tree: \[99\]"):
        expected_payoffs(deterministic_game, profile)


@pytest.mark.parametrize("num_players,horizon", [(2, 6), (3, 4)])
def test_expected_payoffs_look_each_coalition_up_once(monkeypatch, num_players, horizon):
    game = random_game(Random(11), num_players, horizon)
    rng = Random(12)
    ids = [node.id for node in game.tree.nodes]
    profile = StrategyProfile(
        tuple(canonicalize_rule(game.tree, rng.sample(ids, 6)) for _ in game.players)
    )
    calls = []
    lookup = GameSpec.payoff

    def counting(spec, player, coalition):
        calls.append((player, coalition))
        return lookup(spec, player, coalition)

    monkeypatch.setattr(GameSpec, "payoff", counting)
    expected_payoffs(game, profile)
    # far fewer than one lookup per leaf and player
    assert len(game.tree.leaves) * num_players > num_players * (2**num_players - 1)
    assert 0 < len(calls) <= num_players * (2**num_players - 1)
