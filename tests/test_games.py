import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynkin.documents import DocumentError, document_text, parse_game
from dynkin.fixtures import EXAMPLES, example_document
from dynkin.games import (
    GameSpec,
    StrategyProfile,
    all_coalitions,
    expected_payoffs,
    leaf_outcomes,
    validate_game,
)
from dynkin.randomgen import random_game
from dynkin.trees import (
    NEVER,
    NEVER_RULE,
    ScenarioTree,
    StoppingRule,
    canonicalize_rule,
    stop_everywhere_at,
)
from dynkin.verify import best_response_value
from games_reference import realized_outcome, reference_validate_game, walk_payoff
from gens import (
    count_table_reads,
    draw_rules,
    enumerated_cases,
    int_digit_limit,
    serialize_game,
    single_path_tree,
)
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
            stages = values[(player, coalition)]
            payoffs[(player, coalition)] = {t: Fraction(v) for t, v in enumerate(stages)}
    return GameSpec(num_players=2, horizon=horizon, tree=tree, payoffs=payoffs)


def test_plain_classes_keep_the_frozen_record_semantics():
    # ScenarioTree is a hand-written class, not a tuple: it equals only its
    # own kind, hashes by value, prints as before and refuses assignment
    tree = single_path_tree(1)
    assert tree == single_path_tree(1) and hash(tree) == hash(single_path_tree(1))
    assert tree != tree.nodes and tree != single_path_tree(2)
    assert repr(tree) == f"ScenarioTree(nodes={tree.nodes!r})"
    for field in ("nodes", "index"):
        with pytest.raises(AttributeError):
            setattr(tree, field, None)
    assert tree.index.horizon == 1


def test_all_coalitions_counts():
    assert len(all_coalitions(2)) == 3
    assert len(all_coalitions(3)) == 7
    assert all_coalitions(3) == [(1,), (1, 2), (1, 2, 3), (1, 3), (2,), (2, 3), (3,)]


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
    del payoffs[(2, (1, 3))]
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
    assert (stage, coalition) == (1, (1,))
    stage, coalition = realized_outcome(
        deterministic_game, path_profile(tree, None, None, None), leaf
    )
    assert stage == NEVER and coalition == (1, 2, 3)
    stage, coalition = realized_outcome(deterministic_game, path_profile(tree, 1, 2, 1), leaf)
    assert (stage, coalition) == (1, (1, 3))


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
        for node_id in process:
            denominator = rng.choice((3, 7, 97))
            values[node_id] = Fraction(rng.randint(-2 * denominator, 2 * denominator), denominator)
        payoffs[key] = values
    return game._replace(tree=ScenarioTree(tuple(nodes)), payoffs=payoffs)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), enumerated=st.just(False))
@example(data=None, enumerated=True)
def test_expected_payoffs_equal_the_realized_outcome_sum(data, enumerated):
    if enumerated:
        cases = enumerated_cases()
    else:
        num_players = data.draw(st.integers(2, 3), label="players")
        horizon = data.draw(st.integers(1, 3), label="horizon")
        rng = Random(data.draw(st.integers(0, 2**32 - 1)))
        game = random_game(rng, num_players, horizon)
        if data.draw(st.booleans(), label="odd denominators"):
            game = with_odd_denominators(game, rng)
        cases = [(game, StrategyProfile(draw_rules(data, game.tree, num_players)))]

    for game, profile in cases:
        tree = game.tree
        reference = [Fraction(0)] * game.num_players
        for leaf in tree.leaves:
            stage, coalition = realized_outcome(game, profile, leaf.id)
            node_id = leaf.id if stage == NEVER else path_to(tree, leaf.id)[int(stage)].id
            for i in game.players:
                value = game.payoffs[(i, coalition)][node_id]
                reference[i - 1] += path_probability(tree, leaf.id) * value
        assert expected_payoffs(game, profile) == tuple(reference)
        # criterion 7's oracle, one walk per rule and leaf, sums the same
        walks = RootWalks(tree)
        assert tuple(walk_payoff(game, profile, i, walks) for i in game.players) == tuple(
            reference
        )


def test_expected_payoffs_reject_rules_naming_unknown_nodes(deterministic_game):
    profile = StrategyProfile((NEVER_RULE, StoppingRule(frozenset({99})), NEVER_RULE))
    for priced in (
        expected_payoffs,
        leaf_outcomes,
        # a best response reads only the others' rules
        lambda game, profile: best_response_value(game, profile, 1),
    ):
        with pytest.raises(ValueError, match=r"^rule references nodes not in tree: \[99\]$"):
            priced(deterministic_game, profile)
    assert best_response_value(deterministic_game, profile, 2) == best_response_value(
        deterministic_game, StrategyProfile((NEVER_RULE,) * 3), 2
    )


@pytest.mark.parametrize("num_players,horizon", [(2, 6), (3, 4)])
def test_expected_payoffs_look_each_coalition_up_once(num_players, horizon):
    game = random_game(Random(11), num_players, horizon)
    rng = Random(12)
    ids = [node.id for node in game.tree.nodes]
    profile = StrategyProfile(
        tuple(canonicalize_rule(game.tree, rng.sample(ids, 6)) for _ in game.players)
    )
    calls = []
    count_table_reads(game, calls)
    expected_payoffs(game, profile)
    # far fewer than one lookup per leaf and player
    assert len(game.tree.leaves) * num_players > num_players * (2**num_players - 1)
    assert 0 < len(calls) <= num_players * (2**num_players - 1)


def _broken(game, data):
    """The game with some leaf values moved off the all-players value by a
    seventh and some joint-stop values raised a 97th above the solo-stop
    value before the horizon; optionally every joint-stop value first
    lowered by a third, so that the processes compared keep different
    denominators where the checks hold."""
    payoffs = {key: dict(values) for key, values in game.payoffs.items()}
    inner = [node.id for node in game.tree.nodes if node.time < game.horizon]
    joint_keys = [(i, c) for i, c in payoffs if len(c) == 2 and i in c]
    if data.draw(st.booleans(), label="joint values in thirds"):
        for key in joint_keys:
            for node_id in inner:
                payoffs[key][node_id] -= Fraction(1, 3)
    leaves = [leaf.id for leaf in game.tree.leaves]
    for _ in range(data.draw(st.integers(0, 3), label="terminal breaks")):
        key = data.draw(st.sampled_from(sorted(payoffs)))
        payoffs[key][data.draw(st.sampled_from(leaves))] += Fraction(1, 7)
    for _ in range(data.draw(st.integers(0, 3), label="joint-stop breaks")):
        i, c = data.draw(st.sampled_from(joint_keys))
        (j,) = [m for m in c if m != i]
        node_id = data.draw(st.sampled_from(inner))
        payoffs[(i, c)][node_id] = payoffs[(i, (j,))][node_id] + Fraction(1, 97)
    return game._replace(payoffs=payoffs)


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_validate_game_lists_the_reference_violations_in_order(data):
    # the slice checks find exactly the violations the Fraction reference
    # finds, in its order, and parse_game reports the same list
    rng = Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    num_players = data.draw(st.integers(2, 3), label="players")
    game = random_game(rng, num_players, data.draw(st.integers(1, 3), label="horizon"))
    if data.draw(st.booleans(), label="odd denominators"):
        game = with_odd_denominators(game, rng)  # 3rds, 7ths, 97ths: most checks fail
    game = _broken(game, data)
    enforce = data.draw(st.booleans(), label="joint-stop check")
    expected = reference_validate_game(game, enforce)
    assert validate_game(game, enforce_assumption_a=enforce) == expected
    text = document_text(serialize_game(game))
    if expected:
        with pytest.raises(DocumentError) as info:
            parse_game(text, enforce_assumption_a=enforce)
        assert str(info.value) == "document failed validation: " + "; ".join(expected)
    else:
        assert validate_game(parse_game(text, enforce_assumption_a=enforce)) == (
            reference_validate_game(game)
        )


def _document_values(doc):
    """Each (player, coalition) process of a document as the Fractions of
    its strings, the default_payoff filling the pairs it does not list."""
    values = {
        (entry["player"], tuple(entry["coalition"])): {
            int(k): Fraction(v) for k, v in entry["values"].items()
        }
        for entry in doc["payoffs"]
    }
    if "default_payoff" in doc:
        default = {int(k): Fraction(v) for k, v in doc["default_payoff"]["values"].items()}
        for i in range(1, doc["players"] + 1):
            for coalition in all_coalitions(doc["players"]):
                values.setdefault((i, coalition), default)
    return values


def assert_table_holds(spec, expected):
    """Every table entry over its row's denominator is the expected value,
    which ``spec.payoff`` returns too, and the denominator is the least."""
    index = spec.tree.index
    assert spec.table.keys() == expected.keys()
    for key, values in expected.items():
        row = spec.table[key]
        assert row.denominator == math.lcm(*[Fraction(v).denominator for v in values.values()])
        for node in index.nodes:
            entry = Fraction(row.numerators[index.position[node.id]], row.denominator)
            assert entry == values[node.id] == spec.payoffs[key][node.id]


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_each_table_entry_over_its_denominator_is_the_payoff_value(data):
    rng = Random(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    game = random_game(rng, data.draw(st.integers(2, 3)), data.draw(st.integers(1, 3)))
    if data.draw(st.booleans(), label="thirds, sevenths and 97ths"):
        game = with_odd_denominators(game, rng)
        everyone = tuple(game.players)
        leaves = [leaf.id for leaf in game.tree.leaves]
        game = game._replace(payoffs={  # terminal coincidence, so that the document parses
            (i, c): {**values, **{k: game.payoffs[(i, everyone)][k] for k in leaves}}
            for (i, c), values in game.payoffs.items()
        })
    source = data.draw(
        st.sampled_from(["code", "parsed", "default", "example", "replace values", "replace tree"])
    )
    if source == "code":  # randomgen's dicts, read once into the table
        assert_table_holds(game, game.payoffs)
        return
    doc = serialize_game(game)
    if source == "default":  # player 1's coalitions but the largest share one process
        everyone = list(range(1, game.num_players + 1))
        kept = [e for e in doc["payoffs"] if e["player"] != 1 or e["coalition"] == everyone]
        doc["payoffs"] = kept
        doc["default_payoff"] = {"values": game.payoffs[(1, tuple(everyone))]}
        doc["default_payoff"]["values"] = {
            str(k): str(v) for k, v in doc["default_payoff"]["values"].items()
        }
    if source == "example":
        doc = example_document(data.draw(st.sampled_from(sorted(EXAMPLES))))
    spec = parse_game(document_text(doc), enforce_assumption_a=False)
    expected = _document_values(doc)
    if source == "replace values":  # one process a dict, the others the parse's
        key = data.draw(st.sampled_from(sorted(expected)))
        spec = spec._replace(payoffs={**spec.payoffs, key: dict(expected[key])})
    if source == "replace tree":  # the same nodes listed leaves first: other positions
        spec = spec._replace(tree=ScenarioTree(tuple(reversed(spec.tree.nodes))))
    assert_table_holds(spec, expected)


def test_a_5000_digit_value_keeps_its_table_entry_exact():
    doc = example_document("paper-5-1")
    big = 10**5000 + 1
    with int_digit_limit(0):
        for entry in doc["payoffs"]:
            if entry["coalition"] == [2]:  # stage 0 only: no check compares it
                entry["values"]["0"] = f"{big}/3"
        spec = parse_game(document_text(doc), enforce_assumption_a=False)
        assert_table_holds(spec, _document_values(doc))
    row = spec.table[(1, (2,))]
    assert row.denominator == 12 and row.numerators[0] == 4 * big  # over thirds and quarters
