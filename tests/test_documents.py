import itertools
import json
from collections import Counter
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynkin import documents
from dynkin.documents import (
    DocumentError,
    document_text,
    parse_game,
    parse_profile,
    parse_rational,
    serialize_profile,
)
from dynkin.fixtures import EXAMPLES, example_document
from dynkin.randomgen import random_game
from gens import int_digit_limit, serialize_game


def test_parse_rational_strict_grammar():
    assert parse_rational("1/2") == Fraction(1, 2)
    assert parse_rational("-3") == Fraction(-3)
    assert parse_rational("2/4") == Fraction(1, 2)
    for bad in ("0.5", "1/0", "a/b", "", "1 / 2", 0.5, None, "1e3"):
        with pytest.raises(DocumentError):
            parse_rational(bad)


def test_parse_fixture_dimensions(deterministic_game):
    assert deterministic_game.num_players == 3
    assert deterministic_game.horizon == 2
    assert len(deterministic_game.payoffs) == 21
    assert deterministic_game.payoff(2, (2,))[1] == Fraction(3, 2)


def test_decimal_probability_is_rejected():
    doc = example_document("paper-5-1")
    doc["tree"]["nodes"][1]["prob"] = "0.5"
    with pytest.raises(DocumentError, match=r"tree.nodes\[1\].prob"):
        parse_game(document_text(doc))


def test_decimal_payoff_value_is_rejected():
    doc = example_document("paper-5-1")
    doc["payoffs"][0]["values"]["1"] = "0.25"
    with pytest.raises(DocumentError, match="rational"):
        parse_game(document_text(doc))


def test_missing_coalition_without_default_fails():
    doc = example_document("paper-5-1")
    doc["payoffs"] = [
        entry
        for entry in doc["payoffs"]
        if not (entry["player"] == 2 and entry["coalition"] == [2, 3])
    ]
    with pytest.raises(DocumentError, match="payoffs not total"):
        parse_game(document_text(doc))


def test_default_payoff_fills_missing_pairs():
    doc = example_document("counterexample-b")
    # keep only player 1's pair-coalition process; defaults cover the rest
    doc["payoffs"] = [
        entry for entry in doc["payoffs"]
        if entry["player"] == 1 and entry["coalition"] == [1, 2]
    ]
    doc["default_payoff"] = {"values": {"0": "0", "1": "0", "2": "0", "3": "1"}}
    spec = parse_game(document_text(doc), enforce_assumption_a=False)
    assert len(spec.payoffs) == 6
    assert spec.payoff(2, (1, 2))[1] == 0
    assert spec.payoff(1, (1, 2))[1] == 1


def test_default_payoff_is_copied_only_for_missing_pairs():
    doc = example_document("counterexample-b")
    doc["payoffs"] = [
        entry for entry in doc["payoffs"]
        if entry["player"] == 1 and entry["coalition"] == [1, 2]
    ]
    doc["default_payoff"] = {"values": {"0": "0", "1": "0", "2": "0", "3": "1"}}
    spec = parse_game(document_text(doc), enforce_assumption_a=False)
    # the listed pair keeps its values; each of the 5 others gets its own copy
    assert len(spec.payoffs) == len({id(process) for process in spec.payoffs.values()}) == 6
    assert spec.payoff(1, (1, 2)) == {0: 1, 1: 1, 2: 1, 3: 1}
    for key, process in spec.payoffs.items():
        if key != (1, (1, 2)):
            assert process == {0: 0, 1: 0, 2: 0, 3: 1}


# key spellings int() accepts or rejects, and ids the tree has or lacks
_KEY_SPELLINGS = ["7", "07", " 7", "+7", "7.0", "x", "99", "-1"]
# a string seen before, one not seen yet, and values that are no string
_VALUE_KINDS = ["1/2", "5/7", 3, True, ["1/2"], "0.5"]


def _values_or_error(raw, ids, rationals):
    try:
        return list(documents._parse_values(raw, ids, "here", rationals).items())
    except DocumentError as exc:
        return str(exc)


def _per_key_loop(raw, ids):
    """The entry-by-entry read, written out without a table of parsed
    strings: the first bad key or value in document order is the error."""
    values = {}
    for key, text in raw.items():
        try:
            node_id = int(key)
        except (TypeError, ValueError):
            return f"here.{key}: node id is not an integer"
        if str(node_id) not in ids:
            return f"here.{key}: node {node_id} does not exist"
        try:
            values[node_id] = parse_rational(text, f"here.{key}")
        except DocumentError as exc:
            return str(exc)
    return list(values.items())


def test_value_tables_agree_with_the_per_key_loop():
    ids = {str(i): i for i in (0, 7, 12, -3)}
    seen = {"1/2": Fraction(1, 2), "-3": Fraction(-3)}
    for spelling, value, at in itertools.product(_KEY_SPELLINGS, _VALUE_KINDS, range(3)):
        entries = [("0", "1/2"), ("12", "-3")]
        entries.insert(at, (spelling, value))
        raw = dict(entries)
        # with the table's strings parsed before, with none of them, and
        # with no table at all, the result or first error is the same
        expected = _per_key_loop(raw, ids)
        assert _values_or_error(raw, ids, dict(seen)) == expected
        assert _values_or_error(raw, ids, {}) == expected
    assert _values_or_error({"7": "1/2", "07": "-3"}, ids, dict(seen)) == [(7, -3)]
    assert _values_or_error({" 7": "1/2", "+7": "-3"}, ids, dict(seen)) == [(7, -3)]
    assert _values_or_error({"7.0": "1/2"}, ids, dict(seen)) == (
        "here.7.0: node id is not an integer"
    )
    assert _values_or_error({"99": "1/2"}, ids, dict(seen)) == (
        "here.99: node 99 does not exist"
    )
    assert _values_or_error({"7": True}, ids, dict(seen)) == (
        f"here.7: {_NOT_RATIONAL} True"
    )


def test_the_first_value_table_is_read_in_one_pass(monkeypatch):
    # its strings are all new: they are parsed once each, not entry by entry
    doc = example_document("paper-5-3")
    texts = []
    real = documents._parse_once

    def counting(rationals, text, where, key):
        texts.append(text)
        return real(rationals, text, where, key)

    monkeypatch.setattr(documents, "_parse_once", counting)
    parse_game(document_text(doc))
    distinct = {node["prob"] for node in doc["tree"]["nodes"]}
    distinct |= {text for table in doc["payoffs"] for text in table["values"].values()}
    # each distinct string of the document goes through the table once
    assert Counter(texts) == Counter(distinct)


def test_a_first_table_with_new_and_bad_strings_names_the_first_bad_path():
    doc = example_document("paper-5-3")
    values = doc["payoffs"][0]["values"]
    keys = list(values)
    for k, key in enumerate(keys):  # strings no earlier part of the document has
        values[key] = f"{k + 1}/9973"
    values[keys[40]] = "x"
    values[keys[10]] = "0.5"
    values[keys[60]] = "0.5"
    with pytest.raises(DocumentError) as info:
        parse_game(json.dumps(doc))
    assert str(info.value) == (
        f"document.payoffs[0].values.{keys[10]}: {_NOT_RATIONAL} '0.5'"
    )


# full messages recorded before the node paths were built only on error
_NOT_RATIONAL = 'expected a rational string like "1/2" or "-3", got'


def _node_error(change) -> str:
    doc = example_document("paper-5-1")
    change(doc["tree"]["nodes"])
    with pytest.raises(DocumentError) as info:
        parse_game(json.dumps(doc))
    return str(info.value)


def test_non_object_node_message():
    def change(nodes):
        nodes[1] = ["id", 1]

    assert _node_error(change) == "document.tree.nodes[1]: expected an object"


def test_bad_node_id_messages():
    def missing(nodes):
        del nodes[2]["id"]

    def wrong(nodes):
        nodes[2]["id"] = "2"

    assert _node_error(missing) == 'document.tree.nodes[2]: missing required field "id"'
    assert _node_error(wrong) == "document.tree.nodes[2].id: expected int, got '2'"


def test_bad_node_time_messages():
    def missing(nodes):
        del nodes[0]["time"]

    def wrong(nodes):
        nodes[0]["time"] = True

    assert _node_error(missing) == 'document.tree.nodes[0]: missing required field "time"'
    assert _node_error(wrong) == "document.tree.nodes[0].time: expected int, got True"


def test_bad_node_parent_message():
    def change(nodes):
        nodes[2]["parent"] = "1"

    assert _node_error(change) == (
        "document.tree.nodes[2].parent: expected an integer or null"
    )


def test_bad_node_prob_message():
    def change(nodes):
        nodes[1]["prob"] = "1/2.0"

    assert _node_error(change) == f"document.tree.nodes[1].prob: {_NOT_RATIONAL} '1/2.0'"


def test_value_for_unknown_node_fails():
    doc = example_document("paper-5-1")
    doc["payoffs"][0]["values"]["9"] = "1"
    with pytest.raises(DocumentError, match="node 9 does not exist"):
        parse_game(document_text(doc))


def test_unknown_parent_fails_validation():
    doc = example_document("paper-5-1")
    doc["tree"]["nodes"][2]["parent"] = 77
    with pytest.raises(DocumentError, match="parent 77"):
        parse_game(document_text(doc))


def test_schema_version_is_checked():
    doc = example_document("paper-5-1")
    doc["schema_version"] = "0"
    with pytest.raises(DocumentError, match="schema_version"):
        parse_game(document_text(doc))


def test_malformed_json_is_reported():
    with pytest.raises(DocumentError, match="not valid JSON"):
        parse_game("{nope")


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_round_trip_is_canonical(name):
    doc = example_document(name)
    text = document_text(doc)
    spec = parse_game(text, enforce_assumption_a=False)
    assert serialize_game(spec) == doc
    assert document_text(serialize_game(spec)) == text
    assert json.loads(text) == doc


def test_profile_round_trip(deterministic_game):
    text = json.dumps(
        {
            "rules": [
                {"player": 1, "stops": [1]},
                {"player": 2, "stops": []},
                {"player": 3, "stops": [0, 2]},
            ]
        }
    )
    profile = parse_profile(text, deterministic_game)
    assert profile.rule_for(1).stop_set == frozenset({1})
    assert not profile.rule_for(2).stop_set
    # canonicalized: the stage-2 flag is dominated by the root flag
    assert profile.rule_for(3).stop_set == frozenset({0})
    assert serialize_profile(profile) == {
        "rules": [
            {"player": 1, "stops": [1]},
            {"player": 2, "stops": []},
            {"player": 3, "stops": [0]},
        ]
    }


def test_profile_errors(deterministic_game):
    with pytest.raises(DocumentError, match="node 9"):
        parse_profile('{"rules": [{"player": 1, "stops": [9]}]}', deterministic_game)
    with pytest.raises(DocumentError, match="missing rules"):
        parse_profile('{"rules": [{"player": 1, "stops": []}]}', deterministic_game)
    with pytest.raises(DocumentError, match="duplicate player"):
        parse_profile(
            '{"rules": [{"player": 1, "stops": []}, {"player": 1, "stops": []},'
            ' {"player": 2, "stops": []}, {"player": 3, "stops": []}]}',
            deterministic_game,
        )


def _rational_strings(doc):
    yield from (node["prob"] for node in doc["tree"]["nodes"])
    for entry in doc["payoffs"] + [doc.get("default_payoff", {"values": {}})]:
        yield from entry["values"].values()


def test_each_distinct_string_is_parsed_once(monkeypatch):
    doc = serialize_game(random_game(Random(5), 3, 3))
    doc["default_payoff"] = doc["payoffs"].pop()
    del doc["default_payoff"]["player"], doc["default_payoff"]["coalition"]
    strings = list(_rational_strings(doc))
    assert len(strings) > 2 * len(set(strings))
    real = documents.parse_rational
    calls = Counter()

    def counting(text, where="value"):
        calls[text] += 1
        return real(text, where)

    monkeypatch.setattr(documents, "parse_rational", counting)
    parse_game(document_text(doc))
    assert calls == Counter(set(strings))


def _rewritten(text, factor):
    """The same rational with numerator and denominator scaled by factor."""
    numerator, _, denominator = text.partition("/")
    return f"{int(numerator) * factor}/{int(denominator or 1) * factor}"


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    players=st.integers(2, 3),
    horizon=st.integers(1, 3),
    rewrite=st.integers(0, 2**32 - 1),
)
def test_documents_round_trip_through_text(seed, players, horizon, rewrite):
    spec = random_game(Random(seed), players, horizon, lo=-1, hi=1)
    assert parse_game(document_text(serialize_game(spec))) == spec
    # equal values written differently ("2/4" next to "1/2") parse equal
    rng = Random(rewrite)
    doc = serialize_game(spec)
    for node in doc["tree"]["nodes"]:
        node["prob"] = _rewritten(node["prob"], rng.choice((1, 2, 3)))
    for entry in doc["payoffs"]:
        for key, text in entry["values"].items():
            entry["values"][key] = _rewritten(text, rng.choice((1, 2, 3)))
    assert parse_game(document_text(doc)) == spec


@pytest.mark.parametrize(
    "where, text",
    [("tree.nodes[1].prob", "7" * 5000 + "/" + "7" * 5001), ("payoffs[0].values.1", "7" * 5000)],
    ids=["prob", "value"],
)
def test_values_past_the_digit_limit_name_their_path(where, text):
    doc = example_document("paper-5-1")
    if where.startswith("tree"):
        doc["tree"]["nodes"][1]["prob"] = text
    else:
        doc["payoffs"][0]["values"]["1"] = text
    with int_digit_limit(4300), pytest.raises(DocumentError) as info:
        parse_game(json.dumps(doc))
    assert str(info.value).startswith(f"document.{where}: Exceeds the limit (4300 digits)")
    with int_digit_limit(4300), pytest.raises(DocumentError, match="^--epsilon: Exceeds"):
        parse_rational(text, "--epsilon")


def test_json_integers_past_the_digit_limit_are_document_errors():
    text = json.dumps(example_document("paper-5-1"))
    assert '"players": 3,' in text
    text = text.replace('"players": 3,', f'"players": {"9" * 5000},')
    with int_digit_limit(4300), pytest.raises(DocumentError, match="^document: Exceeds the limit"):
        parse_game(text)


def test_profile_integers_past_the_digit_limit_are_document_errors(deterministic_game):
    text = '{"rules": [{"player": ' + "9" * 5000 + ', "stops": []}]}'
    with int_digit_limit(4300), pytest.raises(DocumentError, match="^profile: Exceeds the limit"):
        parse_profile(text, deterministic_game)


# characters that JSON escapes or that ensure_ascii writes as \u escapes:
# quotes, backslashes, controls, non-ASCII, astral and lone surrogates
_ODD_CHARS = st.sampled_from(["\"", "\\", "/", "\x00", "\t", "\n", "\x1f", "\x7f", "\xe9",
                              "\u2028", "\ud800", "\udfff", "\U0001f600"])
_STRINGS = st.text(_ODD_CHARS | st.characters(exclude_categories=()), max_size=6)
_KEYS = _STRINGS | st.integers(-12, 12).map(str)  # "10" sorts before "9"
_BIG_INTS = st.builds(  # past the interpreter's 4300-digit limit
    lambda digits, sign: sign * (10**digits + 7), st.integers(4300, 4400), st.sampled_from([1, -1])
)
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | _BIG_INTS | _KEYS
    | st.lists(st.integers(-(2**70), 2**70) | st.booleans()),  # bools amid ints
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_KEYS, inner, max_size=4),
    max_leaves=24,
)


@settings(max_examples=300, deadline=None)
@given(value=_JSON_VALUES, sort_keys=st.booleans())
def test_json_text_equals_indented_json_dumps(value, sort_keys):
    with int_digit_limit(0):  # lifted as the command line lifts it
        expected = json.dumps(value, indent=2, sort_keys=sort_keys)
        assert documents.json_text(value, sort_keys=sort_keys) == expected


# json.dumps writes floats, tuples and int keys (and sets, given a default)
# without a word; a float never belongs in an exact output
@pytest.mark.parametrize("value", [0.5, (1, 2), {1, 2}, {1: "a"}, {"a": [1, 1.0]}, [True, 1, 2.0]])
@pytest.mark.parametrize("sort_keys", [False, True])
def test_json_text_rejects_what_outputs_never_hold(value, sort_keys):
    with pytest.raises(TypeError):
        documents.json_text(value, sort_keys=sort_keys)
