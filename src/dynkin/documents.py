"""JSON game documents: strict parsing, validation and output.

Rationals travel as strings like "3/4" or "-2"; decimal notation is
rejected so no value can silently lose exactness.  Parse errors carry a
path into the document.  Every JSON text the package writes comes from
:func:`json_text`.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import repeat
from json.encoder import encode_basestring_ascii
from typing import Any

from .games import GameSpec, PayoffProcess, StrategyProfile, all_coalitions, validate_game
from .trees import ScenarioTree, canonicalize_rule, tree_from_columns

SCHEMA_VERSION = "1"

# ``default_payoff`` is expanded to one process per (player, coalition)
# pair, N * (2^N - 1) of them; past this many a document fails instead.
# 12 players (49,140 pairs) still expand, 13 (106,483) do not.
MAX_DEFAULT_PAIRS = 1 << 16

_RATIONAL = re.compile(r"^([+-]?\d+)(?:/([1-9]\d*))?$")


class DocumentError(ValueError):
    """Malformed or invalid game document; message names the offending path."""


def parse_rational(text: Any, where: str = "value") -> Fraction:
    """Parse "p/q" or integer strings; anything else (decimals included) fails."""
    match = _RATIONAL.match(text) if isinstance(text, str) else None
    if match is None:
        raise DocumentError(
            f"{where}: expected a rational string like \"1/2\" or \"-3\", got {text!r}"
        )
    numerator, denominator = match.groups()
    try:
        return Fraction(int(numerator), int(denominator or 1))
    except ValueError as exc:  # more digits than the interpreter converts
        raise DocumentError(f"{where}: {exc}") from None


def _require(doc: dict, key: str, kind: type, where: str) -> Any:
    if key not in doc:
        raise DocumentError(f"{where}: missing required field \"{key}\"")
    value = doc[key]
    if not isinstance(value, kind) or isinstance(value, bool):
        raise DocumentError(f"{where}.{key}: expected {kind.__name__}, got {value!r}")
    return value


def _parse_once(
    rationals: dict[str, Fraction], text: Any, where: str, key: Any
) -> Fraction:
    """``parse_rational(text, f"{where}.{key}")``, through the table of the
    strings parsed so far.  Only exact ``str`` values are looked up, so no
    unhashable value raises ``TypeError`` and ``1`` never meets ``True``;
    a value is stored only once it parses, and the path is built only for
    a string not yet seen."""
    value = rationals.get(text) if type(text) is str else None
    if value is None:
        value = rationals[text] = parse_rational(text, f"{where}.{key}")
    return value


def _node_fields(raw: Any, here: str) -> None:
    """Raise the first error among a tree node's object shape, ``id``,
    ``time`` and ``parent``; return if there is none."""
    if not isinstance(raw, dict):
        raise DocumentError(f"{here}: expected an object")
    _require(raw, "id", int, here)
    _require(raw, "time", int, here)
    parent = raw.get("parent")
    if parent is not None and (not isinstance(parent, int) or isinstance(parent, bool)):
        raise DocumentError(f"{here}.parent: expected an integer or null")


def _parse_tree(doc: Any, where: str, rationals: dict[str, Fraction]) -> ScenarioTree:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object with a \"nodes\" list")
    raw_nodes = _require(doc, "nodes", list, where)
    # read as columns; a node that is no object or has a field of the wrong
    # type is found again below, in order
    try:
        fields = ("id", "time", "parent", "prob")
        ids, times, parents, texts = [list(map(dict.get, raw_nodes, repeat(k))) for k in fields]
        typed = {*map(type, ids), *map(type, times)} <= {int} and (
            set(map(type, parents)) <= {int, type(None)}
        )
    except TypeError:  # a node that is no object
        typed = False
    for k, raw in enumerate(() if typed else raw_nodes):  # raises at the first bad node
        _node_fields(raw, f"{where}.nodes[{k}]")
    try:
        seen = rationals.keys() >= set(texts)
    except TypeError:  # a prob such as a list
        seen = False
    for k, text in enumerate(() if seen else texts):  # each new string parsed once
        if type(text) is not str or text not in rationals:
            _parse_once(rationals, text, f"{where}.nodes[{k}]", "prob")
    return tree_from_columns(ids, times, parents, list(map(rationals.__getitem__, texts)))


def _parse_values(
    raw: Any, where: str, rationals: dict[str, Fraction], reader: dict
) -> PayoffProcess:
    """The process a ``values`` object lists, over the ``reader["size"]``
    slots ``reader["position"]`` gives node ``int(key)``.  A table keyed as
    the last one read reuses its slots; each new string is parsed once, in
    document order.  A bad key or an unhashable value sends the table entry
    by entry, which raises at its first bad entry.  ``reader`` also keeps
    each string's ratio and, per denominator, the numerators scaled to it."""
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: expected an object mapping node ids to rationals")
    position, size = reader["position"], reader["size"]
    try:
        keys = list(raw)
        if keys != reader.get("keys"):
            gather = [-1] * size  # slot -> entry; -1 reads the None past the entries
            for k, slot in enumerate(map(position.__getitem__, map(int, keys))):
                gather[slot] = k  # of "7" and "07", the later entry counts
            reader["keys"], reader["gather"] = keys, gather
        distinct = set(raw.values())
    except (KeyError, TypeError, ValueError):  # no id of the tree, a list value
        for key, text in raw.items():
            try:
                node_id = int(key)
            except (TypeError, ValueError):
                raise DocumentError(f"{where}.{key}: node id is not an integer") from None
            if node_id not in position:
                raise DocumentError(f"{where}.{key}: node {node_id} does not exist")
            _parse_once(rationals, text, where, key)
        raise  # not reached: the loop raises at the entry that failed above
    for key, text in () if rationals.keys() >= distinct else raw.items():
        if text not in rationals:
            _parse_once(rationals, text, where, key)
    pairs = reader.setdefault("pairs", {})  # each string's numerator and denominator
    for text in distinct - pairs.keys():
        pairs[text] = rationals[text].as_integer_ratio()
    denominator = math.lcm(*{pairs[text][1] for text in distinct})
    # numerators over one denominator, shared by the processes that have it
    scaled = reader.setdefault("scaled", {}).setdefault(denominator, {})
    for text in distinct - scaled.keys():
        scaled[text] = pairs[text][0] * (denominator // pairs[text][1])
    by_entry, gather = [*map(scaled.__getitem__, raw.values()), None], reader["gather"]
    numerators = list(map(by_entry.__getitem__, gather))
    return PayoffProcess(numerators, denominator, position, size - gather.count(-1))


def _short_of_total(players: int, count: int) -> bool:
    """True when ``count < players * (2^players - 1)``, the number of
    (player, coalition) pairs; 2^players is formed only when it is at most
    about twice ``count``."""
    if players > count.bit_length():
        return True
    return count < players * ((1 << players) - 1)


def parse_game(text: str, enforce_assumption_a: bool = True) -> GameSpec:
    """Parse and fully validate a game document.

    The optional ``default_payoff`` entry (values only, no player or
    coalition) is expanded to every (player, coalition) pair the document
    does not list explicitly, before validation; with more than
    :data:`MAX_DEFAULT_PAIRS` pairs the document fails before expanding.

    A valid document repeats every leaf value once per (player, coalition)
    pair, so each distinct rational string is parsed once per call (see
    :func:`_parse_once`); the table lives only for the call.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"document is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # past the digit or nesting limit
        raise DocumentError(f"document: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("document root: expected a JSON object")

    version = _require(doc, "schema_version", str, "document")
    if version != SCHEMA_VERSION:
        raise DocumentError(
            f"document.schema_version: expected \"{SCHEMA_VERSION}\", got {version!r}"
        )
    players = _require(doc, "players", int, "document")
    horizon = _require(doc, "horizon", int, "document")
    rationals: dict[str, Fraction] = {}
    tree = _parse_tree(
        _require(doc, "tree", dict, "document"), "document.tree", rationals
    )
    try:
        position = tree.index.position
    except ValueError:  # fails validation below; the values are only read for errors
        position = {node.id: k for k, node in enumerate(tree.nodes)}
    reader = {"position": position, "size": len(tree.nodes)}

    payoffs: dict[tuple[int, tuple[int, ...]], PayoffProcess] = {}
    raw_payoffs = _require(doc, "payoffs", list, "document")
    for k, raw in enumerate(raw_payoffs):
        here = f"document.payoffs[{k}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{here}: expected an object")
        player = _require(raw, "player", int, here)
        if not 1 <= player <= players:
            raise DocumentError(f"{here}.player: {player} outside 1..{players}")
        raw_coalition = _require(raw, "coalition", list, here)
        for member in raw_coalition:
            if type(member) is not int:  # True == 1.0 == 1 would load as player 1
                raise DocumentError(f"{here}.coalition: expected player indices, got {member!r}")
        coalition = tuple(sorted(raw_coalition))
        if not coalition:
            raise DocumentError(f"{here}.coalition: coalition must be non-empty")
        for p, q in zip(coalition, coalition[1:]):
            if p == q:
                raise DocumentError(f"{here}.coalition: player {p} is listed twice")
        if coalition[0] < 1:
            raise DocumentError(
                f"{here}.coalition: player indices must be >= 1, got {coalition}"
            )
        if coalition[-1] > players:
            raise DocumentError(
                f"{here}.coalition: members {list(coalition)} outside 1..{players}"
            )
        if (player, coalition) in payoffs:
            raise DocumentError(
                f"{here}: duplicate entry for player {player}, "
                f"coalition {list(coalition)}"
            )
        where = f"{here}.values"
        payoffs[(player, coalition)] = _parse_values(raw.get("values"), where, rationals, reader)

    # listing every missing pair, as validation does, costs 2^N time and text
    if (
        "default_payoff" not in doc
        and players >= 2
        and _short_of_total(players, len(payoffs))
    ):
        raise DocumentError(
            f"document.payoffs: payoffs not total: {players} players need "
            f"{players} * (2^{players} - 1) (player, coalition) entries, the "
            f"document lists {len(payoffs)} and has no default_payoff"
        )

    if "default_payoff" in doc:
        if players >= 2 and _short_of_total(players, MAX_DEFAULT_PAIRS):
            raise DocumentError(
                f"document.default_payoff: {players} players need {players} * "
                f"(2^{players} - 1) (player, coalition) payoffs, more than the "
                f"{MAX_DEFAULT_PAIRS} a default_payoff is expanded to"
            )
        raw_default = doc["default_payoff"]
        if not isinstance(raw_default, dict):
            raise DocumentError("document.default_payoff: expected an object")
        default = _parse_values(
            raw_default.get("values"), "document.default_payoff.values", rationals, reader
        )
        for i in range(1, players + 1):
            for coalition in all_coalitions(players):
                if (i, coalition) not in payoffs:
                    payoffs[(i, coalition)] = PayoffProcess(
                        default.numerators, default.denominator, position, default.size
                    )

    spec = GameSpec(num_players=players, horizon=horizon, tree=tree, payoffs=payoffs)
    violations = validate_game(spec, enforce_assumption_a=enforce_assumption_a)
    if violations:
        raise DocumentError("document failed validation: " + "; ".join(violations))
    return spec


def json_text(value: Any, *, sort_keys: bool) -> str:
    """``json.dumps(value, indent=2, sort_keys=sort_keys)`` byte for byte, at
    about half the cost of its pure-Python encoder, for the only types an
    output holds: dicts with ``str`` keys, lists, ``str``, ``int``, ``bool``
    and ``None``.  Any other type, a float or an int key say, raises TypeError."""
    parts: list[str] = []
    _json_parts(value, "\n", sort_keys, parts)
    return "".join(parts)


def _json_parts(value: Any, newline: str, sort_keys: bool, parts: list[str]) -> None:
    """Append the text of ``value`` to ``parts``; ``newline`` ends with the
    indent of the line ``value`` starts on."""
    kind = type(value)
    if kind is str:
        parts.append(encode_basestring_ascii(value))
    elif kind is int:
        parts.append(str(value))
    elif kind is bool or value is None:
        parts.append("null" if value is None else "true" if value else "false")
    elif (kind is list or kind is dict) and not value:
        parts.append("[]" if kind is list else "{}")
    elif kind is list:
        inner = newline + "  "
        if all(type(item) is int for item in value):
            parts.append(f"[{inner}{(',' + inner).join(map(str, value))}{newline}]")
            return
        head = "[" + inner
        for item in value:
            parts.append(head)
            _json_parts(item, inner, sort_keys, parts)
            head = "," + inner
        parts.append(newline + "]")
    elif kind is dict:
        inner = newline + "  "
        head = "{" + inner
        for key, item in sorted(value.items()) if sort_keys else value.items():
            parts.append(f"{head}{encode_basestring_ascii(key)}: ")  # TypeError unless str
            _json_parts(item, inner, sort_keys, parts)
            head = "," + inner
        parts.append(newline + "}")
    else:
        raise TypeError(f"cannot write {kind.__name__} {value!r} as JSON")


def document_text(doc: dict) -> str:
    return json_text(doc, sort_keys=True) + "\n"


def parse_profile(text: str, spec: GameSpec) -> StrategyProfile:
    """Parse a profile document: per-player stop node lists, empty = never."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"profile is not valid JSON: {exc}") from None
    except (ValueError, RecursionError) as exc:  # past the digit or nesting limit
        raise DocumentError(f"profile: {exc}") from None
    if not isinstance(doc, dict):
        raise DocumentError("profile root: expected a JSON object")
    raw_rules = _require(doc, "rules", list, "profile")
    by_player: dict[int, list[int]] = {}
    for k, raw in enumerate(raw_rules):
        here = f"profile.rules[{k}]"
        if not isinstance(raw, dict):
            raise DocumentError(f"{here}: expected an object")
        player = _require(raw, "player", int, here)
        stops = _require(raw, "stops", list, here)
        if player in by_player:
            raise DocumentError(f"{here}: duplicate player {player}")
        for node_id in stops:
            if not isinstance(node_id, int) or isinstance(node_id, bool):
                raise DocumentError(f"{here}.stops: expected node ids, got {node_id!r}")
            if node_id not in spec.tree:
                raise DocumentError(f"{here}.stops: node {node_id} does not exist")
        by_player[player] = stops
    missing = [i for i in spec.players if i not in by_player]
    if missing:
        raise DocumentError(f"profile: missing rules for players {missing}")
    extra = [p for p in by_player if p not in spec.players]
    if extra:
        raise DocumentError(f"profile: unknown players {sorted(extra)}")
    return StrategyProfile(
        tuple(canonicalize_rule(spec.tree, by_player[i]) for i in spec.players)
    )


def serialize_profile(profile: StrategyProfile) -> dict:
    return {
        "rules": [
            {"player": i + 1, "stops": sorted(rule.stop_set)}
            for i, rule in enumerate(profile.rules)
        ]
    }
