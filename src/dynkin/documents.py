"""JSON game documents: strict parsing, validation and output.

Rationals travel as strings like "3/4" or "-2"; decimal notation is
rejected so no value can silently lose exactness.  Parse errors carry a
path into the document.  Every JSON text the package writes comes from
:func:`json_text`.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import Any

from .games import GameSpec, StrategyProfile, all_coalitions, validate_game
from .trees import Node, NodeId, ScenarioTree, canonicalize_rule

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


def _parse_tree(
    doc: Any, where: str, rationals: dict[str, Fraction]
) -> ScenarioTree:
    if not isinstance(doc, dict):
        raise DocumentError(f"{where}: expected an object with a \"nodes\" list")
    raw_nodes = _require(doc, "nodes", list, where)
    nodes = []
    for k, raw in enumerate(raw_nodes):
        # the checks run in order and build the node's path only to raise
        if type(raw) is not dict:
            _node_fields(raw, f"{where}.nodes[{k}]")
        node_id, time, parent = raw.get("id"), raw.get("time"), raw.get("parent")
        if type(node_id) is not int or type(time) is not int or (
            parent is not None and type(parent) is not int
        ):
            _node_fields(raw, f"{where}.nodes[{k}]")
        text = raw.get("prob")
        prob = rationals.get(text) if type(text) is str else None
        if prob is None:
            prob = _parse_once(rationals, text, f"{where}.nodes[{k}]", "prob")
        nodes.append(Node(node_id, time, parent, prob))
    return ScenarioTree(tuple(nodes))


def _parse_values(
    raw: Any, ids: dict[str, int], where: str, rationals: dict[str, Fraction]
) -> dict[int, Fraction]:
    """Node id -> value; ``ids`` maps each id's canonical string to it.  A
    table of canonical keys is read in one pass, which parses each new
    string once and words a bad value as the loop would; any other table
    goes entry by entry."""
    if not isinstance(raw, dict):
        raise DocumentError(f"{where}: expected an object mapping node ids to rationals")
    try:
        return {
            ids[key]: rationals[text]
            if text in rationals
            else _parse_once(rationals, text, where, key)
            for key, text in raw.items()
        }
    except (KeyError, TypeError):  # a key like "07", an unknown id, a list value
        pass
    values: dict[int, Fraction] = {}
    for key, text in raw.items():
        try:
            node_id = int(key)
        except (TypeError, ValueError):
            raise DocumentError(f"{where}.{key}: node id is not an integer") from None
        if str(node_id) not in ids:
            raise DocumentError(f"{where}.{key}: node {node_id} does not exist")
        values[node_id] = _parse_once(rationals, text, where, key)
    return values


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
    ids = {str(node.id): node.id for node in tree.nodes}

    payoffs: dict[tuple[int, tuple[int, ...]], dict[NodeId, Fraction]] = {}
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
        values = _parse_values(raw.get("values"), ids, f"{here}.values", rationals)
        payoffs[(player, coalition)] = values

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
        default_values = _parse_values(
            raw_default.get("values"), ids, "document.default_payoff.values",
            rationals,
        )
        for i in range(1, players + 1):
            for coalition in all_coalitions(players):
                if (i, coalition) not in payoffs:
                    payoffs[(i, coalition)] = dict(default_values)

    spec = GameSpec(num_players=players, horizon=horizon, tree=tree, payoffs=payoffs)
    violations = validate_game(spec, enforce_assumption_a=enforce_assumption_a)
    if violations:
        raise DocumentError(
            "document failed validation: " + "; ".join(violations)
        )
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
