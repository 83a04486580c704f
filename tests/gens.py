"""Shared builders and hypothesis strategies for small exact instances."""

from __future__ import annotations

import contextlib
import functools
import sys
from fractions import Fraction
from random import Random

import hypothesis.strategies as st

from dynkin.documents import SCHEMA_VERSION, document_text, parse_game
from dynkin.fixtures import example_document
from dynkin.games import GameSpec, StrategyProfile, all_coalitions
from dynkin.randomgen import random_dyadic
from dynkin.trees import Node, NodeId, ScenarioTree, StoppingRule, canonicalize_rule
from dynkin.verify import find_all_eps_neps
from trees_reference import children_table


def single_path_tree(horizon: int) -> ScenarioTree:
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    for t in range(1, horizon + 1):
        nodes.append(Node(id=t, time=t, parent=t - 1, branch_prob=Fraction(1)))
    return ScenarioTree(tuple(nodes))


def full_binary_tree(depth: int) -> ScenarioTree:
    half = Fraction(1, 2)
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    frontier = [0]
    next_id = 1
    for t in range(1, depth + 1):
        new = []
        for parent in frontier:
            for _ in range(2):
                nodes.append(Node(id=next_id, time=t, parent=parent, branch_prob=half))
                new.append(next_id)
                next_id += 1
        frontier = new
    return ScenarioTree(tuple(nodes))


def path_process(tree: ScenarioTree, *values) -> dict[NodeId, Fraction]:
    """Process on a single-path tree given values by stage."""
    return {t: Fraction(v) for t, v in enumerate(values)}


@contextlib.contextmanager
def int_digit_limit(limit: int):
    """Run the block under the interpreter's limit on int/str digit
    conversion set to ``limit`` (0: no limit), then restore the old one."""
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(before)


def random_process(
    rng: Random, tree: ScenarioTree, lo: int = -2, hi: int = 2
) -> dict[NodeId, Fraction]:
    return {n.id: random_dyadic(rng, lo, hi) for n in tree.nodes}


def serialize_game(spec: GameSpec) -> dict:
    """Canonical document for a game: nodes by id, payoffs by (player, coalition)."""
    return {
        "schema_version": SCHEMA_VERSION,
        "players": spec.num_players,
        "horizon": spec.horizon,
        "tree": {
            "nodes": [
                {
                    "id": n.id,
                    "time": n.time,
                    "parent": n.parent,
                    "prob": str(n.branch_prob),
                }
                for n in sorted(spec.tree.nodes, key=lambda n: n.id)
            ]
        },
        "payoffs": [
            {
                "player": player,
                "coalition": list(coalition),
                "values": {
                    str(node_id): str(value)
                    for node_id, value in sorted(process.items())
                },
            }
            for (player, coalition), process in sorted(
                spec.payoffs.items(), key=lambda item: (item[0][0], item[0][1])
            )
        ],
    }


@st.composite
def rationals(
    draw, lo: int = -4, hi: int = 4, denominators: tuple[int, ...] = (1, 2, 3, 4, 8)
) -> Fraction:
    denominator = draw(st.sampled_from(denominators))
    numerator = draw(st.integers(lo * denominator, hi * denominator))
    return Fraction(numerator, denominator)


@st.composite
def scenario_trees(
    draw, max_depth: int = 3, max_nodes: int = 12, max_weight: int = 6
) -> ScenarioTree:
    """Uniform-depth trees within a node budget, arbitrary fanout 1..3,
    branch probabilities from integer weights 1..max_weight."""
    depth = draw(st.integers(1, max_depth))
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    frontier = [0]
    next_id = 1
    for t in range(1, depth + 1):
        levels_after = depth - t
        new: list[int] = []
        for position, parent in enumerate(frontier):
            pending = len(frontier) - position - 1
            slack = max_nodes - next_id - pending - levels_after * (len(new) + pending)
            largest = max(1, slack // (1 + levels_after))
            fanout = draw(st.integers(1, min(3, largest)))
            weights = draw(
                st.lists(st.integers(1, max_weight), min_size=fanout, max_size=fanout)
            )
            total = sum(weights)
            for w in weights:
                nodes.append(
                    Node(id=next_id, time=t, parent=parent, branch_prob=Fraction(w, total))
                )
                new.append(next_id)
                next_id += 1
        frontier = new
    return ScenarioTree(tuple(nodes))


@st.composite
def chain_block_trees(draw, max_width: int = 6, max_weight: int = 6):
    """A uniform-depth tree with blocks of single-child stages, and the
    columns of those blocks.

    A branching head of one or two stages, then two to four single-child
    stages, then the horizon, or one more branching stage followed by the
    horizon or by a second block of two or three single-child stages.  A
    branching stage splits its first node in two or three and the others
    in one to three, with branch probabilities from integer weights
    1..max_weight; the head stays below ``max_width`` nodes per stage, so
    that the stage after the first block can split too.  Returns
    ``(tree, columns)``: each column lists the ids of one chain, from its
    node at the block's first stage down to its node at the first stage
    after the block.
    """
    kinds = ["branch"] * draw(st.integers(1, 2)) + ["chain"] * draw(st.integers(2, 4))
    tail = draw(st.sampled_from(["horizon", "branch", "branch-chain"]))
    if tail != "horizon":
        kinds.append("branch")
    if tail == "branch-chain":
        kinds += ["chain"] * draw(st.integers(2, 3))
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    frontier = [0]
    columns: list[list[int]] = []
    for t, kind in enumerate(kinds, start=1):
        if kind == "chain" and kinds[t - 2] != "chain":  # a block's first stage
            columns += [[pos] for pos in frontier]
        width = max_width if "chain" in kinds[: t - 1] else max_width - 1
        new: list[int] = []
        for k, parent in enumerate(frontier):
            room = width - len(new) - (len(frontier) - k - 1)
            if kind == "chain" or room < 2:
                weights = [1]
            else:
                fanout = draw(st.integers(2 if k == 0 else 1, min(3, room)))
                weights = draw(
                    st.lists(st.integers(1, max_weight), min_size=fanout, max_size=fanout)
                )
            for w in weights:
                nodes.append(Node(len(nodes), t, parent, Fraction(w, sum(weights))))
                new.append(len(nodes) - 1)
        if kind == "chain":
            for column in columns[-len(frontier):]:
                column.append(new[frontier.index(column[-1])])
        frontier = new
    return ScenarioTree(tuple(nodes)), columns


@st.composite
def tree_with_process(draw, **tree_kwargs):
    tree = draw(scenario_trees(**tree_kwargs))
    values = {node.id: draw(rationals()) for node in tree.nodes}
    return tree, values


@st.composite
def tree_with_flags(draw, **tree_kwargs):
    tree = draw(scenario_trees(**tree_kwargs))
    ids = [node.id for node in tree.nodes]
    flags = draw(st.sets(st.sampled_from(ids)))
    return tree, flags


@st.composite
def linked_trees(draw, max_nodes: int = 14) -> ScenarioTree:
    """Trees of any shape: every node after the root hangs below a random
    earlier node, so depths and fanouts vary and leaves sit at any stage."""
    count = draw(st.integers(1, max_nodes))
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    for node_id in range(1, count):
        parent = nodes[draw(st.integers(0, node_id - 1))]
        nodes.append(
            Node(id=node_id, time=parent.time + 1, parent=parent.id, branch_prob=Fraction(1))
        )
    return ScenarioTree(tuple(nodes))


@st.composite
def thirds_and_sevenths(draw):
    """A uniform-depth or ragged tree whose every sibling group splits a
    denominator from 3, 7, 9, 21 or 49 into positive parts, so that every
    sibling sum is exactly 1."""
    base = draw(st.one_of(scenario_trees(max_depth=4, max_nodes=20), linked_trees()))
    probs = {}
    for kids in children_table(base).values():
        if kids:
            q = draw(st.sampled_from([d for d in (3, 7, 9, 21, 49) if d >= len(kids)]))
            cuts = sorted(
                draw(
                    st.sets(
                        st.integers(1, q - 1),
                        min_size=len(kids) - 1,
                        max_size=len(kids) - 1,
                    )
                )
            )
            for kid, lo, hi in zip(kids, [0, *cuts], [*cuts, q]):
                probs[kid.id] = Fraction(hi - lo, q)
    return ScenarioTree(
        tuple(n._replace(branch_prob=probs.get(n.id, n.branch_prob)) for n in base.nodes)
    )


def draw_rules(data, tree: ScenarioTree, count: int) -> tuple[StoppingRule, ...]:
    """``count`` canonical rules on ``tree``; some copy an earlier rule, so
    those players stop jointly wherever it stops."""
    ids = [node.id for node in tree.nodes]
    rules: list[StoppingRule] = []
    for _ in range(count):
        if rules and data.draw(st.booleans()):
            rules.append(data.draw(st.sampled_from(rules)))
        else:
            rules.append(canonicalize_rule(tree, data.draw(st.sets(st.sampled_from(ids)))))
    return tuple(rules)


def thirds_chain_tree(horizon: int = 200, branching: int = 20) -> ScenarioTree:
    """A path of ``horizon`` stages; each of the first ``branching`` spine
    nodes sends 1/3 on along the spine and 2/3 into a chain of its own, so
    the stage-0 scale is ``3**branching``."""
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    frontier = [0]
    for t in range(1, horizon + 1):
        new = []
        for k, parent in enumerate(frontier):
            split = t <= branching and k == 0  # only the spine branches
            for prob in (Fraction(1, 3), Fraction(2, 3)) if split else (Fraction(1),):
                nodes.append(Node(id=len(nodes), time=t, parent=parent, branch_prob=prob))
                new.append(len(nodes) - 1)
        frontier = new
    return ScenarioTree(tuple(nodes))


def late_stop_game(
    rng: Random, num_players: int, horizon: int, branching_stages: int = 2
) -> GameSpec:
    """A pre-emption game whose sweep stops late and runs many rounds.

    The first ``branching_stages`` stages split every path in thirds or
    sevenths; from there each path runs on as a chain.  On a chain a
    player's solo payoff rises by less than 1/2 per stage, and it drops
    back at the leaf, where every coalition pays the same.  Being
    pre-empted costs 2/3, 5/7 or 6/7 against stopping alone, more than any
    stage's rise, and stopping jointly costs 1/4 more again, so the
    joint-stop hypothesis holds.  The first player visited stops one stage
    before the horizon and every later visit pre-empts the latest stop by
    one stage, down to the chains' first stage: before it, stopping pays
    less than anything on a chain.  At ε = 0 the sweep thus runs about
    ``(horizon - branching_stages) / num_players`` rounds.
    """
    splits = [(Fraction(1, 3), Fraction(2, 3)), (Fraction(3, 7), Fraction(4, 7))]
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    chain_of: list[int | None] = [None]
    frontier = [0]
    for t in range(1, horizon + 1):
        new = []
        for parent in frontier:
            branches = rng.choice(splits) if t <= branching_stages else (Fraction(1),)
            for prob in branches:
                nodes.append(Node(id=len(nodes), time=t, parent=parent, branch_prob=prob))
                new.append(len(nodes) - 1)
                if t < branching_stages:
                    chain_of.append(None)
                elif t == branching_stages:
                    chain_of.append(len(new) - 1)
                else:
                    chain_of.append(chain_of[parent])
        frontier = new
    tree = ScenarioTree(tuple(nodes))

    players = range(1, num_players + 1)
    chains = range(len(frontier))
    base = {(i, c): Fraction(rng.randint(-16, 16), 8) for i in players for c in chains}
    rise = {key: Fraction(rng.randint(1, 7), 16) for key in base}
    penalty = {i: rng.choice((Fraction(2, 3), Fraction(5, 7), Fraction(6, 7))) for i in players}

    def solo(i: int, node: Node) -> Fraction:
        c = chain_of[node.id]
        if c is None:
            return Fraction(-rng.randint(32, 40), 8)
        return base[(i, c)] + rise[(i, c)] * node.time

    payoffs = {}
    for i in players:
        alone = {node.id: solo(i, node) for node in nodes}
        for coalition in all_coalitions(num_players):
            values = {}
            for node in nodes:
                if node.time == horizon:
                    values[node.id] = alone[node.parent] - 1
                elif coalition == (i,):
                    values[node.id] = alone[node.id]
                elif i in coalition:
                    values[node.id] = alone[node.id] - penalty[i] - Fraction(1, 4)
                else:
                    values[node.id] = alone[node.id] - penalty[i]
            payoffs[(i, coalition)] = values
    return GameSpec(num_players=num_players, horizon=horizon, tree=tree, payoffs=payoffs)


def random_tree(rng: Random, max_nodes: int = 12, max_depth: int = 3) -> ScenarioTree:
    """Uniform-depth tree with random branching and rational branch weights.

    Total node count stays within ``max_nodes`` while every path is grown
    to the full depth: fanouts are capped so the rest of the construction
    can still afford one descendant chain per pending branch.
    """
    depth = rng.randint(1, max_depth)
    nodes = [Node(id=0, time=0, parent=None, branch_prob=Fraction(1))]
    frontier = [0]
    next_id = 1
    for t in range(1, depth + 1):
        levels_after = depth - t
        new_frontier: list[int] = []
        for position, parent in enumerate(frontier):
            pending = len(frontier) - position - 1
            # choosing fanout f consumes f + pending nodes at this level at
            # minimum, plus levels_after more per branch alive afterwards
            slack = max_nodes - next_id - pending - levels_after * (
                len(new_frontier) + pending
            )
            largest = slack // (1 + levels_after)
            fanout = max(1, min(rng.randint(1, 3), largest))
            weights = [rng.randint(1, 8) for _ in range(fanout)]
            total = sum(weights)
            for w in weights:
                nodes.append(
                    Node(id=next_id, time=t, parent=parent, branch_prob=Fraction(w, total))
                )
                new_frontier.append(next_id)
                next_id += 1
        frontier = new_frontier
    return ScenarioTree(tuple(nodes))


@functools.cache
def enumerated_cases() -> tuple[tuple[GameSpec, StrategyProfile], ...]:
    """(game, profile) for every profile ``enumerate`` finds on the built-in
    examples at epsilon 0 and 1/4, as found and capped at the horizon.

    Found profiles may leave leaves never stopped, and on counterexample-b
    some stop players jointly.  counterexample-a has no equilibrium to find
    and paper-5-3 admits more rules than enumerate's cap.
    """
    cases = []
    for name in ("counterexample-a", "counterexample-b", "paper-5-1"):
        game = parse_game(document_text(example_document(name)), enforce_assumption_a=False)
        for epsilon in (Fraction(0), Fraction(1, 4)):
            for profile, _ in find_all_eps_neps(game, epsilon):
                cases += [(game, profile), (game, profile.capped(game.tree))]
    return tuple(cases)
