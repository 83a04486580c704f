import contextlib
import hashlib
import io
import json
import os
import resource
import subprocess
import sys
import tempfile
from pathlib import Path
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dynkin import cli, documents, games, scheme, verify
from dynkin.cli import _realized_json, main
from dynkin.documents import (
    MAX_DEFAULT_PAIRS,
    document_text,
    parse_game,
    parse_profile,
    serialize_profile,
)
from dynkin.fixtures import EXAMPLES, example_document
from dynkin.games import StrategyProfile, expected_payoffs
from dynkin.randomgen import random_game
from dynkin.scheme import SchemeConfig, run_scheme
from dynkin.trees import NEVER
from dynkin.verify import certify
from fractions import Fraction
from games_reference import realized_outcome
from gens import (
    coprime_game,
    draw_rules,
    enumerated_cases,
    int_digit_limit,
    late_stop_game,
    serialize_game,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_solve_identity_order(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--example", "paper-5-1", "--epsilon", "1/100", "--order", "1,2,3"
    )
    assert code == 0
    report = json.loads(out)
    assert report["profile"]["capped"] == [
        {"player": 1, "stops": [1]},
        {"player": 2, "stops": [2]},
        {"player": 3, "stops": [2]},
    ]
    assert report["profile"]["uncapped"][1] == {"player": 2, "stops": []}
    assert report["expected_payoffs"] == ["1/2", "1/2", "1/2"]
    assert report["realized"] == [{"leaf": 2, "stage": 1, "coalition": [1]}]
    assert report["certificate"]["is_eps_nep"] is True
    assert report["rounds_used"] == 2


def test_solve_reversed_order(capsys):
    code, out, _ = run_cli(
        capsys, "solve", "--example", "paper-5-1", "--epsilon", "1/100", "--order", "2,3,1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["profile"]["capped"] == [
        {"player": 1, "stops": [2]},
        {"player": 2, "stops": [1]},
        {"player": 3, "stops": [2]},
    ]
    assert report["expected_payoffs"] == ["1/4", "3/2", "1/4"]


def test_solve_report_certificate_recomputes(capsys, tmp_path, deterministic_game):
    out_path = tmp_path / "report.json"
    code, _, _ = run_cli(
        capsys, "solve", "--example", "paper-5-1", "--epsilon", "1/100",
        "--out", str(out_path),
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    profile = parse_profile(json.dumps({"rules": report["profile"]["capped"]}), deterministic_game)
    fresh = certify(deterministic_game, profile, Fraction(1, 100))
    assert [str(g) for g in fresh.gains] == report["certificate"]["gains"]
    assert fresh.is_eps_nep == report["certificate"]["is_eps_nep"]
    assert [str(v) for v in expected_payoffs(deterministic_game, profile)] == report[
        "expected_payoffs"
    ]


def test_solve_writes_trace(capsys, tmp_path):
    trace_path = tmp_path / "trace.json"
    code, out, _ = run_cli(
        capsys, "solve", "--example", "paper-5-1", "--epsilon", "1/100",
        "--trace", str(trace_path),
    )
    assert code == 0
    rows = json.loads(trace_path.read_text())
    assert [row["n"] for row in rows] == [4, 5, 6, 7, 8, 9]
    assert rows[0]["tau_stops"] == [1]
    assert json.loads(out)["trace"] == rows


def test_solve_rejects_hypothesis_violations(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--example", "counterexample-a", "--epsilon", "1/2"
    )
    assert code == 2
    assert "joint-stop" in err


def test_solve_rejects_coalition_members_that_are_not_integers(capsys, tmp_path):
    # True == 1.0 == 1 would load as player 1, 1.5 would fail as a missing
    # payoff for coalition (1,), and the others with a Python type error
    doc = example_document("paper-5-1")
    k = next(k for k, entry in enumerate(doc["payoffs"]) if entry["coalition"] == [1])
    path = tmp_path / "game.json"
    for member in (True, 1.0, 1.5, "1", None, [1]):
        doc["payoffs"][k]["coalition"] = [member]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", "--game", str(path), "--epsilon", "0")
        assert (code, out) == (2, "")
        assert err == (
            f"error: document.payoffs[{k}].coalition: expected player indices, "
            f"got {member!r}\n"
        )


def test_solve_rejects_malformed_coalitions(capsys, tmp_path):
    doc = example_document("paper-5-1")
    path = tmp_path / "game.json"
    for coalition, message in (
        ([], "coalition must be non-empty"),
        ([0, 1], "player indices must be >= 1, got (0, 1)"),
        ([-1], "player indices must be >= 1, got (-1,)"),
        ([4], "members [4] outside 1..3"),
        ([1, 1], "player 1 is listed twice"),
        ([3, 3, 1], "player 3 is listed twice"),
    ):
        doc["payoffs"][0]["coalition"] = coalition
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(capsys, "solve", "--game", str(path), "--epsilon", "0")
        assert (code, out) == (2, "")
        assert err == f"error: document.payoffs[0].coalition: {message}\n"


def test_solve_non_convergence_exit(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--example", "paper-5-1", "--epsilon", "1/100",
        "--max-rounds", "1",
    )
    assert code == 3
    assert "stationary" in err


def test_solve_rejects_decimal_epsilon(capsys):
    code, _, err = run_cli(capsys, "solve", "--example", "paper-5-1", "--epsilon", "0.01")
    assert code == 2
    assert "rational" in err


def test_solve_rejects_bad_order(capsys):
    code, _, err = run_cli(
        capsys, "solve", "--example", "paper-5-1", "--epsilon", "1/100", "--order", "1,2"
    )
    assert code == 2
    assert "permutation" in err


UNWRITABLE_COMMANDS = {
    "solve-out": ["solve", "--example", "paper-5-1", "--epsilon", "1/4", "--out"],
    "solve-trace": ["solve", "--example", "paper-5-1", "--epsilon", "1/4", "--trace"],
    "solve-no-convergence-trace": [
        "solve", "--example", "paper-5-1", "--epsilon", "1/100", "--max-rounds", "1", "--trace",
    ],
    "enumerate-out": ["enumerate", "--example", "paper-5-1", "--epsilon", "0", "--out"],
    "example-out": ["example", "--name", "paper-5-1", "--out"],
}


@pytest.mark.parametrize("command", sorted(UNWRITABLE_COMMANDS))
def test_an_unwritable_output_path_is_a_usage_error(capsys, tmp_path, command):
    path = tmp_path / "missing" / "out.json"
    code, out, err = run_cli(capsys, *UNWRITABLE_COMMANDS[command], str(path))
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1
    assert not path.parent.exists()


def test_an_unwritable_report_leaves_no_trace_file(capsys, tmp_path):
    trace, out = tmp_path / "t.json", tmp_path / "missing" / "o.json"
    code, stdout, err = run_cli(
        capsys, "solve", "--example", "paper-5-1", "--epsilon", "0",
        "--trace", str(trace), "--out", str(out),
    )
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_trace_cut_short_leaves_no_file(capsys, tmp_path):
    """A file-size limit makes the trace's write fail part way, as a full
    disk would: neither the partial trace nor the report opened beside it
    is left.  The interpreter ignores SIGXFSZ, so the write raises."""
    trace, out = tmp_path / "t.json", tmp_path / "o.json"
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (512, hard))
    try:
        code, stdout, err = run_cli(
            capsys, "solve", "--example", "paper-5-1", "--epsilon", "0",
            "--trace", str(trace), "--out", str(out),
        )
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {trace}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == []


def test_a_write_cut_short_leaves_the_old_file_as_it_was(capsys, tmp_path):
    """The same limit over an existing trace file: the file keeps what it
    held, and no temporary file is left beside it."""
    trace, out = tmp_path / "t.json", tmp_path / "o.json"
    trace.write_text("old trace\n\n")
    soft, hard = resource.getrlimit(resource.RLIMIT_FSIZE)
    resource.setrlimit(resource.RLIMIT_FSIZE, (512, hard))
    try:
        code, stdout, err = run_cli(
            capsys, "solve", "--example", "paper-5-1", "--epsilon", "0",
            "--trace", str(trace), "--out", str(out),
        )
    finally:
        resource.setrlimit(resource.RLIMIT_FSIZE, (soft, hard))
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {trace}: ") and err.count("\n") == 1
    assert list(tmp_path.iterdir()) == [trace]
    assert trace.read_text() == "old trace\n\n"


def test_outputs_replace_what_their_files_held(capsys, tmp_path):
    trace, out = tmp_path / "t.json", tmp_path / "o.json"
    trace.write_text("x" * 100_000)
    out.write_text("x" * 100_000)
    argv = ["solve", "--example", "paper-5-1", "--epsilon", "0", "--trace", str(trace)]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    code, _, _ = run_cli(capsys, *argv, "--out", str(out))
    assert code == 0
    assert out.read_text() == stdout
    assert json.loads(trace.read_text()) == json.loads(stdout)["trace"]
    # one path for both holds the report, written last
    code, _, _ = run_cli(capsys, *argv[:-1], str(out), "--out", str(out))
    assert (code, out.read_text()) == (0, stdout)
    # a device is written without being truncated
    code, devnull_stdout, _ = run_cli(capsys, *argv[:-1], os.devnull, "--out", os.devnull)
    assert (code, devnull_stdout) == (0, "")


def test_two_spellings_of_one_file_hold_the_report(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    argv = ["solve", "--example", "paper-5-1", "--epsilon", "0", "--trace", "t.json"]
    code, stdout, _ = run_cli(capsys, *argv)
    assert code == 0
    Path("l.json").symlink_to("t.json")
    for out in ("./t.json", str(tmp_path / "t.json"), "l.json"):
        Path("t.json").write_text("old\n")
        code, printed, err = run_cli(capsys, *argv, "--out", out)
        assert (code, printed, err) == (0, "", "")
        assert Path("t.json").read_text() == stdout
        assert sorted(p.name for p in tmp_path.iterdir()) == ["l.json", "t.json"]
    assert Path("l.json").is_symlink()


def test_out_to_dev_stdout_writes_into_a_pipe():
    src = Path(cli.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-m", "dynkin", "example", "--name", "paper-5-1",
         "--out", "/dev/stdout"],
        env=dict(os.environ, PYTHONPATH=str(src)), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, timeout=60,
    )
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout == document_text(example_document("paper-5-1"))


def test_a_negative_cap_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "enumerate", "--example", "paper-5-1", "--epsilon", "0", "--cap", "-1"
    )
    assert (code, out, err) == (2, "", "error: --cap must be >= 0, got -1\n")


@pytest.mark.parametrize("command", sorted(UNWRITABLE_COMMANDS))
def test_an_empty_output_path_is_a_usage_error(capsys, command):
    # an empty path is a bad value, not "not given": no report on stdout
    argv = UNWRITABLE_COMMANDS[command]
    code, out, err = run_cli(capsys, *argv, "")
    assert (code, out) == (2, "")
    assert err == f"error: {argv[-1]} must name a file, got ''\n"


def test_an_empty_order_is_a_usage_error(capsys):
    code, out, err = run_cli(
        capsys, "solve", "--example", "paper-5-1", "--epsilon", "0", "--order", ""
    )
    assert (code, out, err) == (2, "", "error: --order must look like 1,2,3; got ''\n")


def write_profile(tmp_path, *stops_per_player):
    path = tmp_path / "profile.json"
    path.write_text(
        json.dumps(
            {
                "rules": [
                    {"player": i + 1, "stops": stops}
                    for i, stops in enumerate(stops_per_player)
                ]
            }
        )
    )
    return str(path)


def test_verify_accepts_published_profile(capsys, tmp_path):
    profile = write_profile(tmp_path, [1], [2], [2])
    code, out, _ = run_cli(
        capsys, "verify", "--example", "paper-5-1", "--profile", profile, "--epsilon", "0"
    )
    assert code == 0
    certificate = json.loads(out)
    assert certificate["is_eps_nep"] is True
    assert certificate["gains"] == ["0", "0", "0"]


def test_verify_rejects_with_positive_gain(capsys, tmp_path):
    profile = write_profile(tmp_path, [2], [2], [2])
    code, out, _ = run_cli(
        capsys, "verify", "--example", "paper-5-1", "--profile", profile, "--epsilon", "0"
    )
    assert code == 1
    certificate = json.loads(out)
    assert certificate["is_eps_nep"] is False
    assert certificate["gains"][0] == "1/2"


def test_verify_all_never_with_big_epsilon(capsys, tmp_path):
    profile = write_profile(tmp_path, [], [], [])
    code, out, _ = run_cli(
        capsys, "verify", "--example", "paper-5-1", "--profile", profile, "--epsilon", "2"
    )
    assert code == 0
    assert json.loads(out)["is_eps_nep"] is True


def test_verify_unknown_profile_node(capsys, tmp_path):
    profile = write_profile(tmp_path, [9], [], [])
    code, _, err = run_cli(
        capsys, "verify", "--example", "paper-5-1", "--profile", profile, "--epsilon", "0"
    )
    assert code == 2
    assert "node 9" in err


def test_enumerate_finds_published_equilibria(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--example", "paper-5-1", "--epsilon", "0"
    )
    assert code == 0
    payload = json.loads(out)
    rules = [
        tuple(tuple(r["stops"]) for r in profile["rules"])
        for profile in payload["profiles"]
    ]
    assert ((1,), (2,), (1,)) in rules
    assert ((1,), (1,), (1,)) in rules


def test_enumerate_empty_needs_allow_empty(capsys):
    code, out, _ = run_cli(
        capsys, "enumerate", "--example", "counterexample-a", "--epsilon", "1/2"
    )
    assert code == 1
    assert json.loads(out)["count"] == 0
    code, _, _ = run_cli(
        capsys, "enumerate", "--example", "counterexample-a", "--epsilon", "1/2",
        "--allow-empty",
    )
    assert code == 0


def test_enumerate_cap_exit_code(capsys):
    code, _, err = run_cli(
        capsys, "enumerate", "--example", "paper-5-3", "--epsilon", "0", "--cap", "10"
    )
    assert code == 4
    assert "cap" in err


def test_example_emits_parseable_document(capsys, tmp_path):
    out_path = tmp_path / "game.json"
    code, _, _ = run_cli(
        capsys, "example", "--name", "paper-5-3", "--out", str(out_path)
    )
    assert code == 0
    spec = parse_game(out_path.read_text())
    assert spec.num_players == 2
    assert spec.horizon == 3
    assert len(spec.tree.nodes) == 85


def test_example_unknown_name_fails_fast(capsys):
    with pytest.raises(SystemExit) as info:
        main(["example", "--name", "nope"])
    assert info.value.code == 2


def test_game_and_example_are_mutually_exclusive(capsys):
    with pytest.raises(SystemExit) as info:
        main(["solve", "--game", "x.json", "--example", "paper-5-1", "--epsilon", "0"])
    assert info.value.code == 2


def test_solve_from_game_file(capsys, tmp_path):
    out_path = tmp_path / "game.json"
    run_cli(capsys, "example", "--name", "paper-5-1", "--out", str(out_path))
    code, out, _ = run_cli(
        capsys, "solve", "--game", str(out_path), "--epsilon", "1/100"
    )
    assert code == 0
    assert json.loads(out)["certificate"]["is_eps_nep"] is True


def write_chain_game(tmp_path, horizon):
    """Two-player single-path game; every coalition is paid t/horizon at stage t."""
    nodes = [{"id": 0, "time": 0, "parent": None, "prob": "1"}]
    nodes += [
        {"id": t, "time": t, "parent": t - 1, "prob": "1"} for t in range(1, horizon + 1)
    ]
    values = {str(t): str(Fraction(t, horizon)) for t in range(horizon + 1)}
    path = tmp_path / "chain.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "players": 2,
                "horizon": horizon,
                "tree": {"nodes": nodes},
                "payoffs": [],
                "default_payoff": {"values": values},
            }
        )
    )
    return str(path)


def test_solve_deep_chain(capsys, tmp_path):
    game = write_chain_game(tmp_path, 3000)
    code, out, _ = run_cli(capsys, "solve", "--game", game, "--epsilon", "0")
    assert code == 0
    report = json.loads(out)
    assert report["profile"]["capped"][0] == {"player": 1, "stops": [3000]}
    assert report["expected_payoffs"] == ["1", "1"]


def test_enumerate_deep_chain_hits_cap(capsys, tmp_path):
    game = write_chain_game(tmp_path, 3000)
    code, _, err = run_cli(
        capsys, "enumerate", "--game", game, "--epsilon", "0", "--cap", "10"
    )
    assert code == 4
    assert "tree admits 3002 stopping rules, cap is 10" in err


def test_many_players_without_default_payoff_fail_fast(capsys, tmp_path):
    # validation would list every one of the 40 * (2^40 - 1) missing pairs
    path = tmp_path / "crowd.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "players": 40,
                "horizon": 1,
                "tree": {
                    "nodes": [
                        {"id": 0, "time": 0, "parent": None, "prob": "1"},
                        {"id": 1, "time": 1, "parent": 0, "prob": "1"},
                    ]
                },
                "payoffs": [],
            }
        )
    )
    code, _, err = run_cli(capsys, "solve", "--game", str(path), "--epsilon", "0")
    assert code == 2
    assert "payoffs not total" in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("players", [13, 40])
def test_many_players_with_default_payoff_fail_before_expanding(
    capsys, tmp_path, players
):
    # 13 players would expand to 106,483 processes, 40 to about 2^45
    assert 12 * (2**12 - 1) <= MAX_DEFAULT_PAIRS < 13 * (2**13 - 1)
    path = tmp_path / "crowd.json"
    path.write_text(
        json.dumps(
            {
                "schema_version": "1",
                "players": players,
                "horizon": 1,
                "tree": {
                    "nodes": [
                        {"id": 0, "time": 0, "parent": None, "prob": "1"},
                        {"id": 1, "time": 1, "parent": 0, "prob": "1"},
                    ]
                },
                "payoffs": [],
                "default_payoff": {"values": {"0": "0", "1": "1"}},
            }
        )
    )
    code, out, err = run_cli(capsys, "solve", "--game", str(path), "--epsilon", "0")
    assert (code, out) == (2, "")
    assert err == (
        f"error: document.default_payoff: {players} players need {players} * "
        f"(2^{players} - 1) (player, coalition) payoffs, more than the 65536 "
        "a default_payoff is expanded to\n"
    )


@settings(max_examples=100, deadline=None)
@given(data=st.data(), enumerated=st.just(False))
@example(data=None, enumerated=True)
def test_realized_rows_equal_realized_outcome_leaf_by_leaf(data, enumerated):
    if enumerated:
        cases = enumerated_cases()
    else:
        num_players = data.draw(st.integers(2, 3), label="players")
        horizon = data.draw(st.integers(1, 3), label="horizon")
        game = random_game(Random(data.draw(st.integers(0, 2**32 - 1))), num_players, horizon)
        cases = [(game, StrategyProfile(draw_rules(data, game.tree, num_players)))]

    for game, profile in cases:
        rows = _realized_json(game, games.leaf_outcomes(game, profile))
        assert len(rows) == len(game.tree.leaves)
        for row, leaf in zip(rows, game.tree.leaves):
            stage, coalition = realized_outcome(game, profile, leaf.id)
            assert row == {
                "leaf": leaf.id,
                "stage": None if stage == NEVER else stage,
                "coalition": list(coalition),
            }


def test_solve_computes_expected_payoffs_once(monkeypatch, capsys, deterministic_game):
    real = games.expected_payoffs
    calls = []

    def counting(spec, profile):
        calls.append(profile)
        return real(spec, profile)

    for module in (cli, games, verify):
        if getattr(module, "expected_payoffs", None) is real:
            monkeypatch.setattr(module, "expected_payoffs", counting)
    code, out, _ = run_cli(capsys, "solve", "--example", "paper-5-1", "--epsilon", "0")
    assert code == 0
    assert len(calls) == 1
    achieved = real(deterministic_game, calls[0])
    assert json.loads(out)["expected_payoffs"] == [str(v) for v in achieved]



def test_solve_runs_each_whole_tree_pass_once(monkeypatch, capsys):
    # one validation, one leaf_outcomes, two passes over the nodes where the
    # game ends (the report's rows and certify's payoffs) and one deviation
    # vector per player
    calls = {"validate_game": [], "leaf_outcomes": [], "_ends": [], "_deviation_vector": []}

    def counting(name, real):
        def wrapper(*args, **kwargs):
            calls[name].append(args)
            return real(*args, **kwargs)

        return wrapper

    for name, owner in [("validate_game", games), ("leaf_outcomes", games), ("_ends", games)]:
        real = getattr(owner, name)
        for module in (cli, documents, games, scheme, verify):
            if getattr(module, name, None) is real:
                monkeypatch.setattr(module, name, counting(name, real))
    monkeypatch.setattr(
        verify, "_deviation_vector", counting("_deviation_vector", verify._deviation_vector)
    )
    code, out, _ = run_cli(capsys, "solve", "--example", "paper-5-1", "--epsilon", "1/4")
    assert code == 0
    assert len(calls["validate_game"]) == 1
    assert len(calls["leaf_outcomes"]) == 1
    assert len(calls["_ends"]) == 2
    assert sorted(args[2] for args in calls["_deviation_vector"]) == [1, 2, 3]


# sha256 of the full `solve --trace` report, recorded before the leaf-range
# kernel replaced the per-leaf root walks; any change in output shows here
SOLVE_REPORT_DIGESTS = [
    ("paper-5-1", "0", "1,2,3", "6b25d0a577504b65ca4a0d9841d5f4c51d554578824a379e3688d0d72a259333"),
    ("paper-5-1", "0", "2,3,1", "8b4c867b619acb05324f641e09c1c898cb6d1affbc00e4dcf3633b6e1465d64a"),
    ("paper-5-1", "1/4", "1,2,3", "0cf1f37fe690732d80efa3242de3b1041a1f011c5c114fcaf9ac080dfb3bfbb3"),
    ("paper-5-1", "1/4", "2,3,1", "ac9e68f1b7d3759df4d6f9ef6a35740592933d989c11cf3045b49bd67d789b45"),
    ("paper-5-3", "0", None, "36508d9dd49d7da1c8e4b1fea90fdf2c23bee4616b1e1b7042196904e4bf136b"),
    ("paper-5-3", "1/4", None, "f4bad7b71759dfc6373a7cbaaa1927f960d626540c4e83b18180e47adf2e9788"),
    # recorded before the sweep's kernel visited only the live region
    ("late-stop-3x36", "0", None, "781b60dd6f4cecc8eb49533598ef3e312e4dd9332177cd8940928b5b35560970"),
    # recorded before the kernel walked single-child stages as chains
    ("late-stop-2x60", "0", None, "9b13194b64d3ba3d0600892f8aa304e6a1697e050e339d056cb3ba9a8d65c7d2"),
    ("late-stop-2x60", "1/4", None, "36f9e5dad51cc06a464e44a1532dec26a3e5143bc1ae9f11e47924d6dd816cea"),
    # recorded before the payoffs became one integer table per game; every
    # (player, coalition) process has its own prime denominator, so the
    # sweep's frozen values and the certifier's deviation rewards rescale
    ("coprime-2x3", "0", None, "82edf606aa52b819f6716fcf7fe5cca805de550d7a73b6961f08a1673060e455"),
    ("coprime-2x3", "1/4", None, "fe2ee86c55f728738e67adeab655936469bf5c82039aad92d924ae54740f9fb6"),
    ("coprime-3x2", "0", None, "98d60bbe1a9a5d81847fb404d4e97cd03d4a5ac08d1b18c1c6555c630881ebd7"),
    ("coprime-3x2", "1/4", None, "f80976299b187695eb71573394391920145cb49b104b23c16ebafb9fe7879203"),
]

# generated games the digests cover besides the built-in examples
GENERATED_GAMES = {
    "late-stop-3x36": lambda: late_stop_game(Random(7), 3, 36),
    "late-stop-2x60": lambda: late_stop_game(Random(11), 2, 60),
    "coprime-2x3": lambda: coprime_game(Random(3), 2, 3),
    "coprime-3x2": lambda: coprime_game(Random(0), 3, 2),
}


def _game_source(name, tmp_path):
    if name not in GENERATED_GAMES:
        return ["--example", name]
    path = tmp_path / f"{name}.json"
    path.write_text(document_text(serialize_game(GENERATED_GAMES[name]())))
    return ["--game", str(path)]


@pytest.mark.parametrize("name,epsilon,order,digest", SOLVE_REPORT_DIGESTS)
def test_solve_reports_are_byte_identical(capsys, tmp_path, name, epsilon, order, digest):
    argv = ["solve", *_game_source(name, tmp_path), "--epsilon", epsilon]
    argv += ["--trace", str(tmp_path / "t.json")]
    if order:
        argv += ["--order", order]
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the `--trace` file of each SOLVE_REPORT_DIGESTS row and of
# `verify` on its capped profile, recorded before one writer replaced the
# indented json.dumps calls
SOLVE_TRACE_AND_VERIFY_DIGESTS = {
    ("paper-5-1", "0", "1,2,3"): (
        "eacb03a22955cca8a236562773b74e96ee37c7e82d65c3d371774f16ed2e631d",
        "7a3572bc5f3f3878a73a01fc5a899117fd18d8d69e64df741b0615bc8aa5b07f",
    ),
    ("paper-5-1", "0", "2,3,1"): (
        "9510e9102c2ee8b901c1fa92db37380e56dcd91fcfc314c786a6e47477e40fa6",
        "4b7d44ead097e3929e251f3a7ab07bdccc72e85f41bbe379fc43b6d0b3338dbe",
    ),
    ("paper-5-1", "1/4", "1,2,3"): (
        "eacb03a22955cca8a236562773b74e96ee37c7e82d65c3d371774f16ed2e631d",
        "da9f49890ad2c4cb631ed6686bef718b62a48362de8d14b8d18d102e33419331",
    ),
    ("paper-5-1", "1/4", "2,3,1"): (
        "24db1295e9752e8d6a300264d33e71e9e19471a37e3731902e45887233e7c192",
        "f25c8d914004ef70cbdefc7c5bfdba4472e44069ba44867979121713b1b82e4b",
    ),
    ("paper-5-3", "0", None): (
        "833649ee9fe7f36b88dc4f6c90c53cc0a4176209fe8c540df35633b00b2aae50",
        "7bd83216a44ab65968fa6ece7deed2841874f5079eded3679a95563d078bf133",
    ),
    ("paper-5-3", "1/4", None): (
        "833649ee9fe7f36b88dc4f6c90c53cc0a4176209fe8c540df35633b00b2aae50",
        "6493a1fc3633d64475c418a2cd33487689dd42f2fd951eb1912c6c00c573b41f",
    ),
    ("late-stop-3x36", "0", None): (
        "21a56521ebf46cd9ad971231ded8b6d5be32b984084be76f844e81f6d9d499c7",
        "a0cc50b75d52d3dc28e13154c4702aca765483a17a93361fae317c732632a1c4",
    ),
    # recorded with the late-stop-2x60 rows of SOLVE_REPORT_DIGESTS
    ("late-stop-2x60", "0", None): (
        "4e4271723e924bb87602723f374b8f2cb98435313e1fbf2ac292fce918d46788",
        "165af492940e18c87faa55d88d49c644a6af9de3363ab35ebe1d7d63eb9cef97",
    ),
    ("late-stop-2x60", "1/4", None): (
        "59190d813649ff2b56bac235120e0fea788bfdd3b6626db015825722a9e8228a",
        "4089b86bf797dd4956b3d1247605d06decd7cc200ff704dcbf44bc3680aa5504",
    ),
    # recorded with the coprime rows of SOLVE_REPORT_DIGESTS
    ("coprime-2x3", "0", None): (
        "5eec9385da20ac93cdf5bf6f7b455d880f3a06fbc23a5d9099f5024d36c6330f",
        "0d04b7d5535cfa6fedfa0b405cdecd0e17b80bdceae0104300cf0a9a72ae01fc",
    ),
    ("coprime-2x3", "1/4", None): (
        "11522fb65dee92cdcda25283c4b1b710be50f9fd2f7061e7f618fae09c58cb7c",
        "eb48274ac2feb7e0ed50d8bf148da3027d468f6ef5e27b9e5a19dad03b6848a4",
    ),
    ("coprime-3x2", "0", None): (
        "2ea16113796b0bf5be7d64cf15b9cd173e04252706c830851dfde3b6c565116b",
        "ded6939d93456126165dff109d42ce97a524ab24f5a87e8c6308711a8840afda",
    ),
    ("coprime-3x2", "1/4", None): (
        "2ea16113796b0bf5be7d64cf15b9cd173e04252706c830851dfde3b6c565116b",
        "96dffcdb86b5df88eb8d89344a3fcfef29bf1e6a840cc5bf0e53d4b85e1ef464",
    ),
}


@pytest.mark.parametrize("name,epsilon,order", list(SOLVE_TRACE_AND_VERIFY_DIGESTS))
def test_solve_traces_and_verify_outputs_are_byte_identical(capsys, tmp_path, name, epsilon, order):
    trace_digest, verify_digest = SOLVE_TRACE_AND_VERIFY_DIGESTS[name, epsilon, order]
    source, trace = _game_source(name, tmp_path), tmp_path / "t.json"
    argv = ["solve", *source, "--epsilon", epsilon, "--trace", str(trace)]
    code, out, _ = run_cli(capsys, *argv, *(["--order", order] if order else []))
    assert code == 0
    assert hashlib.sha256(trace.read_bytes()).hexdigest() == trace_digest
    profile = tmp_path / "profile.json"
    profile.write_text(json.dumps({"rules": json.loads(out)["profile"]["capped"]}))
    code, out, _ = run_cli(capsys, "verify", *source, "--epsilon", epsilon, "--profile", str(profile))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == verify_digest


# sha256 of `enumerate` stdout, the same with and without --allow-empty, and
# the exit code without it; recorded with SOLVE_TRACE_AND_VERIFY_DIGESTS
ENUMERATE_REPORT_DIGESTS = {
    ("paper-5-1", "0"): (0, "dfd47b15ecf70fdf4a76783bcfed4327a1001776e7bc183bdf76cd3b4d1a6048"),
    ("paper-5-1", "1/4"): (0, "28f060a0221911ebd9c4fcfb78e439cf2cb765b4c75cc14e5620c942d99ab602"),
    ("counterexample-a", "0"): (1, "9386e4e98199448b22b4f3b18911f04c2d5ba5caeb534dda404da616ab7729ab"),
    ("counterexample-a", "1/4"): (1, "87b90e8ad56e605c6f575ed28dc0eb0e033e84f460cf2b3a9f63719b71198a82"),
    ("counterexample-b", "0"): (0, "dfee1662390ee9621c74693774c751334f7d215727ee29ce20645b34987fe67d"),
    ("counterexample-b", "1/4"): (0, "f390c7e2a28aa9ff590e81ddb74a20821013624ad45cc1eeedd9b6b7639b8493"),
}


@pytest.mark.parametrize("name,epsilon", list(ENUMERATE_REPORT_DIGESTS))
def test_enumerate_reports_are_byte_identical(capsys, name, epsilon):
    found_code, digest = ENUMERATE_REPORT_DIGESTS[name, epsilon]
    argv = ["enumerate", "--example", name, "--epsilon", epsilon]
    for extra, exit_code in [([], found_code), (["--allow-empty"], 0)]:
        code, out, _ = run_cli(capsys, *argv, *extra)
        assert (code, hashlib.sha256(out.encode()).hexdigest()) == (exit_code, digest)


# sha256 of `example --name` stdout; recorded with SOLVE_TRACE_AND_VERIFY_DIGESTS
EXAMPLE_DIGESTS = {
    "counterexample-a": "3585f29c38871cea0dc2e01ec57281bf0e468da911da36f6c77b8f7f64669334",
    "counterexample-b": "0b3069f0bcf7807d4b365b607cd1c7495ace4f3f4f355a09a7b931a8ac7f63a5",
    "paper-5-1": "aed200e9b5f43dd1611694f6e4c6e28c870e4e2f3481641b96d076b50edf2486",
    "paper-5-3": "c0d83c81402b28c6e583846f6a9c2ba47c68b8484def9a5e23acbcffd44f50fe",
}


@pytest.mark.parametrize("name", sorted(EXAMPLES))
def test_example_documents_are_byte_identical(capsys, name):
    code, out, _ = run_cli(capsys, "example", "--name", name)
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == (0, EXAMPLE_DIGESTS[name])


def _with_bad_value(doc, where, value):
    if where == "payoff":
        doc["payoffs"][1]["values"]["2"] = value
    elif where == "default":
        doc["default_payoff"] = {"values": {"0": "0", "1": value, "2": "1"}}
    else:
        doc["tree"]["nodes"][2]["prob"] = value


_NOT_RATIONAL = 'expected a rational string like "1/2" or "-3", got'
_BAD_PATHS = {
    "payoff": "document.payoffs[1].values.2",
    "default": "document.default_payoff.values.1",
    "prob": "document.tree.nodes[2].prob",
}


# messages recorded before parse_game kept a table of parsed strings
@pytest.mark.parametrize("where", sorted(_BAD_PATHS))
@pytest.mark.parametrize(
    "value,shown",
    [(3, "3"), (True, "True"), (None, "None"), (["1/2"], "['1/2']"), ({"a": 1}, "{'a': 1}")],
)
def test_malformed_values_fail_with_their_path(capsys, tmp_path, where, value, shown):
    doc = example_document("paper-5-1")
    _with_bad_value(doc, where, value)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", "--game", str(path), "--epsilon", "0")
    assert code == 2
    assert err == f"error: {_BAD_PATHS[where]}: {_NOT_RATIONAL} {shown}\n"


def test_a_bad_string_at_two_paths_reports_the_first(capsys, tmp_path):
    doc = example_document("paper-5-1")
    doc["payoffs"][4]["values"]["1"] = "0.5"
    doc["payoffs"][1]["values"]["2"] = "0.5"
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "solve", "--game", str(path), "--epsilon", "0")
    assert code == 2
    assert err == f"error: document.payoffs[1].values.2: {_NOT_RATIONAL} '0.5'\n"


_NESTED = "[" * 200_000 + "]" * 200_000


@pytest.mark.parametrize(
    "argv,text,where",
    [
        (["solve", "--epsilon", "0", "--game"], _NESTED, "document"),
        (
            ["verify", "--example", "paper-5-1", "--epsilon", "0", "--profile"],
            '{"rules": ' + _NESTED + "}",
            "profile",
        ),
    ],
    ids=["game", "profile"],
)
def test_deeply_nested_json_is_a_document_error(capsys, tmp_path, argv, text, where):
    path = tmp_path / "nested.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, *argv, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {where}: maximum recursion depth exceeded")


def test_an_undecodable_file_is_a_usage_error_naming_it(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"schema_version": "\xe9"}')
    code, out, err = run_cli(capsys, "solve", "--game", str(path), "--epsilon", "0")
    assert (code, out) == (2, "")
    assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode")


# every workload of the benchmark, through the modules in perfbench/, which
# the test imports and never changes
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


# sha256 of the trace files, recorded before the envelope kernel made one
# reversed pass over the live region; baseline.json stores the reports only
TRACE_DIGESTS = {"solve-late": "205971f777fb3463875b7d23fd3cdb432a74be892f6b3a31fe93db78ee6662c1"}


@pytest.mark.parametrize("name", ["solve-wide", "solve-late", "enumerate"])
def test_benchmark_reports_keep_their_stored_digests(monkeypatch, capsys, tmp_path, name):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import gen
    import run

    stored = json.loads((PERFBENCH / "baseline.json").read_text())
    workload = run.WORKLOADS[name]
    text = gen.document_text(workload.make(Random(f"{name}:{run.DEFAULT_SEED}:0")))
    assert hashlib.sha256(text.encode()).hexdigest() == stored["inputs"][name][0]
    game, out, trace = tmp_path / "game.json", tmp_path / "out.json", tmp_path / "trace.json"
    game.write_text(text)
    argv = [*workload.argv, "--game", str(game), "--out", str(out)]
    if workload.trace_file:
        argv += ["--trace", str(trace)]
    assert run_cli(capsys, *argv)[0] == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == stored["reports"][name][0]
    assert workload.trace_file == (name in TRACE_DIGESTS)
    if workload.trace_file:
        assert hashlib.sha256(trace.read_bytes()).hexdigest() == TRACE_DIGESTS[name]


_ODD_VALUES = ["1", "1/2", "0.5", "1.0", 1, 0, -1, 1.5, True, False, None, [], [1], {}, {"a": 1}]


def _containers(doc):
    """The objects a mutation may change: the document, its tree, nodes,
    payoff entries and value tables, whatever their shape by now."""
    found = [doc]
    for key in ("tree", "default_payoff"):
        if isinstance(doc.get(key), dict):
            found.append(doc[key])
    tree, payoffs = doc.get("tree"), doc.get("payoffs")
    if isinstance(tree, dict) and isinstance(tree.get("nodes"), list):
        found += [node for node in tree["nodes"] if isinstance(node, dict)]
    entries = payoffs if isinstance(payoffs, list) else []
    entries = [e for e in entries if isinstance(e, dict)]
    if isinstance(doc.get("default_payoff"), dict):
        entries.append(doc["default_payoff"])
    found += entries
    found += [e["values"] for e in entries if isinstance(e.get("values"), dict)]
    return [c for c in found if c]


def _nodes(doc):
    tree = doc.get("tree")
    nodes = tree.get("nodes") if isinstance(tree, dict) else None
    return [n for n in nodes if isinstance(n, dict)] if isinstance(nodes, list) else []


def _mutate(doc, draw):
    kind = draw(st.sampled_from(
        ["drop", "retype", "spelling", "unknown", "duplicate", "cycle", "decimal", "bool"]
    ))
    containers = _containers(doc)
    target = draw(st.sampled_from(containers))
    key = draw(st.sampled_from(sorted(target)))
    nodes = _nodes(doc)
    node = draw(st.sampled_from(nodes)) if nodes else {}
    if kind == "drop":
        del target[key]
    elif kind == "retype":
        target[key] = draw(st.sampled_from(_ODD_VALUES))
    elif kind == "spelling":
        target[draw(st.sampled_from(["0", " ", "+", ""])) + key + draw(
            st.sampled_from(["", ".0", " "])
        )] = target.pop(key)
    elif kind == "unknown":
        target["999"] = target.pop(key)
        node["parent"] = 999
    elif kind == "duplicate":
        node["id"] = draw(st.sampled_from(nodes)).get("id") if nodes else 0
    elif kind == "cycle":
        node["parent"] = draw(st.sampled_from(nodes)).get("id") if nodes else 0
    elif kind == "decimal":
        target[key] = draw(st.sampled_from(["0.5", "1.0", "1e3", ".5"]))
        node["prob"] = "0.5"
    else:
        target[key] = draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_mutated_documents_end_with_a_documented_exit_code(data):
    doc = example_document(data.draw(st.sampled_from(
        ["paper-5-1", "counterexample-a", "counterexample-b"]
    )))
    for _ in range(data.draw(st.integers(1, 3))):
        _mutate(doc, data.draw)
    command = data.draw(st.sampled_from(
        [["solve", "--epsilon", "1/4"], ["enumerate", "--epsilon", "0", "--cap", "64"]]
    ))
    with tempfile.TemporaryDirectory() as work:
        path = Path(work) / "game.json"
        path.write_text(json.dumps(doc))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main([*command, "--game", str(path)])
    assert code in range(5)
    if code == 2:
        assert err.getvalue().startswith("error: ")


# flag values, each used as --flag=value so that argparse never reads one
# as an option; --max-rounds and --cap values all parse as int, so every
# rejection is the program's own
_EPSILONS = [
    "0", "1/4", "1/100", "0.5", ".5", "1e3", "-1/3", "-0", "+1/2", "1/0", "", " 1/2", "1/2/3",
    "abc", "9" * 5000, "1/" + "9" * 5000, "-" + "9" * 5000, "1/" + "7" * 4000,
]
_ORDERS = ["1,2,3", "3,1,2", "2,1", "1,2", "1,1,2", "0,1,2", "1,2,3,4", "a,b", "", "1,,2",
           "-1,2,3", "9" * 5000]
_COUNTS = ["0", "-1", "1", "3", "64", str(10**30)]


def _flag(draw, name, values):
    value = draw(st.sampled_from([None, *values]))
    return [] if value is None else [f"{name}={value}"]


def _output_flag(draw, name, work):
    """``name`` left out, or set to a writable path, to an empty value or
    to one of three kinds of unwritable paths."""
    (work / "file").touch()
    kinds = [None, "fine", "empty", "missing dir", "a directory", "under a file"]
    path = {
        "fine": work / "written.json",
        "empty": "",
        "missing dir": work / "missing" / "o.json",
        "a directory": work,
        "under a file": work / "file" / "o.json",
    }.get(draw(st.sampled_from(kinds)))
    return [] if path is None else [f"{name}={path}"]


def _mutated_profile(draw, doc):
    """A profile document with up to three mutations, as JSON text that is
    sometimes cut short."""
    for _ in range(draw(st.integers(0, 3))):
        rules = doc.get("rules")
        entries = [r for r in rules if isinstance(r, dict)] if isinstance(rules, list) else []
        target = draw(st.sampled_from([doc, *entries]))
        kind = draw(st.sampled_from(["drop", "retype", "stop", "player"]))
        if kind == "drop" and target:
            del target[draw(st.sampled_from(sorted(target)))]
        elif kind == "retype" and target:
            target[draw(st.sampled_from(sorted(target)))] = draw(st.sampled_from(_ODD_VALUES))
        elif kind == "stop" and isinstance(target.get("stops"), list):
            target["stops"].append(draw(st.sampled_from([0, 2, 999, -1, True, "1", 1.5, None])))
        elif kind == "player" and isinstance(rules, list):
            player = draw(st.sampled_from([1, 2, 3, 4, 0, -1, True, "1", None]))
            rules.append({"player": player, "stops": []})
    text = json.dumps(doc)
    return text[: draw(st.integers(0, len(text)))] if draw(st.booleans()) else text


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_bad_flags_and_profiles_end_with_a_documented_exit_code(data):
    draw = data.draw
    command = draw(st.sampled_from(["solve", "verify", "enumerate", "example"]))
    small = ["paper-5-1", "counterexample-a", "counterexample-b"]
    # enumerating the 85-node paper-5-3 under a cap of 10**30 would not end
    name = draw(st.sampled_from(small if command == "enumerate" else [*small, "paper-5-3"]))
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        if command == "example":
            argv = ["example", "--name", name, *_output_flag(draw, "--out", work)]
        else:
            argv = [command, "--example", name, f"--epsilon={draw(st.sampled_from(_EPSILONS))}"]
        if command == "solve":
            argv += _flag(draw, "--order", _ORDERS) + _flag(draw, "--max-rounds", _COUNTS)
            argv += _output_flag(draw, "--trace", work) + _output_flag(draw, "--out", work)
        elif command == "enumerate":
            argv += _flag(draw, "--cap", _COUNTS) + _output_flag(draw, "--out", work)
        elif command == "verify":
            spec = parse_game(document_text(example_document(name)), enforce_assumption_a=False)
            rules = draw_rules(data, spec.tree, spec.num_players)
            profile = work / "profile.json"
            profile.write_text(_mutated_profile(draw, serialize_profile(StrategyProfile(rules))))
            argv += ["--profile", str(profile)]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in range(5)
    if code == 2:
        assert err.getvalue().startswith("error: ")
    if "--cap=-1" in argv:  # a usage error, not a cap the tree exceeds
        assert code == 2
        # the error names --cap, unless a flag checked before it is bad too
        assert any(flag in err.getvalue() for flag in ("--cap", "--epsilon", "--out"))


def wide_denominator_document(q):
    """A depth-2 binary game whose every split is ``1/q`` against
    ``(q - 1)/q``; all coalitions pay -10 before the horizon and 0, 1, 2, 0
    at the leaves."""
    nodes = [{"id": 0, "time": 0, "parent": None, "prob": "1"}]
    for k in range(1, 7):
        parent = 0 if k < 3 else (k - 1) // 2
        prob = f"1/{q}" if k % 2 else f"{q - 1}/{q}"
        nodes.append({"id": k, "time": 1 if k < 3 else 2, "parent": parent, "prob": prob})
    values = {"0": "-10", "1": "-10", "2": "-10", "3": "0", "4": "1", "5": "2", "6": "0"}
    return {
        "schema_version": "1",
        "players": 2,
        "horizon": 2,
        "tree": {"nodes": nodes},
        "payoffs": [],
        "default_payoff": {"values": values},
    }


def test_values_past_the_int_str_digit_limit_are_reported_exactly(capsys, tmp_path):
    # each value of the document fits the interpreter's 4300-digit limit on
    # int/str conversion, but the expected payoffs have about 5000 digits
    path = tmp_path / "wide.json"
    path.write_text(json.dumps(wide_denominator_document(10**2500 + 1)))
    spec = parse_game(path.read_text())
    achieved = expected_payoffs(spec, run_scheme(spec, SchemeConfig()).capped)
    with int_digit_limit(0):
        expected = [str(v) for v in achieved]
    assert len(expected[0]) > 5000

    code, out, err = run_cli(capsys, "solve", "--game", str(path), "--epsilon", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["expected_payoffs"] == expected
    code, out, err = run_cli(capsys, "enumerate", "--game", str(path), "--epsilon", "0")
    assert (code, err) == (0, "")
    assert json.loads(out)["count"] > 0

    epsilon = "1/" + "7" * 5000
    code, out, err = run_cli(capsys, "solve", "--example", "paper-5-1", "--epsilon", epsilon)
    assert (code, err) == (0, "")
    assert json.loads(out)["epsilon"] == epsilon


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (["solve", "--example", "paper-5-1", "--epsilon", "0"], 0),
        (["solve", "--example", "paper-5-1", "--epsilon", "-1"], 2),
        (["solve", "--example", "paper-5-1", "--epsilon", "0", "--max-rounds", "1"], 3),
        (["enumerate", "--example", "paper-5-3", "--epsilon", "0"], 4),
    ],
    ids=["solved", "usage", "round-cap", "rule-cap"],
)
def test_main_restores_the_digit_limit(capsys, argv, exit_code):
    with int_digit_limit(5000):
        assert run_cli(capsys, *argv)[0] == exit_code
        assert sys.get_int_max_str_digits() == 5000
