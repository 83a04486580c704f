"""Smoke runs of the scripts under ``scripts/`` and of the README's
``python`` examples, which call the solver and the certifier the way a
user would."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def run_script(*argv):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, *argv], cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=120,
    )


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["scripts/random_sweep.py", "--games", "5"], "5 games at eps=1/10: 0 failures"),
        (["scripts/solve_builtin_games.py"], "certified=True"),
    ],
)
def test_script_runs_clean(argv, expected):
    result = run_script(*argv)
    assert result.returncode == 0, result.stderr
    assert expected in result.stdout
    assert "certified=False" not in result.stdout
    assert "VIOLATIONS" not in result.stdout


def test_deep_horizon_reports_each_game_from_its_own_process():
    # a small horizon keeps the run short; the default games take seconds
    result = run_script("scripts/deep_horizon.py", "--game", "24:2", "--game", "30:1")
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    assert [line.split(":")[0] for line in lines] == ["H=24 b=2", "H=30 b=1"]
    assert lines[0].startswith("H=24 b=2: 95 nodes, 27 steps, solve ")
    assert all(line.endswith(" MiB") for line in lines)


def test_random_sweep_fails_a_game_over_the_round_bound(monkeypatch, capsys):
    # the bound is an explicit check that python -O keeps, and a failed game
    # makes the sweep exit 1
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.setattr(sys, "argv", ["random_sweep.py", "--games", "2"])
    import random_sweep

    monkeypatch.setattr(random_sweep, "rounds_bound", lambda game: 0)
    assert random_sweep.main() == 1
    assert "2 games at eps=1/10: 2 failures" in capsys.readouterr().out


def test_readme_python_examples_run():
    readme = (ROOT / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```$", readme, flags=re.M | re.S)
    assert blocks
    for block in blocks:
        result = run_script("-c", block)
        assert result.returncode == 0, result.stderr
