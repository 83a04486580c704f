"""Smoke runs of the scripts under ``scripts/``, which call the solver and
the certifier the way a user would."""

import os
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


def test_random_sweep_fails_a_game_over_the_round_bound(monkeypatch, capsys):
    # the bound is an explicit check that python -O keeps, and a failed game
    # makes the sweep exit 1
    monkeypatch.syspath_prepend(str(ROOT / "scripts"))
    monkeypatch.setattr(sys, "argv", ["random_sweep.py", "--games", "2"])
    import random_sweep

    monkeypatch.setattr(random_sweep, "rounds_bound", lambda game: 0)
    assert random_sweep.main() == 1
    assert "2 games at eps=1/10: 2 failures" in capsys.readouterr().out
