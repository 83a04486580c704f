"""Solve deep preemption games, each in a fresh process, and report their
size, wall time and peak memory.

Usage: python scripts/deep_horizon.py [--game H:B ...]

Each ``--game H:B`` names ``perfbench/gen.preemption_game(Random(0), 3, H, B)``:
a binary tree for B stages, then one chain per path down to the horizon H,
on which every visit of the sweep pre-empts the last stop by one stage.
The default games are 480:5 and 960:6.  For each game one child process
writes the document and a second, fresh child runs ``dynkin solve
--epsilon 0`` on it in-process; the line printed gives the nodes, the
sweep steps, the wall time of that ``solve`` and the peak RSS
(``ru_maxrss``, Linux) of the solving child.  The launcher itself only
starts children and stays small: Linux carries a parent's RSS at the fork
into its child's ``ru_maxrss``.

Exits 1 when a solve does not exit 0.
"""

import argparse
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PLAYERS = 3


def build(horizon, branching, path):
    """Child: write the game document and print its number of nodes."""
    from random import Random

    sys.path.insert(0, str(ROOT / "perfbench"))
    import gen

    doc = gen.preemption_game(Random(0), PLAYERS, horizon, branching)
    Path(path).write_text(gen.document_text(doc))
    print(len(doc["tree"]["nodes"]))
    return 0


def solve(path):
    """Child: solve the game, then print the exit code, the sweep steps, the
    wall time in seconds and this process's peak RSS in MiB."""
    import json
    import resource
    import time

    from dynkin import cli

    out = f"{path}.report.json"
    start = time.perf_counter()
    code = cli.main(["solve", "--game", path, "--epsilon", "0", "--out", out])
    wall = time.perf_counter() - start
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux
    steps = json.loads(Path(out).read_text())["rounds_used"] * PLAYERS if code == 0 else 0
    print(code, steps, f"{wall:.2f}", f"{peak:.1f}")
    return 0


def child(*argv):
    done = subprocess.run(
        [sys.executable, __file__, *map(str, argv)], capture_output=True, text=True
    )
    if done.returncode:
        raise SystemExit(f"{' '.join(map(str, argv))} failed:\n{done.stderr}")
    return done.stdout.split()


def main(argv):
    if argv[:1] == ["build"]:
        return build(int(argv[1]), int(argv[2]), argv[3])
    if argv[:1] == ["solve"]:
        return solve(argv[1])
    parser = argparse.ArgumentParser()
    parser.add_argument("--game", action="append", metavar="H:B")
    games = parser.parse_args(argv).game or ["480:5", "960:6"]
    failed = 0
    with tempfile.TemporaryDirectory() as scratch:
        for game in games:
            horizon, branching = map(int, game.split(":"))
            path = Path(scratch) / f"preemption-{horizon}-{branching}.json"
            (nodes,) = child("build", horizon, branching, path)
            code, steps, wall, peak = child("solve", path)
            failed += code != "0"
            print(
                f"H={horizon} b={branching}: {nodes} nodes, {steps} steps, "
                f"solve {wall} s, peak RSS {peak} MiB"
                + ("" if code == "0" else f", exit {code}")
            )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
