"""Benchmark for the dynkin command line: seeded workloads, end-to-end
metrics, per-layer traced metrics and a correctness gate.

Usage:
    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

Run from the repository root.  Without ``--workload`` every workload runs
in turn.  Each workload runs in its own worker process (``worker.py``),
which calls ``dynkin.cli.main`` in-process, one command after another, on
game documents generated here from the seed.

``--trace 0`` reports the end-to-end metrics: import time of the package
in a fresh interpreter (``setup_s``), median and tail wall time of one
command, and the worker's peak RSS.  ``--trace 1`` runs the same commands
untraced and then traced (see ``tracer.py``) and reports per-layer self
time, call counts and the counts behind them, with the tracing overhead.
Every output is checked (see ``check.py``); a failed check counts against
the ``attempted`` total and is never raised.  The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it say the same for a human reader.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Callable

import check
import gen
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BASELINE = HERE / "baseline.json"

DEFAULT_SEED = 0
SETUP_SAMPLES = 11
TAIL_BEYOND = 10  # samples the tail percentile must leave above it
HARD_LIMIT_S = 120.0  # whatever --seconds says, a run ends in time


@dataclass(frozen=True)
class Workload:
    games: int  # documents in the pool; commands cycle through them
    traced_games: int  # the traced run uses the first games of the pool
    make: Callable[[Random], dict]
    argv: tuple[str, ...]
    trace_file: bool = False


# The machine's speed drifts by several percent over tens of seconds, and
# games differ in cost, so each pool is as large as one run can cycle
# through: a median over more distinct games moves less from seed to seed.
# The traced run uses fewer games, so that two traced passes fit in half a
# run.
WORKLOADS = {
    # big tree, short sweep: parsing, validation, tree scans and certify
    "solve-wide": Workload(
        12,
        3,
        lambda rng: gen.random_binary_game(rng, 2, 12, follower=2),
        ("solve", "--epsilon", "1/10"),
    ),
    # deep chains, 40-round sweep: the per-step theta/U/W/mu/tau work
    "solve-late": Workload(
        4,
        2,
        lambda rng: gen.preemption_game(rng, 3, 120, 3),
        ("solve", "--epsilon", "0"),
        trace_file=True,
    ),
    # tiny trees, thousands of certify calls: per-call overhead
    "enumerate": Workload(
        24,
        8,
        lambda rng: gen.random_binary_game(rng, 2, 2),
        ("enumerate", "--epsilon", "0"),
    ),
}

# per-layer metrics read from the span reduction, by function
SELF, CALLS, BOTH = ("self_s",), ("calls",), ("self_s", "calls")
FUNCTION_METRICS = {
    "documents.parse_game": BOTH,
    "games.validate_game": BOTH,
    "games.expected_payoffs": BOTH,
    "games.realized_outcome": SELF,
    "trees.min_of_rules": SELF,
    "trees.canonicalize_rule": BOTH,
    "trees.rule_from_path_times": SELF,
    "snell.snell_envelope": BOTH,
    "snell.eps_optimal_rule": SELF,
    "scheme.build_stage_reward": SELF,
    "scheme.scheme_step": SELF,
    "scheme.run_scheme": SELF,
    "scheme.trace_as_json": SELF,
    "verify.certify": SELF,
    "verify.deviation_reward": SELF,
    "verify.best_response_value": CALLS,
    "verify.find_all_eps_neps": SELF,
    "verify.enumerate_rules": SELF,
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def prepare(name: str, seed: int, games: int) -> tuple[Path, list[Path], list]:
    """Write the first documents of the workload's pool and return them with
    their commands."""
    workload = WORKLOADS[name]
    work = WORK / name
    shutil.rmtree(work, ignore_errors=True)
    for sub in ("out", "trace"):
        (work / sub).mkdir(parents=True)
    paths, commands = [], []
    for g in range(games):
        path = work / f"game{g}.json"
        path.write_text(gen.document_text(workload.make(Random(f"{name}:{seed}:{g}"))))
        paths.append(path)
        argv = [*workload.argv, "--game", str(path)]
        argv += ["--out", str(work / "out" / "{k}.json")]
        if workload.trace_file:
            argv += ["--trace", str(work / "trace" / "{k}.json")]
        commands.append(argv)
    return work, paths, commands


def run_worker(
    work: Path, commands: list, seconds: float, min_commands: int, passes: int,
    trace: bool, hard_limit: float, tag: str,
) -> dict:
    job = {
        "src": str(SRC),
        "commands": commands,
        "seconds": seconds,
        "min_commands": min_commands,
        "passes": passes,
        "hard_limit": hard_limit,
        "trace": trace,
        "tag": tag,
        "spans": str(work / f"spans-{tag}.tsv"),
    }
    job_path, result_path = work / f"job-{tag}.json", work / f"result-{tag}.json"
    job_path.write_text(json.dumps(job))
    subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(job_path), str(result_path)],
        cwd=ROOT, stdout=subprocess.DEVNULL, timeout=hard_limit + 50, check=True,
    )
    result = json.loads(result_path.read_text())
    if not Path(result["dynkin_file"]).resolve().is_relative_to(SRC):
        raise RuntimeError(f"worker imported dynkin from {result['dynkin_file']}")
    return result


def measure_setup() -> float:
    """Median time to import dynkin and dynkin.cli in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import dynkin, dynkin.cli; "
        "print(time.perf_counter() - t, dynkin.__file__)"
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], cwd=ROOT, env=env,
            capture_output=True, text=True, timeout=60, check=True,
        ).stdout.split()
        if not Path(out[1]).resolve().is_relative_to(SRC):
            raise RuntimeError(f"set-up imported dynkin from {out[1]}")
        samples.append(float(out[0]))
    return statistics.median(samples)


class Gate:
    """Per-command correctness: exit code, certificate, leaf-walk payoffs,
    trace audit and, for the default seed, the stored report digests.
    Outputs are checked once per distinct (game, output bytes)."""

    def __init__(
        self, name: str, work: Path, games: list[Path], expected: list[str] | None
    ) -> None:
        self.name, self.work, self.games, self.expected = name, work, games, expected
        self.parsed: dict[int, check.Game] = {}
        self.verdicts: dict[tuple, list[str]] = {}
        self.problems: list[str] = []

    def check_all(self, tag: str, result: dict) -> int:
        """Check every command of a worker result; return how many failed."""
        return sum(
            not self.command(f"{tag}{k}", k % len(self.games), code, error)
            for k, (code, error) in enumerate(zip(result["codes"], result["errors"]))
        )

    def command(self, stem: str, g: int, code, error) -> bool:
        if error is not None or code != 0:
            return self._fail(stem, f"exit code {code} {error or ''}".strip())
        report_bytes = (self.work / "out" / f"{stem}.json").read_bytes()
        trace_path = self.work / "trace" / f"{stem}.json"
        trace_bytes = trace_path.read_bytes() if trace_path.exists() else b""
        digest = sha256(report_bytes)
        if self.expected is not None and self.expected[g:g + 1] != [digest]:
            return self._fail(stem, f"report digest {digest[:12]} is not the stored one")
        key = (g, digest, sha256(trace_bytes))
        if key not in self.verdicts:
            self.verdicts[key] = self._check(g, report_bytes, trace_bytes)
        if self.verdicts[key]:
            return self._fail(stem, "; ".join(self.verdicts[key]))
        return True

    def _check(self, g: int, report_bytes: bytes, trace_bytes: bytes) -> list[str]:
        try:
            report = json.loads(report_bytes)
            if g not in self.parsed:
                self.parsed[g] = check.Game(json.loads(self.games[g].read_text()))
            game = self.parsed[g]
            if self.name == "enumerate":
                return check.check_enumerate(game, report)
            problems = check.check_solve(game, report)
            if trace_bytes:
                problems += check.check_trace(
                    self.games[g].read_text(), report, trace_bytes.decode()
                )
            return problems
        except Exception as exc:  # a malformed output is a failed command
            return [f"check raised {type(exc).__name__}: {exc}"]

    def _fail(self, stem: str, message: str) -> bool:
        self.problems.append(f"command {stem}: {message}")
        return False


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with TAIL_BEYOND samples above it, and that percentile."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(name: str, work: Path, commands: list, seconds: float, gate: Gate):
    setup = measure_setup()
    result = run_worker(
        work, commands, seconds, TAIL_BEYOND + 1, 0, False, HARD_LIMIT_S, "plain"
    )
    times = result["times"]
    failed = gate.check_all("plain", result)
    tail_s, pct = tail(times)
    metrics = {
        "setup_s": (setup, "s"),
        "cmd_p50_s": (statistics.median(times), "s"),
        "cmd_tail_s": (tail_s, "s"),
        "peak_rss_mib": (result["maxrss_kib"] / 1024, "MiB"),
    }
    notes = [
        f"cmd_tail_s is the p{pct:.1f} of {len(times)} commands",
        f"error_rate = {failed / len(times):.6g} ratio "
        f"({failed} of {len(times)} commands failed)",
    ]
    return len(times), failed, metrics, notes, True


def per_layer(name: str, work: Path, commands: list, seconds: float, gate: Gate):
    half = seconds / 2
    plain = run_worker(work, commands, half, 1, 1, False, HARD_LIMIT_S / 2, "plain")
    traced = run_worker(work, commands, half, 1, 2, True, HARD_LIMIT_S / 2, "traced")
    failed = gate.check_all("plain", plain) + gate.check_all("traced", traced)
    attempted = len(plain["times"]) + len(traced["times"])

    rows = tracer.reduce(tracer.read_spans(work / "spans-traced.tsv"))
    facts = traced["facts"]
    n, pool = len(facts), len(commands)

    def signature(k: int) -> tuple:
        row = rows[k]
        return sorted(facts[k].items()), sorted(row["calls"].items()), row["spans"]

    unsteady = sorted(
        {k % pool for k in range(pool, n) if signature(k) != signature(k - pool)}
    )

    def mean(value: Callable[[int], float]) -> float:
        return sum(value(k) for k in range(n)) / n

    metrics = {}
    for name, kinds in [*FUNCTION_METRICS.items(), *((l, BOTH) for l in tracer.LAYERS)]:
        if "self_s" in kinds:
            metrics[f"{name}.self_s"] = (mean(lambda k: rows[k]["self"][name]), "s")
        if "calls" in kinds:
            metrics[f"{name}.calls"] = (mean(lambda k: rows[k]["calls"][name]), "count")
    steps = sum(f["steps"] for f in facts)
    certified = sum(f["certified"] for f in facts)
    overhead = statistics.median(traced["times"]) - statistics.median(plain["times"])
    metrics.update({
        "snell.envelope_den_bits_max": (max(f["den_bits"] for f in facts), "bits"),
        "scheme.rounds": (mean(lambda k: facts[k]["rounds"]), "count"),
        "scheme.steps": (steps / n, "count"),
        "scheme.useful_step_ratio": (
            sum(f["useful_steps"] for f in facts) / steps if steps else 0.0, "ratio"),
        "verify.envelopes_per_profile": (
            sum(rows[k]["br_envelopes"] for k in range(n)) / certified, "count"),
        "verify.eps_nep_ratio": (sum(f["eps_neps"] for f in facts) / certified, "ratio"),
        "tracing.spans": (mean(lambda k: rows[k]["spans"]), "count"),
        "tracing.overhead_s": (overhead, "s"),
    })
    notes = [
        f"untraced: {len(plain['times'])} commands, traced: {n} commands "
        f"({n // pool} passes over {pool} games)",
        f"error_rate = {failed / attempted:.6g} ratio "
        f"({failed} of {attempted} commands failed)",
    ]
    if unsteady:
        notes.append(f"counts differ between passes for games {unsteady}")
    return attempted, failed, metrics, notes, not unsteady


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    count = workload.traced_games if trace else workload.games
    work, games, commands = prepare(name, seed, count)
    inputs_ok, expected = True, None
    if seed == DEFAULT_SEED:
        stored = json.loads(BASELINE.read_text())
        digests = [sha256(p.read_bytes()) for p in games]
        inputs_ok = stored["inputs"].get(name, [])[:count] == digests
        expected = stored["reports"].get(name, [])
        if not inputs_ok:
            print(f"{name}: input documents differ from the stored fingerprints")
    gate = Gate(name, work, games, expected)
    measure = per_layer if trace else end_to_end
    attempted, failed, metrics, notes, steady = measure(name, work, commands, seconds, gate)

    print(f"{name} (seed {seed}, {'traced' if trace else 'untraced'})")
    for metric, (value, unit) in metrics.items():
        print(f"  {metric} = {value:.6g} {unit}")
    for line in notes + gate.problems[:20]:
        print(f"  {line[:300]}")
    return {
        "correct": failed == 0 and inputs_ok and steady,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), action="append")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dynkin" / "__init__.py").is_file():
        print(f"error: no dynkin sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    for name in args.workload or list(WORKLOADS):
        result = run(name, args.seed, args.seconds, bool(args.trace))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
