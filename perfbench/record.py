"""Record the default seed's input and report digests in baseline.json.

Usage: python3 perfbench/record.py

Runs one pass over each workload's pool with the default seed, checks the
outputs like a benchmark run does, and stores the sha256 of every input
document and every report.  Run it only when a change is meant to alter
the generated inputs or the command output; other keys of baseline.json
are kept.
"""

from __future__ import annotations

import json
import sys

import run


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    baseline = json.loads(run.BASELINE.read_text())
    for name, workload in run.WORKLOADS.items():
        work, games, commands = run.prepare(name, run.DEFAULT_SEED, workload.games)
        result = run.run_worker(work, commands, 0, 0, 1, False, run.HARD_LIMIT_S, "record")
        gate = run.Gate(name, work, games, None)
        if gate.check_all("record", result):
            print("\n".join(gate.problems), file=sys.stderr)
            return 1
        baseline["inputs"][name] = [run.sha256(p.read_bytes()) for p in games]
        baseline["reports"][name] = [
            run.sha256((work / "out" / f"record{k}.json").read_bytes())
            for k in range(len(games))
        ]
    run.BASELINE.write_text(json.dumps(baseline, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
