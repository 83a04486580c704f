"""One workload process: runs dynkin commands in-process through
``dynkin.cli.main`` and records the wall time of each call.

Usage: python3 worker.py JOB_JSON RESULT_JSON

The job names the source directory to import dynkin from, the argument
lists of the pool's commands (``{k}`` in an argument becomes the command's
index prefixed by the job's tag, so each command writes its own outputs),
how long to run, and whether to trace.  Commands cycle through the pool in
order.  The loop stops once ``seconds`` have passed and at least
``min_commands`` have run; with ``passes`` set it also runs only whole
passes over the pool, at least that many.  ``hard_limit`` ends the loop
early whatever else the job asks.  Nothing but the call to ``main`` is
inside the timed region.
"""

from __future__ import annotations

import gc
import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    sys.path.insert(0, job["src"])
    import dynkin.cli

    recorder = None
    if job["trace"]:
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()

    pool = job["commands"]
    passes = job["passes"]
    min_commands = max(job["min_commands"], passes * len(pool))
    times, codes, errors, facts = [], [], [], []
    began = time.perf_counter()
    k = 0
    while True:
        elapsed = time.perf_counter() - began
        whole_pass = not passes or k % len(pool) == 0
        if elapsed >= job["hard_limit"] and whole_pass:
            break
        if elapsed >= job["seconds"] and k >= min_commands and whole_pass:
            break
        argv = [arg.replace("{k}", f"{job['tag']}{k}") for arg in pool[k % len(pool)]]
        if recorder is not None:
            recorder.command = k
        gc.collect()
        error = None
        start = time.perf_counter()
        try:
            code = dynkin.cli.main(argv)
        except Exception as exc:  # counted as a failed command, never raised
            code = None
            error = f"{type(exc).__name__}: {exc}"
        times.append(time.perf_counter() - start)
        codes.append(code)
        errors.append(error)
        if recorder is not None:
            facts.append(recorder.command_facts())
        k += 1

    if recorder is not None:
        recorder.write(job["spans"])
    result = {
        "times": times,
        "codes": codes,
        "errors": errors,
        "facts": facts,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "dynkin_file": dynkin.cli.__file__,
    }
    Path(sys.argv[2]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
