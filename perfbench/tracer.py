"""Span recording around calls into dynkin's public functions.

``Recorder.install`` swaps every public module-level function of the
traced modules for a timing wrapper, in every ``dynkin`` module that holds
a reference to it: the package uses from-imports, so ``scheme`` and
``verify`` each hold their own ``snell_envelope``.  Methods are not
wrapped; their time counts as self time of the function that called them.

A span is (command, parent span, name, start, end).  Spans stay in memory
until the run ends, then go to a tab-separated file that :func:`reduce`
turns into per-layer metrics.  Self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from collections import defaultdict
from collections.abc import Mapping

LAYERS = ("documents", "games", "trees", "snell", "scheme", "verify", "cli")

# return values kept per command for the count metrics
KEPT = ("snell.snell_envelope", "scheme.run_scheme", "verify.certify")


class Recorder:
    def __init__(self) -> None:
        self.spans: list = []
        self.stack: list[int] = []
        self.command = 0
        self.kept: list = []

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        keep = self.kept.append if name in KEPT else None

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (self.command, parent, name, start, end)
            if keep is not None:
                keep((name, result))
            return result

        return timed

    def install(self) -> None:
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"dynkin.{layer}")
            for attr, obj in vars(module).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self._wrap(f"{layer}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != "dynkin" and not name.startswith("dynkin."):
                continue
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    setattr(module, attr, wrappers[obj])

    def command_facts(self) -> dict:
        """Counts read from the kept return values of the last command."""
        den_bits = 0
        rounds = steps = useful = certified = eps_neps = 0
        for name, result in self.kept:
            if name == "snell.snell_envelope":
                values = getattr(result, "values", result)
                if isinstance(values, Mapping):
                    values = values.values()
                for v in values:
                    den_bits = max(den_bits, getattr(v, "denominator", 1).bit_length())
            elif name == "scheme.run_scheme":
                rounds += result.rounds_used
                current: dict = {}
                for step in result.trace:
                    steps += 1
                    if step.tau.stop_set != current.get(step.player, frozenset()):
                        useful += 1
                    current[step.player] = step.tau.stop_set
            else:
                certified += 1
                eps_neps += bool(result.is_eps_nep)
        self.kept.clear()
        return {
            "den_bits": den_bits,
            "rounds": rounds,
            "steps": steps,
            "useful_steps": useful,
            "certified": certified,
            "eps_neps": eps_neps,
        }

    def write(self, path) -> None:
        with open(path, "w") as out:
            for command, parent, name, start, end in self.spans:
                out.write(f"{command}\t{parent}\t{name}\t{start!r}\t{end!r}\n")


def read_spans(path) -> list[tuple]:
    spans = []
    with open(path) as lines:
        for line in lines:
            command, parent, name, start, end = line.rstrip("\n").split("\t")
            spans.append((int(command), int(parent), name, float(start), float(end)))
    return spans


def reduce(spans: list[tuple]) -> dict[int, dict]:
    """Per command: self seconds and calls by function and by layer, plus
    the envelopes computed under best responses and the total span count."""
    child_time = [0.0] * len(spans)
    for command, parent, name, start, end in spans:
        if parent >= 0:
            child_time[parent] += end - start
    out: dict[int, dict] = defaultdict(
        lambda: {"self": defaultdict(float), "calls": defaultdict(int), "spans": 0,
                 "br_envelopes": 0}
    )
    for k, (command, parent, name, start, end) in enumerate(spans):
        row = out[command]
        own = end - start - child_time[k]
        layer = name.split(".", 1)[0]
        row["self"][name] += own
        row["self"][layer] += own
        row["calls"][name] += 1
        row["calls"][layer] += 1
        row["spans"] += 1
        if (
            name == "snell.snell_envelope"
            and parent >= 0
            and spans[parent][2] == "verify.best_response_value"
        ):
            row["br_envelopes"] += 1
    return out
