#!/usr/bin/env python3
"""In-process traced run of the ``nosignal`` subcommands, for per-layer metrics.

Started by ``run.py --trace 1``; not meant to be run by hand:

    python3 perfbench/tracer.py --config cfg.json --work DIR --seed N \
        --seconds S --result tracer.json

Passes alternate between untraced and traced.  Each pass calls
``nosignal.cli.main`` once per subcommand in this one process.  A traced pass
wraps every function that one package module imports from another, under
the name the caller imports it by (``protocol.project_upper`` and
``cli.project_upper`` are separate spans), so only calls that cross a
module boundary become spans and calls within a module count as self time.
A few of ``cli``'s own functions are wrapped too (config loading, the
workflows and the writers).

Each span records its name, start, end, parent span and subcommand.  Spans
stay in memory; the last traced pass's spans are written to
``<work>/spans.jsonl`` at the end.  Metrics aggregate spans by the module
that defines the function: ``postselect.project_upper.calls`` counts the
calls from ``protocol`` and from ``cli``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import inspect
import io
import json
import math
import statistics
import sys
import time
from pathlib import Path

from run import COMMANDS, command_args

MODULES = ("cli", "protocol", "postselect", "wavepacket", "gridsolver",
           "estimation", "spin")
CLI_OWN = ("load_config", "workflow_verify", "workflow_sweep",
           "workflow_estimate", "workflow_oracle", "write_sweep_csv",
           "_write_json")
# Spans whose time is output writing (serialisation included).
WRITERS = ("cli._write_json", "cli.write_sweep_csv", "cli.write_text")
COMPLEX128_BYTES = 16


def fft_count(config, grid, snapshots) -> int:
    """FFTs that ``grid_evolve`` performs, derived from its arguments.

    Per channel: one forward and one inverse FFT per magnet step, one FFT
    at the magnet exit and one inverse FFT per snapshot.
    """
    steps = 0
    if config.transit > 0:
        steps = max(1, math.ceil(config.transit / grid.dt))
    return 2 * (2 * steps + 1 + len(snapshots))


class Tracer:
    """Holds spans and counters of one traced pass."""

    def __init__(self):
        self.spans = []  # (name, defined_as, start, end, parent, op, ok)
        self.stack = []
        self.op = None
        self.pairs = set()
        self.ffts = 0
        self.fft_bytes = 0

    def wrap(self, name: str, defined_as: str, fn):
        spans, stack = self.spans, self.stack
        hook = {"postselect.project_upper": self._on_project_upper,
                "gridsolver.grid_evolve": self._on_grid_evolve}.get(defined_as)

        def traced(*args, **kwargs):
            if hook is not None:
                hook(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, defined_as, start, end, parent, self.op, ok)

        return traced

    def _on_project_upper(self, pair, *args, **kwargs):
        self.pairs.add(pair)

    def _on_grid_evolve(self, config, input_spin, grid, t_final=None,
                        snapshots=None):
        count = fft_count(config, grid, snapshots if snapshots is not None
                          else [t_final])
        self.ffts += count
        # one read and one write of the complex128 array per transform
        self.fft_bytes += count * 2 * COMPLEX128_BYTES * grid.points


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Swap the wrappers into the package modules; restore them on exit."""
    undo = []
    modules = {m: importlib.import_module(f"nosignal.{m}") for m in MODULES}
    for short, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if not inspect.isfunction(obj):
                continue
            origin = obj.__module__
            if origin.startswith("nosignal.") and origin != module.__name__:
                defined_as = f"{origin.rsplit('.', 1)[1]}.{obj.__name__}"
            elif short == "cli" and attr in CLI_OWN:
                defined_as = f"cli.{attr}"
            else:
                continue
            undo.append((module, attr, obj))
            setattr(module, attr, tracer.wrap(f"{short}.{attr}", defined_as, obj))
    cli = modules["cli"]
    path_cls = cli.Path
    traced_write = tracer.wrap("cli.write_text", "cli.write_text",
                               type(path_cls()).write_text)

    class TracedPath(type(path_cls())):
        write_text = traced_write

    undo.append((cli, "Path", path_cls))
    cli.Path = TracedPath
    try:
        yield
    finally:
        for module, attr, obj in reversed(undo):
            setattr(module, attr, obj)


def run_pass(cli, config: str, work: Path, seed: int, tag: str, tracer=None):
    """Call ``cli.main`` once per subcommand; returns (calls, seconds)."""
    calls = []
    elapsed = {}
    for cmd in COMMANDS:
        out_dir = work / tag / cmd
        argv = command_args(cmd, config, out_dir, seed)
        if tracer is not None:
            tracer.op = cmd
        start = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.wrap("cli.main", "cli.main", cli.main)(argv)
        elapsed[cmd] = time.perf_counter() - start
        calls.append((cmd, code, str(out_dir)))
    return calls, elapsed


def layer_metrics(tracer: Tracer) -> dict:
    """Aggregate one traced pass's spans into the per-layer metrics."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    for name, _, start, end, parent, _, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    calls, total, self_time, failed = {}, {}, {}, {}
    for i, (name, defined_as, start, end, parent, _, ok) in enumerate(spans):
        calls[defined_as] = calls.get(defined_as, 0) + 1
        total[defined_as] = total.get(defined_as, 0.0) + (end - start)
        self_time[defined_as] = (self_time.get(defined_as, 0.0)
                                 + (end - start) - child_time[i])
        failed[defined_as] = failed.get(defined_as, 0) + (not ok)

    def outermost_writer(i):
        parent = spans[i][4]
        while parent >= 0:
            if spans[parent][0] in WRITERS:
                return False
            parent = spans[parent][4]
        return True

    write_s = sum(end - start for i, (name, _, start, end, _, _, _)
                  in enumerate(spans) if name in WRITERS and outermost_writer(i))
    project_calls = calls.get("postselect.project_upper", 0)
    metrics = {
        "cli.load_config.total_s": (total.get("cli.load_config", 0.0), "s"),
        "cli.write.total_s": (write_s, "s"),
        "postselect.project_upper.failed": (
            failed.get("postselect.project_upper", 0), "count"),
        "postselect.project_upper.distinct": (len(tracer.pairs), "count"),
        "postselect.project_upper.unique_ratio": (
            len(tracer.pairs) / project_calls if project_calls else 0.0, "ratio"),
        "gridsolver.fft_count": (tracer.ffts, "count"),
        "gridsolver.bytes_moved_computed": (tracer.fft_bytes, "B"),
    }
    wanted = {
        "protocol.run_pipeline": ("calls", "self_s"),
        "protocol.closed_form_result": ("calls",),
        "postselect.project_upper": ("calls", "self_s"),
        "wavepacket.half_plane_coherence": ("calls", "total_s"),
        "wavepacket.saturated_error_fraction": ("calls", "total_s"),
        "wavepacket.free_propagate": ("calls",),
        "wavepacket.closed_form_upper_coherence": ("calls", "total_s"),
        "gridsolver.grid_evolve": ("calls", "total_s"),
        "gridsolver.grid_half_plane_coherence": ("total_s",),
        "estimation.sample": ("calls", "total_s"),
        "estimation.estimate_phase": ("calls",),
        "estimation.derive_seed": ("total_s",),
        "spin.born_probability": ("calls", "total_s"),
    }
    table = {"calls": (calls, 0, "count"), "total_s": (total, 0.0, "s"),
             "self_s": (self_time, 0.0, "s")}
    for fn, kinds in wanted.items():
        for kind in kinds:
            source, empty, unit = table[kind]
            metrics[f"{fn}.{kind}"] = (source.get(fn, empty), unit)
    return metrics


def spans_json(tracer: Tracer):
    for i, (name, _, start, end, parent, op, ok) in enumerate(tracer.spans):
        yield json.dumps({"id": i, "name": name, "start": start, "end": end,
                          "parent": parent if parent >= 0 else None,
                          "op": op, "ok": ok})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--result", required=True, type=Path)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    from nosignal import cli

    all_calls, passes = [], []
    tracer = None
    n = 0
    while n == 0 or time.perf_counter() < deadline:
        calls, plain = run_pass(cli, args.config, args.work, args.seed, f"p{n}-plain")
        all_calls += calls
        tracer = Tracer()
        with installed(tracer):
            calls, traced = run_pass(cli, args.config, args.work, args.seed,
                                     f"p{n}-traced", tracer)
        all_calls += calls
        passes.append({"plain_s": plain, "traced_s": traced,
                       "layers": layer_metrics(tracer)})
        n += 1

    metrics = {}
    for name, (_, unit) in passes[0]["layers"].items():
        metrics[name] = (statistics.median(p["layers"][name][0] for p in passes), unit)
    for cmd in COMMANDS:
        metrics[f"untraced.{cmd}_s"] = (
            statistics.median(p["plain_s"][cmd] for p in passes), "s")
    plain_total = statistics.median(sum(p["plain_s"].values()) for p in passes)
    traced_total = statistics.median(sum(p["traced_s"].values()) for p in passes)
    metrics["trace.untraced_s"] = (plain_total, "s")
    metrics["trace.overhead_s"] = (traced_total - plain_total, "s")

    with open(args.work / "spans.jsonl", "w", encoding="utf-8") as fh:
        for line in spans_json(tracer):
            fh.write(line + "\n")
    args.result.write_text(json.dumps({
        "calls": all_calls, "metrics": metrics,
        "passes": [{"plain_s": p["plain_s"], "traced_s": p["traced_s"]}
                   for p in passes],
    }, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
