#!/usr/bin/env python3
"""End-to-end benchmark of the ``nosignal`` command-line tool.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload default --seed 1 --seconds 10 --trace 0

With ``--trace 0`` every subcommand runs as a fresh
``python -m nosignal.cli <cmd>`` process with ``src`` on PYTHONPATH, in a
closed loop with one client: a child starts only after the previous one
has exited.  Each round runs, in a rotating order, one set-up probe
(import ``nosignal.cli`` and load the config), one process per subcommand
and one run of ``reference.py``, which gauges the machine's speed.  Rounds
repeat until ``--seconds`` have passed.

With ``--trace 1`` the per-layer metrics come from ``python -X importtime``
probes and from an in-process traced run (see ``tracer.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Details (raw
samples, environment, sha256 of every data file) go to
``perfbench/out/<workload>/seed<seed>-trace<t>/result.json``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
OUT = BENCH / "out"

COMMANDS = ("verify", "sweep", "estimate", "oracle")
WORKLOADS = ("default", "scaled")
DATA_FILES = {
    "verify": "report.json",
    "sweep": "sweep.csv",
    "estimate": "estimates.jsonl",
    "oracle": "oracle.json",
}
# Frozen sweep.csv header; a change to it is an output change.
SWEEP_HEADER = (
    "omega,theta,Es,phi_plus,phi_minus,pA_plus,pA_minus,PA_total,"
    "PB_plus,PB_minus,PB_total,residual,model"
)
# Acceptance criterion 4: analytic model vs grid solver.
ORACLE_TOLERANCES = {
    "max_abs_E_diff": 1e-3,
    "max_coherence_mod_diff": 1e-3,
    "max_coherence_phase_diff": 1e-2,
}

# On a shared 2-vCPU guest the speed drifted by up to a factor 1.8 within
# minutes, the same for wall and CPU time.  So every round also times
# reference.py, a fixed job of the program's kinds of work (fresh
# interpreter, numpy and scipy imports, FFTs, quad calls) that uses nothing
# from the repo.  Time metrics are scaled by REFERENCE_S over the run's
# median reference time: seconds on a machine where the job takes
# REFERENCE_S.  The raw wall times stay in result.json.
REFERENCE_S = 1.25
SETUP_CODE = "import sys, nosignal.cli as c; c.load_config(sys.argv[1])"


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, a probe that failed)."""


def make_config(workload: str, seed: int) -> dict:
    """The workload's run configuration; the seed is the only input."""
    cfg = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    if workload == "scaled":
        rng = random.Random(seed)
        cfg["omega_list"] = sorted(
            rng.uniform(0.05, math.pi - 0.05) for _ in range(8)
        )
        cfg["theta_list"] = [math.pi * i / 127 for i in range(128)]
        cfg["oracle"].update(points=65536, extent=4096.0, dt=2e-5)
    return cfg


def command_args(cmd: str, config, out, seed: int) -> list:
    """Command-line arguments of one subcommand run on the workload's config."""
    args = [cmd, "--config", str(config), "--out", str(out)]
    if cmd == "estimate":
        args += ["--seed", str(seed)]
    return args


def check_output(cmd: str, out_dir: Path, cfg: dict) -> list:
    """Problems found in the data file one subcommand wrote (empty if none)."""
    path = out_dir / DATA_FILES[cmd]
    if not path.is_file():
        return [f"{cmd}: {path.name} missing"]
    text = path.read_text(encoding="utf-8")
    try:
        if cmd == "verify":
            if json.loads(text).get("passed") is not True:
                return ["verify: report.json lacks passed: true"]
        elif cmd == "oracle":
            report = json.loads(text)
            return [
                f"oracle: {key} = {report.get(key)!r} exceeds {tol:g}"
                for key, tol in ORACLE_TOLERANCES.items()
                if not isinstance(report.get(key), float) or report[key] > tol
            ]
        elif cmd == "sweep":
            lines = text.splitlines()
            want = len(cfg["omega_list"]) * len(cfg["theta_list"])
            if not lines or lines[0] != SWEEP_HEADER:
                return ["sweep: sweep.csv header differs from the frozen header"]
            if len(lines) - 1 != want:
                return [f"sweep: {len(lines) - 1} rows, expected {want}"]
        elif cmd == "estimate":
            kinds = [json.loads(line)["kind"] for line in text.splitlines()]
            ends = kinds.count("bound") + kinds.count("degenerate")
            if ends != len(cfg["omega_list"]):
                return [f"estimate: {ends} omega results, expected "
                        f"{len(cfg['omega_list'])}"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"{cmd}: cannot parse {path.name}: {exc}"]
    return []


class OutputLedger:
    """Checks data files and that their bytes repeat within one run."""

    def __init__(self, cfg: dict):
        self.cfg = cfg
        self.sha = {}
        self.problems = []

    def record(self, cmd: str, out_dir: Path, exit_code: int) -> bool:
        problems = [] if exit_code == 0 else [f"{cmd}: exit code {exit_code}"]
        problems += check_output(cmd, out_dir, self.cfg)
        path = out_dir / DATA_FILES[cmd]
        if path.is_file():
            digest = hashlib.sha256(path.read_bytes()).hexdigest()
            first = self.sha.setdefault(path.name, digest)
            if digest != first:
                problems.append(f"{cmd}: {path.name} bytes differ between runs")
        self.problems += problems
        return not problems


def child_env() -> dict:
    env = dict(os.environ)
    # users run with bytecode caching on; the warm-up child fills the cache
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def timed_child(args: list, log: Path, env: dict) -> tuple:
    """Run one child to completion; returns (exit code, wall s, maxrss MiB).

    ``os.wait4`` gives this child's own rusage; RUSAGE_CHILDREN would keep
    the maximum over all children so far.
    """
    with open(log, "ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(args, cwd=ROOT, env=env, stdout=fh, stderr=fh)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


def environment(env: dict) -> dict:
    """Versions, CPU count, cache sizes and commit, for the result file."""
    probe = subprocess.run(
        [sys.executable, "-c",
         "import json, sys, numpy, scipy, nosignal, nosignal.cli; print(json.dumps("
         "[sys.version.split()[0], numpy.__version__, scipy.__version__, "
         "nosignal.__version__]))"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    if probe.returncode != 0:
        raise BenchError(f"cannot import nosignal: {probe.stderr.strip()}")
    python, numpy, scipy, nosignal = json.loads(probe.stdout)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_digest = hashlib.sha256()
    for path in sorted((SRC / "nosignal").glob("*.py")):
        src_digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": python,
        "numpy": numpy,
        "scipy": scipy,
        "nosignal": nosignal,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "caches": caches,
        "git_commit": commit,
        "src_sha256": src_digest.hexdigest(),
    }


def summary(values: list) -> dict:
    ordered = sorted(values)
    quart = (statistics.quantiles(ordered, n=4) if len(ordered) > 1
             else [ordered[0]] * 3)
    return {"n": len(ordered), "median": statistics.median(ordered),
            "p25": quart[0], "p75": quart[2], "max": ordered[-1]}


def run_untraced(seed, seconds, work, cfg_path, cfg, env):
    """Closed-loop fresh-process timings, scaled by the reference process."""
    ledger = OutputLedger(cfg)
    log = work / "children.log"
    reference_env = {k: v for k, v in env.items() if k != "PYTHONPATH"}
    items = ["reference", "setup"] + list(COMMANDS)
    walls = {item: [] for item in items}
    rss = []
    attempted = failed = 0
    start = time.perf_counter()
    rounds = 0
    # stop once another round would end further past the deadline than short
    # of it
    while rounds == 0 or (
        (time.perf_counter() - start) * (1 + 0.5 / rounds) < seconds
    ):
        shift = rounds % len(items)
        for item in items[shift:] + items[:shift]:
            item_env = env
            if item == "reference":
                args = [sys.executable, str(BENCH / "reference.py")]
                item_env = reference_env
            elif item == "setup":
                args = [sys.executable, "-c", SETUP_CODE, str(cfg_path)]
            else:
                out_dir = work / item
                args = [sys.executable, "-m", "nosignal.cli"] + command_args(
                    item, cfg_path, out_dir, seed)
            code, wall, maxrss = timed_child(args, log, item_env)
            walls[item].append(wall)
            if item in COMMANDS:
                attempted += 1
                rss.append(maxrss)
                if not ledger.record(item, out_dir, code):
                    failed += 1
            elif code != 0:
                raise BenchError(f"{item} process exited {code}; see {log}")
        rounds += 1
    scale = REFERENCE_S / statistics.median(walls["reference"])
    metrics = {f"{item}_s": (statistics.median(v) * scale, "s")
               for item, v in walls.items() if item != "reference"}
    metrics["peak_rss_mb"] = (max(rss), "MiB")
    details = {
        "rounds": rounds,
        "scale": scale,
        "wall_s": {item: summary(v) for item, v in walls.items()},
        "raw": {"walls": walls, "peak_rss_mib": rss},
    }
    return metrics, details, ledger, attempted, failed


def parse_importtime(stderr: str) -> dict:
    """Per-layer import metrics from one ``-X importtime`` log.

    Only lines after the ``--mark--`` line count, so interpreter start-up
    imports are left out.
    """
    lines = stderr.split("--mark--\n", 1)[-1].splitlines()
    total_us = nosignal_self_us = 0
    cumulative = {}
    for line in lines:
        if not line.startswith("import time:") or "|" not in line:
            continue
        self_us, cum_us, name = line[len("import time:"):].split("|")
        if not self_us.strip().isdigit():
            continue  # the column header
        depth = (len(name) - len(name.lstrip())) // 2
        name = name.strip()
        if depth == 0:
            total_us += int(cum_us)
        if name == "nosignal" or name.startswith("nosignal."):
            nosignal_self_us += int(self_us)
        cumulative.setdefault(name, int(cum_us))
    return {
        "import.total_s": total_us * 1e-6,
        "import.numpy_s": cumulative.get("numpy", 0) * 1e-6,
        "import.scipy_integrate_s": cumulative.get("scipy.integrate", 0) * 1e-6,
        "import.scipy_special_s": cumulative.get("scipy.special", 0) * 1e-6,
        "import.nosignal_self_s": nosignal_self_us * 1e-6,
    }


def run_traced(seed, seconds, work, cfg_path, cfg, env):
    """Per-layer metrics: importtime probes plus the in-process traced run."""
    deadline = time.perf_counter() + seconds
    probes = []
    for _ in range(3):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c",
             "import sys; sys.stderr.write('--mark--\\n'); import nosignal.cli"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"importtime probe failed: {proc.stderr[-2000:]}")
        probes.append(parse_importtime(proc.stderr))
    metrics = {
        name: (statistics.median(p[name] for p in probes), "s")
        for name in probes[0]
    }
    result_path = work / "tracer.json"
    remaining = max(deadline - time.perf_counter(), 0.0)
    proc = subprocess.run(
        [sys.executable, str(BENCH / "tracer.py"), "--config", str(cfg_path),
         "--work", str(work), "--seed", str(seed), "--seconds", f"{remaining:.3f}",
         "--result", str(result_path)],
        cwd=ROOT, env=env, timeout=170,
    )
    if proc.returncode != 0:
        raise BenchError(f"tracer exited {proc.returncode}")
    traced = json.loads(result_path.read_text(encoding="utf-8"))
    ledger = OutputLedger(cfg)
    failed = sum(not ledger.record(cmd, Path(out_dir), code)
                 for cmd, code, out_dir in traced["calls"])
    metrics.update({k: tuple(v) for k, v in traced["metrics"].items()})
    details = {"importtime": probes, "tracer_passes": traced["passes"]}
    return metrics, details, ledger, len(traced["calls"]), failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "nosignal" / "cli.py").is_file() or not DEFAULT_CONFIG.is_file():
        print(f"error: no nosignal sources under {ROOT}", file=sys.stderr)
        return 2
    work = OUT / args.workload / f"seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg = make_config(args.workload, args.seed)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(cfg, indent=2) + "\n", encoding="utf-8")
    env = child_env()
    try:
        # also the warm-up: byte-compiles the package before any timing
        env_info = environment(env)
        runner = run_traced if args.trace else run_untraced
        metrics, details, ledger, attempted, failed = runner(
            args.seed, args.seconds, work, cfg_path, cfg, env)
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    print("environment " + json.dumps(env_info, sort_keys=True))
    for problem in ledger.problems:
        print(f"FAILED {problem}")
    for name, digest in sorted(ledger.sha.items()):
        print(f"sha256 {name} {digest}")
    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:.6g} {unit}")
    result = {
        "correct": not ledger.problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    (work / "result.json").write_text(json.dumps({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env_info, "sha256": ledger.sha,
        "problems": ledger.problems, "details": details, "result": result,
    }, indent=2) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
