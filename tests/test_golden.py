"""Golden outputs: the exit code and the bytes of every data file that the
workflows write on a few overrides of configs/default.json, and the bytes
of the oracle's stderr (its warnings, or the failing time and its advice).

A speed-up or a refactor must leave these files byte-identical.  The hashes
hold for the Python, numpy and glibc versions recorded in golden.json; where
one differs, the cases it can move are skipped with the reason, so the hashes
gate only on the recorded toolchain.  Regenerating the manifest is a
deliberate step, to be recorded in CHANGES.md:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import hashlib
import json
import math
import platform
import sys
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
MANIFEST = Path(__file__).with_name("golden.json")

DATA_FILES = {
    "verify": "report.json",
    "sweep": "sweep.csv",
    "estimate": "estimates.jsonl",
    "oracle": "oracle.json",
}
ANALYTIC = ("verify", "sweep", "estimate")

# perfbench's scaled workload at seed 1: its seeded omegas, written out
SCALED = {
    "omega_list": [
        0.4586812977974252, 0.825816074847331, 1.4171687205156798,
        1.5569117212294672, 2.0318803989642906, 2.373091270077613,
        2.4489751505285, 2.6275482286724325,
    ],
    "theta_list": [math.pi * i / 127 for i in range(128)],
    "oracle": {"points": 65536, "extent": 4096.0, "dt": 2e-5},
}

# name: (top-level overrides, sg overrides, commands, estimate's --seed)
CASES = {
    "default": ({}, {}, (*ANALYTIC, "oracle"), None),
    "pure": ({"model": "pure"}, {}, ANALYTIC, None),
    "gradient-1e6": ({}, {"gradient": 1e6}, ANALYTIC, None),
    "gradient-0": ({}, {"gradient": 0.0}, ANALYTIC, None),
    "bias-100": ({}, {"bias": 100.0}, (*ANALYTIC, "oracle"), None),
    "scaled-seed1": (SCALED, {}, (*ANALYTIC, "oracle"), 1),
    # the oracle with no magnet step: no half-steps and no kinetic phase
    "transit-0": ({}, {"transit": 0.0}, ("oracle",), None),
    # CI's 41 times on a 2^8-point grid (dx = 4, so a packet of sigma0 8)
    "points-256-times41": (
        {"oracle": {"points": 256, "times": [3.0 * i for i in range(41)]}},
        {"sigma0": 8.0},
        ("oracle",),
        None,
    ),
    # CI's inline oracle configs: times before saturation (a note) ...
    "early": ({"oracle": {"times": [1, 3]}}, {}, ("oracle",), None),
    # ... tau**2 overflowing at every time ...
    "late": (
        {"oracle": {"points": 256}},
        {"mass": 9.57e22, "sigma0": 1.45e-110, "moment": -1.02e-6, "gradient": -4.98e6},
        ("oracle",),
        None,
    ),
    # ... a packet far narrower than dx through 1000 magnet steps ...
    "chirp": (
        {"oracle": {"points": 256, "extent": 64.0, "dt": 1e-3}},
        {"mass": 1e300, "sigma0": 1e-160, "gradient": 1e154, "transit": 1.0},
        ("oracle",),
        None,
    ),
    # ... 41 times on the default grid ...
    "times41": (
        {"oracle": {"times": [3.0 * i for i in range(41)]}}, {}, ("oracle",), None
    ),
    # ... and an initial packet wider than any grid, which leaks (exit 3)
    "wide": ({}, {"sigma0": 6e153, "gradient": 0.0}, ("oracle",), None),
    # a free packet that reaches the edge of a 200-wide grid first at t = 45
    "leak-45": (
        {"oracle": {"extent": 200.0, "points": 4096, "dt": 2e-4, "times": [1, 45, 50]}},
        {"gradient": 0.0},
        ("oracle",),
        None,
    ),
}


def versions() -> dict:
    import numpy

    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": numpy.__version__,
        "glibc": " ".join(platform.libc_ver()),
    }


def write_case_config(name: str, directory: Path) -> Path:
    top, sg, _, _ = CASES[name]
    payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    payload["sg"].update(sg)
    for key, value in top.items():
        if key == "oracle":
            payload["oracle"].update(value)
        else:
            payload[key] = value
    path = directory / f"{name}.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_case(name: str, command: str, directory: Path) -> list:
    """[exit code, sha256 of the data file or None] of one command, and for
    the oracle the sha256 of its stderr."""
    from nosignal.cli import main

    seed = CASES[name][3]
    out = directory / f"{name}-{command}"
    argv = [command, "--config", str(write_case_config(name, directory)),
            "--out", str(out)]
    if command == "estimate" and seed is not None:
        argv += ["--seed", str(seed)]
    stderr = StringIO()
    with redirect_stdout(StringIO()), redirect_stderr(stderr):
        code = main(argv)
    data = out / DATA_FILES[command]
    pinned = [code, sha256(data.read_bytes()) if data.is_file() else None]
    if command == "oracle":
        pinned.append(sha256(stderr.getvalue().encode("utf-8")))
    return pinned


def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


PINNED = [
    (name, command) for name, (_, _, commands, _) in CASES.items()
    for command in commands
]


@pytest.mark.parametrize("name, command", PINNED, ids=[f"{n}-{c}" for n, c in PINNED])
def test_output_bytes(tmp_path, name, command):
    recorded = manifest()
    # the analytic files take Python's float formatting and libm; the
    # oracle's take numpy's FFTs too
    moved_by = ("python", "glibc") + (("numpy",) if command == "oracle" else ())
    here = versions()
    for key in moved_by:
        if here[key] != recorded["versions"][key]:
            pytest.skip(
                f"golden hashes were taken on {key} {recorded['versions'][key]}, "
                f"this is {here[key]}"
            )
    assert run_case(name, command, tmp_path) == recorded["cases"][name][command]


def test_manifest_pins_every_case():
    assert {n: sorted(c) for n, c in manifest()["cases"].items()} == {
        name: sorted(commands) for name, (_, _, commands, _) in CASES.items()
    }


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        cases = {
            name: {command: run_case(name, command, Path(work)) for command in commands}
            for name, (_, _, commands, _) in CASES.items()
        }
    payload = {"versions": versions(), "cases": cases}
    MANIFEST.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
