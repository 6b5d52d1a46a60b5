"""Golden cases: the workflows on a few overrides of configs/default.json
and on a few malformed config files, checked in two tiers.

Facts gate on every toolchain: the exit code, no traceback, a substring each
of stdout, stderr and the data file, one short stderr line and no output
directory after a failure, the same bytes from a second run of each oracle
and scaled case, and the format of every file written (check_format).

Hashes gate only on the Python, numpy and glibc recorded in golden.json:
the exit code and the sha256 of the data file, stderr and stdout (the output
and config paths masked).  A speed-up or a refactor must leave them unchanged.
Regenerating the manifest is a deliberate step, recorded in CHANGES.md.
With case names it re-pins only those cases and keeps every other entry's
text, so that `git diff tests/golden.json` shows just the cases meant to move:

    PYTHONPATH=src python tests/test_golden.py --regenerate [CASE ...]

To see what moved in one case's data file against another tree's src/
(for example one extracted by `git archive HEAD src`), per field the largest
distance in ulp of each value, in ulp of the field's largest |value|, and
absolute:

    PYTHONPATH=src python tests/test_golden.py --diff default-verify BASE/src
"""

import csv
import json
import math
import platform
import struct
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from functools import lru_cache, partial
from hashlib import sha256
from io import StringIO
from pathlib import Path
from typing import Dict, NamedTuple, Optional, Sequence, Tuple, Union

import pytest

from nosignal.cli import EXIT_CONFIG, EXIT_NUMERICAL, main
from conftest import fresh_env, fresh_rusage

ROOT = Path(__file__).resolve().parents[1]
DEFAULT_CONFIG = ROOT / "configs" / "default.json"
MANIFEST = Path(__file__).with_name("golden.json")

DATA_FILES = {"verify": "report.json", "sweep": "sweep.csv",
              "estimate": "estimates.jsonl", "oracle": "oracle.json"}
SWEEP_HEADER = ("omega,theta,Es,phi_plus,phi_minus,pA_plus,pA_minus,PA_total,"
                "PB_plus,PB_minus,PB_total,residual,model")


class Facts(NamedTuple):  # the exit code, and a substring of each output
    code: int = 0
    stdout: str = ""
    stderr: str = ""
    data: str = ""


class Case(NamedTuple):
    # over configs/default.json ("sg" and "oracle" update theirs), or the
    # bytes of the config file itself
    config: Union[dict, bytes]
    commands: Dict[str, Facts]
    flags: Tuple[str, ...] = ()  # after --config and --out


OK = Facts()
ANALYTIC = {
    "verify": Facts(stdout="phase-checked cells: 52/52"),
    "sweep": Facts(stdout="wrote 52 rows to <out>/sweep.csv"),
    "estimate": Facts(stdout="4/4 bounds consistent with zero"),
}
UNDER_RESOLVED = Facts(data="the grid under-resolves the packet")
LEAK = "exceeds 1e-10; increase the grid extent"
INJECT = ("--inject-violation", "0.1")
NOT_APPLIED = "--inject-violation 0.1 not applied: no omega carries a phase"
FAIL = Facts(code=1, stdout="FAIL")
# an ideal device whose packet is wider than the oracle's grid
IDEAL_WIDE = {
    "verify": Facts(stdout="phase-checked cells: 0/52"),
    "sweep": ANALYTIC["sweep"],
    "estimate": Facts(stdout="0/0 bounds consistent with zero"),
    "oracle": Facts(code=3, stderr=f"at t = -0.002 {LEAK}"),
}


def refused(message: str) -> Dict[str, Facts]:
    """Every command exits 2 on a config file that load_config refuses."""
    return dict.fromkeys(DATA_FILES, Facts(code=2, stderr=message))


# perfbench's scaled workload at seed 1: its seeded omegas, written out
SCALED = {
    "omega_list": [0.4586812977974252, 0.825816074847331, 1.4171687205156798,
                   1.5569117212294672, 2.0318803989642906, 2.373091270077613,
                   2.4489751505285, 2.6275482286724325],
    "theta_list": [math.pi * i / 127 for i in range(128)],
    "oracle": {"points": 65536, "extent": 4096.0, "dt": 2e-5},
}
SCALED_VERIFY = Facts(stdout="phase-checked cells: 1024/1024")

CASES = {
    "default": Case({}, {**ANALYTIC, "oracle": OK}),
    "pure": Case({"model": "pure"}, ANALYTIC),
    # an ideal device: no phase to check, no bound to take
    "gradient-1e6": Case({"sg": {"gradient": 1e6}}, {
        "verify": Facts(stdout="phase-checked cells: 0/52 (phase checks skipped"),
        "sweep": ANALYTIC["sweep"],
        "estimate": Facts(stdout="0/0 bounds consistent with zero"),
    }),
    "gradient-0": Case({"sg": {"gradient": 0.0}}, ANALYTIC),
    "bias-100": Case({"sg": {"bias": 100.0}}, {**ANALYTIC, "oracle": OK}),
    # the Larmor phase is one exact factor per channel: a half-step that
    # rounded bias + gradient z leaked at the edge here (exit 3)
    "bias-1e16": Case({"sg": {"bias": 1e16}}, {"oracle": OK}),
    # the negative control: verify's gate fails, and every bound excludes 0
    "injected": Case({}, {
        "verify": FAIL._replace(data='"passed": false'),
        "estimate": Facts(stdout="0/4 bounds consistent with zero"),
    }, INJECT),
    "pure-injected": Case({"model": "pure"}, {"verify": FAIL}, INJECT),
    "scaled-seed1": Case(SCALED, {
        "verify": SCALED_VERIFY, "sweep": Facts(stdout="wrote 1024 rows"),
        "estimate": Facts(stdout="8/8 bounds consistent with zero"), "oracle": OK,
    }, ("--seed", "1")),
    # the pure model's cells (SpinState branches), from the same record template
    "scaled-pure": Case({**SCALED, "model": "pure"}, {"verify": SCALED_VERIFY}),
    "scaled-injected": Case(SCALED, {"verify": FAIL}, INJECT),
    # the oracle with no magnet step: no half-steps and no kinetic phase
    "transit-0": Case({"sg": {"transit": 0.0}}, {"oracle": OK}),
    # 41 times on a 2^8-point grid (dx = 4, so a packet of sigma0 8)
    "points-256-times41": Case({
        "oracle": {"points": 256, "times": [3.0 * i for i in range(41)]},
        "sg": {"sigma0": 8.0},
    }, {"oracle": OK}),
    "early": Case({"oracle": {"times": [1, 3]}},
                  {"oracle": Facts(data="largest sampled time 3 is before saturation")}),
    # tau**2 overflows at every time; the (a, tau) forms never square it
    "late": Case({
        "oracle": {"points": 256},
        "sg": {"mass": 9.57e22, "sigma0": 1.45e-110, "moment": -1.02e-6,
               "gradient": -4.98e6},
    }, {"oracle": UNDER_RESOLVED}),
    # a packet far narrower than dx through 1000 magnet steps; p * p * t
    # overflows from t = 3 on, where a NaN chirp phase once made oracle.json
    # unwritable
    "chirp": Case({
        "oracle": {"points": 256, "extent": 64.0, "dt": 1e-3},
        "sg": {"mass": 1e300, "sigma0": 1e-160, "gradient": 1e154, "transit": 1.0},
    }, {"oracle": UNDER_RESOLVED}),
    "times41": Case({"oracle": {"times": [3.0 * i for i in range(41)]}}, {"oracle": OK}),
    # 2 pi sigma0**2 overflows: the packet leaks at the magnet's entry, with
    # no 0/0 warning
    "wide": Case({"sg": {"sigma0": 6e153, "gradient": 0.0}},
                 {"oracle": Facts(code=3, stderr=f"at t = -0.002 {LEAK}")}),
    # a free packet that reaches the edge of a 200-wide grid first at t = 45
    "leak-45": Case({
        "oracle": {"extent": 200.0, "points": 4096, "dt": 2e-4, "times": [1, 45, 50]},
        "sg": {"gradient": 0.0},
    }, {"oracle": Facts(code=3, stderr=f"at t = 45 {LEAK}")}),
    # an ideal device leaves no phase to move: exit 0 and a warning
    "ideal-injected": Case({"sg": {"gradient": 1e6}}, {
        "verify": Facts(stderr=NOT_APPLIED, data=NOT_APPLIED),
        "estimate": Facts(stderr=NOT_APPLIED),
    }, INJECT),
    # m = 1.5e302: the packet's drift does not overflow
    "heavy": Case({"sg": {"mass": 1.5e302, "sigma0": 1e-5, "gradient": 5e7}},
                  ANALYTIC),
    # the packet variance at the settle time overflows: the device runs as
    # ideal, and the oracle's packet is wider than its grid
    "vast": Case({"sg": {"sigma0": 1e80}}, IDEAL_WIDE),
    # the settle time overflows too, which the analytic commands never form
    "huge": Case({"sg": {"sigma0": 1e100}}, IDEAL_WIDE),
    # spreading_time overflows; a and tau_settle are default's, and so are
    # report.json's cells (test_cells_depend_on_a_alone)
    "mass-1e300": Case({"sg": {"mass": 1e300}}, {**ANALYTIC, "oracle": OK}),
    # spreading_time underflows to 0: only the oracle needs it
    "sigma0-1e-200": Case({"sg": {"sigma0": 1e-200}}, {
        **ANALYTIC,
        "oracle": Facts(code=2, stderr="sg: spreading_time = 2 mass sigma0**2 = 0.0"),
    }),
    # no magnet step still counts: (1 + 10 times) x 2^40 points is refused
    # by the work bound before any allocation
    "flat": Case({"sg": {"transit": 0.0}, "oracle": {"points": 2**40}},
                 {"oracle": Facts(code=2, stderr="exceed the work bound")}),
    # a packet carried past the grid's half-extent would wrap round the
    # periodic grid unseen: refused before any grid work
    "wrap": Case({
        "sg": {"mass": 100.0, "gradient": 5e4},
        "oracle": {"extent": 64.0, "points": 2**17, "dt": 2e-4, "times": [1, 50]},
    }, {"oracle": Facts(code=3, stderr="wraps round the periodic grid")}),
    # dx = 4 under-resolves sigma0 = 1, but more points cannot bring a
    # wrapped packet back: the refusal asks for extent, not oracle.points
    "wrap-coarse": Case({"sg": {"gradient": 1e6}, "oracle": {"points": 256}},
                        {"oracle": Facts(code=3, stderr="increase the grid extent")}),
    "many": Case({"samples": 10**19}, {"estimate": Facts(code=2, stderr="samples must be at most 2**63 - 1")}),
    # zeros of both signs, as ints and floats, on both axes
    "signed-zero": Case({
        "omega_list": [0.0, -0.0, 1, 2, math.pi / 2, 3],
        "theta_list": [0.0, -0.0, 1, 2, 0.5, -0.5, 3, 0, 1.0],
    }, {"verify": Facts(stdout="phase-checked cells: 36/54"), "sweep": Facts(stdout="wrote 54 rows"), "estimate": OK}),
    # phi_L + phi_L overflows: exp(1j * inf) once made C NaN, and every
    # command a traceback
    "larmor-overflow": Case({"sg": {"moment": 1.0, "gradient": 0.0004208,
                                    "bias": 1e308, "transit": 1.0}},
                            {**ANALYTIC, "oracle": OK}),
    # config files that json.loads or load_config refuses: one short line each
    "sg-not-object": Case(b'{"schema_version": 1, "sg": [1, 2]}',
                          refused("sg must be a JSON object")),
    "not-utf8": Case(b'{"schema_version": 1, "model": "pur\xe9"}',
                     refused("<config>: 'utf-8' codec can't decode byte 0xe9")),
    "nested-too-deep": Case(b"[" * 100_000 + b"]" * 100_000,
                            refused("<config>: JSON nested too deeply")),
    "digits-5000": Case(b'{"schema_version": 1, "samples": ' + b"9" * 5000 + b"}",
                        refused("<config>: Exceeds the limit (4300 digits)")),
}
PINNED = [(name, command) for name, case in CASES.items() for command in case.commands]
IDS = [f"{name}-{command}" for name, command in PINNED]


def versions() -> dict:
    import numpy

    return {
        "python": "%d.%d.%d" % sys.version_info[:3],
        "numpy": numpy.__version__,
        "glibc": " ".join(platform.libc_ver()),
    }


def manifest() -> dict:
    return json.loads(MANIFEST.read_text(encoding="utf-8"))


def skip_off_the_manifest_toolchain(keys) -> None:
    recorded, here = manifest()["versions"], versions()
    for key in keys:
        if here[key] != recorded[key]:
            pytest.skip(
                f"golden.json was taken on {key} {recorded[key]}, this is {here[key]}"
            )


def case_config(name: str) -> dict:
    payload = json.loads(DEFAULT_CONFIG.read_text(encoding="utf-8"))
    for key, value in CASES[name].config.items():
        payload[key] = {**payload[key], **value} if key in ("sg", "oracle") else value
    return payload


def write_case_config(name: str, directory: Path) -> Path:
    path = directory / f"{name}.json"
    config = CASES[name].config
    if isinstance(config, bytes):
        path.write_bytes(config)
    else:
        path.write_text(json.dumps(case_config(name)), encoding="utf-8")
    return path


class Run(NamedTuple):
    code: int
    stdout: str  # the output and config paths masked
    stderr: str
    files: Optional[Dict[str, bytes]]  # every file written; None if no directory


def run_case(name: str, command: str, directory: Path) -> Run:
    """One command of one case through main(), the oracle with RuntimeWarning
    as an error; --out is below a directory that the run must create."""
    top = directory / f"{name}-{command}"
    out = top / "out"
    config = write_case_config(name, directory)
    argv = [command, "--config", str(config), "--out", str(out), *CASES[name].flags]
    stdout, stderr = StringIO(), StringIO()
    with redirect_stdout(stdout), redirect_stderr(stderr), warnings.catch_warnings():
        if command == "oracle":
            warnings.simplefilter("error", RuntimeWarning)
        code = main(argv)
    files = {p.name: p.read_bytes() for p in out.iterdir()} if top.exists() else None
    stdout, stderr = (
        s.getvalue().replace(str(out), "<out>").replace(str(config), "<config>")
        for s in (stdout, stderr)
    )
    return Run(code, stdout, stderr, files)


def pins(run: Run, command: str) -> list:
    """[exit code, sha256 of the data file (or None), of stderr, of stdout]."""
    data = (run.files or {}).get(DATA_FILES[command])
    blobs = [data, run.stderr.encode(), run.stdout.encode()]
    return [run.code] + [None if b is None else sha256(b).hexdigest() for b in blobs]


def check_format(name: str, text: str) -> None:
    """JSON files are json.dumps(indent=2, sort_keys=True) and a newline;
    estimates.jsonl holds one json.dumps(sort_keys=True) per line; sweep.csv
    has the frozen header, and each numeric field is repr(float) of itself."""
    if name.endswith(".json"):
        value = json.loads(text)
        assert text == json.dumps(value, indent=2, sort_keys=True, allow_nan=False) + "\n"
    elif name.endswith(".jsonl"):
        lines = text.splitlines()
        assert text == "".join(line + "\n" for line in lines)
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True, allow_nan=False)
    else:
        assert name == "sweep.csv"
        head, *rows = text.splitlines()
        assert head == SWEEP_HEADER
        for row in rows:
            assert all(f == "" or repr(float(f)) == f for f in row.split(",")[:-1]), row


def check_facts(name: str, command: str, run: Run) -> None:
    facts = CASES[name].commands[command]
    assert run.code == facts.code, run.stderr
    assert "Traceback" not in run.stderr
    assert facts.stdout in run.stdout and facts.stderr in run.stderr
    if run.code in (EXIT_CONFIG, EXIT_NUMERICAL):
        assert run.files is None, "a failed run left its directory"
        assert run.stdout == "" and run.stderr.count("\n") == 1 and len(run.stderr) < 200
        return
    assert facts.data in run.files[DATA_FILES[command]].decode("utf-8")
    for file_name, data in run.files.items():
        check_format(file_name, data.decode("utf-8"))
    if command == "oracle":  # one row per time, in the config's order
        rows = json.loads(run.files["oracle.json"])["comparisons"]
        assert [row["t"] for row in rows] == case_config(name)["oracle"]["times"]


@pytest.fixture(scope="session")
def runs(tmp_path_factory):
    """run_case, made once per case in a session."""
    return lru_cache(maxsize=None)(
        partial(run_case, directory=tmp_path_factory.mktemp("golden"))
    )


@pytest.mark.parametrize("name, command", PINNED, ids=IDS)
def test_facts(runs, tmp_path, name, command):
    run = runs(name, command)
    check_facts(name, command, run)
    if command == "oracle" or name.startswith("scaled"):
        # the oracle's threads and the large files' memos move no bits
        assert pins(run_case(name, command, tmp_path), command) == pins(run, command)


@pytest.mark.parametrize("name, command", PINNED, ids=IDS)
def test_output_bytes(runs, name, command):
    # the analytic files take Python's float formatting and libm; the
    # oracle's take numpy's FFTs too
    skip_off_the_manifest_toolchain(
        ("python", "glibc") + (("numpy",) if command == "oracle" else ())
    )
    assert pins(runs(name, command), command) == manifest()["cases"][name][command]


def test_foreign_toolchain_skips_only_the_hashes(runs, monkeypatch):
    # facts read no version: each case's still hold there, and a wrong exit
    # code still fails them, while its hash check skips
    foreign = dict.fromkeys(("python", "numpy", "glibc"), "foreign")
    monkeypatch.setattr(sys.modules[__name__], "versions", lambda: foreign)
    for name, command in PINNED:
        run = runs(name, command)
        check_facts(name, command, run)
        with pytest.raises(AssertionError):
            check_facts(name, command, run._replace(code=run.code + 10))
        with pytest.raises(pytest.skip.Exception, match="this is foreign$"):
            test_output_bytes(runs, name, command)


def test_manifest_pins_every_case():
    assert {n: sorted(c) for n, c in manifest()["cases"].items()} == {
        name: sorted(case.commands) for name, case in CASES.items()
    }


def test_regenerate_repins_only_the_named_cases(tmp_path, monkeypatch):
    module = sys.modules[__name__]
    text = MANIFEST.read_text(encoding="utf-8")
    recorded = json.loads(text)
    assert text == json.dumps(recorded, indent=2) + "\n"
    monkeypatch.setattr(module, "MANIFEST", tmp_path / "golden.json")
    module.MANIFEST.write_text(text, encoding="utf-8")
    monkeypatch.setattr(module, "versions", lambda: recorded["versions"])
    monkeypatch.setattr(module, "run_case", lambda *args: Run(9, "", "", None))
    with pytest.raises(SystemExit, match="^no golden case 'nope'$"):
        regenerate(["huge", "nope"])
    regenerate(["huge"])
    empty = sha256(b"").hexdigest()
    pinned = [9, None, empty, empty]
    recorded["cases"]["huge"] = dict.fromkeys(CASES["huge"].commands, pinned)
    text = module.MANIFEST.read_text(encoding="utf-8")
    assert text == json.dumps(recorded, indent=2) + "\n"


def test_cells_depend_on_a_alone(runs):
    # mass 1e300 leaves a and tau_settle at configs/default.json's: each of
    # report.json's cells is default's, bit for bit
    default, heavy = (json.loads(runs(name, "verify").files["report.json"])["cells"]
                      for name in ("default", "mass-1e300"))
    assert json.dumps(heavy) == json.dumps(default)


def test_oracle_resident_memory(tmp_path):
    # a fresh oracle on perfbench's scaled grid, with the bytecode cache on
    # as perfbench runs it.  It reads 34.9 to 35.3 MiB and 5940 to 6010
    # minor faults; without the block that _exit_spectra frees to raise
    # glibc's mmap threshold it read 6.85k faults.  A run after the machine
    # has idled for a few seconds can read about 1000 more faults, so the
    # first of up to five runs back to back that keeps within both bounds
    # passes
    skip_off_the_manifest_toolchain(("python", "glibc", "numpy"))
    cfg = write_case_config("scaled-seed1", tmp_path)
    env = fresh_env()
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    readings = []
    for attempt in range(5):
        argv = [sys.executable, "-m", "nosignal.cli", "oracle", "--config", str(cfg),
                "--out", str(tmp_path / str(attempt))]
        readings.append(fresh_rusage(argv, env))
        if readings[-1][0] <= 36.0 and readings[-1][1] <= 6500:
            return
    pytest.fail(f"(MiB, minor faults) above (36.0, 6500) in every run: {readings}")


def parse(file_name: str, text: str):
    """A data file as JSON values; sweep.csv as one dict per row, each
    field a float where it reads as one."""
    if file_name.endswith(".jsonl"):
        return [json.loads(line) for line in text.splitlines()]
    if file_name.endswith(".json"):
        return json.loads(text)

    def field(f: str):
        try:
            return float(f)
        except ValueError:
            return f  # "" or the model's name

    return [{k: field(f) for k, f in row.items()} for row in csv.DictReader(StringIO(text))]


def leaves(value, path: tuple = ()) -> dict:
    """{path: scalar} of a parsed value; a path holds keys and list indices."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return {path: value}
    return {p: v for k, item in items for p, v in leaves(item, path + (k,)).items()}


def float_step(x: float) -> int:
    """x's place among the float64s in order; -0.0 is one step below 0.0."""
    bits = struct.unpack("<q", struct.pack("<d", x))[0]
    return bits if bits >= 0 else -(2**63) - bits - 1


def field_name(path: tuple) -> str:
    return "".join("[]" if type(k) is int else f".{k}" for k in path).lstrip(".")


def field_differences(
    file_name: str, old: str, new: str
) -> Dict[str, Tuple[float, float, float]]:
    """Per field whose values differ between two texts of one data file,
    its list indices written []: the largest distance in ulp of each value's
    own magnitude, the largest in ulp of the field's largest finite |value|
    in either text, and the largest absolute difference; inf for a value
    that is missing or not a number on one side.  A value at or near zero
    moves by many of its own ulp; the field's ulp reads it on the scale of
    the field's other values."""
    old_leaves, new_leaves = leaves(parse(file_name, old)), leaves(parse(file_name, new))
    largest: Dict[str, float] = {}
    for path, v in [*old_leaves.items(), *new_leaves.items()]:
        if type(v) in (int, float) and math.isfinite(v):
            name = field_name(path)
            largest[name] = max(largest.get(name, 0.0), abs(float(v)))
    worst: Dict[str, Tuple[float, float]] = {}
    for path in old_leaves.keys() | new_leaves.keys():
        a, b = old_leaves.get(path, ...), new_leaves.get(path, ...)  # ... if missing
        if repr(a) == repr(b):  # the same JSON text, 0.0 and -0.0 apart
            continue
        numbers = all(type(v) in (int, float) for v in (a, b))
        if numbers and not math.isnan(a - b):
            ulps, absolute = abs(float_step(a) - float_step(b)), abs(a - b)
        else:
            ulps = absolute = math.inf
        name = field_name(path)
        was = worst.get(name, (0, 0.0))
        worst[name] = (max(was[0], ulps), max(was[1], absolute))
    return {
        name: (ulps, absolute / math.ulp(largest.get(name, 0.0)), absolute)
        for name, (ulps, absolute) in worst.items()
    }


def diff(case_id: str, base_src: str) -> None:
    """Run one case here and on base_src's nosignal; print each field of the
    data file that moved, with both of its distances."""
    name, _, command = case_id.rpartition("-")
    if case_id not in IDS:
        sys.exit(f"no golden case {case_id!r}; one of: {', '.join(IDS)}")
    import tempfile

    with tempfile.TemporaryDirectory() as work:
        run = run_case(name, command, Path(work))
        out = Path(work) / "base"
        argv = [sys.executable, "-m", "nosignal.cli", command,
                "--config", str(write_case_config(name, Path(work))),
                "--out", str(out), *CASES[name].flags]
        base = subprocess.run(argv, env=dict(fresh_env(), PYTHONPATH=base_src),
                              capture_output=True, text=True)
        data = DATA_FILES[command]
        # a base that fails may leave its directory without the data file
        path = out / data
        old = path.read_text(encoding="utf-8") if path.exists() else None
    new = (run.files or {}).get(data)
    print(f"{case_id}: exit code {base.returncode} in the base, {run.code} here")
    if old is None or new is None:
        print(f"{data} written: {old is not None} in the base, {new is not None} here")
        print(f"the base's stderr: {base.stderr.strip()[-300:]}")
        return
    moved = field_differences(data, old, new.decode("utf-8"))
    for field, (ulps, field_ulps, absolute) in sorted(moved.items()):
        print(f"{data} {field}: {ulps:.0f} ulp, {field_ulps:.3g} ulp of the field's "
              f"largest |value|, {absolute:.3g} absolute")
    if not moved:
        print(f"{data}: no field moved")


class TestFieldDifferences:
    """--diff's distances, on texts made here."""

    @staticmethod
    def report(cells, **fields) -> str:
        return json.dumps({"cells": cells, **fields}, indent=2, sort_keys=True) + "\n"

    def test_one_ulp_in_one_field(self):
        x, y = 0.1, math.nextafter(0.1, 1.0)
        old = self.report([{"a": 1.0, "b": x}, {"a": 2.0, "b": 0.5}], n=3, s="x")
        new = self.report([{"a": 1.0, "b": y}, {"a": 2.0, "b": 0.5}], n=3, s="x")
        # b's largest value is 0.5, whose ulp is eight times 0.1's
        assert field_differences("report.json", old, new) == {
            "cells[].b": (1, 0.125, y - x)
        }
        assert field_differences("report.json", old, old) == {}

    def test_a_residual_near_zero_moves_by_many_ulp(self):
        old, new = self.report([], residual=0.0), self.report([], residual=5e-17)
        ulps, field_ulps, absolute = field_differences("report.json", old, new)["residual"]
        assert 4e18 < ulps < 5e18 and absolute == 5e-17
        assert field_ulps == 5e-17 / math.ulp(5e-17)
        signed = self.report([], residual=-0.0)
        assert field_differences("report.json", old, signed) == {"residual": (1, 0.0, 0.0)}

    def test_a_value_near_zero_reads_few_ulp_of_its_field(self):
        # one cell's value moves off 0 by 1.1e-16, in a field whose largest
        # value is 0.5: eighteen digits of its own ulp, one ulp of the field's
        cells = [{"a": 0.0}, {"a": 0.5}]
        moved = [{"a": 1.1102230246251565e-16}, {"a": 0.5}]
        ulps, field_ulps, absolute = field_differences(
            "report.json", self.report(cells), self.report(moved)
        )["cells[].a"]
        assert ulps > 4e18 and field_ulps == 1.0 and absolute == 1.1102230246251565e-16

    def test_sweep_and_estimates(self):
        x, y = 0.25, math.nextafter(0.25, 0.0)
        row = "0.5,{},,projected\n"
        old, new = ("omega,Es,phi_plus,model\n" + row.format(v) for v in (x, y))
        assert field_differences("sweep.csv", old, new) == {
            "[].Es": (1, (x - y) / math.ulp(x), x - y)
        }
        lines = [json.dumps({"kind": "bound", "ci": [v, 1.0]}) + "\n" for v in (x, y)]
        # ci[]'s largest value is 1.0, whose ulp is twice 0.25's
        assert field_differences("estimates.jsonl", lines[0], lines[1]) == {
            "[].ci[]": (1, (x - y) / math.ulp(1.0), x - y)
        }

    def test_a_missing_or_changed_text_field(self):
        old = self.report([{"a": 1.0}], s="x")
        assert field_differences("report.json", old, self.report([], s="y")) == {
            "cells[].a": (math.inf, math.inf, math.inf), "s": (math.inf, math.inf, math.inf)
        }


def regenerate(names: Sequence[str] = ()) -> None:
    """Pin every case, or only the named ones: every other case keeps its
    entry, and so its text, in CASES order."""
    import tempfile

    kept = {}
    if names:
        recorded = manifest()
        kept = {n: entry for n, entry in recorded["cases"].items() if n not in names}
        problems = [f"no golden case {n!r}" for n in names if n not in CASES]
        problems += [f"case {n!r} has no pins: name it"
                     for n in CASES if n not in names and n not in kept]
        if recorded["versions"] != versions():
            problems.append(f"golden.json was taken on {recorded['versions']}: "
                            "regenerate every case")
        if problems:
            sys.exit("; ".join(problems))
    with tempfile.TemporaryDirectory() as work:
        cases = {
            name: kept.get(name)
            or {c: pins(run_case(name, c, Path(work)), c) for c in case.commands}
            for name, case in CASES.items()
        }
    payload = {"versions": versions(), "cases": cases}
    MANIFEST.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:2] == ["--regenerate"]:
        regenerate(sys.argv[2:])
    elif len(sys.argv) == 4 and sys.argv[1] == "--diff":
        diff(*sys.argv[2:])
    else:
        sys.exit(__doc__)
