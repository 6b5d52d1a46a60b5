"""Batch driver for the verification workflows.

Usage:
    nosignal verify   --config cfg.json --out runs/
    nosignal sweep    --config cfg.json --out runs/
    nosignal estimate --config cfg.json --out runs/ --seed 123
    nosignal oracle   --config cfg.json --out runs/

Subcommands:
    verify    run the end-to-end pipeline over the omega x theta grid and
              check the signalling residual and the phase-sum constraint
              against the configured tolerances (exit 0 pass, 1 fail)
    sweep     tabulate the closed-form protocol probabilities per grid
              cell into sweep.csv
    estimate  run the two-beam bench procedure with finite samples and
              write estimates.jsonl including the violation bound
    oracle    cross-validate the analytic packet model against the grid
              solver, writing oracle.json

All data files are deterministic functions of (config, seed); timestamps
go to a separate run_meta.json so repeated runs are byte-identical.

Exit codes: 0 pass, 1 check failure, 2 config error, 3 numerical failure.
"""

from __future__ import annotations

import gc
import json
import math
import os
import sys
import time
from contextlib import suppress
from itertools import takewhile
from pathlib import Path
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence, Tuple

from . import __version__
from .errors import (
    BoundaryLeakError,
    ConfigError,
    NormDriftError,
    PhaseUndefinedError,
)
from .estimation import (
    derive_seed,
    estimate_error_fraction,
    estimate_phase,
    sample,
    violation_bound,
)
from .postselect import (
    constraint_residual,
    model_state,
    postselected_pure_state,
    shift_cosine,
)
from .protocol import (
    MODELS,
    BranchTable,
    ProtocolResult,
    branch_phase,
    branch_table,
    branch_totals,
    cell_records,
    closed_form_rows,
)
from .rng import INT64_MAX
from .spin import SpinDensityMatrix, wrap_to_pi
from .wavepacket import (
    SGConfig,
    WavePacketPair,
    asymptotic_error_fraction,
    component_density,
    phase_settle_time,
    upper_overlaps,
)

if TYPE_CHECKING:
    import argparse

    from .gridsolver import GridSpec

SCHEMA_VERSION = 1
EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

SWEEP_COLUMNS = ProtocolResult._fields  # sweep.csv's header

_NUMERICAL_ERRORS = (BoundaryLeakError, NormDriftError)
# acceptance criterion 4's bound on |C_grid| - |C_analytic|
_COHERENCE_TOL = 1e-3
# bound on the oracle's grid work: points x (ceil(transit / dt) magnet steps,
# at least 1, plus one inverse FFT per snapshot time)
_ORACLE_POINT_STEPS = 1e9

DEFAULTS = {
    "sg": {
        "mass": 1.0,
        "sigma0": 1.0,
        "moment": 1.0,
        "gradient": 210.4,
        "bias": 0.0,
        "transit": 0.002,
    },
    "omega_list": [math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4],
    "theta_list": [i * math.pi / 12 for i in range(13)],
    "model": "projected",
    "samples": 1_000_000,
    "root_seed": 20260808,
    "output_dir": "runs",
    "tolerances": {"residual": 1e-9, "phase_sum": 1e-9},
    "oracle": {
        "extent": 1024.0,
        "points": 16384,
        "dt": 2e-4,
        "times": [1, 3, 7, 12, 20, 30, 45, 70, 95, 120],
    },
}


class RunConfig(NamedTuple):
    sg: SGConfig
    omega_list: List[float]
    theta_list: List[float]
    model: str
    samples: int
    root_seed: int
    output_dir: str
    residual_tol: float
    phase_sum_tol: float
    oracle_grid: dict  # GridSpec's extent, points and dt
    oracle_times: List[float]


def _cut(text: str) -> str:
    """text cut at 80 characters, for a one-line error message."""
    return text if len(text) <= 80 else text[:77] + "..."


def _shown(value) -> str:
    """A config value for an error message: a JSON object or array by its
    type (one can nest as deep as json.loads goes), anything else by its
    repr, cut (an int can have 4300 digits)."""
    if isinstance(value, (dict, list)):
        return "a JSON object" if isinstance(value, dict) else "a JSON array"
    return _cut(repr(value))


def _reject_unknown(section: dict, allowed: Sequence[str], where: str) -> None:
    unknown = sorted(set(section) - set(allowed))
    if unknown:
        raise ConfigError(f"unknown key(s) {_cut(str(unknown))} in {where}")


def _section(raw: dict, name: str) -> dict:
    """DEFAULTS[name] updated with raw[name], which must be a JSON object of
    known keys."""
    section = raw.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"{name} must be a JSON object")
    section = {**DEFAULTS[name], **section}
    _reject_unknown(section, DEFAULTS[name].keys(), name)
    return section


def _number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{where} must be a number, got {_shown(value)}")
    # json.loads yields nan and inf (NaN, Infinity, 1e400) and unbounded ints
    if not abs(value) <= sys.float_info.max:
        raise ConfigError(f"{where} must be finite, got {_shown(value)}")
    return float(value)


def _positive(value, where: str) -> float:
    number = _number(value, where)
    if number <= 0:
        raise ConfigError(f"{where} must be positive, got {number!r}")
    return number


def _number_list(value, where: str) -> List[float]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{where} must be a non-empty list of numbers")
    return [_number(v, f"{where}[{i}]") for i, v in enumerate(value)]


def _check_flight(sg: SGConfig, t: float, when: str, *named_values) -> None:
    """Reject non-finite named values, then a non-finite tau at flight time t."""
    for name, value in (
        *named_values, (f"tau = t / spreading_time at {when}", t / sg.spreading_time)
    ):
        if not math.isfinite(value):
            raise ConfigError(f"sg: {name} is not finite")


def load_config(path: Optional[str]) -> RunConfig:
    """Parse and validate a JSON run configuration (defaults when path is None).

    Unknown keys are rejected rather than ignored so typos fail fast.
    """
    if path is None:
        raw = {}
    else:
        try:
            text = Path(path).read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}"
            ) from exc
        except RecursionError:
            raise ConfigError(f"{path}: JSON nested too deeply") from None
        except ValueError as exc:
            # an integer literal past int's digit limit (4300 by default):
            # "Exceeds the limit (4300 digits) for integer string conversion"
            raise ConfigError(f"{path}: {str(exc).partition(':')[0]}") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: top level must be a JSON object")
        version = raw.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ConfigError(
                f"{path}: schema_version must be {SCHEMA_VERSION}, "
                f"got {_shown(version)}"
            )

    _reject_unknown(raw, ["schema_version", *DEFAULTS], "top level")

    sg_raw = _section(raw, "sg")
    try:
        sg = SGConfig(**{k: _number(v, f"sg.{k}") for k, v in sg_raw.items()})
    except ValueError as exc:
        raise ConfigError(f"invalid sg section: {exc}") from exc
    # positive inputs whose product underflows to 0 or overflows
    spreading_time = sg.spreading_time
    if not 0.0 < spreading_time < math.inf:
        raise ConfigError(
            f"sg: spreading_time = 2 mass sigma0**2 = {spreading_time!r} "
            "is not finite and positive"
        )
    # finite inputs, overflowing products; the analytic path's one flight time
    flight = phase_settle_time(sg)
    _check_flight(
        sg, flight, "phase_settle_time",
        ("momentum_kick = moment * gradient * transit", sg.momentum_kick),
        ("larmor_phase = moment * bias * transit", sg.larmor_phase),
        ("phase_settle_time", flight),
    )

    tol_raw = _section(raw, "tolerances")

    oracle_raw = _section(raw, "oracle")
    # GridSpec's checks, made here so that only oracle imports the grid solver
    points = oracle_raw["points"]
    if (
        isinstance(points, bool)
        or not isinstance(points, int)
        or points < 2
        or points & (points - 1)
    ):
        raise ConfigError(
            f"oracle.points must be a power of two, got {_shown(points)}"
        )
    grid = {
        "extent": _positive(oracle_raw["extent"], "oracle.extent"),
        "points": points,
        "dt": _positive(oracle_raw["dt"], "oracle.dt"),
    }

    model = raw.get("model", DEFAULTS["model"])
    if model not in MODELS:
        raise ConfigError(f"model must be one of {MODELS}, got {_shown(model)}")
    samples = raw.get("samples", DEFAULTS["samples"])
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 0:
        raise ConfigError(
            f"samples must be a non-negative integer, got {_shown(samples)}"
        )
    if samples > INT64_MAX:
        # numpy's binomial takes an int64 count, and the stream reproduces it
        raise ConfigError(f"samples must be at most 2**63 - 1, got {_shown(samples)}")
    root_seed = raw.get("root_seed", DEFAULTS["root_seed"])
    if isinstance(root_seed, bool) or not isinstance(root_seed, int) or root_seed < 0:
        raise ConfigError(
            f"root_seed must be a non-negative integer, got {_shown(root_seed)}"
        )
    output_dir = raw.get("output_dir", DEFAULTS["output_dir"])
    if not isinstance(output_dir, str):
        raise ConfigError("output_dir must be a string")

    return RunConfig(
        sg=sg,
        omega_list=_number_list(
            raw.get("omega_list", DEFAULTS["omega_list"]), "omega_list"
        ),
        theta_list=_number_list(
            raw.get("theta_list", DEFAULTS["theta_list"]), "theta_list"
        ),
        model=model,
        samples=samples,
        root_seed=root_seed,
        output_dir=output_dir,
        residual_tol=_positive(tol_raw["residual"], "tolerances.residual"),
        phase_sum_tol=_positive(tol_raw["phase_sum"], "tolerances.phase_sum"),
        oracle_grid=grid,
        oracle_times=_number_list(oracle_raw["times"], "oracle.times"),
    )


# the values a record template writes; any other value takes the general path
_RECORD_TYPES = frozenset((float, str, type(None)))


# json's C encoder with the data files' options, for a key, a str or a
# flat line; json.dumps's own separators
_encode = json.JSONEncoder(sort_keys=True, allow_nan=False).encode


class _FieldText(dict):
    """The text of each value of report.json's records (for_json) or of
    sweep.csv's fields: None as null or "", a str JSON-encoded or as itself,
    a number as repr(float(v)); in JSON a non-finite float is a ValueError,
    as under allow_nan=False.  Each distinct value is formatted once.  A
    zero is never a key, since 0.0 == -0.0 as keys: zeros keep their texts
    by sign in ``zeros``."""

    def __init__(self, for_json: bool) -> None:
        super().__init__({None: "null" if for_json else ""})
        self.for_json = for_json
        self.zeros = {}

    def _number(self, value) -> str:
        if not self.for_json:
            return repr(float(value))
        if math.isfinite(value):
            return float.__repr__(value)
        raise ValueError(f"float {value!r} is not JSON compliant")

    def __missing__(self, value) -> str:
        if type(value) is str:
            text = self[value] = _encode(value) if self.for_json else value
        elif value:  # NaN too
            text = self[value] = self._number(value)
        else:
            sign = math.copysign(1.0, value)
            text = self.zeros.get(sign)
            if text is None:
                text = self.zeros[sign] = self._number(value)
        return text


def _records_text(records: list) -> Optional[str]:
    """The items of a top-level value's JSON array of records, written from
    one record template, or None unless every record is a dict with the first's
    non-empty set of str keys and every value a float, a str or None.

    The template holds each encoded key once, in sorted order; a
    _FieldText memo fills it, so each distinct value is formatted once.
    The type gate keeps 1, 1.0 and True, which are equal as dict keys, from
    sharing a text.
    """
    first = records[0]
    if type(first) is not dict or not first or not all(type(k) is str for k in first):
        return None
    keys = first.keys()
    if not all(type(item) is dict and item.keys() == keys for item in records):
        return None
    order = sorted(keys)
    values = [v for item in records for v in map(item.__getitem__, order)]
    if not _RECORD_TYPES.issuperset(map(type, values)):
        return None
    fields = ",\n      ".join(f"{_encode(k).replace('%', '%%')}: %s" for k in order)
    text = ",\n    ".join([f"{{\n      {fields}\n    }}"] * len(records))
    return text % tuple(map(_FieldText(for_json=True).__getitem__, values))


def _json_text(payload: dict) -> str:
    """json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) of a
    non-empty dict with str keys, as the workflows write, byte for byte.

    A value that is a non-empty list of records (report.json's cells) is
    written by _records_text where it can be.  Every other value is
    json.dumps's, indented two spaces deeper: each newline in that text is
    indentation, since an encoded string holds no raw newline.
    """
    parts = []  # joined once: report.json's cells are copied only by the join
    for key, value in sorted(payload.items()):
        parts += (",\n  ", _encode(key), ": ")
        text = _records_text(value) if type(value) is list and value else None
        if text is None:
            text = json.dumps(value, indent=2, sort_keys=True, allow_nan=False)
            parts.append(text.replace("\n", "\n  "))
        else:
            parts += ("[\n    ", text, "\n  ]")
    parts[0] = "{\n  "  # the first separator opens the object
    parts.append("\n}")
    return "".join(parts)


def _write_json(path: Path, payload) -> None:
    path.write_text(_json_text(payload) + "\n", encoding="utf-8")


def _write_jsonl(path: Path, lines: List[dict]) -> None:
    path.write_text("".join(_encode(line) + "\n" for line in lines), encoding="utf-8")


class RunRecord(NamedTuple):
    """One workflow run as main acts on it: the data file's name, its payload
    and writer, the stdout summary line, stderr warnings and the verdict."""

    data_file: str
    payload: object
    write: Callable[..., None]
    summary: str
    warnings: Tuple[str, ...] = ()
    passed: bool = True


def _rotated(
    cfg: RunConfig, inject: float
) -> Tuple[BranchTable, List[tuple], Tuple[str, ...]]:
    """The run's branch table, (omega, branches, phi_plus, phi_minus) per
    omega, and a warning when a nonzero inject finds no phase to move.

    A nonzero inject moves the minus branch's spin through shift_cosine
    wherever both branches carry a phase.
    """
    table = branch_table(cfg.sg, cfg.omega_list)
    rotated = []
    phased = False
    for omega, branches in table.rotated:
        phi_plus, phi_minus = branch_phase(branches[+1]), branch_phase(branches[-1])
        if phi_plus is not None and phi_minus is not None:
            phased = True
            if inject != 0.0:
                prob, post = branches[-1]
                post = shift_cosine(post, inject)
                branches, phi_minus = {**branches, -1: (prob, post)}, post.phase
        rotated.append((omega, branches, phi_plus, phi_minus))
    if inject != 0.0 and not phased:
        return table, rotated, (
            f"--inject-violation {inject!r} not applied: no omega carries a phase",
        )
    return table, rotated, ()


def workflow_verify(cfg: RunConfig, inject: float = 0.0) -> RunRecord:
    """Pipeline the full grid; gate residuals and phase sums on tolerances."""
    cells = []
    max_residual = 0.0
    max_phase_sum = 0.0
    max_cos_sum = 0.0
    checked = 0
    table, rotated, unapplied = _rotated(cfg, inject)
    warnings: List[str] = []
    # the aligned setting's totals depend on theta only
    aligned = branch_totals(table.aligned, cfg.theta_list, cfg.model)
    for omega, branches, phi_plus, phi_minus in rotated:
        if phi_plus is not None and phi_minus is not None:
            # the nearer branch of phi_+ +- phi_- = pi; the two branches
            # together are exactly cos(phi_+) + cos(phi_-) = 0
            phase_sum_dev = min(
                abs(wrap_to_pi(phi_plus + sign * phi_minus - math.pi))
                for sign in (1, -1)
            )
            cos_sum = constraint_residual(phi_plus, phi_minus)
            checked += len(cfg.theta_list)
            max_phase_sum = max(max_phase_sum, phase_sum_dev)
            max_cos_sum = max(max_cos_sum, abs(cos_sum))
        else:
            phase_sum_dev = cos_sum = None
            warnings.append(
                f"omega={omega:.6g}: phases unidentifiable on degenerate "
                "branches (no coherence); phase checks skipped"
            )
        records = cell_records(
            table, (omega, branches), cfg.theta_list, cfg.model, aligned,
            phase_sum_dev=phase_sum_dev, cos_sum=cos_sum,
        )
        cells += records
        for cell in records:
            max_residual = max(max_residual, abs(cell["residual"]))
    if cfg.sg.gradient == 0.0:
        warnings.append("zero field gradient: device never splits the packet")
    warnings += unapplied
    passed = max_residual <= cfg.residual_tol and (
        not checked
        or (max_phase_sum <= cfg.phase_sum_tol and max_cos_sum <= cfg.phase_sum_tol)
    )
    phases = f"phase-checked cells: {checked}/{len(cells)}"
    if checked:
        phases = f"max phase-sum deviation = {max_phase_sum:.3e}, {phases}"
    else:
        phases += " (phase checks skipped: no branch carries a phase)"
    report = {
        "schema_version": SCHEMA_VERSION,
        "model": cfg.model,
        "sg": cfg.sg._asdict(),
        "injected_violation": inject,
        "tolerances": {
            "residual": cfg.residual_tol,
            "phase_sum": cfg.phase_sum_tol,
        },
        "cells": cells,
        "max_abs_residual": max_residual,
        "max_phase_sum_dev": max_phase_sum if checked else None,
        "max_abs_cos_sum": max_cos_sum if checked else None,
        "warnings": warnings,
        "passed": passed,
    }
    status = "PASS" if passed else "FAIL"
    summary = f"{status}: max |residual| = {max_residual:.3e}, {phases}"
    return RunRecord("report.json", report, _write_json, summary, unapplied, passed)


def workflow_sweep(cfg: RunConfig) -> RunRecord:
    """Closed-form protocol table, one row per (omega, theta).

    Es and the phases come from the run's branch table (they do not depend
    on theta); closed_form_rows then evaluates one omega's thetas at a time.
    """
    table, rotated, _ = _rotated(cfg, 0.0)
    rows = [
        row
        for omega, _, phi_plus, phi_minus in rotated
        for row in closed_form_rows(
            table.Es, omega, cfg.theta_list, phi_plus, phi_minus, cfg.model
        )
    ]
    path = Path(cfg.output_dir) / "sweep.csv"
    return RunRecord(
        path.name, rows, write_sweep_csv, f"wrote {len(rows)} rows to {path}"
    )


def write_sweep_csv(path: Path, rows: Sequence[Sequence]) -> None:
    """One line per row, its fields in SWEEP_COLUMNS order."""
    text = _FieldText(for_json=False).__getitem__
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(SWEEP_COLUMNS) + "\n")
        fh.writelines(",".join(map(text, row)) + "\n" for row in rows)


def workflow_estimate(cfg: RunConfig, inject: float = 0.0) -> RunRecord:
    """Two-beam bench run per omega on the branch table's spins.

    The record's payload is the JSON lines.  Each omega ends in one "bound"
    line, or in one "degenerate" line when its phases cannot be identified.
    """
    if cfg.samples < 1000:
        raise ConfigError("estimate needs samples >= 1000")
    lines: List[dict] = []
    _, rotated, unapplied = _rotated(cfg, inject)
    for i_omega, (omega, branches, phi_plus, phi_minus) in enumerate(rotated):
        try:
            if phi_plus is None or phi_minus is None:
                if abs(math.sin(omega)) < 1e-12:
                    raise PhaseUndefinedError(
                        "beam polarization aligned with the device axis; "
                        "post-selected state carries no phase"
                    )
                raise PhaseUndefinedError("post-selected state carries no coherence")
            lines += _bench_lines(cfg, i_omega, omega, branches, inject)
        except PhaseUndefinedError as exc:
            lines.append({"kind": "degenerate", "omega": omega, "reason": str(exc)})
    bounds = [line["consistent_with_zero"] for line in lines if line["kind"] == "bound"]
    summary = f"{sum(bounds)}/{len(bounds)} bounds consistent with zero"
    return RunRecord("estimates.jsonl", lines, _write_jsonl, summary, unapplied)


def _bench_lines(
    cfg: RunConfig, i_omega: int, omega: float, branches: dict, inject: float
) -> List[dict]:
    """Records, estimates and the violation bound of one omega's two beams,
    whose post-selected spins both carry a phase.

    Raises PhaseUndefinedError when a beam's sigma_z sample has no counts of
    one sign.
    """
    lines: List[dict] = []
    estimates = {}
    for beam_idx, polarization in enumerate((+1, -1)):
        post = branches[polarization][1]
        state = model_state(post, cfg.model)
        if isinstance(state, SpinDensityMatrix):
            denom = math.sqrt(max(state.up_up.real * state.down_down.real, 1e-300))
            measurable_cos = state.up_down.real / denom
        else:
            measurable_cos = math.cos(post.phase)
        beam_name = "plus" if polarization == +1 else "minus"
        records = {}
        for axis_idx, (axis_name, axis) in enumerate(
            (("z", 0.0), ("x", math.pi / 2))
        ):
            seed = derive_seed(cfg.root_seed, i_omega, beam_idx, axis_idx)
            rec = sample(
                state,
                axis,
                cfg.samples,
                seed,
                true_state_id=f"omega[{i_omega}]/{beam_name}/{axis_name}",
            )
            records[axis_name] = rec
            line = {"kind": "record", "omega": omega, "beam": beam_name}
            line.update(rec._asdict())
            lines.append(line)
        ef_hat, ef_ci = estimate_error_fraction(records["z"])
        est = estimate_phase(records["x"], ef_hat, ef_ci)
        estimates[polarization] = est
        line = {
            "kind": "estimate",
            "omega": omega,
            "beam": beam_name,
            "truth": {
                "error_fraction": post.error_fraction,
                "phase_on_0_pi": math.acos(min(max(measurable_cos, -1.0), 1.0)),
            },
        }
        line.update(est._asdict())
        lines.append(line)
    point, ci = violation_bound(estimates[+1], estimates[-1])
    lines.append(
        {
            "kind": "bound",
            "omega": omega,
            "point": point,
            "ci": list(ci),
            "consistent_with_zero": ci[0] <= 0.0 <= ci[1],
            "injected": inject,
        }
    )
    return lines


def _grid_resolution(sg: SGConfig, grid: GridSpec) -> Tuple[float, float]:
    """Riemann-sum factor of the grid's half-plane coherence, and enough points.

    The channels leave the magnet with relative wavenumber
    k = 2 moment gradient transit, and the grid's upper-half sum of their
    overlap is (k dx/2) cot(k dx/2) times the integral.  Returns that factor
    and the smallest power-of-two multiple of the grid's point count for
    which k dx/2 < pi/2 and the factor is within _COHERENCE_TOL of 1.  The
    count is a float: inf when no finite float count is enough, and a kick
    that overflows gives (nan, inf).
    """
    half_k_extent = abs(sg.moment * sg.gradient * sg.transit) * grid.extent
    if not math.isfinite(half_k_extent):
        return math.nan, math.inf

    def factor(points: float) -> float:
        x = half_k_extent / points  # k dx / 2
        return x / math.tan(x) if x else 1.0

    def resolved(points: float) -> bool:
        return (
            half_k_extent / points < math.pi / 2
            and abs(factor(points) - 1.0) <= _COHERENCE_TOL
        )

    return factor(grid.points), _enough_points(grid.points, resolved)


def _enough_points(points: int, resolved: Callable[[float], bool]) -> float:
    """The smallest power-of-two multiple of points that resolved accepts,
    as a float: inf when no finite float count is enough."""
    count = float(points)
    while math.isfinite(count) and not resolved(count):
        count *= 2
    return count


def _points_needed(points: float) -> str:
    if math.isfinite(points):
        return f"oracle.points >= {points:.0f}"
    return "no finite oracle.points"


def workflow_oracle(cfg: RunConfig) -> RunRecord:
    """Analytic model vs grid solver on the configured device."""
    from .gridsolver import GridSpec, grid_solve

    grid = GridSpec(**cfg.oracle_grid)
    times = sorted(cfg.oracle_times)
    steps = cfg.sg.transit / grid.dt
    if (
        steps > _ORACLE_POINT_STEPS  # also an inf, which math.ceil rejects
        or (max(1, math.ceil(steps)) + len(times)) * grid.points
        > _ORACLE_POINT_STEPS
    ):
        raise ConfigError(
            f"oracle: max(1, sg.transit / oracle.dt = {steps:.3g}) magnet steps "
            f"plus {len(times)} snapshot times on {grid.points} points exceed "
            f"the work bound {_ORACLE_POINT_STEPS:g} point-steps"
        )
    if times[0] < 0:
        raise ConfigError(f"oracle.times must be non-negative, got {times[0]:g}")
    for t in times:
        _check_flight(cfg.sg, t, f"oracle time {t:g}")
    dx = grid.extent / grid.points
    packet_note = None
    if dx > cfg.sg.sigma0:
        points = _enough_points(grid.points, lambda p: grid.extent / p <= cfg.sg.sigma0)
        packet_note = (
            f"the grid under-resolves the packet: dx = extent / points = "
            f"{dx:.3g} exceeds sigma0 = {cfg.sg.sigma0:.3g}; "
            f"{_points_needed(points)} keeps dx <= sigma0"
        )
    # the oracle calls no BLAS routine, and an idle OpenBLAS thread pool
    # competes with the solver's two threads; a user's setting is kept
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    import numpy as np
    beam = postselected_pure_state(0.5, 0.0)  # x-polarized input
    saturation = {"tol": 1e-4, "value": asymptotic_error_fraction(cfg.sg)}

    # a center past the half-extent has wrapped round the periodic grid,
    # which no edge check sees; the center and the width grow with t, so
    # with the center inside at the last time its edge check sees any reach
    half = grid.extent / 2
    for t in times:
        center = WavePacketPair(cfg.sg, beam, t).center("plus")
        if abs(center) >= half:
            raise BoundaryLeakError(
                f"packet center {center:.4g} at t = {t:g} is beyond the grid's "
                f"half-extent {half:g} and wraps round the periodic grid; "
                "increase the grid extent"
            )

    def compare(t: float, snapshot) -> dict:
        _, e_analytic, c_analytic = upper_overlaps(cfg.sg, t)
        e_grid = snapshot.error_fraction
        c_grid = snapshot.coherence
        mod_diff = abs(abs(c_grid) - abs(c_analytic))
        phase_diff = abs(wrap_to_pi(np.angle(c_grid) - np.angle(c_analytic)))
        return {
            "t": t,
            "E_analytic": e_analytic,
            "E_grid": e_grid,
            "abs_E_diff": abs(e_grid - e_analytic),
            "l1_density_diff": snapshot.density_l1,
            "coherence_analytic": [c_analytic.real, c_analytic.imag],
            "coherence_grid": [c_grid.real, c_grid.imag],
            "coherence_mod_diff": mod_diff,
            "coherence_phase_diff": phase_diff,
        }

    try:
        # one time after another, each reduced before the next
        snapshots = grid_solve(
            cfg.sg,
            beam,
            grid,
            times,
            lambda t, which, z, out: component_density(
                WavePacketPair(cfg.sg, beam, t), z, which, out=out
            ),
        )
    except BoundaryLeakError as exc:
        # more extent makes an under-resolving dx worse: name the points then
        raise BoundaryLeakError(
            f"{exc}; {packet_note or 'increase the grid extent'}"
        ) from None
    comparisons = [compare(t, snapshot) for t, snapshot in zip(times, snapshots)]

    # max folds left to right, so each maximum is max(max(0.0, x0), x1) ...
    keys = "abs_E_diff", "coherence_mod_diff", "coherence_phase_diff", "l1_density_diff"
    maxima = {f"max_{k}": max([0.0] + [c[k] for c in comparisons]) for k in keys}

    impulsive_ratio = cfg.sg.transit / cfg.sg.spreading_time
    notes = []
    if impulsive_ratio > 0.01:
        notes.append(
            f"transit/spreading_time = {impulsive_ratio:.3g} is outside the "
            "impulsive regime; the analytic model is expected to disagree "
            "and the differences below are reported as measured"
        )
    gap = abs(comparisons[-1]["E_analytic"] - saturation["value"])
    if gap > saturation["tol"]:
        notes.append(
            f"largest sampled time {times[-1]:g} is before saturation: "
            f"E_analytic there is {gap:.3g} from the saturated value, "
            f"beyond tol = {saturation['tol']:g}"
        )
    factor, points = _grid_resolution(cfg.sg, grid)
    if points != grid.points:
        notes.append(
            f"the grid under-resolves the kick: the half-plane sum scales the "
            f"coherence by (k dx/2) cot(k dx/2) = {factor:.3g} for the relative "
            f"wavenumber k = 2 moment gradient transit; {_points_needed(points)} "
            f"keeps it within {_COHERENCE_TOL:g} of 1"
        )
    if packet_note:
        notes.append(packet_note)
    report = {
        "schema_version": SCHEMA_VERSION,
        "sg": cfg.sg._asdict(),
        "grid": cfg.oracle_grid,
        "impulsive_ratio": impulsive_ratio,
        "saturation": saturation,
        "comparisons": comparisons,
        **maxima,
        "notes": notes,
    }
    summary = (
        f"max |E difference| = {maxima['max_abs_E_diff']:.3e}, "
        f"max coherence phase difference = {maxima['max_coherence_phase_diff']:.3e}"
    )
    return RunRecord("oracle.json", report, _write_json, summary)


# each subcommand's flags and the types their values are converted with
_FLAG_TYPES = {"--config": str, "--out": str, "--seed": int}
_COMMAND_FLAGS = {
    "verify": {**_FLAG_TYPES, "--inject-violation": float},
    "sweep": _FLAG_TYPES,
    "estimate": {**_FLAG_TYPES, "--inject-violation": float},
    "oracle": _FLAG_TYPES,
}


def _canonical_args(argv: Sequence[str]) -> Optional[SimpleNamespace]:
    """_build_parser().parse_args(argv)'s namespace, or None unless argv is a
    subcommand and then --flag value pairs: each flag spelled in full and
    valid for the subcommand, no value starting with "-", and each value
    accepted by its flag's type.  The last repeat of a flag wins.

    Every other argv (help, abbreviations, --flag=value, unknown flags, a
    rejected value, no subcommand) is left to argparse, which is not even
    imported for the canonical argv.
    """
    types = _COMMAND_FLAGS.get(argv[0]) if argv else None
    if types is None or len(argv) % 2 == 0:
        return None
    args = {"config": None, "out": None, "seed": None}
    if "--inject-violation" in types:
        args["inject_violation"] = 0.0
    for flag, value in zip(argv[1::2], argv[2::2]):
        if flag not in types or value.startswith("-"):
            return None
        try:
            args[flag[2:].replace("-", "_")] = types[flag](value)
        except ValueError:
            return None
    return SimpleNamespace(command=argv[0], **args)


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    def typed(convert: Callable[[str], object]) -> Callable[[str], object]:
        """convert, rejecting a value in argparse's words with the value cut
        by _cut: argparse would quote all of it (5000 digits, say)."""

        def parse(value: str):
            try:
                return convert(value)
            except ValueError:
                raise argparse.ArgumentTypeError(
                    f"invalid {convert.__name__} value: {_cut(repr(value))}"
                ) from None

        return parse

    parser = argparse.ArgumentParser(
        prog="nosignal",
        description="non-ideal Stern-Gerlach post-selection verification suite",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("verify", "check the no-signalling residual and phase constraint"),
        ("sweep", "tabulate protocol probabilities over the angle grid"),
        ("estimate", "finite-sample phase estimation and violation bound"),
        ("oracle", "compare the analytic model against the grid solver"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON run configuration")
        p.add_argument("--out", help="output directory (overrides config)")
        p.add_argument(
            "--seed", type=typed(int), help="root seed override (a non-negative integer)"
        )
        if name in ("verify", "estimate"):
            p.add_argument(
                "--inject-violation",
                type=typed(float),
                default=0.0,
                metavar="X",
                help="negative control: move the minus branch's phase to "
                "acos(cos phi_- + X); estimate's bound moves by V X under "
                "model projected (V = visibility)",
            )
    return parser


def _utc_timestamp() -> str:
    """Now as datetime.now(timezone.utc).isoformat() writes it, but always
    with six fractional digits; datetime is not imported for it."""
    seconds, micros = divmod(time.time_ns() // 1000, 1_000_000)
    clock = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(seconds))
    return f"{clock}.{micros:06d}+00:00"


def _unwritable(out_dir: Path, exc: OSError) -> int:
    print(f"config error: cannot write output to {out_dir}: {exc}", file=sys.stderr)
    return EXIT_CONFIG


def _failed(message: str, created: List[Path], code: int) -> int:
    """Report a failed workflow and remove the directories the run created."""
    print(message, file=sys.stderr)
    with suppress(OSError):  # a directory that something else wrote into stays
        for directory in created:  # deepest first
            directory.rmdir()
    return code


def _parse_args(
    argv: Optional[Sequence[str]],
) -> SimpleNamespace | argparse.Namespace:
    """argparse's namespace for argv (sys.argv[1:] when None), taken without
    argparse when _canonical_args accepts argv."""
    if argv is None:
        argv = sys.argv[1:]
    return _canonical_args(argv) or _build_parser().parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            if args.seed < 0:
                raise ConfigError("--seed must be non-negative")
            cfg = cfg._replace(root_seed=args.seed)
        inject = getattr(args, "inject_violation", 0.0)
        if not math.isfinite(inject):
            raise ConfigError(f"--inject-violation must be finite, got {inject!r}")
        if args.out is not None:
            cfg = cfg._replace(output_dir=args.out)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    out_dir = Path(cfg.output_dir)
    try:  # the directories that this run creates, deepest first
        created = list(takewhile(lambda d: not d.exists(), (out_dir, *out_dir.parents)))
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        return _unwritable(out_dir, exc)

    try:
        if args.command == "verify":
            record = workflow_verify(cfg, inject)
        elif args.command == "sweep":
            record = workflow_sweep(cfg)
        elif args.command == "estimate":
            record = workflow_estimate(cfg, inject)
        else:
            record = workflow_oracle(cfg)
    except ConfigError as exc:
        return _failed(f"config error: {exc}", created, EXIT_CONFIG)
    except _NUMERICAL_ERRORS as exc:
        return _failed(f"numerical failure: {exc}", created, EXIT_NUMERICAL)
    except MemoryError as exc:  # numpy's names the size it could not allocate
        return _failed(f"config error: out of memory: {exc}", created, EXIT_CONFIG)
    # timestamps and versions live here, away from the deterministic data files
    meta = {
        "command": args.command,
        "config": args.config,
        "nosignal": __version__,
        "python": "%d.%d.%d" % sys.version_info[:3],
        "timestamp_utc": _utc_timestamp(),
    }
    if args.command == "oracle":  # the one workflow that imports numpy
        meta["numpy"] = sys.modules["numpy"].__version__
    try:
        record.write(out_dir / record.data_file, record.payload)
        _write_json(out_dir / "run_meta.json", meta)
    except OSError as exc:
        return _unwritable(out_dir, exc)
    for warning in record.warnings:
        print(f"warning: {warning}", file=sys.stderr)
    print(record.summary)
    return EXIT_OK if record.passed else EXIT_CHECK_FAILED


def run() -> int:
    """The process entry point: main's exit code, with the collector frozen.

    gc.freeze() moves every object alive after main() to the permanent
    generation, so the interpreter's exit-time collections skip them.  Every
    data file is written and closed inside main(), and the interpreter still
    flushes stdout and stderr and runs atexit handlers afterwards.  main()
    itself leaves GC state alone: tests and the in-process tracer call it
    many times in one process.
    """
    code = main()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
