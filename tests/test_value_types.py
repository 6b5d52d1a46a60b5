"""The package's value types: their checks hold however they are built, and
their fields cannot be assigned."""

import math

import pytest

from nosignal import (
    GridSpec,
    SGConfig,
    SpinDensityMatrix,
    SpinState,
    branch_table,
    closed_form_rows,
    WavePacketPair,
    estimate_phase,
    grid_solve,
    make_spin_state,
    project_upper,
    sample,
    upper_overlaps,
)
from nosignal.cli import load_config
from conftest import pure_density

DEVICE = dict(mass=1.0, sigma0=1.0, moment=1.0, gradient=210.4, bias=0.0, transit=0.002)
GRID = dict(extent=64.0, points=256, dt=1e-3)


def test_spin_state_must_be_normalized():
    with pytest.raises(ValueError, match="not normalized"):
        SpinState(1, 1)


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("mass", 0.0, "mass and sigma0 must be positive"),
        ("transit", -1.0, "transit time must be non-negative"),
        ("moment", math.nan, "moment must be finite"),
    ],
)
def test_sg_config_checks(field, value, message):
    with pytest.raises(ValueError, match=message):
        SGConfig(**{**DEVICE, field: value})


@pytest.mark.parametrize("field", ["extent", "dt"])
def test_grid_spec_checks(field):
    with pytest.raises(ValueError, match=f"{field} must be positive"):
        GridSpec(**{**GRID, field: 0.0})


def test_density_matrix_stores_rows_of_complex():
    matrix = SpinDensityMatrix([[1, 0], [0, 0]]).matrix
    assert matrix == ((1 + 0j, 0j), (0j, 0j))
    assert type(matrix) is tuple and all(type(row) is tuple for row in matrix)
    assert all(type(x) is complex for row in matrix for x in row)


def _grid_result(sg, spin):
    """The reduced snapshot at t = 1, against a zero reference density."""
    return grid_solve(sg, spin, GridSpec(**GRID), [1.0], lambda t, which, z, out: out.fill(0.0))[0]


def _values() -> dict:
    """One value of each value type, by type name."""
    sg = SGConfig(**DEVICE)
    spin = make_spin_state(1.0, 1.0)
    pair = WavePacketPair(sg, spin, 0.0)
    record = sample(spin, math.pi / 2, 1000, seed=1)
    values = [
        spin,
        pure_density(spin),
        sg,
        GridSpec(**GRID),
        pair,
        project_upper(spin, upper_overlaps(sg, 0.0)),
        closed_form_rows(0.1, 0.5, (0.5,), 0.0, math.pi, "pure")[0],
        branch_table(sg, [math.pi / 2]),
        record,
        estimate_phase(record, 0.5),
        load_config(None),
        _grid_result(sg, spin),
    ]
    return {type(value).__name__: value for value in values}


@pytest.mark.parametrize(
    "name, field",
    [
        ("SpinState", "amp_up"),
        ("SpinDensityMatrix", "matrix"),
        ("SGConfig", "mass"),
        ("GridSpec", "points"),
        ("WavePacketPair", "time"),
        ("PostSelectedSpin", "phase"),
        ("ProtocolResult", "residual"),
        ("BranchTable", "Es"),
        ("MeasurementRecord", "n_plus"),
        ("PhaseEstimate", "phase"),
        # mutable dataclasses before they became NamedTuples
        ("RunConfig", "root_seed"),
        ("GridResult", "t"),
    ],
)
def test_fields_cannot_be_assigned(name, field):
    value = _values()[name]
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
