import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nosignal.protocol
from nosignal import (
    asymptotic_error_fraction,
    born_probability,
    branch_table,
    cell_records,
    closed_form_rows,
    phase_settle_time,
    postselected_pure_state,
    upper_overlaps,
)
from nosignal.cli import EXIT_OK, load_config, main
from nosignal.protocol import MODELS, ProtocolResult, branch_totals
from nosignal.spin import sigma_eigenstate, wrap_to_pi
from conftest import device_for_error_fraction, run_pipeline

DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def closed_form(es, omega, theta, phi_plus, phi_minus):
    return closed_form_rows(es, omega, (theta,), phi_plus, phi_minus, "pure")[0]


def single_branch(es, theta, phi):
    """+1 probability of one post-selected pure branch: an x-setting Alice
    branch total without its weight 1/2 (branch) x 1/2 (survival)."""
    return 4.0 * closed_form(es, math.pi / 2, theta, phi, phi).pA_plus


def aligned_total(es, theta):
    return closed_form(es, 0.0, theta, None, None).PB_total


class TestOutcomeProbability:
    def test_aligned_measurement(self):
        # theta = 0 leaves 1 - E regardless of the phase
        for es in (0.0, 0.2, 0.5):
            for phi in (0.0, 1.0, 3.0):
                assert single_branch(es, 0.0, phi) == pytest.approx(
                    1 - es, abs=1e-15
                )

    def test_ideal_limit_matches_projection(self):
        for theta in (0.0, 0.9, math.pi / 2, 2.7):
            assert single_branch(0.0, theta, 0.3) == pytest.approx(
                0.5 * (1 + math.cos(theta)), abs=1e-15
            )

    def test_worked_example(self):
        # E = 0.1, theta = pi/2, phi = 0: 1/2 (1 + 2 sqrt(0.09)) = 0.8
        assert single_branch(0.1, math.pi / 2, 0.0) == pytest.approx(
            0.8, abs=1e-12
        )

    @pytest.mark.parametrize("es", [0.05, 0.3, 0.5, 0.77])
    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.8])
    @pytest.mark.parametrize("phi", [0.0, 0.9, 2.2, 4.4])
    def test_equals_born_rule_on_pure_state(self, es, theta, phi):
        # independent route: Born rule on the explicitly built state
        state = postselected_pure_state(es, phi)
        assert single_branch(es, theta, phi) == pytest.approx(
            born_probability(state, theta, +1), abs=1e-12
        )

    def test_rejects_bad_error_fraction(self):
        with pytest.raises(ValueError):
            closed_form(1.2, math.pi / 2, 0.0, 0.0, 0.0)


class TestBranchAndTotals:
    def test_branch_ideal_aligned(self):
        result = closed_form(0.0, math.pi / 2, 0.0, 0.0, 0.0)
        assert result.pA_plus == pytest.approx(0.25, abs=1e-15)

    def test_branch_is_quarter_of_single(self):
        for es, theta, phi in [(0.1, 0.7, 0.2), (0.4, 2.0, 1.9)]:
            single = 0.5 * (
                1
                + (1 - 2 * es) * math.cos(theta)
                + 2 * math.sqrt(es * (1 - es)) * math.sin(theta) * math.cos(phi)
            )
            result = closed_form(es, math.pi / 2, theta, phi, phi)
            assert result.pA_plus == pytest.approx(0.25 * single, abs=1e-15)

    def test_x_setting_total_worked_example(self):
        result = closed_form(0.2, math.pi / 2, math.pi / 3, 0.0, 0.0)
        assert result.PA_total == pytest.approx(0.4982050807568877, abs=1e-12)

    def test_x_setting_total_with_quadrature_phases(self):
        result = closed_form(0.2, math.pi / 2, math.pi / 2, math.pi / 2, math.pi / 2)
        assert result.PA_total == pytest.approx(0.25, abs=1e-12)

    def test_aligned_total_worked_example(self):
        assert aligned_total(0.3, math.pi / 3) == pytest.approx(0.3, abs=1e-12)

    def test_aligned_total_at_right_angle(self):
        for es in (0.0, 0.2, 0.45):
            assert aligned_total(es, math.pi / 2) == pytest.approx(0.25, abs=1e-12)

    def test_aligned_branches(self):
        result = closed_form(0.0, 0.0, 0.0, None, None)
        assert result.PB_plus == pytest.approx(0.5, abs=1e-15)
        assert result.PB_minus == 0.0
        result = closed_form(0.3, 0.0, math.pi / 3, None, None)
        assert result.PB_plus == pytest.approx(0.25 * 1.5 * 0.7, abs=1e-14)
        assert result.PB_minus == pytest.approx(0.25 * 0.5 * 0.3, abs=1e-14)

    def test_branch_sum_matches_rotated_total_at_x(self):
        # sum of the two 1/8-form branches reproduces the x-setting total
        rng = np.random.default_rng(7)
        for _ in range(200):
            es, theta, p1, p2 = rng.uniform(0, 1), rng.uniform(0, math.pi), *rng.uniform(
                0, 2 * math.pi, 2
            )
            result = closed_form(es, math.pi / 2, theta, p1, p2)
            x_form = 0.25 * (
                1
                + (1 - 2 * es) * math.cos(theta)
                + math.sqrt(es * (1 - es))
                * math.sin(theta)
                * (math.cos(p1) + math.cos(p2))
            )
            assert abs(result.pA_plus + result.pA_minus - x_form) < 1e-14

    def test_rotated_total_reduces_to_x_form_on_random_grid(self):
        # at omega = pi/2 the general total collapses to the x-setting
        # closed form, entrywise over 10^4 random parameter points
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            es = rng.uniform(0, 1)
            theta = rng.uniform(0, math.pi)
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            result = closed_form(es, math.pi / 2, theta, p1, p2)
            x_form = 0.25 * (
                1
                + (1 - 2 * es) * math.cos(theta)
                + math.sqrt(es * (1 - es))
                * math.sin(theta)
                * (math.cos(p1) + math.cos(p2))
            )
            assert abs(result.PA_total - x_form) < 1e-14


class TestResidual:
    def test_reduces_to_x_setting_form(self):
        # at omega = pi/2 the residual equals the bare coherence difference
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            es = rng.uniform(0, 1)
            theta = rng.uniform(0, math.pi)
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            result = closed_form(es, math.pi / 2, theta, p1, p2)
            expected = (
                0.25
                * math.sqrt(es * (1 - es))
                * math.sin(theta)
                * (math.cos(p1) + math.cos(p2))
            )
            assert abs(result.residual - expected) < 1e-14

    def test_worked_example(self):
        result = closed_form(0.25, math.pi / 2, math.pi / 2, 0.0, 0.0)
        assert result.residual == pytest.approx(0.21650635094610965, abs=1e-12)

    def test_ideal_device_never_signals(self):
        for phi in (0.0, 0.5, 2.0, 5.0):
            assert closed_form(0.0, 1.1, 2.0, phi, phi).residual == 0.0

    def test_aligned_final_measurement_never_signals(self):
        assert closed_form(0.3, 1.1, 0.0, 0.7, 0.7).residual == 0.0

    def test_sign_flips_when_cosines_negate(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            es, theta, omega = rng.uniform(0.05, 0.95), rng.uniform(0.1, 3.0), 1.3
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            plus = closed_form(es, omega, theta, p1, p2).residual
            minus = closed_form(es, omega, theta, math.pi - p1, math.pi - p2).residual
            assert abs(plus + minus) < 1e-12

    def test_totals_bounded_by_half(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            result = closed_form(
                es=rng.uniform(0, 1),
                omega=rng.uniform(0, math.pi),
                theta=rng.uniform(0, math.pi),
                phi_plus=rng.uniform(0, 2 * math.pi),
                phi_minus=rng.uniform(0, 2 * math.pi),
            )
            assert 0.0 <= result.PA_total <= 0.5
            assert 0.0 <= result.PB_total <= 0.5


class TestPipeline:
    def test_ideal_regime(self, x_state):
        config = device_for_error_fraction(1e-7)
        result = run_pipeline(config, math.pi / 2, 1.1)
        assert result.Es < 1e-6
        assert abs(result.residual) < 1e-8

    def test_same_setting_gives_identical_cases(self, device):
        result = run_pipeline(device, 0.0, 0.9)
        assert result.residual == pytest.approx(0.0, abs=1e-12)
        assert result.phi_plus is None and result.phi_minus is None
        assert result.pA_plus == pytest.approx(result.PB_plus, abs=1e-12)

    @pytest.mark.parametrize("model", ["projected", "pure"])
    def test_generic_device_satisfies_no_signalling(self, device, model):
        phase_dev = []
        for theta in np.linspace(0.0, math.pi, 25):
            result = run_pipeline(device, math.pi / 2, theta, model=model)
            assert abs(result.residual) < 1e-9
            phase_dev.append(
                abs(wrap_to_pi(result.phi_plus + result.phi_minus - math.pi))
            )
        assert max(phase_dev) < 1e-9

    def test_branch_totals_sum(self, device):
        result = run_pipeline(device, math.pi / 4, 0.8)
        assert result.PA_total == pytest.approx(
            result.pA_plus + result.pA_minus, abs=1e-15
        )
        assert result.PB_total == pytest.approx(
            result.PB_plus + result.PB_minus, abs=1e-15
        )

    def test_pipeline_matches_closed_form_totals(self, device):
        # the closed forms with the extracted phases reproduce the pipeline
        result = run_pipeline(device, math.pi / 3, 1.2, model="pure")
        closed = closed_form(
            result.Es, math.pi / 3, 1.2, result.phi_plus, result.phi_minus
        )
        assert result.PA_total == pytest.approx(closed.PA_total, abs=1e-12)
        assert result.PB_total == pytest.approx(closed.PB_total, abs=1e-12)

    def test_aligned_total_matches_closed_form_in_projected_model(self, device):
        result = run_pipeline(device, 2.0, 0.6, model="projected")
        assert result.PB_total == pytest.approx(
            aligned_total(result.Es, 0.6), abs=1e-12
        )
        assert asymptotic_error_fraction(device) == pytest.approx(
            result.Es, abs=1e-12
        )

    def test_rejects_unknown_model(self, device):
        with pytest.raises(ValueError):
            run_pipeline(device, 1.0, 1.0, model="exact")


class TestBranchTable:
    def test_one_overlap_triple_serves_every_branch(self, monkeypatch):
        # the device's (I+, I-, C) is taken once per table, at
        # phase_settle_time, and Es is its I-: no beam of its own
        calls = []

        def counted(config, t):
            calls.append((config, t))
            return upper_overlaps(config, t)

        monkeypatch.setattr(nosignal.protocol, "upper_overlaps", counted)
        cfg = load_config(str(DEFAULT_CONFIG))
        table = branch_table(cfg.sg, cfg.omega_list)
        assert calls == [(cfg.sg, phase_settle_time(cfg.sg))]
        es = upper_overlaps(cfg.sg, phase_settle_time(cfg.sg))[1]
        assert table.Es.hex() == es.hex()

    @pytest.mark.parametrize("n_theta", [1, 9])
    def test_verify_builds_each_branch_once(self, tmp_path, monkeypatch, n_theta):
        # one projection per Alice outcome for the aligned setting and for
        # each omega, whatever the theta count; the Born probabilities in
        # one born_probabilities call per branch over every theta, not one
        # call per cell
        calls = {"project_upper": 0, "born_probabilities": 0}
        axes_per_call = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                if name == "born_probabilities":
                    axes_per_call.append(len(args[1]))
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            original = getattr(nosignal.protocol, name)
            monkeypatch.setattr(nosignal.protocol, name, counted(name, original))
        omegas = [0.3, 1.1, 2.5]
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "omega_list": omegas,
            "theta_list": [math.pi * i / 8 for i in range(n_theta)],
        }))
        argv = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert main(argv) == EXIT_OK
        assert calls == {
            "project_upper": 2 * len(omegas) + 2,
            "born_probabilities": 2 * len(omegas) + 2,
        }
        assert axes_per_call == [n_theta] * (2 * len(omegas) + 2)

    def test_verify_builds_each_measurement_basis_once(self, tmp_path):
        # sigma_theta's +1 eigenstate is built once per theta, not once per
        # cell: apart from conditioning the singlet on each omega's two
        # outcomes, 1 and 3 omegas cost the same eigenstate evaluations
        # not 0: conditioning on the aligned setting builds axis 0 already
        thetas = [math.pi * i / 8 for i in range(1, 10)]

        def evaluations(omegas):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({
                "schema_version": 1, "omega_list": omegas, "theta_list": thetas,
            }))
            out = tmp_path / f"out{len(omegas)}"
            sigma_eigenstate.cache_clear()
            assert main(["verify", "--config", str(cfg), "--out", str(out)]) == EXIT_OK
            return sigma_eigenstate.cache_info().misses - 2 * len(omegas)

        # the aligned setting's two conditionings, and one basis per theta
        assert evaluations([0.3]) == evaluations([0.3, 1.1, 2.5]) == 2 + len(thetas)

    def test_table_cells_match_single_cell_pipeline(self, device):
        omegas = [0.0, math.pi / 6, math.pi / 2, 2.5]
        table = branch_table(device, omegas)
        thetas = (0.0, 0.7, 2.9)
        for model in MODELS:
            aligned = branch_totals(table.aligned, thetas, model)
            for entry in table.rotated:
                records = cell_records(table, entry, thetas, model, aligned)
                assert [ProtocolResult(**record) for record in records] == [
                    run_pipeline(device, entry[0], theta, model=model)
                    for theta in thetas
                ]


    def test_cell_records_are_the_results_as_dicts(self, device):
        # ProtocolResult's fields in order, then the extra keys; the same bits
        table = branch_table(device, [0.0, math.pi / 6, 2.5])
        thetas = (0.0, -0.0, 0.7, math.pi)
        for model in MODELS:
            aligned = branch_totals(table.aligned, thetas, model)
            for entry in table.rotated:
                records = cell_records(
                    table, entry, thetas, model, aligned, phase_sum_dev=0.5, cos_sum=None
                )
                results = [
                    ProtocolResult(**record)
                    for record in cell_records(table, entry, thetas, model, aligned)
                ]
                keys = [*ProtocolResult._fields, "phase_sum_dev", "cos_sum"]
                assert [list(record) for record in records] == [keys] * len(thetas)
                assert [repr((*result, 0.5, None)) for result in results] == [
                    repr(tuple(record.values())) for record in records
                ]


class TestSerialization:
    def test_flat_json_record(self, device):
        result = run_pipeline(device, math.pi / 2, 0.4)
        record = result._asdict()
        assert list(record) == [
            "omega",
            "theta",
            "Es",
            "phi_plus",
            "phi_minus",
            "pA_plus",
            "pA_minus",
            "PA_total",
            "PB_plus",
            "PB_minus",
            "PB_total",
            "residual",
            "model",
        ]
        text = json.dumps(record)
        assert json.loads(text)["model"] == "projected"

    def test_closed_form_result_with_degenerate_phases(self):
        (result,) = closed_form_rows(0.2, 0.0, (0.5,), None, None, "pure")
        assert result.residual == pytest.approx(0.0, abs=1e-15)
        assert result.phi_plus is None


def frozen_closed_form_cell(es, omega, theta, phi_plus, phi_minus, model):
    """One cell of the closed form, every term computed per theta, where
    closed_form_rows hoists the theta-free ones; kept as the bit reference."""
    cos_theta = math.cos(theta)
    pb_plus = 0.25 * (1.0 + cos_theta) * (1.0 - es)
    pb_minus = 0.25 * (1.0 - cos_theta) * es
    if phi_plus is None or phi_minus is None:
        weight, phases = 0.0, (0.0, 0.0)
    else:
        weight, phases = math.sin(omega), (phi_plus, phi_minus)
    base = 1.0 + (1.0 - 2.0 * es) * cos_theta
    coherence = 2.0 * weight * math.sqrt(es * (1.0 - es)) * math.sin(theta)
    pa_plus, pa_minus = (0.125 * (base + coherence * math.cos(phi)) for phi in phases)
    pa_total = pa_plus + pa_minus
    pb_total = pb_plus + pb_minus
    return (
        omega, theta, es, phi_plus, phi_minus, pa_plus, pa_minus, pa_total,
        pb_plus, pb_minus, pb_total, pa_total - pb_total, model,
    )


_angle = st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, math.pi, -math.pi])


class TestClosedFormRows:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        es=st.floats(0.0, 1.0),
        omega=_angle,
        thetas=st.lists(_angle, min_size=1, max_size=8),
        phi_plus=st.none() | _angle,
        phi_minus=st.none() | _angle,
        model=st.sampled_from(MODELS),
    )
    def test_rows_keep_the_per_cell_bits(
        self, es, omega, thetas, phi_plus, phi_minus, model
    ):
        # repr tells -0.0 from 0.0, so equal strings are equal bits
        rows = closed_form_rows(es, omega, thetas, phi_plus, phi_minus, model)
        expected = [
            frozen_closed_form_cell(es, omega, theta, phi_plus, phi_minus, model)
            for theta in thetas
        ]
        assert [repr(tuple(row)) for row in rows] == [repr(e) for e in expected]
        for theta, row in zip(thetas, rows):
            (one,) = closed_form_rows(es, omega, (theta,), phi_plus, phi_minus, model)
            assert repr(one) == repr(row)

    def test_rejects_an_error_fraction_outside_unit_interval(self):
        for es in (-1e-300, 1.0 + 2.0**-52, math.nan):
            with pytest.raises(ValueError):
                closed_form_rows(es, 0.5, [], 1.0, 2.0, "pure")
