import json
import math

import numpy as np
import pytest

import nosignal.protocol
from nosignal import (
    ProtocolConfig,
    alice_branch_total,
    alice_total,
    asymptotic_error_fraction,
    bob_branch_totals,
    bob_total,
    born_probability,
    branch_table,
    cell_result,
    closed_form_result,
    outcome_probability,
    postselected_pure_state,
    run_pipeline,
    signalling_residual,
)
from nosignal.cli import EXIT_OK, main
from nosignal.protocol import MODELS, branch_totals
from nosignal.spin import wrap_to_pi
from conftest import device_for_error_fraction


class TestOutcomeProbability:
    def test_aligned_measurement(self):
        # theta = 0 leaves 1 - E regardless of the phase
        for es in (0.0, 0.2, 0.5):
            for phi in (0.0, 1.0, 3.0):
                assert outcome_probability(es, 0.0, phi) == pytest.approx(
                    1 - es, abs=1e-15
                )

    def test_ideal_limit_matches_projection(self):
        for theta in (0.0, 0.9, math.pi / 2, 2.7):
            assert outcome_probability(0.0, theta, 0.3) == pytest.approx(
                0.5 * (1 + math.cos(theta)), abs=1e-15
            )

    def test_worked_example(self):
        # E = 0.1, theta = pi/2, phi = 0: 1/2 (1 + 2 sqrt(0.09)) = 0.8
        assert outcome_probability(0.1, math.pi / 2, 0.0) == pytest.approx(
            0.8, abs=1e-12
        )

    @pytest.mark.parametrize("es", [0.05, 0.3, 0.5, 0.77])
    @pytest.mark.parametrize("theta", [0.3, 1.2, 2.8])
    @pytest.mark.parametrize("phi", [0.0, 0.9, 2.2, 4.4])
    def test_equals_born_rule_on_pure_state(self, es, theta, phi):
        # independent route: Born rule on the explicitly built state
        state = postselected_pure_state(es, phi)
        assert outcome_probability(es, theta, phi) == pytest.approx(
            born_probability(state, theta, +1), abs=1e-12
        )

    def test_rejects_bad_error_fraction(self):
        with pytest.raises(ValueError):
            outcome_probability(1.2, 0.0, 0.0)


class TestBranchAndTotals:
    def test_branch_ideal_aligned(self):
        assert alice_branch_total(0.0, 0.0, 0.0) == pytest.approx(0.25, abs=1e-15)

    def test_branch_is_quarter_of_single(self):
        for es, theta, phi in [(0.1, 0.7, 0.2), (0.4, 2.0, 1.9)]:
            assert alice_branch_total(es, theta, phi) == pytest.approx(
                0.25 * outcome_probability(es, theta, phi), abs=1e-15
            )

    def test_x_setting_total_worked_example(self):
        cfg = ProtocolConfig(
            omega=math.pi / 2, theta=math.pi / 3, Es=0.2, phi_plus=0.0, phi_minus=0.0
        )
        assert alice_total(cfg) == pytest.approx(0.4982050807568877, abs=1e-12)

    def test_x_setting_total_with_quadrature_phases(self):
        cfg = ProtocolConfig(
            omega=math.pi / 2,
            theta=math.pi / 2,
            Es=0.2,
            phi_plus=math.pi / 2,
            phi_minus=math.pi / 2,
        )
        assert alice_total(cfg) == pytest.approx(0.25, abs=1e-12)

    def test_aligned_total_worked_example(self):
        assert bob_total(0.3, math.pi / 3) == pytest.approx(0.3, abs=1e-12)

    def test_aligned_total_at_right_angle(self):
        for es in (0.0, 0.2, 0.45):
            assert bob_total(es, math.pi / 2) == pytest.approx(0.25, abs=1e-12)

    def test_aligned_branches(self):
        plus, minus = bob_branch_totals(0.0, 0.0)
        assert plus == pytest.approx(0.5, abs=1e-15) and minus == 0.0
        plus, minus = bob_branch_totals(0.3, math.pi / 3)
        assert plus == pytest.approx(0.25 * 1.5 * 0.7, abs=1e-14)
        assert minus == pytest.approx(0.25 * 0.5 * 0.3, abs=1e-14)

    def test_branch_sum_matches_rotated_total_at_x(self):
        # sum of the two 1/8-form branches reproduces the x-setting total
        rng = np.random.default_rng(7)
        for _ in range(200):
            es, theta, p1, p2 = rng.uniform(0, 1), rng.uniform(0, math.pi), *rng.uniform(
                0, 2 * math.pi, 2
            )
            cfg = ProtocolConfig(
                omega=math.pi / 2, theta=theta, Es=es, phi_plus=p1, phi_minus=p2
            )
            branches = alice_branch_total(es, theta, p1) + alice_branch_total(
                es, theta, p2
            )
            assert abs(branches - alice_total(cfg)) < 1e-14

    def test_rotated_total_reduces_to_x_form_on_random_grid(self):
        # at omega = pi/2 the general total collapses to the x-setting
        # closed form, entrywise over 10^4 random parameter points
        rng = np.random.default_rng(13)
        for _ in range(10_000):
            es = rng.uniform(0, 1)
            theta = rng.uniform(0, math.pi)
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            cfg = ProtocolConfig(
                omega=math.pi / 2, theta=theta, Es=es, phi_plus=p1, phi_minus=p2
            )
            x_form = 0.25 * (
                1
                + (1 - 2 * es) * math.cos(theta)
                + math.sqrt(es * (1 - es))
                * math.sin(theta)
                * (math.cos(p1) + math.cos(p2))
            )
            assert abs(alice_total(cfg) - x_form) < 1e-14


class TestResidual:
    def test_reduces_to_x_setting_form(self):
        # at omega = pi/2 the residual equals the bare coherence difference
        rng = np.random.default_rng(11)
        for _ in range(10_000):
            es = rng.uniform(0, 1)
            theta = rng.uniform(0, math.pi)
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            cfg = ProtocolConfig(
                omega=math.pi / 2, theta=theta, Es=es, phi_plus=p1, phi_minus=p2
            )
            expected = (
                0.25
                * math.sqrt(es * (1 - es))
                * math.sin(theta)
                * (math.cos(p1) + math.cos(p2))
            )
            assert abs(signalling_residual(cfg) - expected) < 1e-14

    def test_worked_example(self):
        cfg = ProtocolConfig(
            omega=math.pi / 2, theta=math.pi / 2, Es=0.25, phi_plus=0.0, phi_minus=0.0
        )
        assert signalling_residual(cfg) == pytest.approx(
            0.21650635094610965, abs=1e-12
        )

    def test_ideal_device_never_signals(self):
        for phi in (0.0, 0.5, 2.0, 5.0):
            cfg = ProtocolConfig(
                omega=1.1, theta=2.0, Es=0.0, phi_plus=phi, phi_minus=phi
            )
            assert signalling_residual(cfg) == 0.0

    def test_aligned_final_measurement_never_signals(self):
        cfg = ProtocolConfig(omega=1.1, theta=0.0, Es=0.3, phi_plus=0.7, phi_minus=0.7)
        assert signalling_residual(cfg) == 0.0

    def test_sign_flips_when_cosines_negate(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            es, theta, omega = rng.uniform(0.05, 0.95), rng.uniform(0.1, 3.0), 1.3
            p1, p2 = rng.uniform(0, 2 * math.pi, 2)
            plus = signalling_residual(
                ProtocolConfig(omega=omega, theta=theta, Es=es, phi_plus=p1, phi_minus=p2)
            )
            minus = signalling_residual(
                ProtocolConfig(
                    omega=omega,
                    theta=theta,
                    Es=es,
                    phi_plus=math.pi - p1,
                    phi_minus=math.pi - p2,
                )
            )
            assert abs(plus + minus) < 1e-12

    def test_totals_bounded_by_half(self):
        rng = np.random.default_rng(5)
        for _ in range(2000):
            cfg = ProtocolConfig(
                omega=rng.uniform(0, math.pi),
                theta=rng.uniform(0, math.pi),
                Es=rng.uniform(0, 1),
                phi_plus=rng.uniform(0, 2 * math.pi),
                phi_minus=rng.uniform(0, 2 * math.pi),
            )
            assert 0.0 <= alice_total(cfg) <= 0.5
            assert 0.0 <= bob_total(cfg.Es, cfg.theta) <= 0.5


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
        cfg = ProtocolConfig(
            omega=math.pi / 3,
            theta=1.2,
            Es=result.Es,
            phi_plus=result.phi_plus,
            phi_minus=result.phi_minus,
        )
        assert result.PA_total == pytest.approx(alice_total(cfg), abs=1e-12)
        assert result.PB_total == pytest.approx(bob_total(result.Es, 1.2), abs=1e-12)

    def test_aligned_total_matches_closed_form_in_projected_model(self, device):
        result = run_pipeline(device, 2.0, 0.6, model="projected")
        assert result.PB_total == pytest.approx(bob_total(result.Es, 0.6), abs=1e-12)
        assert asymptotic_error_fraction(device) == pytest.approx(
            result.Es, abs=1e-12
        )

    def test_rejects_unknown_model(self, device):
        with pytest.raises(ValueError):
            run_pipeline(device, 1.0, 1.0, model="exact")


class TestBranchTable:
    @pytest.mark.parametrize("n_theta", [1, 9])
    def test_verify_builds_each_branch_once(self, tmp_path, monkeypatch, n_theta):
        # one saturation search per run; one projection per Alice outcome for
        # the aligned setting and for each omega, whatever the theta count;
        # the aligned Born probabilities once per theta, not once per cell
        calls = {
            "saturated_error_fraction": 0,
            "project_upper": 0,
            "born_probability": 0,
        }

        def counted(name):
            original = getattr(nosignal.protocol, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nosignal.protocol, name, counted(name))
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
            "saturated_error_fraction": 1,
            "project_upper": 2 * len(omegas) + 2,
            "born_probability": 2 * len(omegas) * n_theta + 2 * n_theta,
        }

    def test_table_cells_match_single_cell_pipeline(self, device):
        omegas = [0.0, math.pi / 6, math.pi / 2, 2.5]
        table = branch_table(device, omegas)
        for entry in table.rotated:
            for theta in (0.0, 0.7, 2.9):
                for model in MODELS:
                    aligned = branch_totals(table.aligned, theta, model)
                    assert cell_result(
                        table, entry, theta, model, aligned
                    ) == run_pipeline(device, entry[0], theta, model=model)


class TestSerialization:
    def test_flat_json_record(self, device):
        result = run_pipeline(device, math.pi / 2, 0.4)
        record = result.to_json_dict()
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
        result = closed_form_result(0.2, 0.0, 0.5, None, None, "pure")
        assert result.residual == pytest.approx(0.0, abs=1e-15)
        assert result.phi_plus is None
