import math

import numpy as np
import pytest

from nosignal import (
    MeasurementRecord,
    PhaseEstimate,
    PhaseUndefinedError,
    born_probability,
    derive_seed,
    estimate_error_fraction,
    estimate_phase,
    make_spin_state,
    postselected_pure_state,
    sample,
    violation_bound,
    wilson_interval,
)
from nosignal.estimation import Z_95
from conftest import mixture


class TestSampling:
    def test_deterministic_outcome(self):
        rec = sample(make_spin_state(1, 0), 0.0, 1000, seed=42)
        assert rec.n_plus == 1000 and rec.n_minus == 0

    def test_reproducibility_is_bitwise(self):
        state = postselected_pure_state(0.3, 1.0)
        a = sample(state, math.pi / 2, 100_000, seed=987, true_state_id="x")
        b = sample(state, math.pi / 2, 100_000, seed=987, true_state_id="x")
        assert a == b

    def test_different_seeds_differ(self):
        state = postselected_pure_state(0.3, 1.0)
        a = sample(state, math.pi / 2, 100_000, seed=1)
        b = sample(state, math.pi / 2, 100_000, seed=2)
        assert a.n_plus != b.n_plus

    def test_binomial_concentration(self):
        rho = mixture([(0.5, make_spin_state(1, 0)), (0.5, make_spin_state(0, 1))])
        n = 1_000_000
        rec = sample(rho, 0.7, n, seed=5)
        sigma = 0.5 / math.sqrt(n)
        assert abs(rec.frequency - 0.5) < 4 * sigma

    def test_mean_matches_born_probability(self):
        state = postselected_pure_state(0.1, math.pi / 3)
        n = 1_000_000
        rec = sample(state, math.pi / 2, n, seed=11)
        expected = 0.5 + math.sqrt(0.1 * 0.9) * math.cos(math.pi / 3)
        assert abs(rec.frequency - expected) < 4 * math.sqrt(
            expected * (1 - expected) / n
        )

    def test_requires_positive_count(self):
        with pytest.raises(ValueError):
            sample(make_spin_state(1, 0), 0.0, 0, seed=1)

    def test_counts_follow_numpys_stream(self):
        # numpy's SeedSequence -> PCG64 -> binomial, computed without numpy
        state = postselected_pure_state(0.3, 1.0)
        p = born_probability(state, math.pi / 2, +1)
        for seed in (0, 987, derive_seed(20260808, 0, 1, 1)):
            rec = sample(state, math.pi / 2, 1_000_000, seed)
            assert rec.n_plus == np.random.default_rng(seed).binomial(1_000_000, p)
        seq = np.random.SeedSequence(20260808, spawn_key=(0, 1, 1))
        assert derive_seed(20260808, 0, 1, 1) == seq.generate_state(1, np.uint64)[0]

    def test_rejects_negative_seeds(self):
        with pytest.raises(ValueError):
            sample(make_spin_state(1, 0), 0.0, 10, seed=-1)
        with pytest.raises(ValueError):
            derive_seed(-1, 0)
        with pytest.raises(ValueError):
            derive_seed(1, -1)

    def test_seed_derivation_is_stable_and_keyed(self):
        assert derive_seed(123, 0, 1) == derive_seed(123, 0, 1)
        assert derive_seed(123, 0, 1) != derive_seed(123, 1, 0)
        assert derive_seed(123, 0, 1) != derive_seed(124, 0, 1)


class TestWilsonInterval:
    def test_degenerate_zero_count(self):
        lo, hi = wilson_interval(0, 1_000_000)
        # closed form at phat = 0: upper = z^2 / (n + z^2)
        expected = Z_95**2 / (1_000_000 + Z_95**2)
        assert lo == 0.0
        assert hi == pytest.approx(expected, rel=1e-12)
        assert hi < 3.9e-6

    def test_contains_frequency(self):
        for k, n in [(10, 100), (500, 1000), (999, 1000)]:
            lo, hi = wilson_interval(k, n)
            assert lo <= k / n <= hi

    def test_symmetric_at_half(self):
        lo, hi = wilson_interval(500, 1000)
        assert lo + hi == pytest.approx(1.0, abs=1e-12)

    def test_simulated_coverage(self):
        # 95% nominal coverage holds to within binomial fluctuation
        rng = np.random.default_rng(2024)
        p, n, trials = 0.2, 10_000, 400
        hits = 0
        for k in rng.binomial(n, p, size=trials):
            lo, hi = wilson_interval(int(k), n)
            hits += lo <= p <= hi
        assert hits >= int(0.90 * trials)


class TestErrorFractionEstimate:
    def test_frequency_estimator(self):
        rec = sample(postselected_pure_state(0.1, 0.0), 0.0, 1_000_000, seed=31)
        value, ci = estimate_error_fraction(rec)
        assert value == rec.n_minus / rec.n
        assert ci[0] <= value <= ci[1]
        assert abs(value - 0.1) < 4 * math.sqrt(0.1 * 0.9 / 1_000_000)

    def test_rejects_wrong_axis(self):
        rec = sample(postselected_pure_state(0.1, 0.0), math.pi / 2, 1000, seed=1)
        with pytest.raises(ValueError):
            estimate_error_fraction(rec)


class TestPhaseEstimate:
    def test_half_frequency_gives_right_angle(self):
        rec = MeasurementRecord(axis=math.pi / 2, n_plus=5000, n_minus=5000, seed=0)
        est = estimate_phase(rec, 0.5)
        assert est.phase == pytest.approx(math.pi / 2, abs=1e-12)
        assert not est.clamped

    def test_extremal_consistent_frequency(self):
        # n_plus/N = 1/2 + sqrt(E(1-E)) exactly -> phase 0, no clamping
        es, n = 0.2, 10_000
        n_plus = round(n * (0.5 + math.sqrt(es * (1 - es))))
        rec = MeasurementRecord(axis=math.pi / 2, n_plus=n_plus, n_minus=n - n_plus, seed=0)
        est = estimate_phase(rec, es)
        assert est.phase == pytest.approx(0.0, abs=1e-6)
        assert not est.clamped

    def test_overshoot_clamps_with_flag(self):
        rec = MeasurementRecord(axis=math.pi / 2, n_plus=9900, n_minus=100, seed=0)
        est = estimate_phase(rec, 0.2)
        assert est.clamped and est.phase == 0.0

    def test_interval_contains_point(self):
        rec = sample(postselected_pure_state(0.2, 2.0), math.pi / 2, 100_000, seed=9)
        est = estimate_phase(rec, 0.2, (0.19, 0.21))
        assert est.phase_ci[0] <= est.phase <= est.phase_ci[1]

    def test_degenerate_error_fraction_unidentifiable(self):
        rec = MeasurementRecord(axis=math.pi / 2, n_plus=5, n_minus=5, seed=0)
        with pytest.raises(PhaseUndefinedError):
            estimate_phase(rec, 0.0)
        with pytest.raises(PhaseUndefinedError):
            estimate_phase(rec, 1.0)

    def test_rejects_wrong_axis(self):
        rec = sample(postselected_pure_state(0.2, 1.0), 0.0, 1000, seed=1)
        with pytest.raises(ValueError):
            estimate_phase(rec, 0.2)

    @pytest.mark.parametrize("phi", [0.7, 1.5, 2.4])
    def test_recovers_phase_at_large_n(self, phi):
        es, n = 0.25, 1_000_000
        state = postselected_pure_state(es, phi)
        rec_z = sample(state, 0.0, n, seed=derive_seed(77, 0))
        rec_x = sample(state, math.pi / 2, n, seed=derive_seed(77, 1))
        ef, ef_ci = estimate_error_fraction(rec_z)
        est = estimate_phase(rec_x, ef, ef_ci)
        assert abs(est.phase - phi) < 0.01
        assert est.phase_ci[0] <= phi <= est.phase_ci[1]

    def test_error_shrinks_with_n(self):
        es, phi = 0.2, 1.3
        state = postselected_pure_state(es, phi)
        medians = []
        for i, n in enumerate((1000, 10_000, 100_000, 1_000_000)):
            errors = []
            for trial in range(20):
                rec_z = sample(state, 0.0, n, seed=derive_seed(50, i, trial, 0))
                rec_x = sample(state, math.pi / 2, n, seed=derive_seed(50, i, trial, 1))
                ef, ef_ci = estimate_error_fraction(rec_z)
                est = estimate_phase(rec_x, ef, ef_ci)
                errors.append(abs(est.phase - phi))
            medians.append(float(np.median(errors)))
        assert medians[-1] < medians[0]
        assert medians[-1] < 5e-3


class TestViolationBound:
    def test_exact_supplementary_phases(self):
        a = PhaseEstimate(0.2, (0.2, 0.2), math.pi / 3, (math.pi / 3, math.pi / 3), False)
        b = PhaseEstimate(
            0.2, (0.2, 0.2), 2 * math.pi / 3, (2 * math.pi / 3, 2 * math.pi / 3), False
        )
        point, ci = violation_bound(a, b)
        assert point == pytest.approx(0.0, abs=1e-15)
        assert ci[0] == pytest.approx(ci[1], abs=1e-12)

    def test_full_stack_consistency(self):
        es, phi, n = 0.2, 1.1, 1_000_000
        ests = {}
        for idx, state in enumerate(
            (postselected_pure_state(es, phi), postselected_pure_state(es, math.pi - phi))
        ):
            rec_z = sample(state, 0.0, n, seed=derive_seed(9, idx, 0))
            rec_x = sample(state, math.pi / 2, n, seed=derive_seed(9, idx, 1))
            ef, ef_ci = estimate_error_fraction(rec_z)
            ests[idx] = estimate_phase(rec_x, ef, ef_ci)
        point, ci = violation_bound(ests[0], ests[1])
        assert ci[0] <= 0.0 <= ci[1]
        assert abs(point) < 0.01

    def test_detects_injected_violation(self):
        # corrupt the second beam: phi_minus = phi_plus instead of pi - phi_plus
        es, phi, n = 0.2, 1.1, 1_000_000
        ests = {}
        for idx in (0, 1):
            state = postselected_pure_state(es, phi)
            rec_z = sample(state, 0.0, n, seed=derive_seed(10, idx, 0))
            rec_x = sample(state, math.pi / 2, n, seed=derive_seed(10, idx, 1))
            ef, ef_ci = estimate_error_fraction(rec_z)
            ests[idx] = estimate_phase(rec_x, ef, ef_ci)
        point, ci = violation_bound(ests[0], ests[1])
        assert not (ci[0] <= 0.0 <= ci[1])
        assert point == pytest.approx(2 * math.cos(phi), abs=0.01)
