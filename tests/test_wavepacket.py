import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import nosignal.wavepacket
from nosignal import (
    SGConfig,
    SpinState,
    asymptotic_error_fraction,
    component_amplitude,
    component_density,
    error_fraction,
    evolve_through_magnet,
    free_propagate,
    phase_settle_time,
    upper_fraction,
)
from nosignal.wavepacket import _dawson, _norm_cdf, closed_form_upper_coherence
from conftest import (
    exit_channels,
    full_overlap,
    quad_coherence,
    saturated_error_fraction,
)

ORACLE_TIMES = [1, 3, 7, 12, 20, 30, 45, 70, 95, 120]
DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def quad_density(pair, which, lo, hi):
    """Independent oracle: integrate the sampled |psi|^2 of the normalized
    channel by quadrature."""
    val, _ = quad(
        lambda z: abs(component_amplitude(pair, z, which)) ** 2,
        lo,
        hi,
        limit=200,
    )
    return val / abs(pair.weight(which)) ** 2


def mpmath_upper_coherence(pair, dps: int = 40):
    """int_0^inf psi_plus psi_minus^* dz at dps digits, for any Gaussian pair.

    Expands the product of the two channels into exp(-A z^2 + B z + D) from
    their exact parameters at the pair's time (the accumulated phases
    cancel in the working precision, not in double) and uses
    int_0^inf exp(-A z^2 + B z) dz = sqrt(pi / A) / 2 exp(B^2 / 4A)
    erfc(-B / (2 sqrt A)).
    """
    with mp.workdps(dps):
        s0, m = mp.mpf(pair.device.sigma0), mp.mpf(pair.device.mass)
        t = mp.mpf(pair.time)
        alpha = 1 + 1j * t / (2 * m * s0**2)
        a_z = 4 * s0**2 * alpha
        a_c = mp.conj(a_z)
        (p_p, o_p, f_p), (p_m, o_m, f_m) = [
            [mp.mpf(v) for v in channel] for channel in exit_channels(pair)
        ]
        c_p = o_p + p_p * t / m
        c_m = o_m + p_m * t / m
        phi_p = f_p + p_p**2 * t / (2 * m)
        phi_m = f_m + p_m**2 * t / (2 * m)
        big_a = 1 / a_z + 1 / a_c
        big_b = 2 * c_p / a_z + 2 * c_m / a_c + 1j * (p_p - p_m)
        big_d = (
            -(c_p**2) / a_z - c_m**2 / a_c - 1j * (p_p * c_p - p_m * c_m)
            + 1j * (phi_p - phi_m)
        )
        norm = (2 * mp.pi * s0**2) ** (-0.5) / abs(alpha)
        value = (
            mp.sqrt(mp.pi / big_a) / 2
            * mp.exp(big_b**2 / (4 * big_a) + big_d)
            * mp.erfc(-big_b / (2 * mp.sqrt(big_a)))
        )
        return mp.mpc(norm * value)


class TestMagnet:
    def test_zero_field_leaves_identical_components(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        pair = evolve_through_magnet(cfg, x_state)
        assert pair.momentum("plus") == pair.momentum("minus") == 0.0
        assert pair.center("plus") == pair.center("minus") == 0.0
        assert pair.phase("plus") == pair.phase("minus") == 0.0

    def test_up_eigenstate_passes_unsplit(self, device, up_state):
        pair = evolve_through_magnet(device, up_state)
        assert pair.weight("minus") == 0.0
        assert pair.momentum("plus") == device.momentum_kick > 0

    def test_x_input_splits_symmetrically(self, device, x_state):
        pair = evolve_through_magnet(device, x_state)
        assert abs(pair.weight("plus") - 1 / math.sqrt(2)) < 1e-12
        assert abs(pair.weight("minus") - 1 / math.sqrt(2)) < 1e-12
        assert pair.momentum("plus") == -pair.momentum("minus") == device.momentum_kick

    def test_larmor_phases(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=2, gradient=10, bias=3, transit=0.01)
        pair = evolve_through_magnet(cfg, x_state)
        assert abs(pair.phase("plus") - 0.06) < 1e-15
        assert abs(pair.phase("minus") + 0.06) < 1e-15


class TestFreePropagation:
    def test_zero_time_is_identity(self, device, x_state):
        pair = evolve_through_magnet(device, x_state)
        moved = free_propagate(pair, 0.0)
        assert moved == pair

    def test_rejects_negative_time(self, device, x_state):
        pair = evolve_through_magnet(device, x_state)
        with pytest.raises(ValueError):
            free_propagate(pair, -1.0)

    def test_width_spreading_law(self, x_state):
        cfg = SGConfig(mass=2, sigma0=0.5, moment=1, gradient=0, bias=0, transit=0)
        pair = evolve_through_magnet(cfg, x_state)
        t = 1e6
        moved = free_propagate(pair, t)
        assert moved.center("plus") == 0.0
        # asymptotically sigma(t) -> t / (2 m sigma0)
        assert abs(moved.width / (t / (2 * 2 * 0.5)) - 1.0) < 1e-9

    def test_centers_drift_with_momentum(self, device, x_state):
        pair = free_propagate(evolve_through_magnet(device, x_state), 10.0)
        assert abs(pair.center("plus") - device.momentum_kick * 10.0) < 1e-12
        assert abs(pair.center("minus") + device.momentum_kick * 10.0) < 1e-12

    def test_components_stay_normalized(self, device, x_state):
        pair = free_propagate(evolve_through_magnet(device, x_state), 7.3)
        for which in ("plus", "minus"):
            norm = quad_density(pair, which, -np.inf, np.inf)
            assert abs(norm - 1.0) < 1e-12

    def test_composition_of_flights(self, device, x_state):
        pair = evolve_through_magnet(device, x_state)
        once = free_propagate(pair, 11.0)
        twice = free_propagate(free_propagate(pair, 4.0), 7.0)
        assert abs(once.center("plus") - twice.center("plus")) < 1e-12
        assert abs(once.phase("plus") - twice.phase("plus")) < 1e-12
        assert abs(once.width - twice.width) < 1e-12


class TestComponentDensity:
    """component_density is |component_amplitude|^2 in closed form."""

    # CI's chirp device: sigma0**2 = 1e-320 is subnormal
    CHIRP = SGConfig(
        mass=1e300, sigma0=1e-160, moment=1.0, gradient=1e154, bias=0.0, transit=1.0
    )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        t=st.floats(0.0, 1e4),
        sigma0=st.floats(1e-3, 1e3),
        gradient=st.floats(-1e3, 1e3),
        which=st.sampled_from(["plus", "minus"]),
        up=st.floats(0.0, 1.0),
        phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
        k=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=8),
    )
    def test_matches_squared_amplitude(self, t, sigma0, gradient, which, up, phases, k):
        # complex weights with |up|^2 + |down|^2 = 1, at |z - c| <= 8 sigma(t)
        spin = SpinState(
            math.sqrt(up) * complex(math.cos(phases[0]), math.sin(phases[0])),
            math.sqrt(1.0 - up) * complex(math.cos(phases[1]), math.sin(phases[1])),
        )
        cfg = SGConfig(
            mass=1.0, sigma0=sigma0, moment=1.0, gradient=gradient, bias=0.5, transit=0.002
        )
        pair = free_propagate(evolve_through_magnet(cfg, spin), t)
        z = pair.center(which) + pair.width * np.array(k)
        expected = np.abs(component_amplitude(pair, z, which)) ** 2
        density = component_density(pair, z, which)
        assert np.all(np.abs(density - expected) <= 1e-13 * expected)

    @pytest.mark.parametrize("t", [0.0, 7.3, 1e4])
    @pytest.mark.parametrize("which", ["plus", "minus"])
    def test_integrates_to_squared_weight(self, device, t, which):
        spin = SpinState(0.48 + 0.64j, 0.36 - 0.48j)
        pair = free_propagate(evolve_through_magnet(device, spin), t)
        # 8 points per sigma(t) out to 40 sigma(t): the sum is the integral
        dz = pair.width / 8
        z = pair.center(which) + dz * np.arange(-320, 321)
        total = float(np.sum(component_density(pair, z, which))) * dz
        assert abs(total - abs(pair.weight(which)) ** 2) <= 1e-12

    @pytest.mark.parametrize("t", ORACLE_TIMES)
    def test_subnormal_sigma0_squared_against_mpmath(self, x_state, t):
        # the complex form carries sigma0**2 into its norm and exponent, off
        # by 1.2e-5 relative here; the closed form takes only sigma(t)
        cfg = self.CHIRP
        assert 0.0 < cfg.sigma0 * cfg.sigma0 < sys.float_info.min
        pair = free_propagate(evolve_through_magnet(cfg, x_state), t)
        grid_z = (np.arange(256) - 128) * 0.25  # the oracle grid of CI's chirp run
        for which in ("plus", "minus"):
            z = np.concatenate(
                [grid_z, pair.center(which) + pair.width * np.linspace(-8.0, 8.0, 33)]
            )
            density = component_density(pair, z, which)
            with mp.workdps(40):
                # at the code's own tau: sigma(t) = sigma0 sqrt(1 + tau^2)
                sigma = mp.mpf(cfg.sigma0) * mp.sqrt(1 + mp.mpf(pair.tau) ** 2)
                c = mp.mpf(pair.momentum(which)) * mp.mpf(t) / mp.mpf(cfg.mass)
                scale = abs(mp.mpc(pair.weight(which))) ** 2 / (mp.sqrt(2 * mp.pi) * sigma)
                for zi, value in zip(z, density):
                    exact = scale * mp.exp(-((mp.mpf(zi) - c) / sigma) ** 2 / 2)
                    if exact < sys.float_info.min:
                        assert value <= sys.float_info.min
                    else:
                        assert abs(mp.mpf(value) - exact) <= 1e-14 * exact


class TestErrorFraction:
    def test_fully_separated_vanishes(self, x_state):
        # a large kick (2 dp sigma0 = 10) at a late time
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=2500, bias=0, transit=0.002)
        pair = free_propagate(evolve_through_magnet(cfg, x_state), 400.0)
        assert error_fraction(pair) < 1e-12

    def test_zero_kick_gives_half(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        pair = evolve_through_magnet(cfg, x_state)
        assert error_fraction(pair) == 0.5
        assert error_fraction(free_propagate(pair, 25.0)) == 0.5

    @pytest.mark.parametrize("t", [0.5, 3.0, 40.0])
    def test_matches_quadrature_oracle(self, device, x_state, t):
        pair = free_propagate(evolve_through_magnet(device, x_state), t)
        oracle = quad_density(pair, "minus", 0.0, np.inf)
        assert abs(error_fraction(pair) - oracle) < 1e-9

    @pytest.mark.parametrize("t", [1.0, 10.0, 80.0])
    def test_two_definitions_agree_for_symmetric_input(self, device, x_state, t):
        # upper weight of the down channel == lower weight of the up channel
        pair = free_propagate(evolve_through_magnet(device, x_state), t)
        upper_minus = error_fraction(pair)
        lower_plus = 1.0 - upper_fraction(pair, "plus")
        assert abs(upper_minus - lower_plus) < 1e-12

    def test_monotone_decreasing_after_exit(self, device, x_state):
        pair = evolve_through_magnet(device, x_state)
        values = [
            error_fraction(free_propagate(pair, t))
            for t in np.linspace(0.0, 400.0, 120)
        ]
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-15)
        assert values[-1] == pytest.approx(asymptotic_error_fraction(device), abs=1e-4)

    @pytest.mark.parametrize("gradient", [1500.0, 2500.0])
    def test_far_tail_against_mpmath(self, gradient):
        # configs/default.json's Es with a stronger gradient: 1 - Phi(r) lost
        # the tail to rounding (5.6e-8 relative at 1500, 0.0 for 7.6e-24 at
        # 2500), where Phi(-r) keeps it
        from nosignal.cli import load_config
        from nosignal.protocol import branch_table

        cfg = load_config(str(DEFAULT_CONFIG))
        sg = cfg.sg._replace(gradient=gradient)
        es = branch_table(sg, cfg.omega_list).Es
        tau = phase_settle_time(sg) / sg.spreading_time  # the code's own tau
        with mp.workdps(40):
            a = 2 * mp.mpf(sg.momentum_kick) * mp.mpf(sg.sigma0)
            exact = mp.ncdf(-a * tau / mp.sqrt(1 + mp.mpf(tau) ** 2))
        assert es == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def _accepted_a():
    """a = 2 momentum_kick sigma0: 0, or 10**e of either sign for e in
    [-300, 297]; beyond ~5.6e297 phase_settle_time overflows."""
    magnitude = st.floats(-300.0, 297.0).map(lambda e: 10.0**e)
    signed = st.tuples(st.sampled_from((1.0, -1.0)), magnitude)
    return st.one_of(st.just(0.0), signed.map(lambda pair: pair[0] * pair[1]))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    a=_accepted_a(),
    times=st.lists(
        st.one_of(st.just(0.0), st.floats(-300.0, 308.0).map(lambda e: 10.0**e)),
        min_size=2,
        max_size=2,
    ),
)
def test_closed_forms_over_accepted_a_and_tau(tmp_path_factory, a, times):
    # m = 1/2 and sigma0 = 1 make spreading_time 1, so tau is the oracle time
    # and a is 2 gradient exactly; load_config accepts every such device
    import json

    from nosignal.cli import load_config

    sg = {"mass": 0.5, "sigma0": 1.0, "moment": 1.0, "gradient": a / 2,
          "bias": 0.0, "transit": 1.0}
    path = tmp_path_factory.mktemp("cfg") / "cfg.json"
    path.write_text(json.dumps(
        {"schema_version": 1, "sg": sg, "oracle": {"times": times}}
    ))
    cfg = load_config(str(path))
    assert cfg.sg.drift_ratio == a and cfg.sg.spreading_time == 1.0
    exit_pair = evolve_through_magnet(cfg.sg, SpinState(math.sqrt(0.5), math.sqrt(0.5)))
    pairs = [free_propagate(exit_pair, t) for t in sorted(cfg.oracle_times)]
    e_early, e_late = (error_fraction(pair) for pair in pairs)
    if a >= 0:
        assert 0.0 <= e_late <= e_early <= 0.5
    else:
        assert 0.5 <= e_early <= e_late <= 1.0
    for pair in pairs:
        total = upper_fraction(pair, "plus") + upper_fraction(pair, "minus")
        assert abs(total - 1.0) <= 4e-16
        coherence = closed_form_upper_coherence(pair)
        assert math.isfinite(coherence.real) and math.isfinite(coherence.imag)
        assert abs(coherence) <= 0.5


class TestSaturation:
    """The closed-form tail against the test-side doubling search."""

    @pytest.mark.parametrize("gradient", [0.0, 210.4, 1250.0, 2500.0])
    def test_error_fraction_is_the_closed_form_in_tau(self, x_state, gradient):
        # E(t) = Phi(-a tau / sqrt(1 + tau^2)) with a = 2 dp sigma0
        cfg = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=gradient, bias=0, transit=0.002
        )
        a = 2.0 * cfg.momentum_kick * cfg.sigma0
        exit_pair = evolve_through_magnet(cfg, x_state)
        for t in [0.0, 0.01, 1.0, 37.0, 120.0, 1e4]:
            tau = t / cfg.spreading_time
            expected = _norm_cdf(-a * tau / math.sqrt(1.0 + tau * tau))
            assert error_fraction(free_propagate(exit_pair, t)) == pytest.approx(
                expected, rel=1e-14, abs=0.0
            )

    def test_zero_kick_saturates_at_half(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        result = saturated_error_fraction(cfg, x_state)
        assert result.value == asymptotic_error_fraction(cfg) == 0.5

    def test_ideal_limit(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=2500, bias=0, transit=0.002)
        result = saturated_error_fraction(cfg, x_state)
        assert result.value < 1e-6

    def test_matches_closed_form_tail(self, device, x_state):
        result = saturated_error_fraction(device, x_state, tol=1e-8)
        assert abs(result.value - asymptotic_error_fraction(device)) < 1e-8

    def test_detection_window_is_stable(self, device, x_state):
        result = saturated_error_fraction(device, x_state, tol=1e-6)
        exit_pair = evolve_through_magnet(device, x_state)
        e1 = error_fraction(free_propagate(exit_pair, result.time))
        e2 = error_fraction(free_propagate(exit_pair, 2 * result.time))
        assert abs(e2 - e1) < 1e-6

    def test_horizon_violation_raises_with_last_value(
        self, device, x_state, monkeypatch
    ):
        # an E(t) that never settles runs the doubling search past its
        # horizon of 1e9 spreading times
        def unsettled(pair):
            return 0.25 if round(math.log2(pair.tau)) % 2 else 0.125

        monkeypatch.setattr(nosignal.wavepacket, "error_fraction", unsettled)
        message = r"before t = 2e\+09; last sample 0\.25$"
        with pytest.raises(AssertionError, match=message):
            saturated_error_fraction(device, x_state, tol=1e-13)

    def test_rejects_bad_tolerance(self, device, x_state):
        with pytest.raises(ValueError):
            saturated_error_fraction(device, x_state, tol=0.0)

    def test_saturated_value_is_input_independent(self, device):
        # the error fraction is a device property: x- and z-polarized
        # inputs see the same saturated value (symmetric kicks)
        from nosignal import make_spin_state

        values = {
            name: saturated_error_fraction(device, state).value
            for name, state in (
                ("x", make_spin_state(1, 1)),
                ("z", make_spin_state(1, 0)),
                ("tilted", make_spin_state(0.9, 0.3 + 0.2j)),
            )
        }
        assert values["x"] == values["z"] == values["tilted"]


class TestDawson:
    def test_matches_mpmath(self):
        with mp.workdps(40):
            for x in np.concatenate(
                [np.geomspace(1e-14, 100.0, 400), np.linspace(5.0, 7.0, 81)]
            ):
                x = float(x)
                exact = mp.sqrt(mp.pi) / 2 * mp.exp(-mp.mpf(x) ** 2) * mp.erfi(x)
                assert abs(_dawson(x) / float(exact) - 1.0) <= 4e-15, x

    def test_odd_and_zero_at_origin(self):
        assert _dawson(0.0) == 0.0
        for x in (1e-3, 0.7, 5.9, 6.0, 40.0):
            assert _dawson(-x) == -_dawson(x)


class TestHalfPlaneCoherence:
    def test_identical_components_give_half_total(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        pair = free_propagate(evolve_through_magnet(cfg, x_state), 3.0)
        upper = closed_form_upper_coherence(pair)
        total = full_overlap(pair)
        assert abs(total - 1.0) < 1e-12
        assert abs(upper - 0.5 * total) < 1e-12
        assert abs(upper.imag) < 1e-12

    @pytest.mark.parametrize("t", [0.7, 6.0, 55.0])
    def test_matches_closed_form(self, device, x_state, t):
        pair = free_propagate(evolve_through_magnet(device, x_state), t)
        by_quad = quad_coherence(pair)
        closed = closed_form_upper_coherence(pair)
        assert abs(by_quad - closed) < 1e-12

    @pytest.mark.parametrize("when", [0.5, 5.0, 60.0, "settle"])
    @pytest.mark.parametrize("bias", [0.0, 100.0])
    @pytest.mark.parametrize("gradient", [5.0, 50.0, 210.4, 400.0])
    def test_matches_quadrature_across_devices(self, x_state, gradient, bias, when):
        cfg = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=gradient, bias=bias, transit=0.002
        )
        t = phase_settle_time(cfg) if when == "settle" else when
        pair = free_propagate(evolve_through_magnet(cfg, x_state), t)
        closed = closed_form_upper_coherence(pair)
        assert abs(quad_coherence(pair) - closed) <= 1e-11 * abs(closed)

    @pytest.mark.parametrize("bias", [0.0, 37.0])
    def test_matches_mpmath(self, x_state, bias):
        cfg = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=210.4, bias=bias, transit=0.002
        )
        exit_pair = evolve_through_magnet(cfg, x_state)
        for t in ORACLE_TIMES + [phase_settle_time(cfg, 1e-9)]:
            pair = free_propagate(exit_pair, t)
            closed = closed_form_upper_coherence(pair)
            exact = mpmath_upper_coherence(pair)
            for got, want in ((closed.real, exact.real), (closed.imag, exact.imag)):
                assert abs(got - float(want)) <= 4 * math.ulp(float(want)), t

    def test_large_kick_stays_finite(self, x_state):
        # erfi(x) overflows past x ~ 26.6; its product with exp(-x^2) must not
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=12000, bias=0, transit=0.002)
        pair = free_propagate(evolve_through_magnet(cfg, x_state), 0.05)
        closed = closed_form_upper_coherence(pair)
        assert math.isfinite(closed.real) and math.isfinite(closed.imag)
        assert abs(quad_coherence(pair) - closed) <= 1e-10 * abs(closed)

    def test_halves_sum_to_full_overlap(self, device, x_state):
        pair = free_propagate(evolve_through_magnet(device, x_state), 9.0)
        upper = closed_form_upper_coherence(pair)
        lower = quad_coherence(pair, "lower")
        assert abs(upper + lower - full_overlap(pair)) < 1e-9

    def test_cauchy_schwarz_bound(self, device, x_state):
        for t in (0.5, 8.0, 120.0):
            pair = free_propagate(evolve_through_magnet(device, x_state), t)
            bound = math.sqrt(
                upper_fraction(pair, "plus") * upper_fraction(pair, "minus")
            )
            assert abs(closed_form_upper_coherence(pair)) <= bound * (1 + 1e-15)

    def test_larmor_bias_rotates_phase(self, x_state):
        biased = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=210.4, bias=400.0, transit=0.002
        )
        flat = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=210.4, bias=0.0, transit=0.002
        )
        t = 30.0
        c_biased = closed_form_upper_coherence(
            free_propagate(evolve_through_magnet(biased, x_state), t)
        )
        c_flat = closed_form_upper_coherence(
            free_propagate(evolve_through_magnet(flat, x_state), t)
        )
        # bias adds 2 * moment * bias * transit to the coherence argument
        expected = 2.0 * 400.0 * 0.002
        delta = (np.angle(c_biased) - np.angle(c_flat)) % (2 * math.pi)
        assert abs(delta - expected % (2 * math.pi)) < 1e-9


class TestPhaseSettleTime:
    @pytest.mark.parametrize("tol", [1e-6, 1e-8])
    def test_coherence_phase_below_tolerance(self, device, x_state, tol):
        t = phase_settle_time(device, tol)
        pair = free_propagate(evolve_through_magnet(device, x_state), t)
        assert abs(np.angle(closed_form_upper_coherence(pair))) < 0.5 * tol

    def test_zero_kick_needs_no_settling(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        assert phase_settle_time(cfg, 1e-10) == cfg.spreading_time

    def test_saturation_precedes_settle_time(self, tmp_path, x_state):
        # the analytic path post-selects at phase_settle_time alone; over
        # seeded log-uniform devices that load_config accepts, the doubling
        # search it replaced never asked for a later time
        import json
        import random

        from nosignal.cli import ConfigError, load_config

        rng = random.Random(20261018)
        path = tmp_path / "cfg.json"
        checked = 0
        for _ in range(2000):
            sg = {
                name: 10.0 ** rng.uniform(-150.0, 300.0)
                for name in ("mass", "sigma0", "moment", "gradient", "transit")
                if rng.random() < 0.6
            }
            path.write_text(json.dumps({"schema_version": 1, "sg": sg}))
            try:
                cfg = load_config(str(path))
            except ConfigError:
                continue
            sat = saturated_error_fraction(cfg.sg, x_state)
            assert sat.time <= phase_settle_time(cfg.sg), cfg.sg
            checked += 1
        assert checked >= 500
