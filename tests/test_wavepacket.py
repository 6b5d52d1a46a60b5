import cmath
import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import nosignal.wavepacket
from nosignal import (
    SGConfig,
    SpinState,
    asymptotic_error_fraction,
    channel_center,
    component_density,
    phase_settle_tau,
    upper_overlaps,
)
from nosignal.wavepacket import _PHASE_SUM_TOL, _dawson, _norm_cdf
from conftest import (
    channel_phase,
    channel_weight,
    channel_width,
    component_amplitude,
    exit_channels,
    full_overlap,
    quad_coherence,
    saturated_error_fraction,
)

ORACLE_TIMES = [1, 3, 7, 12, 20, 30, 45, 70, 95, 120]
DEFAULT_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "default.json"


def quad_density(config, spin, t, s, lo, hi):
    """Independent oracle: integrate the sampled |psi|^2 of the normalized
    channel s at time t by quadrature."""
    val, _ = quad(
        lambda z: abs(component_amplitude(config, spin, t, s, z)) ** 2,
        lo,
        hi,
        limit=200,
    )
    return val / abs(channel_weight(spin, s)) ** 2


def mpmath_upper_coherence(config, t, dps: int = 40):
    """int_0^inf psi_plus psi_minus^* dz at time t at dps digits, for any
    Gaussian pair.

    Expands the product of the two channels into exp(-A z^2 + B z + D) from
    their exact parameters at time t (the accumulated phases cancel in the
    working precision, not in double) and uses
    int_0^inf exp(-A z^2 + B z) dz = sqrt(pi / A) / 2 exp(B^2 / 4A)
    erfc(-B / (2 sqrt A)).
    """
    with mp.workdps(dps):
        s0, m = mp.mpf(config.sigma0), mp.mpf(config.mass)
        t = mp.mpf(t)
        alpha = 1 + 1j * t / (2 * m * s0**2)
        a_z = 4 * s0**2 * alpha
        a_c = mp.conj(a_z)
        (p_p, o_p, f_p), (p_m, o_m, f_m) = [
            [mp.mpf(v) for v in channel] for channel in exit_channels(config)
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
    def test_zero_field_leaves_identical_components(self):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        (p_plus, _, _), (p_minus, _, _) = exit_channels(cfg)
        assert p_plus == p_minus == 0.0
        assert channel_center(cfg, 0.0) == 0.0
        assert channel_phase(cfg, 0.0, +1) == channel_phase(cfg, 0.0, -1) == 0.0

    def test_up_eigenstate_passes_unsplit(self, device, up_state):
        assert channel_weight(up_state, -1) == 0.0
        assert exit_channels(device)[0][0] == device.momentum_kick > 0

    def test_x_input_splits_symmetrically(self, device, x_state):
        assert abs(channel_weight(x_state, +1) - 1 / math.sqrt(2)) < 1e-12
        assert abs(channel_weight(x_state, -1) - 1 / math.sqrt(2)) < 1e-12
        (p_plus, _, _), (p_minus, _, _) = exit_channels(device)
        assert p_plus == -p_minus == device.momentum_kick

    def test_larmor_phases(self):
        cfg = SGConfig(mass=1, sigma0=1, moment=2, gradient=10, bias=3, transit=0.01)
        assert abs(channel_phase(cfg, 0.0, +1) - 0.06) < 1e-15
        assert abs(channel_phase(cfg, 0.0, -1) + 0.06) < 1e-15


class TestFreePropagation:
    def test_width_spreading_law(self):
        cfg = SGConfig(mass=2, sigma0=0.5, moment=1, gradient=0, bias=0, transit=0)
        t = 1e6
        assert channel_center(cfg, t) == 0.0
        # the peak density 1 / (sqrt(2 pi) sigma(t)) of a unit weight at its
        # center; asymptotically sigma(t) -> t / (2 m sigma0)
        peak = component_density(cfg, t, +1, 1.0, np.zeros(1))[0]
        width = 1.0 / (math.sqrt(2.0 * math.pi) * peak)
        assert abs(width / (t / (2 * 2 * 0.5)) - 1.0) < 1e-9

    def test_centers_drift_with_momentum(self, device):
        center = channel_center(device, 10.0)
        assert abs(center - device.momentum_kick * 10.0) < 1e-12
        # the spin-down channel, centered at -center, is the spin-up one
        # mirrored about z = 0
        z = center + np.linspace(-4.0, 4.0, 17)
        minus = component_density(device, 10.0, -1, 1.0, -z)
        assert np.array_equal(minus, component_density(device, 10.0, +1, 1.0, z))

    def test_components_stay_normalized(self, device, x_state):
        for s in (+1, -1):
            norm = quad_density(device, x_state, 7.3, s, -np.inf, np.inf)
            assert abs(norm - 1.0) < 1e-12


class TestComponentDensity:
    """component_density is |component_amplitude|^2 in closed form, with
    component_amplitude the tests' reference wave function."""

    # CI's chirp device: sigma0**2 = 1e-320 is subnormal
    CHIRP = SGConfig(
        mass=1e300, sigma0=1e-160, moment=1.0, gradient=1e154, bias=0.0, transit=1.0
    )

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        t=st.floats(0.0, 1e4),
        sigma0=st.floats(1e-3, 1e3),
        gradient=st.floats(-1e3, 1e3),
        s=st.sampled_from([+1, -1]),
        up=st.floats(0.0, 1.0),
        phases=st.tuples(st.floats(-math.pi, math.pi), st.floats(-math.pi, math.pi)),
        k=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=8),
    )
    def test_matches_squared_amplitude(self, t, sigma0, gradient, s, up, phases, k):
        # complex weights with |up|^2 + |down|^2 = 1, at |z - c| <= 8 sigma(t)
        spin = SpinState(
            math.sqrt(up) * complex(math.cos(phases[0]), math.sin(phases[0])),
            math.sqrt(1.0 - up) * complex(math.cos(phases[1]), math.sin(phases[1])),
        )
        cfg = SGConfig(
            mass=1.0, sigma0=sigma0, moment=1.0, gradient=gradient, bias=0.5, transit=0.002
        )
        z = s * channel_center(cfg, t) + channel_width(cfg, t) * np.array(k)
        expected = np.abs(component_amplitude(cfg, spin, t, s, z)) ** 2
        density = component_density(cfg, t, s, channel_weight(spin, s), z)
        assert np.all(np.abs(density - expected) <= 1e-13 * expected)

    @pytest.mark.parametrize("t", [0.0, 7.3, 1e4])
    @pytest.mark.parametrize("s", [+1, -1], ids=["plus", "minus"])
    def test_integrates_to_squared_weight(self, device, t, s):
        spin = SpinState(0.48 + 0.64j, 0.36 - 0.48j)
        weight = channel_weight(spin, s)
        # 8 points per sigma(t) out to 40 sigma(t): the sum is the integral
        dz = channel_width(device, t) / 8
        z = s * channel_center(device, t) + dz * np.arange(-320, 321)
        total = float(np.sum(component_density(device, t, s, weight, z))) * dz
        assert abs(total - abs(weight) ** 2) <= 1e-12

    @pytest.mark.parametrize("t", ORACLE_TIMES)
    def test_subnormal_sigma0_squared_against_mpmath(self, x_state, t):
        # the complex form carries sigma0**2 into its norm and exponent, off
        # by 1.2e-5 relative here; the closed form takes only sigma(t)
        cfg = self.CHIRP
        assert 0.0 < cfg.sigma0 * cfg.sigma0 < sys.float_info.min
        grid_z = (np.arange(256) - 128) * 0.25  # the oracle grid of CI's chirp run
        for s in (+1, -1):
            weight = channel_weight(x_state, s)
            z = np.concatenate([
                grid_z,
                s * channel_center(cfg, t)
                + channel_width(cfg, t) * np.linspace(-8.0, 8.0, 33),
            ])
            density = component_density(cfg, t, s, weight, z)
            with mp.workdps(40):
                # at the code's own tau: sigma(t) = sigma0 sqrt(1 + tau^2)
                tau = mp.mpf(t / cfg.spreading_time)
                sigma = mp.mpf(cfg.sigma0) * mp.sqrt(1 + tau**2)
                c = mp.mpf(s * cfg.momentum_kick) * mp.mpf(t) / mp.mpf(cfg.mass)
                scale = abs(mp.mpc(weight)) ** 2 / (mp.sqrt(2 * mp.pi) * sigma)
                for zi, value in zip(z, density):
                    exact = scale * mp.exp(-((mp.mpf(zi) - c) / sigma) ** 2 / 2)
                    if exact < sys.float_info.min:
                        assert value <= sys.float_info.min
                    else:
                        assert abs(mp.mpf(value) - exact) <= 1e-14 * exact


class TestErrorFraction:
    def test_fully_separated_vanishes(self):
        # a large kick (2 dp sigma0 = 10) at a late time
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=2500, bias=0, transit=0.002)
        assert upper_overlaps(cfg, 400.0 / cfg.spreading_time)[1] < 1e-12

    def test_zero_kick_gives_half(self):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        assert upper_overlaps(cfg, 0.0)[1] == 0.5
        assert upper_overlaps(cfg, 25.0 / cfg.spreading_time)[1] == 0.5

    @pytest.mark.parametrize("t", [0.5, 3.0, 40.0])
    def test_matches_quadrature_oracle(self, device, x_state, t):
        oracle = quad_density(device, x_state, t, -1, 0.0, np.inf)
        assert abs(upper_overlaps(device, t / device.spreading_time)[1] - oracle) < 1e-9

    @pytest.mark.parametrize("t", [1.0, 10.0, 80.0])
    def test_two_definitions_agree_for_symmetric_input(self, device, t):
        # upper weight of the down channel == lower weight of the up channel
        upper_plus, upper_minus, _ = upper_overlaps(device, t / device.spreading_time)
        lower_plus = 1.0 - upper_plus
        assert abs(upper_minus - lower_plus) < 1e-12

    def test_monotone_decreasing_after_exit(self, device):
        times = np.linspace(0.0, 400.0, 120)
        values = [upper_overlaps(device, t / device.spreading_time)[1] for t in times]
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
        tau = phase_settle_tau(sg)  # the code's own tau
        with mp.workdps(40):
            a = 2 * mp.mpf(sg.momentum_kick) * mp.mpf(sg.sigma0)
            exact = mp.ncdf(-a * tau / mp.sqrt(1 + mp.mpf(tau) ** 2))
        assert es == pytest.approx(float(exact), rel=1e-13, abs=0.0)


def _accepted_a():
    """a = 2 momentum_kick sigma0: 0, or 10**e of either sign for e in
    [-300, 308], every finite a that load_config accepts."""
    magnitude = st.floats(-300.0, 308.0).map(lambda e: 10.0**e)
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
@example(a=1e308, times=[0.0, 1.0])  # tau_settle capped
@example(a=-6e297, times=[1e-300, 1e308])
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
    taus = [t / cfg.sg.spreading_time for t in sorted(cfg.oracle_times)]
    overlaps = [upper_overlaps(cfg.sg, tau) for tau in taus]
    e_early, e_late = (i_minus for _, i_minus, _ in overlaps)
    if a >= 0:
        assert 0.0 <= e_late <= e_early <= 0.5
    else:
        assert 0.5 <= e_early <= e_late <= 1.0
    settle = phase_settle_tau(cfg.sg)
    for i_plus, i_minus, coherence in overlaps + [upper_overlaps(cfg.sg, settle)]:
        assert 0.0 <= i_plus <= 1.0 and 0.0 <= i_minus <= 1.0
        total = i_plus + i_minus
        assert abs(total - 1.0) <= 4e-16
        assert math.isfinite(coherence.real) and math.isfinite(coherence.imag)
        assert abs(coherence) <= 0.5
    # beyond a ~ 5.6e297 tau_settle caps at the largest float: the ideal
    # device (its mirror for a < 0), where an uncapped inf gave r = NaN
    if settle == sys.float_info.max:
        ideal = (1.0, 0.0, 0j) if a > 0 else (0.0, 1.0, 0j)
        assert upper_overlaps(cfg.sg, settle) == ideal


class TestSaturation:
    """The closed-form tail against the test-side doubling search."""

    @pytest.mark.parametrize("gradient", [0.0, 210.4, 1250.0, 2500.0])
    def test_error_fraction_is_the_closed_form_in_tau(self, gradient):
        # E(t) = Phi(-a tau / sqrt(1 + tau^2)) with a = 2 dp sigma0
        cfg = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=gradient, bias=0, transit=0.002
        )
        a = 2.0 * cfg.momentum_kick * cfg.sigma0
        for t in [0.0, 0.01, 1.0, 37.0, 120.0, 1e4]:
            tau = t / cfg.spreading_time
            expected = _norm_cdf(-a * tau / math.sqrt(1.0 + tau * tau))
            assert upper_overlaps(cfg, tau)[1] == pytest.approx(
                expected, rel=1e-14, abs=0.0
            )

    def test_zero_kick_saturates_at_half(self):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        result = saturated_error_fraction(cfg)
        assert result.value == asymptotic_error_fraction(cfg) == 0.5

    def test_ideal_limit(self):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=2500, bias=0, transit=0.002)
        result = saturated_error_fraction(cfg)
        assert result.value < 1e-6

    def test_matches_closed_form_tail(self, device):
        result = saturated_error_fraction(device, tol=1e-8)
        assert abs(result.value - asymptotic_error_fraction(device)) < 1e-8

    def test_detection_window_is_stable(self, device):
        result = saturated_error_fraction(device, tol=1e-6)
        tau = result.time / device.spreading_time
        e1 = upper_overlaps(device, tau)[1]
        e2 = upper_overlaps(device, 2 * tau)[1]
        assert abs(e2 - e1) < 1e-6

    def test_horizon_violation_raises_with_last_value(self, device, monkeypatch):
        # an E(t) that never settles runs the doubling search past its
        # horizon of 1e9 spreading times
        def unsettled(config, tau):
            e = 0.25 if round(math.log2(tau)) % 2 else 0.125
            return 1.0 - e, e, 0j

        monkeypatch.setattr(nosignal.wavepacket, "upper_overlaps", unsettled)
        message = r"before t = 2e\+09; last sample 0\.25$"
        with pytest.raises(AssertionError, match=message):
            saturated_error_fraction(device, tol=1e-13)

    def test_rejects_bad_tolerance(self, device):
        with pytest.raises(ValueError):
            saturated_error_fraction(device, tol=0.0)


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
    def test_identical_components_give_half_total(self):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        upper = upper_overlaps(cfg, 3.0 / cfg.spreading_time)[2]
        total = full_overlap(cfg, 3.0)
        assert abs(total - 1.0) < 1e-12
        assert abs(upper - 0.5 * total) < 1e-12
        assert abs(upper.imag) < 1e-12

    @pytest.mark.parametrize("t", [0.7, 6.0, 55.0])
    def test_matches_closed_form(self, device, t):
        by_quad = quad_coherence(device, t)
        closed = upper_overlaps(device, t / device.spreading_time)[2]
        assert abs(by_quad - closed) < 1e-12

    @pytest.mark.parametrize("when", [0.5, 5.0, 60.0, "settle"])
    @pytest.mark.parametrize("bias", [0.0, 100.0])
    @pytest.mark.parametrize("gradient", [5.0, 50.0, 210.4, 400.0])
    def test_matches_quadrature_across_devices(self, gradient, bias, when):
        cfg = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=gradient, bias=bias, transit=0.002
        )
        tau = when / cfg.spreading_time if when != "settle" else phase_settle_tau(cfg)
        closed = upper_overlaps(cfg, tau)[2]
        by_quad = quad_coherence(cfg, tau * cfg.spreading_time)
        assert abs(by_quad - closed) <= 1e-11 * abs(closed)

    @pytest.mark.parametrize("bias", [0.0, 37.0])
    def test_matches_mpmath(self, bias):
        cfg = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=210.4, bias=bias, transit=0.002
        )
        for t in ORACLE_TIMES + [phase_settle_tau(cfg) * cfg.spreading_time]:
            closed = upper_overlaps(cfg, t / cfg.spreading_time)[2]
            exact = mpmath_upper_coherence(cfg, t)
            for got, want in ((closed.real, exact.real), (closed.imag, exact.imag)):
                assert abs(got - float(want)) <= 4 * math.ulp(float(want)), t

    def test_large_kick_stays_finite(self):
        # erfi(x) overflows past x ~ 26.6; its product with exp(-x^2) must not
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=12000, bias=0, transit=0.002)
        closed = upper_overlaps(cfg, 0.05 / cfg.spreading_time)[2]
        assert math.isfinite(closed.real) and math.isfinite(closed.imag)
        assert abs(quad_coherence(cfg, 0.05) - closed) <= 1e-10 * abs(closed)

    def test_halves_sum_to_full_overlap(self, device):
        upper = upper_overlaps(device, 9.0 / device.spreading_time)[2]
        lower = quad_coherence(device, 9.0, "lower")
        assert abs(upper + lower - full_overlap(device, 9.0)) < 1e-9

    def test_cauchy_schwarz_bound(self, device):
        for t in (0.5, 8.0, 120.0):
            tau = t / device.spreading_time
            i_plus, i_minus, coherence = upper_overlaps(device, tau)
            bound = math.sqrt(i_plus * i_minus)
            assert abs(coherence) <= bound * (1 + 1e-15)

    def test_larmor_bias_rotates_phase(self):
        biased = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=210.4, bias=400.0, transit=0.002
        )
        flat = SGConfig(
            mass=1, sigma0=1, moment=1, gradient=210.4, bias=0.0, transit=0.002
        )
        tau = 30.0 / flat.spreading_time
        c_biased = upper_overlaps(biased, tau)[2]
        c_flat = upper_overlaps(flat, tau)[2]
        # bias adds 2 * moment * bias * transit to the coherence argument
        expected = 2.0 * 400.0 * 0.002
        delta = (np.angle(c_biased) - np.angle(c_flat)) % (2 * math.pi)
        assert abs(delta - expected % (2 * math.pi)) < 1e-9

    def test_doubled_larmor_phase_past_overflow(self):
        # the larmor-overflow golden case's device: from phi_L ~ 8.99e307 on,
        # phi_L + phi_L overflows and exp(1j * inf) is NaN
        flat = SGConfig(
            mass=1.0, sigma0=1.0, moment=1.0, gradient=0.0004208, bias=0.0, transit=1.0
        )
        tau = phase_settle_tau(flat)
        i_plus, i_minus, base = upper_overlaps(flat, tau)
        for phi in (0.06, -400.0, 1e15, 1e300, 8.98e307, 8.99e307, 1e308, -1e308,
                    sys.float_info.max):
            biased = flat._replace(bias=phi)
            assert biased.larmor_phase == phi
            got = upper_overlaps(biased, tau)
            assert got[:2] == (i_plus, i_minus)
            c = got[2]
            assert math.isfinite(c.real) and math.isfinite(c.imag), phi
            if math.isfinite(phi + phi):
                assert c == base * cmath.exp(1j * (phi + phi)), phi
                continue
            with mp.workdps(400):  # reduces 2 phi_L mod 2 pi exactly
                exact = mp.mpc(base) * mp.expj(2 * mp.mpf(phi))
            for part, want in ((c.real, exact.real), (c.imag, exact.imag)):
                assert abs(part - float(want)) <= 4 * math.ulp(abs(base)), phi


class TestPhaseSettleTau:
    @pytest.mark.parametrize("tol", [1e-6, 1e-8, _PHASE_SUM_TOL])
    def test_coherence_phase_below_tolerance(self, device, tol):
        # the settle law tau ~ 1 / tol, scaled from the module's tolerance to
        # looser ones, still settles the phase: it decays at least like 1/tau
        tau = max(phase_settle_tau(device) * (_PHASE_SUM_TOL / tol), 1.0)
        assert abs(np.angle(upper_overlaps(device, tau)[2])) < 0.5 * tol

    def test_zero_kick_needs_no_settling(self):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.01)
        assert phase_settle_tau(cfg) == 1.0

    def test_saturation_precedes_settle_tau(self, tmp_path):
        # the analytic path post-selects at phase_settle_tau alone; over
        # seeded log-uniform devices that load_config accepts, the doubling
        # search it replaced never asked for a later time.  The search steps
        # in t, so it takes the devices with a finite spreading_time
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
            if not 0.0 < cfg.sg.spreading_time < math.inf:
                continue
            sat = saturated_error_fraction(cfg.sg)
            assert sat.time / cfg.sg.spreading_time <= phase_settle_tau(cfg.sg), cfg.sg
            checked += 1
        assert checked >= 500
