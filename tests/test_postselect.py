import math

import numpy as np
import pytest

from nosignal import (
    PhaseUndefinedError,
    PostSelectionError,
    SGConfig,
    asymptotic_error_fraction,
    born_probability,
    constraint_residual,
    extract_phase,
    make_spin_state,
    postselected_pure_state,
    project_upper,
    shift_cosine,
    sigma_eigenstate,
    upper_overlaps,
)
from nosignal.spin import smaller_eigenvalue, wrap_to_pi
from conftest import device_for_error_fraction, pure_density


def settled(config, t=400.0):
    """The device's upper-half overlaps after a late free flight."""
    return upper_overlaps(config, t / config.spreading_time)


class TestPureStateForm:
    def test_zero_error_fraction_is_up(self):
        st = postselected_pure_state(0.0, 1.234)
        assert st.amp_up == 1.0 and st.amp_down == 0.0

    def test_half_with_zero_phase_is_plus_x(self):
        st = postselected_pure_state(0.5, 0.0)
        assert abs(st.amp_up - 1 / math.sqrt(2)) < 1e-12
        assert abs(st.amp_down - 1 / math.sqrt(2)) < 1e-12

    def test_quadrature_phase_hides_coherence_from_x(self):
        # p(+1 along x) = 1/2 + sqrt(E(1-E)) cos(phi) -> 1/2 at phi = pi/2
        st = postselected_pure_state(0.1, math.pi / 2)
        assert abs(born_probability(st, math.pi / 2, +1) - 0.5) < 1e-12

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            postselected_pure_state(-0.1, 0.0)
        with pytest.raises(ValueError):
            postselected_pure_state(1.1, 0.0)


class TestExtractPhase:
    def test_round_trip(self):
        rho = pure_density(postselected_pure_state(0.2, 1.3))
        assert abs(extract_phase(rho) - 1.3) < 1e-12

    def test_diagonal_matrix_has_no_phase(self):
        rho = pure_density(postselected_pure_state(0.0, 0.0))
        with pytest.raises(PhaseUndefinedError):
            extract_phase(rho)

    def test_result_in_principal_range(self):
        rho = pure_density(postselected_pure_state(0.3, -0.7))
        phase = extract_phase(rho)
        assert 0.0 <= phase < 2 * math.pi
        assert abs(phase - (2 * math.pi - 0.7)) < 1e-12


class TestConstraintResidual:
    def test_both_right_angles(self):
        assert constraint_residual(math.pi / 2, math.pi / 2) == pytest.approx(0.0, abs=1e-15)

    def test_supplementary_phases_cancel(self):
        assert constraint_residual(math.pi / 3, 2 * math.pi / 3) == pytest.approx(
            0.0, abs=1e-15
        )

    def test_generic_value(self):
        # direct evaluation: cos 0.3 + cos 0.5 = 1.8329190510159788
        assert constraint_residual(0.3, 0.5) == math.cos(0.3) + math.cos(0.5)
        assert constraint_residual(0.3, 0.5) == pytest.approx(1.83292, abs=1e-5)


class TestProjectUpper:
    def test_up_input_case(self, device, up_state):
        # survival probability 1 - E_s, pure up state afterwards
        post = project_upper(up_state, settled(device))
        es = asymptotic_error_fraction(device)
        assert abs(post.select_prob - (1 - es)) < 1e-4
        assert np.allclose(post.rho.matrix, [[1, 0], [0, 0]], atol=1e-12)
        assert post.phase is None
        assert post.error_fraction == 0.0

    def test_x_input_ideal_limit(self, x_state):
        ideal = SGConfig(mass=1, sigma0=1, moment=1, gradient=2500, bias=0, transit=0.002)
        post = project_upper(x_state, settled(ideal))
        assert abs(post.select_prob - 0.5) < 1e-6
        assert np.allclose(post.rho.matrix, [[1, 0], [0, 0]], atol=1e-6)

    def test_x_input_generic(self, device, x_state):
        overlaps = settled(device)
        post = project_upper(x_state, overlaps)
        assert abs(post.select_prob - 0.5) < 1e-9
        assert abs(post.error_fraction - overlaps[1]) < 1e-12

    def test_consistency_with_z_measurement(self, device, x_state):
        post = project_upper(x_state, settled(device))
        p_up = born_probability(post.rho, 0.0, +1)
        assert abs(p_up - post.rho.up_up.real) < 1e-12
        assert abs(post.error_fraction - (1 - p_up)) < 1e-12

    def test_nothing_selected_raises(self):
        # a spin-down input under a large kick (2 dp sigma0 = 10) at a late
        # time: its one channel sits below z = 0
        ideal = SGConfig(mass=1, sigma0=1, moment=1, gradient=2500, bias=0, transit=0.002)
        with pytest.raises(PostSelectionError):
            project_upper(make_spin_state(0.0, 1.0), settled(ideal))


class TestShiftCosine:
    @pytest.fixture
    def post(self):
        # the bias turns the plus-x beam's phase from 2 pi to about 2 pi - 2,
        # in (pi, 2 pi), which acos maps to [0, pi]
        biased = SGConfig(
            mass=1.0, sigma0=1.0, moment=1.0, gradient=210.4, bias=500.0, transit=0.002
        )
        return project_upper(make_spin_state(1.0, 1.0), settled(biased))

    @pytest.mark.parametrize("x", [0.1, -0.25, 0.6])
    def test_moves_only_the_phase(self, post, x):
        shifted = shift_cosine(post, x)
        (uu, ud), (du, dd) = shifted.rho.matrix
        assert shifted.phase == math.acos(math.cos(post.phase) + x)
        assert uu == post.rho.up_up and dd == post.rho.down_down
        assert shifted.error_fraction == post.error_fraction
        assert shifted.select_prob == post.select_prob
        # cmath.rect(r, phase) rounds its two parts, so |rect| may be r +- 1 ulp
        modulus = abs(post.rho.matrix[1][0])
        assert abs(abs(du) - modulus) <= math.ulp(modulus)
        assert ud == du.conjugate()
        assert abs(extract_phase(shifted.rho) - shifted.phase) < 1e-12

    @pytest.mark.parametrize("x, phase", [(3.0, 0.0), (-3.0, math.pi)])
    def test_clamps_to_a_valid_density_matrix(self, post, x, phase):
        shifted = shift_cosine(post, x)
        assert shifted.phase == phase
        assert smaller_eigenvalue(shifted.rho.matrix) >= 0.0
        assert abs(shifted.rho.matrix[1][0].imag) < 1e-15


class TestPhaseFlipBetweenOppositeInputs:
    def test_x_inputs_differ_by_pi(self, device):
        plus_x = make_spin_state(1.0, 1.0)
        minus_x = make_spin_state(1.0, -1.0)
        post_a = project_upper(plus_x, settled(device))
        post_b = project_upper(minus_x, settled(device))
        delta = wrap_to_pi(post_a.phase - post_b.phase + math.pi)
        assert abs(delta) < 1e-9

    @pytest.mark.parametrize("target", [0.05, 0.2, 0.4])
    @pytest.mark.parametrize("omega", [math.pi / 6, math.pi / 2, 2.2])
    def test_opposite_polarizations_differ_by_pi(self, target, omega):
        config = device_for_error_fraction(target)
        post = {}
        for outcome in (+1, -1):
            beam = sigma_eigenstate(omega, outcome)
            post[outcome] = project_upper(beam, settled(config))
        delta = wrap_to_pi(post[+1].phase - post[-1].phase + math.pi)
        assert abs(delta) < 1e-9
        # and the cosine-sum form of the constraint holds
        assert abs(constraint_residual(post[+1].phase, post[-1].phase)) < 1e-9
