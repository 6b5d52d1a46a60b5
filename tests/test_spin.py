import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nosignal import (
    SpinDensityMatrix,
    SpinState,
    born_probabilities,
    born_probability,
    branch_table,
    make_spin_state,
    model_state,
    postselected_pure_state,
    sigma_eigenstate,
    singlet_conditional,
)
from nosignal.protocol import MODELS
from nosignal.spin import TWO_PI, smaller_eigenvalue, wrap_to_pi
from conftest import mixture

ATOL = 1e-12


def sigma_matrix(theta: float) -> np.ndarray:
    sz = np.array([[1.0, 0.0], [0.0, -1.0]])
    sx = np.array([[0.0, 1.0], [1.0, 0.0]])
    return math.cos(theta) * sz + math.sin(theta) * sx


class TestMakeSpinState:
    def test_basis_state(self):
        st = make_spin_state(1, 0)
        assert st.amp_up == 1.0 and st.amp_down == 0.0

    def test_normalization(self):
        st = make_spin_state(1, 1)
        assert abs(st.amp_up - 1 / math.sqrt(2)) < ATOL
        assert abs(st.amp_down - 1 / math.sqrt(2)) < ATOL

    def test_zero_up_keeps_down_phase(self):
        st = make_spin_state(0, 2j)
        assert st.amp_up == 0
        assert abs(abs(st.amp_down) - 1.0) < ATOL
        assert abs(st.amp_down - 1j) < ATOL

    def test_canonical_global_phase(self):
        st = make_spin_state(-1.0, 1.0j)
        assert st.amp_up.real > 0 and abs(st.amp_up.imag) < ATOL

    def test_rejects_null_vector(self):
        with pytest.raises(ValueError):
            make_spin_state(0, 1e-16)


class TestSigmaEigenstate:
    def test_z_axis(self):
        st = sigma_eigenstate(0.0, +1)
        assert st.amp_up == 1.0 and st.amp_down == 0.0

    def test_x_axis(self):
        st = sigma_eigenstate(math.pi / 2, +1)
        assert abs(st.amp_up - 1 / math.sqrt(2)) < ATOL
        assert abs(st.amp_down - 1 / math.sqrt(2)) < ATOL

    def test_pi_third_against_diagonalization(self):
        # independent oracle: numerically diagonalize the observable
        theta = math.pi / 3
        evals, evecs = np.linalg.eigh(sigma_matrix(theta))
        oracle = evecs[:, np.argmax(evals)]
        oracle = oracle * np.sign(oracle[0])
        st = sigma_eigenstate(theta, +1)
        assert np.allclose(st.vector(), oracle, atol=ATOL)
        assert abs(st.amp_up - math.sqrt(3) / 2) < ATOL
        assert abs(st.amp_down - 0.5) < ATOL

    @pytest.mark.parametrize("theta", np.linspace(0, 2 * math.pi, 17))
    def test_eigenvalue_equation_and_orthogonality(self, theta):
        m = sigma_matrix(theta)
        plus = sigma_eigenstate(theta, +1).vector()
        minus = sigma_eigenstate(theta, -1).vector()
        assert np.allclose(m @ plus, plus, atol=ATOL)
        assert np.allclose(m @ minus, -np.asarray(minus), atol=ATOL)
        assert abs(np.vdot(plus, minus)) < ATOL

    def test_rejects_bad_outcome(self):
        with pytest.raises(ValueError):
            sigma_eigenstate(0.0, 0)


class TestBornProbability:
    def test_eigenstate_is_certain(self):
        assert born_probability(make_spin_state(1, 0), 0.0, +1) == 1.0

    def test_maximally_mixed_is_isotropic(self):
        rho = mixture(
            [(0.5, make_spin_state(1, 0)), (0.5, make_spin_state(0, 1))]
        )
        for theta in (0.0, 0.7, math.pi / 2, 2.9):
            assert abs(born_probability(rho, theta, +1) - 0.5) < ATOL

    @pytest.mark.parametrize("es", [0.0, 0.1, 0.37, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("phi", [0.0, 0.6, math.pi / 2, 2.8])
    def test_superposition_probability_formula(self, es, phi):
        # p(+1) = 1/2 [1 + (1-2E) cos(theta) + 2 sqrt(E(1-E)) sin(theta) cos(phi)]
        state = make_spin_state(
            math.sqrt(1 - es), np.exp(1j * phi) * math.sqrt(es)
        )
        for theta in (0.0, 0.4, math.pi / 3, math.pi / 2, 2.5, math.pi):
            expected = 0.5 * (
                1
                + (1 - 2 * es) * math.cos(theta)
                + 2 * math.sqrt(es * (1 - es)) * math.sin(theta) * math.cos(phi)
            )
            assert abs(born_probability(state, theta, +1) - expected) < ATOL

    @pytest.mark.parametrize("theta", np.linspace(0, 2 * math.pi, 9))
    def test_outcomes_sum_to_one(self, theta):
        state = make_spin_state(0.3 - 0.1j, 0.8 + 0.5j)
        total = born_probability(state, theta, +1) + born_probability(
            state, theta, -1
        )
        assert abs(total - 1.0) < ATOL

    def test_linearity_over_mixtures(self):
        a = make_spin_state(1, 0.5j)
        b = make_spin_state(0.2, -1)
        rho = mixture([(0.3, a), (0.7, b)])
        for theta in (0.2, 1.1, 2.0):
            direct = born_probability(rho, theta, +1)
            averaged = 0.3 * born_probability(a, theta, +1) + 0.7 * born_probability(
                b, theta, +1
            )
            assert abs(direct - averaged) < ATOL

    @pytest.mark.parametrize("axis", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_axis(self, axis):
        with pytest.raises(ValueError, match="finite"):
            born_probability(make_spin_state(1, 1), axis, +1)


def frozen_born_probability(state, axis, outcome):
    """born_probability as it was before born_probabilities, one axis a call."""
    e_up, e_down = sigma_eigenstate(axis, outcome).vector()
    bra_up, bra_down = e_up.conjugate(), e_down.conjugate()
    if isinstance(state, SpinState):
        p = abs(bra_up * state.amp_up + bra_down * state.amp_down) ** 2
    else:
        (uu, ud), (du, dd) = state.matrix
        p = (
            (bra_up * uu + bra_down * du) * e_up
            + (bra_up * ud + bra_down * dd) * e_down
        ).real
    assert -ATOL <= p <= 1.0 + ATOL
    return min(max(p, 0.0), 1.0)


_amplitude = st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False)
_spin_states = (
    st.tuples(_amplitude, _amplitude)
    .filter(lambda pair: abs(pair[0]) ** 2 + abs(pair[1]) ** 2 > 1e-20)
    .map(lambda pair: make_spin_state(*pair))
)
# the "pure" model's ansatz, and "projected"-like mixtures of two pure states
_states = st.one_of(
    st.builds(postselected_pure_state, st.floats(0.0, 1.0), st.floats(-math.pi, math.pi)),
    _spin_states,
    st.builds(
        lambda w, a, b: mixture([(w, a), (1.0 - w, b)]),
        st.floats(0.0, 1.0), _spin_states, _spin_states,
    ),
)
_EDGE_AXES = (0.0, -0.0, math.pi, -math.pi, 1e300, -1e300, TWO_PI)
_axes = st.lists(
    st.one_of(st.floats(-10.0, 10.0), st.sampled_from(_EDGE_AXES)), max_size=8
)


class TestBornProbabilities:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(state=_states, axes=_axes, outcome=st.sampled_from((+1, -1)))
    def test_equals_born_probability_per_axis(self, state, axes, outcome):
        # repr tells -0.0 from 0.0, so equal strings are equal bits
        ps = born_probabilities(state, axes, outcome)
        assert repr(ps) == repr([born_probability(state, a, outcome) for a in axes])
        assert repr(ps) == repr([frozen_born_probability(state, a, outcome) for a in axes])

    def test_model_states_of_a_branch_table(self, device):
        # the states verify measures: each branch's post-selected spin in
        # both models, on the edge axes
        table = branch_table(device, [0.3, math.pi / 2, 2.5])
        branches = [*table.aligned.values()]
        for _, rotated in table.rotated:
            branches += rotated.values()
        posts = [post for _, post in branches if post is not None]
        assert len(posts) == 8
        for model in MODELS:
            for post in posts:
                state = model_state(post, model)
                for outcome in (+1, -1):
                    assert repr(born_probabilities(state, _EDGE_AXES, outcome)) == repr(
                        [frozen_born_probability(state, a, outcome) for a in _EDGE_AXES]
                    )

    @pytest.mark.parametrize(
        "state",
        [
            SpinState._make((1.5, 0.0)),
            SpinDensityMatrix._make((((1.5, 0.0), (0.0, -0.5)),)),
        ],
        ids=["pure", "density"],
    )
    def test_out_of_range_state_raises_assertion_error(self, state):
        # _make skips the checks; the Born rule's range check still fires
        for call in (
            lambda: born_probabilities(state, [1.0, 0.0], +1),
            lambda: born_probability(state, 0.0, +1),
        ):
            with pytest.raises(AssertionError, match="out of range"):
                call()

    @pytest.mark.parametrize("axes", [[], [0.0, 1.0]])
    def test_unsupported_state_type_raises_type_error(self, axes):
        state = (1.0, 0.0)
        with pytest.raises(TypeError, match="unsupported state type: tuple"):
            born_probabilities(state, axes, +1)
        with pytest.raises(TypeError, match="unsupported state type: tuple"):
            born_probability(state, 0.0, +1)


class TestAgainstNumpy:
    """The plain-Python 2x2 algebra against numpy's complex linear algebra."""

    @staticmethod
    def random_state(rng):
        up, down = rng.normal(size=2) + 1j * rng.normal(size=2)
        return make_spin_state(up, down)

    def test_born_probability_matches_vdot_and_matmul(self):
        rng = np.random.default_rng(20261018)
        worst = 0.0
        for _ in range(500):
            psi = self.random_state(rng)
            w = rng.uniform()
            rho = mixture([(w, psi), (1.0 - w, self.random_state(rng))])
            rho_np = np.asarray(rho.matrix)
            for theta in rng.uniform(0.0, 2.0 * math.pi, size=2):
                for outcome in (+1, -1):
                    e = np.asarray(sigma_eigenstate(theta, outcome).vector())
                    pure = abs(np.vdot(e, psi.vector())) ** 2
                    mixed = np.real(e.conj() @ rho_np @ e)
                    worst = max(
                        worst,
                        abs(born_probability(psi, theta, outcome) - pure),
                        abs(born_probability(rho, theta, outcome) - mixed),
                    )
        # numpy's complex products may end in fused multiply-adds
        assert worst <= 4 * math.ulp(1.0)

    def test_smaller_eigenvalue_matches_eigvalsh(self):
        rng = np.random.default_rng(20261019)
        worst = 0.0
        for i in range(1000):
            if i % 2:  # Hermitian, often indefinite
                a, d, x, y = rng.uniform(-1.0, 1.0, size=4)
                m = ((a, complex(x, y)), (complex(x, -y), d))
            elif i % 4:  # mixed
                w = rng.uniform()
                parts = [(w, self.random_state(rng)), (1.0 - w, self.random_state(rng))]
                m = mixture(parts).matrix
            else:  # pure: the smaller eigenvalue is 0, found by cancellation
                m = self.random_state(rng).density().matrix
            expected = np.linalg.eigvalsh(np.asarray(m))[0]
            worst = max(worst, abs(smaller_eigenvalue(m) - expected))
        assert worst <= 1e-15

    def test_density_checks_reject_nan_and_negative_eigenvalue(self):
        with pytest.raises(ValueError, match="Hermitian"):
            SpinDensityMatrix(((0.5, math.nan), (math.nan, 0.5)))
        with pytest.raises(ValueError, match="negative eigenvalue"):
            SpinDensityMatrix(((0.5, 0.6), (0.6, 0.5)))


class TestMixture:
    def test_equal_x_mixture_is_maximally_mixed(self):
        rho = mixture(
            [(0.5, make_spin_state(1, 1)), (0.5, make_spin_state(1, -1))]
        )
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=ATOL)

    def test_equal_z_mixture_is_maximally_mixed(self):
        rho = mixture(
            [(0.5, make_spin_state(1, 0)), (0.5, make_spin_state(0, 1))]
        )
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=ATOL)

    def test_pure_projector(self):
        rho = mixture([(1.0, make_spin_state(1, 1))])
        assert np.allclose(rho.matrix, np.full((2, 2), 0.5), atol=ATOL)

    def test_rejects_bad_weights(self):
        with pytest.raises(ValueError):
            mixture([(0.6, make_spin_state(1, 0)), (0.6, make_spin_state(0, 1))])
        with pytest.raises(ValueError):
            mixture([(-0.5, make_spin_state(1, 0)), (1.5, make_spin_state(0, 1))])


class TestSingletConditional:
    def test_anticorrelation_along_z(self):
        prob, state = singlet_conditional(0.0, +1)
        assert prob == 0.5
        assert abs(state.amp_up) < ATOL and abs(abs(state.amp_down) - 1) < ATOL

    def test_anticorrelation_along_x(self):
        prob, state = singlet_conditional(math.pi / 2, +1)
        rho = state.density().matrix
        minus_x = np.array([1, -1]) / math.sqrt(2)
        assert abs(prob - 0.5) < ATOL
        assert np.allclose(rho, np.outer(minus_x, minus_x), atol=ATOL)

    @pytest.mark.parametrize("omega", np.linspace(0, 2 * math.pi, 13))
    def test_marginal_is_maximally_mixed(self, omega):
        # assemble the Alice-marginal Bob state through mixture()
        parts = []
        for outcome in (+1, -1):
            prob, state = singlet_conditional(omega, outcome)
            parts.append((prob, state))
        rho = mixture(parts)
        assert np.allclose(rho.matrix, np.eye(2) / 2, atol=ATOL)


def fmod_wrap(x: float) -> float:
    """wrap_to_pi's earlier form: it rounds x + pi, so an angle near 0 comes
    back as a multiple of ulp(pi)."""
    y = math.fmod(x + math.pi, TWO_PI)
    if y <= 0:
        y += TWO_PI
    return y - math.pi


class TestWrapToPi:
    @pytest.mark.parametrize("x", [3e-4, 1e-300, 0.0, -0.0, math.pi, -3.0, 1.0])
    def test_angle_in_range_comes_back_bit_for_bit(self, x):
        assert repr(wrap_to_pi(x)) == repr(x)

    def test_minus_pi_is_pi(self):
        assert repr(wrap_to_pi(-math.pi)) == repr(math.pi)
        assert wrap_to_pi(3.0 * math.pi) == math.pi

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(x=st.floats(-1e3, 1e3))
    def test_exact_remainder_near_the_fmod_form(self, x):
        y = wrap_to_pi(x)
        assert -math.pi < y <= math.pi
        # x - y is an exact multiple of the float 2 pi: no rounding at all
        assert ((Fraction(x) - Fraction(y)) / Fraction(TWO_PI)).denominator == 1
        # the fmod form rounds x + pi once (half an ulp of x or of pi) and
        # may land on the other end of the range
        gap = abs(y - fmod_wrap(x))
        assert min(gap, abs(gap - TWO_PI)) <= math.ulp(math.pi) + math.ulp(x)
