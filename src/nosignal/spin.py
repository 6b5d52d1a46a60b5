"""Exact two-level spin algebra.

States and density matrices live in the sigma_z eigenbasis {up, down}.
Measurement axes are restricted to the x-z plane: the observable at angle
theta from +z is

    sigma_theta = cos(theta) sigma_z + sin(theta) sigma_x

whose +1 eigenstate is (cos(theta/2), sin(theta/2)).  Pure states are kept
in a canonical global phase (up amplitude real and non-negative whenever it
is nonzero) so that equality checks in tests are well defined.  The algebra
is plain Python complex arithmetic; a 2x2 matrix is a pair of rows.
"""

from __future__ import annotations

import cmath
import functools
import math
from itertools import repeat
from typing import Iterable, List, NamedTuple, Tuple, Union

ATOL = 1e-12
TWO_PI = 2.0 * math.pi

Matrix = Tuple[Tuple[complex, complex], Tuple[complex, complex]]


def wrap_to_pi(x: float) -> float:
    """Wrap an angle to (-pi, pi]; exact, so x in (-pi, pi] comes back unchanged."""
    y = math.remainder(x, TWO_PI)
    return math.pi if y == -math.pi else y


# A NamedTuple body may not define __new__, so each checked value type is a
# NamedTuple of its fields and a subclass that checks them in __new__.
# _replace and _make build through tuple.__new__ and skip the checks.
class _SpinStateFields(NamedTuple):
    amp_up: complex
    amp_down: complex


class SpinState(_SpinStateFields):
    """Normalized two-level pure state; build via :func:`make_spin_state`."""

    __slots__ = ()

    def __new__(cls, amp_up, amp_down) -> SpinState:
        norm = abs(amp_up) ** 2 + abs(amp_down) ** 2
        if abs(norm - 1.0) > ATOL:
            raise ValueError(f"state not normalized: |psi|^2 = {norm}")
        return super().__new__(cls, amp_up, amp_down)


def make_spin_state(amp_up: complex, amp_down: complex) -> SpinState:
    """Normalize (amp_up, amp_down) and fix the canonical global phase.

    Raises ValueError for a near-zero input vector.
    """
    a, b = complex(amp_up), complex(amp_down)
    norm_sq = abs(a) ** 2 + abs(b) ** 2
    if norm_sq <= 1e-30:
        raise ValueError("cannot normalize a near-zero spin vector")
    scale = 1.0 / math.sqrt(norm_sq)
    a, b = a * scale, b * scale
    if abs(a) > 1e-12:
        rotation = cmath.exp(-1j * cmath.phase(a))
        a, b = complex(abs(a), 0.0), b * rotation
    return SpinState(a, b)


def smaller_eigenvalue(matrix: Matrix) -> float:
    """Smaller eigenvalue of the Hermitian part of a 2x2 matrix, in closed form."""
    (uu, ud), (du, dd) = matrix
    a, d = uu.real, dd.real
    return 0.5 * (a + d) - math.hypot(0.5 * (a - d), 0.5 * abs(ud + du.conjugate()))


# the fields; SpinDensityMatrix coerces and checks them in __new__
class _SpinDensityMatrixFields(NamedTuple):
    matrix: Matrix


class SpinDensityMatrix(_SpinDensityMatrixFields):
    """2x2 Hermitian, unit-trace, positive semi-definite matrix.

    Takes any nested 2x2 sequence of numbers, stored as a pair of rows of
    complex; NaN entries fail the checks.
    """

    __slots__ = ()

    def __new__(cls, matrix) -> SpinDensityMatrix:
        m = tuple(tuple(complex(x) for x in row) for row in matrix)
        if len(m) != 2 or any(len(row) != 2 for row in m):
            raise ValueError("density matrix must be 2x2")
        (uu, ud), (du, dd) = m
        if not (
            abs(ud - du.conjugate()) <= ATOL
            and 2.0 * abs(uu.imag) <= ATOL
            and 2.0 * abs(dd.imag) <= ATOL
        ):
            raise ValueError("density matrix not Hermitian")
        trace = uu + dd
        if not (abs(trace.real - 1.0) <= ATOL and abs(trace.imag) <= ATOL):
            raise ValueError("density matrix trace != 1")
        if not smaller_eigenvalue(m) >= -ATOL:
            raise ValueError("density matrix has a negative eigenvalue")
        return super().__new__(cls, m)

    @property
    def up_up(self) -> complex:
        return self.matrix[0][0]

    @property
    def up_down(self) -> complex:
        return self.matrix[0][1]

    @property
    def down_down(self) -> complex:
        return self.matrix[1][1]


# verify measures every omega's branches at the same thetas.  Keys that
# compare equal build equal bits: float() of equal numbers is equal, and
# -0.0 % TWO_PI is 0.0.  The bound holds far more thetas than a grid has.
@functools.lru_cache(maxsize=4096)
def sigma_eigenstate(axis: float, outcome: int) -> SpinState:
    """Eigenstate of sigma_theta with eigenvalue +1 or -1; axis in radians from +z.

    Memoized: a repeated (axis, outcome) returns the same immutable state.
    """
    if outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    axis = float(axis)
    if not math.isfinite(axis):
        raise ValueError("axis angle must be finite")
    half = 0.5 * (axis % TWO_PI)
    if outcome == +1:
        return make_spin_state(math.cos(half), math.sin(half))
    return make_spin_state(-math.sin(half), math.cos(half))


def born_probabilities(
    state: Union[SpinState, SpinDensityMatrix],
    axes: Iterable[float],
    outcome: int,
) -> List[float]:
    """Probability of `outcome` when measuring sigma_theta on `state`, per axis.

    The state is dispatched on and unpacked once, and each axis's eigenvector
    and its conjugates are taken once.
    """
    kets = list(map(sigma_eigenstate, axes, repeat(outcome)))  # (e_up, e_down)
    if isinstance(state, SpinState):
        amp_up, amp_down = state
        ps = [
            abs(e_up.conjugate() * amp_up + e_down.conjugate() * amp_down) ** 2
            for e_up, e_down in kets
        ]
    elif isinstance(state, SpinDensityMatrix):
        # <e| rho |e>, the row vector <e| rho first
        (uu, ud), (du, dd) = state.matrix
        ps = [
            (
                (bra_up * uu + bra_down * du) * e_up
                + (bra_up * ud + bra_down * dd) * e_down
            ).real
            for e_up, e_down in kets
            for bra_up, bra_down in [(e_up.conjugate(), e_down.conjugate())]
        ]
    else:
        raise TypeError(f"unsupported state type: {type(state).__name__}")
    for p in ps:
        if not -ATOL <= p <= 1.0 + ATOL:
            raise AssertionError(f"Born probability out of range: {p}")
    return [min(max(p, 0.0), 1.0) for p in ps]


def born_probability(
    state: Union[SpinState, SpinDensityMatrix],
    axis: float,
    outcome: int,
) -> float:
    """The one-axis view of born_probabilities."""
    return born_probabilities(state, (axis,), outcome)[0]


def singlet_conditional(
    alice_axis: float, alice_outcome: int
) -> Tuple[float, SpinState]:
    """Condition the two-particle singlet on Alice's sigma_omega outcome.

    Either outcome occurs with probability 1/2 and leaves the partner in
    the opposite sigma_omega eigenstate (perfect anti-correlation).
    """
    if alice_outcome not in (+1, -1):
        raise ValueError("outcome must be +1 or -1")
    return 0.5, sigma_eigenstate(alice_axis, -alice_outcome)
