"""Upper-half-plane post-selection of the two-channel packet.

Keeping only particles found at z >= 0 (the lower half being absorbed or
detected) decoheres the spatial-spin entanglement.  Tracing out position
over the retained region leaves a 2x2 spin density matrix

    rho  propto  [ |w_up|^2 I_up              w_up w_down^* C      ]
                 [ (w_up w_down^* C)^*        |w_down|^2 I_down    ]

where w_up/w_down are the input spin's amplitudes, I_up/I_down the
upper-half weights of the normalized channels and C their upper-half
coherence integral.  (I_up, I_down, C) belong to the device and the flight
time alone (wavepacket.upper_overlaps), so one triple serves every input
spin.  Its diagonal gives the effective error fraction, the off-diagonal
argument defines the relative phase; the model "pure" replaces rho by the
pure superposition with them,

    sqrt(1 - E) |up>  +  e^{i phi} sqrt(E) |down>.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple, Optional, Tuple, Union

from .errors import PhaseUndefinedError, PostSelectionError
from .spin import TWO_PI, SpinDensityMatrix, SpinState, make_spin_state

__all__ = [
    "PostSelectedSpin",
    "project_upper",
    "postselected_pure_state",
    "model_state",
    "extract_phase",
    "constraint_residual",
    "shift_cosine",
]


class PostSelectedSpin(NamedTuple):
    """Result of the upper-half projection.

    select_prob: probability that a particle lands in the retained region.
    rho: spin density matrix of the survivors.
    error_fraction: its spin-down population rho_dd.
    phase: relative phase of the down component (see extract_phase) in
        [0, 2 pi), or None when the coherence is too small to define one
        (single-channel inputs).
    """

    select_prob: float
    rho: SpinDensityMatrix
    error_fraction: float
    phase: Optional[float]


def extract_phase(rho: SpinDensityMatrix) -> float:
    """Relative phase of the down component, mapped to [0, 2 pi).

    This is arg of the down-up matrix element, so that the projector onto
    sqrt(1-E)|up> + e^{i phi} sqrt(E)|down> round-trips to exactly phi.
    Raises PhaseUndefinedError when the coherence magnitude is below a tol
    that scales with the geometric mean of the populations, floored at 1e-14.
    """
    coherence = rho.matrix[1][0]
    tol = max(1e-10 * math.sqrt(abs(rho.up_up * rho.down_down)), 1e-14)
    if abs(coherence) < tol:
        raise PhaseUndefinedError(
            f"coherence magnitude {abs(coherence):.2e} below {tol:.2e}; "
            "phase undefined"
        )
    return cmath.phase(coherence) % TWO_PI


def constraint_residual(phi_plus: float, phi_minus: float) -> float:
    """cos(phi_plus) + cos(phi_minus).

    Vanishes exactly when phi_plus +- phi_minus = pi (mod 2 pi), covering
    both sign branches of the phase constraint.
    """
    return math.cos(phi_plus) + math.cos(phi_minus)


def shift_cosine(post: PostSelectedSpin, x: float) -> PostSelectedSpin:
    """post with its phase moved to acos(cos phi + x), clamped to [0, pi].

    The down-up coherence turns to the new phase and keeps its modulus; the
    diagonal is untouched.  This is the negative control of verify and
    estimate: x != 0 breaks cos(phi_+) + cos(phi_-) = 0 by x on one branch.
    """
    phase = math.acos(min(max(math.cos(post.phase) + x, -1.0), 1.0))
    (uu, _), (du, dd) = post.rho.matrix
    coherence = cmath.rect(abs(du), phase)
    rho = SpinDensityMatrix(((uu, coherence.conjugate()), (coherence, dd)))
    return post._replace(rho=rho, phase=phase)


def postselected_pure_state(error_fraction: float, phase: float) -> SpinState:
    """The pure-state form sqrt(1-E)|up> + e^{i phi} sqrt(E)|down>."""
    if not 0.0 <= error_fraction <= 1.0:
        raise ValueError(f"error fraction must be in [0, 1], got {error_fraction}")
    return make_spin_state(
        math.sqrt(1.0 - error_fraction),
        cmath.exp(1j * phase) * math.sqrt(error_fraction),
    )


def model_state(
    post: PostSelectedSpin, model: str
) -> Union[SpinDensityMatrix, SpinState]:
    """The projected density matrix, or for model "pure" the pure ansatz."""
    if model == "projected":
        return post.rho
    return postselected_pure_state(post.error_fraction, post.phase or 0.0)


def project_upper(
    spin: SpinState, overlaps: Tuple[float, float, complex]
) -> PostSelectedSpin:
    """Send spin through the device, project onto z >= 0 and trace out z;
    overlaps is the device's (I_up, I_down, C) at the flight time."""
    i_up, i_down, upper_coherence = overlaps
    w_up = spin.amp_up
    w_down = spin.amp_down
    up_mass = abs(w_up) ** 2 * i_up
    down_mass = abs(w_down) ** 2 * i_down
    select_prob = up_mass + down_mass
    if select_prob < 1e-12:
        raise PostSelectionError(
            f"selection probability {select_prob:.2e}: nothing post-selected"
        )
    if abs(w_up) > 0 and abs(w_down) > 0:
        coherence = complex(w_up * w_down.conjugate() * upper_coherence)
        # rounding alone can put |C| a few 1e-16 relative past sqrt(I+ I-)
        bound = math.sqrt(up_mass * down_mass)
        if abs(coherence) > bound:
            coherence *= bound / abs(coherence)
    else:
        coherence = 0.0 + 0.0j
    # component-wise real division: complex-division algorithms would turn
    # the exact down_mass / select_prob == 1.0 of one-channel inputs into
    # 1 - 1ulp and leak a spurious sqrt(ulp) coherence downstream
    coherence = complex(coherence.real / select_prob, coherence.imag / select_prob)
    rho = SpinDensityMatrix(
        (
            (up_mass / select_prob, coherence),
            (coherence.conjugate(), down_mass / select_prob),
        )
    )
    try:
        phase = extract_phase(rho)
    except PhaseUndefinedError:
        phase = None
    return PostSelectedSpin(
        select_prob=float(select_prob),
        rho=rho,
        error_fraction=float(rho.down_down.real),
        phase=phase,
    )
