"""Spatial dynamics of a spin-1/2 packet in a non-ideal Stern-Gerlach device.

Model (natural units, hbar = 1, 1-D along the field axis z):

* The incoming packet is Gaussian with position-density standard
  deviation sigma0,

      psi0(z) = (2 pi sigma0^2)^(-1/4) exp(-z^2 / (4 sigma0^2)).

* Magnet transit is impulsive: the position is frozen while the two spin
  channels acquire opposite momentum kicks +-dp, dp = moment * gradient *
  transit, and opposite Larmor phases +-moment * bias * transit.

* Free propagation of each Gaussian channel is exact.  With
  a(t) = 1 + i t / (2 m sigma0^2) the channel evolves as

      psi(z, t) = (2 pi sigma0^2)^(-1/4) a^(-1/2)
                  exp(-(z - c)^2 / (4 sigma0^2 a) + i p (z - c) + i phi(t)),

  c(t) = origin + p t / m,  phi(t) = phi_exit + p^2 t / (2 m), and width
  sigma(t) = sigma0 sqrt(1 + (t / (2 m sigma0^2))^2).  A pair stores the
  magnet-exit channels and t only; c, phi and sigma are derived from them.

The device's non-idealness measure is the upper-half-plane weight of the
spin-down channel,

    E(t) = integral_0^inf |psi_minus(z, t)|^2 dz,

evaluated in closed form through the Gaussian CDF.  E(t) decreases
monotonically after the magnet for dp > 0 and saturates at the Gaussian
tail value Phi(-2 dp sigma0), set by the ratio of drift to spreading
velocity.  Post-selection happens at phase_settle_time, after saturation.

The upper-half coherence integral int_0^inf psi_plus psi_minus^* dz of the
symmetric, co-located pairs the magnet produces is also a closed form,
through exp(-x^2) (1 + i erfi x) = exp(-x^2) + i (2/sqrt(pi)) F(x) with F
Dawson's integral.  It is assembled from exit-time quantities: multiplying
independently evaluated wave functions would lose the relative phase to
rounding once the accumulated single-channel phases exceed ~1e9 rad.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import SaturationError
from .spin import SpinState

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SGConfig",
    "GaussianComponent",
    "WavePacketPair",
    "make_component",
    "make_pair",
    "evolve_through_magnet",
    "free_propagate",
    "component_amplitude",
    "upper_fraction",
    "error_fraction",
    "closed_form_upper_coherence",
    "asymptotic_error_fraction",
    "saturated_error_fraction",
    "phase_settle_time",
    "SaturationResult",
]

_SQRT2 = math.sqrt(2.0)


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


@dataclass(frozen=True)
class SGConfig:
    """Physical parameters of the non-ideal Stern-Gerlach device.

    All quantities are in natural units (hbar = 1): mass, initial packet
    width sigma0, magnetic moment, field gradient, uniform bias field, and
    transit time through the magnet.
    """

    mass: float
    sigma0: float
    moment: float
    gradient: float
    bias: float
    transit: float

    def __post_init__(self):
        if not (self.mass > 0 and self.sigma0 > 0):
            raise ValueError("mass and sigma0 must be positive")
        if self.transit < 0:
            raise ValueError("transit time must be non-negative")
        for name in ("moment", "gradient", "bias"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

    @property
    def momentum_kick(self) -> float:
        """Impulsive momentum transfer per spin channel."""
        return self.moment * self.gradient * self.transit

    @property
    def larmor_phase(self) -> float:
        """Phase picked up from the uniform bias field during transit."""
        return self.moment * self.bias * self.transit

    @property
    def spreading_time(self) -> float:
        """Time scale 2 m sigma0^2 on which quantum spreading sets in."""
        return 2.0 * self.mass * (self.sigma0 * self.sigma0)


@dataclass(frozen=True)
class GaussianComponent:
    """One Gaussian spatial channel of the two-component packet, at the magnet exit.

    origin and exit_phase are the channel's exact center and phase there.
    The pair derives center, width and phase at its own time from them, and
    the overlap formulas use them directly: the accumulated phase is large
    at late times, and its double rounding would be fatal to coherence
    phases.
    """

    momentum: float
    weight: complex
    origin: float
    exit_phase: float

    def __post_init__(self):
        if abs(self.weight) > 1.0 + 1e-12:
            raise ValueError("|weight| must not exceed 1")


@dataclass(frozen=True)
class WavePacketPair:
    """Two Gaussian channels tied to spin up / spin down, plus flight time."""

    plus: GaussianComponent
    minus: GaussianComponent
    time: float
    mass: float
    sigma0: float

    def __post_init__(self):
        total = abs(self.plus.weight) ** 2 + abs(self.minus.weight) ** 2
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"channel weights not normalized: {total}")

    @property
    def tau(self) -> float:
        """Dimensionless time t / (2 m sigma0^2)."""
        return self.time / (2.0 * self.mass * (self.sigma0 * self.sigma0))

    @property
    def width(self) -> float:
        """Position standard deviation sigma(t), shared by both channels."""
        tau = self.tau
        return self.sigma0 * math.sqrt(1.0 + tau * tau)

    def component(self, which: str) -> GaussianComponent:
        if which == "plus":
            return self.plus
        if which == "minus":
            return self.minus
        raise ValueError("component must be 'plus' or 'minus'")

    def center(self, which: str) -> float:
        """Channel center c(t) = origin + p t / m."""
        c = self.component(which)
        return c.origin + c.momentum * self.time / self.mass

    def phase(self, which: str) -> float:
        """Channel phase phi(t) = phi_exit + p^2 t / (2 m)."""
        c = self.component(which)
        return c.exit_phase + c.momentum * c.momentum * self.time / (2.0 * self.mass)


def make_component(
    center: float, momentum: float, weight: complex, phase: float = 0.0
) -> GaussianComponent:
    """Component at time zero: origin and exit phase are center and phase."""
    return GaussianComponent(
        momentum=momentum, weight=complex(weight), origin=center, exit_phase=phase
    )


def make_pair(
    plus: GaussianComponent,
    minus: GaussianComponent,
    mass: float,
    sigma0: float,
) -> WavePacketPair:
    """Assemble a pair at time zero from hand-built components."""
    return WavePacketPair(plus=plus, minus=minus, time=0.0, mass=mass, sigma0=sigma0)


def evolve_through_magnet(config: SGConfig, input_spin: SpinState) -> WavePacketPair:
    """Impulsive magnet transit.

    Positions stay frozen; the up/down channels receive momentum kicks
    +-momentum_kick and Larmor phases +-larmor_phase.  Channel weights are
    the input spin amplitudes.  The returned pair sits at time 0 (magnet
    exit).
    """
    dp = config.momentum_kick
    lp = config.larmor_phase
    plus = make_component(0.0, +dp, input_spin.amp_up, phase=+lp)
    minus = make_component(0.0, -dp, input_spin.amp_down, phase=-lp)
    return make_pair(plus, minus, config.mass, config.sigma0)


def free_propagate(pair: WavePacketPair, t: float) -> WavePacketPair:
    """Advance the pair by a free-flight interval t >= 0."""
    if t < 0:
        raise ValueError("free propagation time must be non-negative")
    return replace(pair, time=pair.time + t)


def component_amplitude(
    pair: WavePacketPair,
    z: np.ndarray,
    which: str,
    include_weight: bool = False,
) -> np.ndarray:
    """Evaluate one channel's wave function on an array of positions.

    Intended for densities, debugging exports and moderate-time checks;
    coherence integrals should go through :func:`closed_form_upper_coherence`.
    """
    import numpy as np
    c = pair.component(which)
    center = pair.center(which)
    s0 = pair.sigma0
    alpha = 1.0 + 1j * pair.tau
    norm = (2.0 * math.pi * s0**2) ** (-0.25) * alpha ** (-0.5)
    zz = np.asarray(z, dtype=float)
    val = norm * np.exp(
        -((zz - center) ** 2) / (4.0 * s0**2 * alpha)
        + 1j * c.momentum * (zz - center)
        + 1j * pair.phase(which)
    )
    if include_weight:
        val = c.weight * val
    return val


def upper_fraction(pair: WavePacketPair, which: str) -> float:
    """Weight of one normalized channel on the upper half line z >= 0."""
    return 1.0 - _norm_cdf(-pair.center(which) / pair.width)


def error_fraction(pair: WavePacketPair) -> float:
    """Upper-half weight of the normalized spin-down channel, E(t).

    Closed form through the Gaussian CDF of the minus component.
    """
    return upper_fraction(pair, "minus")


def _dawson(x: float) -> float:
    """Dawson's integral F(x) = exp(-x^2) int_0^x exp(t^2) dt.

    Below |x| = 6 it sums the positive series x sum_n P_n / (2n + 1) with
    Poisson weights P_n = exp(-x^2) x^(2n) / n!; the weights are stationary
    in x^2 at their peak, so the rounding of x^2 cancels to first order.
    Above, the asymptotic series 1/(2x) sum_n (2n-1)!! / (2x^2)^n, cut at its
    smallest term, is exact to ~exp(-x^2) relative.  Both stay within 2e-15
    relative of the true value.
    """
    ax = abs(x)
    lam = ax * ax
    if ax < 6.0:
        weight = total = math.exp(-lam)
        n = 0
        while True:
            n += 1
            weight *= lam / n
            term = weight / (2 * n + 1)
            total += term
            if n > lam and term < 1e-17 * total:
                break
        value = ax * total
    else:
        term = total = 1.0
        n = 0
        while True:
            n += 1
            nxt = term * (2 * n - 1) / (2.0 * lam)
            if not nxt < term or nxt < 1e-17 * total:  # also ends on NaN
                break
            term = nxt
            total += term
        value = total / (2.0 * ax)
    return math.copysign(value, x)


def closed_form_upper_coherence(pair: WavePacketPair) -> complex:
    """Upper-half coherence int_0^inf psi_plus psi_minus^* dz of a symmetric pair.

    Valid when both channels share the magnet-exit origin and carry
    opposite momenta +-dp, which is what :func:`evolve_through_magnet`
    builds.  With c = dp t / m, sigma^2 = sigma0^2 (1 + tau^2),
    keff = 2 dp / (1 + tau^2) and x = keff sigma / sqrt(2),

        C(t) = (1/2) exp(-c^2 / (2 sigma^2)) exp(-x^2) (1 + i erfi x)
               exp(i (phi_exit_plus - phi_exit_minus)),

    where exp(-x^2) erfi x = (2/sqrt(pi)) F(x) stays finite for any x.
    """
    p, m_ = pair.plus, pair.minus
    if p.origin != m_.origin or p.momentum != -m_.momentum:
        raise ValueError("closed form requires symmetric, co-located kicks")
    dp = p.momentum
    tau = pair.tau
    tau2 = tau * tau  # squares by multiplication: inf where ** would raise
    sig2 = pair.sigma0 * pair.sigma0 * (1.0 + tau2)
    c = dp * pair.time / pair.mass
    x = 2.0 * dp / (1.0 + tau2) * math.sqrt(sig2 / 2.0)
    envelope = 0.5 * math.exp(-(c * c) / (2.0 * sig2))
    erfi_part = complex(math.exp(-(x * x)), 2.0 / math.sqrt(math.pi) * _dawson(x))
    return envelope * erfi_part * cmath.exp(1j * (p.exit_phase - m_.exit_phase))


def asymptotic_error_fraction(config: SGConfig) -> float:
    """Saturated value of E(t): the Gaussian tail Phi(-2 dp sigma0).

    The argument is (drift velocity) / (spreading velocity) of the kicked
    channel; a large kick gives the ideal device, zero kick gives 1/2.
    """
    return _norm_cdf(-2.0 * config.momentum_kick * config.sigma0)


class SaturationResult(NamedTuple):
    value: float
    time: float


def saturated_error_fraction(
    config: SGConfig,
    input_spin: SpinState,
    tol: float = 1e-6,
    horizon: Optional[float] = None,
) -> SaturationResult:
    """Detect the time-saturated error fraction by doubling-window sampling.

    Doubles the probe time until |E(2t) - E(t)| < tol, then reports E at
    the doubled time (one window deeper than the detection point, so the
    reported value sits within tol of the asymptotic tail).  Raises
    SaturationError carrying the last sample if the horizon is exceeded.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    base = config.spreading_time
    if horizon is None:
        horizon = 1e9 * base
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    exit_pair = evolve_through_magnet(config, input_spin)
    t = base / 8.0
    last = error_fraction(free_propagate(exit_pair, t))
    while True:
        if 2.0 * t > horizon:
            raise SaturationError(
                f"error fraction not saturated to {tol:g} before t = {horizon:g}",
                last_value=last,
            )
        nxt = error_fraction(free_propagate(exit_pair, 2.0 * t))
        if abs(nxt - last) < tol:
            return SaturationResult(value=nxt, time=2.0 * t)
        t *= 2.0
        last = nxt


def phase_settle_time(config: SGConfig, phase_sum_tol: float = 1e-10) -> float:
    """Time after which the chirp-induced coherence phase is negligible.

    The half-plane coherence of a symmetric pair carries a residual
    argument ~ (2/sqrt(pi)) sqrt(2) dp sigma0 / tau that decays only like
    1/t.  This returns the flight time making that argument at most a
    quarter of phase_sum_tol, so phase-sum checks at phase_sum_tol hold
    with a factor-2 margin.
    """
    if phase_sum_tol <= 0:
        raise ValueError("phase_sum_tol must be positive")
    dp = abs(config.momentum_kick)
    base = config.spreading_time
    if dp == 0.0:
        return base
    kappa = 2.0 * _SQRT2 / math.sqrt(math.pi)
    tau = kappa * dp * config.sigma0 / (0.25 * phase_sum_tol)
    return max(tau, 1.0) * base
