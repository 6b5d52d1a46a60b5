"""Spatial dynamics of a spin-1/2 packet in a non-ideal Stern-Gerlach device.

Model (natural units, hbar = 1, 1-D along the field axis z):

* The incoming packet is Gaussian with position-density standard
  deviation sigma0,

      psi0(z) = (2 pi sigma0^2)^(-1/4) exp(-z^2 / (4 sigma0^2)).

* Magnet transit is impulsive: the position is frozen while the two spin
  channels acquire opposite momentum kicks +-dp, dp = moment * gradient *
  transit, and opposite Larmor phases +-phi_L, phi_L = moment * bias *
  transit.

* Free propagation of each Gaussian channel is exact.  With
  a(t) = 1 + i t / (2 m sigma0^2) the channel evolves as

      psi(z, t) = (2 pi sigma0^2)^(-1/4) a^(-1/2)
                  exp(-(z - c)^2 / (4 sigma0^2 a) + i p (z - c) + i phi(t)),

  p = +-dp,  c(t) = p t / m,  phi(t) = +-phi_L + p^2 t / (2 m), and width
  sigma(t) = sigma0 sqrt(1 + (t / (2 m sigma0^2))^2).  The spin-up
  channel is s = +1 and the spin-down one s = -1, so p = s dp and its
  center is s channel_center(t).  Only the grid oracle forms a channel at
  a time t: its wrap check reads channel_center, and its reference
  densities come from component_density, weighted by the spin's
  amplitudes.

Post-selection on z >= 0 needs three numbers of the device, the same for
every input spin (upper_overlaps): the upper-half weights of the
normalized channels, I+ and I-, and their upper-half coherence
C = int_0^inf psi_plus psi_minus^* dz.  With a = 2 dp sigma0
(SGConfig.drift_ratio), tau = t / (2 m sigma0^2) and
r = a tau / sqrt(1 + tau^2), the weights are Gaussian CDFs,

    I+-(t) = Phi(+-r),

and the device's non-idealness measure is E(t) = I-(t), the upper-half
weight of the spin-down channel.  The three take only a, tau and the Larmor
phase, and math.hypot(1, tau) stands for sqrt(1 + tau^2), whose tau^2 can
overflow.

E(t) decreases monotonically after the magnet for dp > 0 and saturates at
the Gaussian tail value Phi(-a) (asymptotic_error_fraction), set by the
ratio of drift to spreading velocity, so no search for a saturation time is
needed.  Post-selection happens at tau = phase_settle_tau, after
saturation, so the analytic commands see the device only through a and
phi_L; only the grid oracle forms a flight time t.

C of the symmetric, co-located channels the magnet produces is a closed
form too, through exp(-x^2) (1 + i erfi x) = exp(-x^2) + i (2/sqrt(pi)) F(x)
with F Dawson's integral.  It is assembled from the exit phases +-phi_L:
multiplying independently evaluated wave functions would lose the relative
phase to rounding once the accumulated single-channel phases exceed ~1e9
rad, so phi(t) is never formed.
"""

from __future__ import annotations

import cmath
import math
import sys
from typing import TYPE_CHECKING, NamedTuple, Optional, Tuple

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "SGConfig",
    "channel_center",
    "component_density",
    "upper_overlaps",
    "asymptotic_error_fraction",
    "phase_settle_tau",
]

_SQRT2 = math.sqrt(2.0)
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_PHASE_SUM_TOL = 1e-10  # the phase-sum tolerance phase_settle_tau settles to


def _norm_cdf(x: float) -> float:
    return 0.5 * math.erfc(-x / _SQRT2)


# the fields; SGConfig checks them in __new__, which _replace skips
class _SGConfigFields(NamedTuple):
    mass: float
    sigma0: float
    moment: float
    gradient: float
    bias: float
    transit: float


class SGConfig(_SGConfigFields):
    """Physical parameters of the non-ideal Stern-Gerlach device.

    All quantities are in natural units (hbar = 1): mass, initial packet
    width sigma0, magnetic moment, field gradient, uniform bias field, and
    transit time through the magnet.
    """

    __slots__ = ()

    def __new__(cls, mass, sigma0, moment, gradient, bias, transit) -> SGConfig:
        if not (mass > 0 and sigma0 > 0):
            raise ValueError("mass and sigma0 must be positive")
        if transit < 0:
            raise ValueError("transit time must be non-negative")
        for name, value in (("moment", moment), ("gradient", gradient), ("bias", bias)):
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite")
        return super().__new__(cls, mass, sigma0, moment, gradient, bias, transit)

    @property
    def momentum_kick(self) -> float:
        """Impulsive momentum transfer per spin channel."""
        return self.moment * self.gradient * self.transit

    @property
    def drift_ratio(self) -> float:
        """a = 2 momentum_kick sigma0, the kicked channel's drift velocity
        over its spreading velocity 1 / (2 m sigma0)."""
        return 2.0 * self.momentum_kick * self.sigma0

    @property
    def larmor_phase(self) -> float:
        """Phase picked up from the uniform bias field during transit."""
        return self.moment * self.bias * self.transit

    @property
    def spreading_time(self) -> float:
        """Time scale 2 m sigma0^2 on which quantum spreading sets in."""
        return 2.0 * self.mass * (self.sigma0 * self.sigma0)


def channel_center(config: SGConfig, t: float) -> float:
    """The spin-up channel's center c(t) = p t / m, p = momentum_kick, at
    time t after the magnet; the spin-down channel's is its negative.

    p t can overflow where c does not (a heavy particle); the division
    then comes first.
    """
    p, m = config.momentum_kick, config.mass
    c = p * t / m
    return p * (t / m) if math.isinf(c) else c


def component_density(
    config: SGConfig,
    t: float,
    s: int,
    weight: complex,
    z: np.ndarray,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The density |weight psi(z, t)|^2 of channel s (+1 spin up, -1 spin
    down) at positions z, time t after the magnet, psi as in the module
    docstring, in place in out (a new array if out is None); the tests
    check it against the complex wave function of tests/conftest.py's
    component_amplitude.

    The closed-form Gaussian |weight|^2 exp(-u^2 / 2) / (sqrt(2 pi) sigma(t))
    with u = (z - s c(t)) / sigma(t).  It never forms sigma0^2, which is
    subnormal for sigma0 below ~1e-154 and then carries few significant
    bits into the complex form's exponent.
    """
    import numpy as np
    u = np.subtract(z, s * channel_center(config, t), out=out, dtype=float)
    width = config.sigma0 * math.hypot(1.0, t / config.spreading_time)
    u /= width
    np.square(u, out=u)
    u *= -0.5
    density = np.exp(u, out=u)
    density *= abs(weight) ** 2
    density /= _SQRT_2PI * width
    return density


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


def upper_overlaps(config: SGConfig, tau: float) -> Tuple[float, float, complex]:
    """(I+, I-, C) of the device at the dimensionless time
    tau = t / (2 m sigma0^2) after the magnet: the upper-half weights of
    the normalized plus and minus channels and their upper-half coherence
    int_0^inf psi_plus psi_minus^* dz.

    Both channels leave the magnet from z = 0 with opposite momenta +-dp
    and exit phases +-phi_L (the Larmor phase).  With a = 2 dp sigma0,
    r = a tau / sqrt(1 + tau^2) the plus channel's center in widths and
    x = a / (sqrt(2) sqrt(1 + tau^2)),

        I+- = Phi(+-r),  a tail below 1e-17 kept,
        C = (1/2) exp(-r^2 / 2) exp(-x^2) (1 + i erfi x) exp(2 i phi_L),

    where exp(-x^2) erfi x = (2/sqrt(pi)) F(x) stays finite for any x.
    Where phi_L + phi_L overflows, exp(2 i phi_L) is exp(i phi_L) squared.
    """
    a = config.drift_ratio
    spread = math.hypot(1.0, tau)
    r = a * tau / spread
    x = a / (_SQRT2 * spread)
    envelope = 0.5 * math.exp(-(r * r) / 2.0)
    erfi_part = complex(math.exp(-(x * x)), 2.0 / math.sqrt(math.pi) * _dawson(x))
    phi = config.larmor_phase
    if math.isinf(phi + phi):
        larmor = cmath.exp(1j * phi) ** 2
    else:
        larmor = cmath.exp(1j * (phi + phi))
    coherence = envelope * erfi_part * larmor
    return _norm_cdf(r), _norm_cdf(-r), coherence


def asymptotic_error_fraction(config: SGConfig) -> float:
    """Saturated value of E(t): the Gaussian tail Phi(-2 dp sigma0).

    The argument is (drift velocity) / (spreading velocity) of the kicked
    channel; a large kick gives the ideal device, zero kick gives 1/2.
    """
    return _norm_cdf(-config.drift_ratio)


def phase_settle_tau(config: SGConfig) -> float:
    """Dimensionless time tau after which the chirp-induced coherence phase
    is negligible.

    The half-plane coherence of a symmetric pair carries a residual
    argument ~ (2/sqrt(pi)) sqrt(2) dp sigma0 / tau that decays only like
    1/tau.  This returns the tau, at least 1, making that argument at most
    a quarter of _PHASE_SUM_TOL, so phase-sum checks at _PHASE_SUM_TOL hold
    with a factor-2 margin.  It is capped at the largest float, where
    upper_overlaps gives the ideal-device limit (beyond a ~ 5.6e297).
    """
    kappa = 2.0 * _SQRT2 / math.sqrt(math.pi)
    tau = kappa * abs(config.momentum_kick) * config.sigma0 / (0.25 * _PHASE_SUM_TOL)
    return min(max(tau, 1.0), sys.float_info.max)
