"""Finite-sample recovery of the post-selected state parameters.

The bench procedure measures two representative samples of post-selected
particles (seeded counts: numpy's SeedSequence -> PCG64 -> binomial stream,
computed bit for bit in plain Python by `rng`): sigma_z counts give the
error fraction E (the spin-down population), and sigma_x counts give

    p_x = 1/2 + sqrt(E (1 - E)) cos(phi),

from which cos(phi) and hence phi in [0, pi] follow once E is known.  Only
cos(phi) is identifiable from these two observables, so phases are
reported on [0, pi] and the no-signalling check is formulated on the
cosine sum, which is all the constraint needs.

Intervals are Wilson score intervals (well behaved at extreme counts, e.g.
zero spin-down events from a near-ideal device).  The phase interval is
obtained by propagating the corners of the (p_x, E) confidence box through
the inversion, which is monotone in each argument; this is slightly
conservative, never empty, and always contains the point estimate.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional, Tuple, Union

from . import rng
from .errors import PhaseUndefinedError
from .spin import SpinDensityMatrix, SpinState, born_probability

__all__ = [
    "MeasurementRecord",
    "PhaseEstimate",
    "Z_95",
    "derive_seed",
    "sample",
    "wilson_interval",
    "estimate_error_fraction",
    "estimate_phase",
    "violation_bound",
]

Z_95 = 1.959963984540054  # two-sided 95% normal quantile

_Z_AXIS_TOL = 1e-12


class MeasurementRecord(NamedTuple):
    """Counts from N sigma_theta measurements on identically prepared spins."""

    axis: float
    n_plus: int
    n_minus: int
    seed: int
    true_state_id: str = ""

    @property
    def n(self) -> int:
        return self.n_plus + self.n_minus

    @property
    def frequency(self) -> float:
        return self.n_plus / self.n


class PhaseEstimate(NamedTuple):
    """Point estimates and 95% intervals for (error fraction, phase)."""

    error_fraction: float
    error_fraction_ci: Tuple[float, float]
    phase: float
    phase_ci: Tuple[float, float]
    clamped: bool


def derive_seed(root_seed: int, *key: int) -> int:
    """Deterministic 64-bit stream seed for (root_seed, key...).

    Splitting rule: the first uint64 state word of numpy's
    SeedSequence(entropy=root_seed, spawn_key=key), computed by `rng`.
    Independent keys give statistically independent streams, and results
    assembled from per-key streams do not depend on execution order.
    """
    return rng.derive_seed(root_seed, *key)


def sample(
    state: Union[SpinState, SpinDensityMatrix],
    axis: float,
    n: int,
    seed: int,
    true_state_id: str = "",
) -> MeasurementRecord:
    """Draw N seeded Born-rule outcomes of sigma_theta on `state`: n_plus is
    numpy.random.default_rng(seed).binomial(n, p), computed by `rng`."""
    if n < 1:
        raise ValueError("need at least one sample")
    p = born_probability(state, axis, +1)
    n_plus = rng.binomial(seed, n, p)
    return MeasurementRecord(
        axis=float(axis),
        n_plus=n_plus,
        n_minus=n - n_plus,
        seed=int(seed),
        true_state_id=true_state_id,
    )


def wilson_interval(successes: int, n: int) -> Tuple[float, float]:
    """Wilson score interval for a binomial proportion, at 95% (z = Z_95)."""
    if n < 1:
        raise ValueError("need at least one trial")
    if not 0 <= successes <= n:
        raise ValueError("successes must lie in [0, n]")
    phat = successes / n
    z2n = Z_95 * Z_95 / n
    center = (phat + z2n / 2.0) / (1.0 + z2n)
    half = (
        Z_95
        * math.sqrt(phat * (1.0 - phat) / n + z2n / (4.0 * n))
        / (1.0 + z2n)
    )
    # degenerate counts pin the matching endpoint exactly
    lo = 0.0 if successes == 0 else max(center - half, 0.0)
    hi = 1.0 if successes == n else min(center + half, 1.0)
    return (lo, hi)


def estimate_error_fraction(record_z: MeasurementRecord) -> Tuple[float, Tuple[float, float]]:
    """Error fraction from sigma_z counts: the spin-down frequency."""
    if abs(math.sin(record_z.axis)) > _Z_AXIS_TOL or math.cos(record_z.axis) < 0:
        raise ValueError(
            f"error-fraction estimation needs a sigma_z record, got axis "
            f"{record_z.axis}"
        )
    return record_z.n_minus / record_z.n, wilson_interval(record_z.n_minus, record_z.n)


def estimate_phase(
    record_x: MeasurementRecord,
    error_fraction: float,
    error_fraction_ci: Optional[Tuple[float, float]] = None,
) -> PhaseEstimate:
    """Invert p_x = 1/2 + sqrt(E(1-E)) cos(phi) for phi in [0, pi].

    A cosine estimate outside [-1, 1] (expected from finite-sample
    fluctuation near phi in {0, pi}) is clamped and flagged rather than
    rejected.  The interval propagates the Wilson box of (p_x, E) through
    the inversion.
    """
    if abs(math.cos(record_x.axis)) > _Z_AXIS_TOL:
        raise ValueError(
            f"phase estimation needs a sigma_x record, got axis {record_x.axis}"
        )
    if not 0.0 < error_fraction < 1.0:
        raise PhaseUndefinedError(
            "phase unidentifiable: sqrt(E(1-E)) vanishes at E "
            f"= {error_fraction}"
        )
    if error_fraction_ci is None:
        error_fraction_ci = (error_fraction, error_fraction)

    def cosine(p: float, es: float) -> float:
        es = min(max(es, 1e-12), 1.0 - 1e-12)
        return (p - 0.5) / math.sqrt(es * (1.0 - es))

    p_hat = record_x.frequency
    p_ci = wilson_interval(record_x.n_plus, record_x.n)
    c_hat = cosine(p_hat, error_fraction)
    clamped = abs(c_hat) > 1.0
    c_hat = min(max(c_hat, -1.0), 1.0)
    corners = [
        cosine(p, es)
        for p in (p_ci[0], p_ci[1])
        for es in (error_fraction_ci[0], error_fraction_ci[1])
    ]
    c_lo = min(max(min(corners), -1.0), 1.0)
    c_hi = min(max(max(corners), -1.0), 1.0)
    # arccos is monotone decreasing: the high cosine gives the low phase
    return PhaseEstimate(
        error_fraction=error_fraction,
        error_fraction_ci=tuple(error_fraction_ci),
        phase=math.acos(c_hat),
        phase_ci=(math.acos(c_hi), math.acos(c_lo)),
        clamped=clamped,
    )


def violation_bound(
    est_plus: PhaseEstimate, est_minus: PhaseEstimate
) -> Tuple[float, Tuple[float, float]]:
    """Empirical bound on cos(phi_+) + cos(phi_-); zero under no-signalling.

    The interval is the interval-arithmetic sum of the two phase intervals
    mapped through the cosine, so it is conservative; the constraint is
    consistent with the data iff the interval contains zero.
    """
    point = math.cos(est_plus.phase) + math.cos(est_minus.phase)
    lo = math.cos(est_plus.phase_ci[1]) + math.cos(est_minus.phase_ci[1])
    hi = math.cos(est_plus.phase_ci[0]) + math.cos(est_minus.phase_ci[0])
    return point, (lo, hi)
