import math
import os
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import ndtri

import nosignal.wavepacket
from nosignal import (
    ProtocolResult,
    SGConfig,
    SpinDensityMatrix,
    SpinState,
    branch_table,
    channel_center,
    cell_records,
    grid_solve,
    make_spin_state,
)
from nosignal.protocol import branch_totals
from nosignal.spin import ATOL


def fresh_env() -> dict:
    """The environment of a fresh interpreter that imports this nosignal."""
    src = str(Path(nosignal.__file__).resolve().parents[1])
    paths = [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


# runs argv (stdout to /dev/null), prints its rusage and exits with its code
RUSAGE_PROBE = (
    "import resource, subprocess, sys\n"
    "code = subprocess.call(sys.argv[1:], stdout=subprocess.DEVNULL)\n"
    "usage = resource.getrusage(resource.RUSAGE_CHILDREN)\n"
    "print(usage.ru_maxrss, usage.ru_minflt)\n"
    "sys.exit(code)\n"
)


def fresh_rusage(argv: list, env: dict) -> tuple:
    """(peak resident MiB, minor faults) of one fresh process that exits 0.
    A process takes its parent's peak resident set when it execs, so argv is
    spawned from a bare interpreter: spawned from pytest it reads pytest's."""
    probe = subprocess.run(
        [sys.executable, "-S", "-c", RUSAGE_PROBE, *argv],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    maxrss, faults = map(int, probe.stdout.split())
    return maxrss / (2**20 if sys.platform == "darwin" else 2**10), faults


class SaturationResult(NamedTuple):
    value: float
    time: float


def saturated_error_fraction(config, tol: float = 1e-6) -> SaturationResult:
    """Time-saturated error fraction by doubling-window sampling.

    The test-side reference for the closed-form tail Phi(-2 dp sigma0):
    doubles the probe time until |E(2t) - E(t)| < tol, then reports E at
    the doubled time (one window deeper than the detection point).  Fails
    with the last sample past a horizon of 1e9 spreading times.  E is
    upper_overlaps' I- at tau = t / spreading_time, looked up on its module
    at each call, so a test can replace it.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    base = config.spreading_time
    horizon = 1e9 * base
    t = base / 8.0
    last = nosignal.wavepacket.upper_overlaps(config, t / base)[1]
    while True:
        if 2.0 * t > horizon:
            raise AssertionError(
                f"error fraction not saturated to {tol:g} before t = {horizon:g}; "
                f"last sample {last!r}"
            )
        nxt = nosignal.wavepacket.upper_overlaps(config, 2.0 * t / base)[1]
        if abs(nxt - last) < tol:
            return SaturationResult(value=nxt, time=2.0 * t)
        t *= 2.0
        last = nxt


def grid_results(config, input_spin, grid, times) -> list:
    """The grid solver's checked, reduced snapshots at these times, in order.

    One magnet run, then the times one after another; the first failed
    check raises, so the earliest failing time is the one reported.  Each
    density is compared with component_amplitude's, the tests' reference.
    """
    def reference(t, s, z, out):
        out[...] = np.abs(component_amplitude(config, input_spin, t, s, z)) ** 2

    return grid_solve(config, input_spin, grid, times, reference)


def pure_density(state: SpinState) -> SpinDensityMatrix:
    """The projector |psi><psi| of a pure spin state."""
    return SpinDensityMatrix([[a * b.conjugate() for b in state] for a in state])


def mixture(components) -> SpinDensityMatrix:
    """Convex combination sum_i w_i |psi_i><psi_i| of (weight, SpinState) pairs."""
    components = list(components)
    weights = [w for w, _ in components]
    if any(w < -ATOL for w in weights):
        raise ValueError("mixture weights must be non-negative")
    if abs(sum(weights) - 1.0) > ATOL:
        raise ValueError(f"mixture weights sum to {sum(weights)}, expected 1")
    rho = [[0j, 0j], [0j, 0j]]
    for w, psi in components:
        for row, psi_row in zip(rho, pure_density(psi).matrix):
            row[:] = [x + w * y for x, y in zip(row, psi_row)]
    return SpinDensityMatrix(rho)


def device_for_error_fraction(target: float, transit: float = 0.002) -> SGConfig:
    """SGConfig whose saturated error fraction is `target` (sigma0 = m = 1).

    Inverts the Gaussian tail: the kick must be -ndtri(target)/2.
    """
    kick = -float(ndtri(target)) / 2.0
    return SGConfig(
        mass=1.0,
        sigma0=1.0,
        moment=1.0,
        gradient=kick / transit,
        bias=0.0,
        transit=transit,
    )


def run_pipeline(sg: SGConfig, omega: float, theta: float, model: str = "projected"):
    """One (omega, theta) cell end to end through the wave-packet model."""
    table = branch_table(sg, [omega])
    aligned = branch_totals(table.aligned, [theta], model)
    (record,) = cell_records(table, table.rotated[0], [theta], model, aligned)
    return ProtocolResult(**record)


@pytest.fixture
def device() -> SGConfig:
    return SGConfig(
        mass=1.0, sigma0=1.0, moment=1.0, gradient=210.4, bias=0.0, transit=0.002
    )


@pytest.fixture
def x_state():
    return make_spin_state(1.0, 1.0)


@pytest.fixture
def up_state():
    return make_spin_state(1.0, 0.0)


def channel_weight(spin: SpinState, s: int) -> complex:
    """Channel s's amplitude: the spin's up (s = +1) or down (s = -1) one."""
    return spin.amp_up if s > 0 else spin.amp_down


def channel_width(config: SGConfig, t: float) -> float:
    """Position standard deviation sigma(t) at time t after the magnet,
    shared by both channels."""
    return config.sigma0 * math.hypot(1.0, t / config.spreading_time)


def channel_phase(config: SGConfig, t: float, s: int) -> float:
    """Channel s's phase phi(t) = s larmor_phase + p^2 t / (2 m), with
    p = s momentum_kick.

    Where p^2 t overflows, the division comes first, as in channel_center.
    """
    p, two_m = s * config.momentum_kick, 2.0 * config.mass
    chirp = p * p * t / two_m
    chirp = p * (p * (t / two_m)) if math.isinf(chirp) else chirp
    return s * config.larmor_phase + chirp


def component_amplitude(
    config: SGConfig, spin: SpinState, t: float, s: int, z: np.ndarray
) -> np.ndarray:
    """Channel s's wave function at time t, its spin weight included, at
    positions z.

    The tests' reference for component_density and the grid solver at
    moderate times; coherence integrals go through upper_overlaps or
    quad_coherence.
    """
    center = s * channel_center(config, t)
    s0 = config.sigma0
    alpha = 1.0 + 1j * (t / config.spreading_time)
    norm = (2.0 * math.pi * s0**2) ** (-0.25) * alpha ** (-0.5)
    zz = np.asarray(z, dtype=float)
    val = norm * np.exp(
        -((zz - center) ** 2) / (4.0 * s0**2 * alpha)
        + 1j * (s * config.momentum_kick) * (zz - center)
        + 1j * channel_phase(config, t, s)
    )
    return channel_weight(spin, s) * val


def exit_channels(config: SGConfig):
    """(momentum, origin, exit phase) of the plus and minus channels.

    Each channel's momentum and its phase at the magnet exit, with origin
    0, as inputs for the general Gaussian-pair references below.
    """
    return [
        (s * config.momentum_kick, 0.0, channel_phase(config, 0.0, s)) for s in (+1, -1)
    ]


def reduced_overlap_exponent(config: SGConfig, t: float):
    """psi_plus(z) psi_minus(z)^* = pref * exp(-a z^2 + b z + d) at time t,
    for any Gaussian pair.

    Returns (a, b, d, pref) with complex b and d.  The coefficients are built
    from origins, momenta and exit phases, free of the large-time
    cancellations that subtracting accumulated per-channel phases would
    suffer, and d's imaginary part is reduced mod 2 pi.
    """
    (p_p, o_p, f_p), (p_m, o_m, f_m) = exit_channels(config)
    sigma0, mass = config.sigma0, config.mass
    tau = t / config.spreading_time
    sig2 = sigma0**2 * (1.0 + tau**2)
    t_over_m = t / mass
    cp = o_p + p_p * t_over_m
    cm = o_m + p_m * t_over_m
    dp_rel = p_p - p_m
    im_b = dp_rel / (1.0 + tau**2) - tau * (o_p - o_m) / (2.0 * sig2)
    im_d = (
        tau * (cp + cm) * (cp - cm) / (4.0 * sig2)
        - (p_p * o_p - p_m * o_m)
        - dp_rel * (p_p + p_m) * t / (2.0 * mass)
        + (f_p - f_m)
    )
    b = complex((cp + cm) / (2.0 * sig2), im_b)
    d = complex(-(cp**2 + cm**2) / (4.0 * sig2), math.fmod(im_d, 2.0 * math.pi))
    pref = (2.0 * math.pi * sigma0**2) ** (-0.5) / math.sqrt(1.0 + tau**2)
    return 1.0 / (2.0 * sig2), b, d, pref


def full_overlap(config: SGConfig, t: float) -> complex:
    """Full-line overlap of the normalized channels at time t, by the
    Gaussian integral."""
    a, b, d, pref = reduced_overlap_exponent(config, t)
    return pref * math.sqrt(math.pi / a) * complex(np.exp(b * b / (4.0 * a) + d))


def quad_coherence(config: SGConfig, t: float, half: str = "upper") -> complex:
    """Half-line coherence int psi_plus psi_minus^* dz at time t by adaptive
    quadrature.

    Integrates the reduced exponent in packet-width units u = z / sigma.
    Real and imaginary parts are integrated separately, each scaled by its
    own sampled magnitude so quad's tolerance is relative to that part.
    """
    a, b, d, pref = reduced_overlap_exponent(config, t)
    sig = channel_width(config, t)
    centers = [s * channel_center(config, t) / sig for s in (+1, -1)]
    reach = max(abs(c) for c in centers) + 12.0
    lo, hi = (0.0, reach) if half == "upper" else (-reach, 0.0)

    def integrand(u, trig):
        return np.exp(d.real + b.real * sig * u - a * sig**2 * u * u) * trig(
            b.imag * sig * u + d.imag
        )

    breaks = sorted({min(max(c, lo), hi) for c in centers} - {lo, hi})
    samples = np.linspace(lo, hi, 257)
    result = 0.0 + 0.0j
    for trig, unit in ((np.cos, 1.0), (np.sin, 1.0j)):
        scale = float(np.max(np.abs(integrand(samples, trig))))
        if scale == 0.0:
            continue
        value, err = quad(
            lambda u: integrand(u, trig) / scale,
            lo,
            hi,
            epsabs=1e-13,
            epsrel=1e-12,
            limit=200,
            points=breaks or None,
        )
        assert err < 1e-9, f"quadrature residual {err:.2e}"
        result += unit * value * scale
    return result * pref * sig
