"""Independent grid oracle: 1-D two-channel Schrodinger evolution.

Solves

    i d/dt psi_pm(z, t) = [ -1/(2m) d^2/dz^2  -+ moment (bias + gradient z) ] psi_pm

on a periodic FFT grid.  The two spin channels are decoupled (the coupling
is diagonal in sigma_z), so each evolves under its own scalar potential.

Inside the magnet the propagator is Trotterized with the symmetric
split-operator step  exp(-iV dt/2) exp(-iT dt) exp(-iV dt/2).  After the
magnet the Hamiltonian is purely kinetic, so the remaining flight to each
snapshot is applied as a single exact momentum-space phase (no step error
accumulates during free flight).

The magnet loop evolves each channel in place in its own array, so a step
allocates nothing.  Its operand order is fixed: complex multiplication is
not bitwise commutative (fused multiply-add), and the order
``half_v * psi``, ``psi * kinetic``, ``psi * half_v`` is what numpy's
temporary elision made of the nested expression
``half_v * ifft(kinetic * fft(half_v * psi))`` on grids of 16384 points or
more, so those grids give the same bits as that expression.

The initial state (the grid ``z``, ``k2``, the packet ``psi0`` and each
channel) and the phase arrays (``kinetic``, each channel's ``half_v`` and
the flight phase of a snapshot) are built in place in one array each.
Their in-place steps take the operands of the plain expressions, such as
``np.exp(-1j * k2 * dt / (2 m))``, in the same order, so they have the
expressions' bits without their temporaries.  The initial packet is dropped
once the channels are made from it, before the threads start.

The run has two steps.  ``grid_evolve`` takes the two channels through the
magnet on two threads, spin down on a worker thread and spin up on the
calling thread, and keeps only their exit spectra.  numpy's FFTs and ufuncs
release the interpreter lock, so the two overlap: on two cores, 100 steps
on 65536 points take about half the time of one thread, while on 16384
points the hand-offs of the lock cost about what the overlap saves.  Each
thread evolves its own array with the same operands in the same order as
one thread would, so the bits do not depend on the threads.
``map_in_order`` holds the thread code: it maps a function over a sequence
with the odd positions on a worker thread and the even ones on the calling
thread, and returns the results in order.  The worker runs in a copy of the
caller's context, so numpy's ``errstate`` (a context variable) holds there
too.  Each thread stops at its first exception, and after the join the
earliest failing item's exception is raised again.

``grid_snapshot`` then makes one time at a time: it builds the flight phase
once for both channels, applies it and the inverse FFT to each channel (the
spin-down channel lands in the flight phase's own array), sums
|psi|^2, and runs the norm check and then the spin-up and spin-down boundary
checks.  A caller keeps a snapshot only while it uses it, so the memory of a
run does not grow with the number of snapshot times.  The oracle workflow
maps its comparison over the times with ``map_in_order`` too, so its even
times run on the calling thread and its odd times on a worker, and the
earliest failing time is the one reported.

This solver knows nothing of the impulsive Gaussian model in
``wavepacket``; it discretizes the Hamiltonian directly and serves as the
independent cross-check for it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, NamedTuple, Optional, Sequence, Tuple

from .errors import BoundaryLeakError, NormDriftError
from .spin import SpinState
from .wavepacket import SGConfig

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "GridSpec",
    "GridExit",
    "GridResult",
    "grid_evolve",
    "grid_snapshot",
    "grid_error_fraction",
    "grid_half_plane_coherence",
    "grid_density",
]

_BOUNDARY_TOL = 1e-10
_NORM_TOL = 1e-10


# the fields; GridSpec checks them in __new__, which _replace skips
class _GridSpecFields(NamedTuple):
    extent: float
    points: int
    dt: float


class GridSpec(_GridSpecFields):
    """Spatial extent (full length), number of points, and magnet time step."""

    __slots__ = ()

    def __new__(cls, extent, points, dt) -> GridSpec:
        if extent <= 0:
            raise ValueError("extent must be positive")
        if points < 2 or (points & (points - 1)) != 0:
            raise ValueError("points must be a power of two")
        if dt <= 0:
            raise ValueError("dt must be positive")
        return super().__new__(cls, extent, points, dt)


class GridExit(NamedTuple):
    """Both channels' spectra at the magnet exit, and the grid they live on."""

    z: np.ndarray
    dx: float
    k2: np.ndarray  # squared wavenumbers of the FFT grid
    upper: np.ndarray  # upper-half weights of the coherence and error sums
    spectrum_plus: np.ndarray
    spectrum_minus: np.ndarray
    weight_up: complex
    weight_down: complex
    config: SGConfig


class GridResult(NamedTuple):
    """Both channels at one time t after the magnet exit, norm and edges checked."""

    t: float
    psi_plus: np.ndarray
    psi_minus: np.ndarray
    sum_minus: float  # sum of |psi_minus|^2, as the norm check summed it
    source: GridExit


def map_in_order(fn: Callable, items: Sequence) -> list:
    """[fn(item) for item in items], the odd positions on a worker thread (in
    a copy of this context) and the even ones on this thread.  Each thread
    stops at its first exception; the earliest failing item's is raised."""
    import contextvars
    import threading
    results, errors = [None] * len(items), {}

    def run(start: int) -> None:
        for idx in range(start, len(items), 2):
            try:
                results[idx] = fn(items[idx])
            except BaseException as exc:  # raised again below, after the join
                errors[idx] = exc
                return

    worker = threading.Thread(target=contextvars.copy_context().run, args=(run, 1))
    worker.start()
    try:
        run(0)
    finally:
        worker.join()
    if errors:
        raise errors[min(errors)]
    return results


def _check_boundary(psi: np.ndarray, dx: float, t: float) -> None:
    import numpy as np
    # np.max passes a NaN on, and a NaN edge fails the check
    edge = float(np.max(np.abs(psi[[0, 1, -2, -1]]) ** 2))
    if not edge * dx <= _BOUNDARY_TOL:
        raise BoundaryLeakError(
            f"boundary density {edge * dx:.2e} at t = {t:g} exceeds "
            f"{_BOUNDARY_TOL:g}"
        )


def grid_evolve(config: SGConfig, input_spin: SpinState, grid: GridSpec) -> GridExit:
    """Evolve both channels through the magnet; return their exit spectra.

    Raises BoundaryLeakError when the initial packet already reaches the
    grid edge.
    """
    import numpy as np
    n = grid.points
    # pocketfft allocates an array of scratch at each FFT.  glibc returns the
    # top of its heap to the system once twice the largest mmap block freed
    # so far lies free there, and the in-place builds below leave the
    # scratch no hole but the top, so it would be unmapped and faulted in
    # again at every FFT.  Freeing an untouched two-array block at once
    # raises that bound past the scratch.  Without it, an oracle run on 2^16
    # points with 100 magnet steps takes about 115k minor faults, not 9k.
    np.empty(2 * n, dtype=complex)
    dx = grid.extent / n
    # (np.arange(n) - n // 2) * dx and (2 pi fftfreq(n, dx))**2, in place
    z = np.arange(n, dtype=float)
    z -= n // 2
    z *= dx
    k2 = np.fft.fftfreq(n, dx)
    np.multiply(2.0 * math.pi, k2, out=k2)
    np.square(k2, out=k2)

    # 2 pi sigma0**2 overflows for a packet far wider than any grid, and its
    # -1/4 power would be 0 (then psi0 / 0); the factored form is finite
    two_pi_var = 2.0 * math.pi * config.sigma0**2
    if math.isfinite(two_pi_var):
        prefactor = two_pi_var ** (-0.25)
    else:
        prefactor = (2.0 * math.pi) ** (-0.25) * config.sigma0 ** (-0.5)
    # prefactor * np.exp(-(z**2) / (4 sigma0**2)), in place; for a packet far
    # narrower than dx, z**2 / (4 sigma0**2) overflows off z = 0, and
    # exp(-inf) = 0 is the exact limit there
    with np.errstate(over="ignore"):
        psi0 = np.square(z)
        np.negative(psi0, out=psi0)
        psi0 /= 4.0 * config.sigma0**2
        np.exp(psi0, out=psi0)
    np.multiply(prefactor, psi0, out=psi0)
    psi0 /= math.sqrt(float(np.sum(np.abs(psi0) ** 2)) * dx)
    _check_boundary(psi0, dx, -config.transit)
    channels = {
        +1: np.multiply(input_spin.amp_up, psi0, out=np.empty(n, dtype=complex)),
        -1: np.multiply(input_spin.amp_down, psi0, out=np.empty(n, dtype=complex)),
    }
    del psi0

    if config.transit > 0:
        n_steps = max(1, math.ceil(config.transit / grid.dt))
        dt = config.transit / n_steps
        # np.exp(-1j * k2 * dt / (2.0 * config.mass)), in place
        kinetic = np.multiply(-1j, k2)
        kinetic *= dt
        kinetic /= 2.0 * config.mass
        np.exp(kinetic, out=kinetic)

    def exit_spectrum(s: int) -> np.ndarray:
        """Channel s through the magnet, in momentum space at its exit.

        Calls numpy only, so it may run off the calling thread.
        """
        psi = channels[s]  # a private copy, evolved in place
        if config.transit > 0:
            # np.exp(-1j * potential * dt / 2.0) for the potential
            # -s * moment * (bias + gradient * z), in place: the potential
            # is built in the real part, and with the imaginary part +0 the
            # array is what numpy's cast of a real potential would give
            half_v = np.zeros(n, dtype=complex)
            potential = half_v.real
            np.multiply(config.gradient, z, out=potential)
            potential += config.bias
            potential *= -s * config.moment
            np.multiply(-1j, half_v, out=half_v)
            half_v *= dt
            half_v /= 2.0
            np.exp(half_v, out=half_v)
            for _ in range(n_steps):
                np.multiply(half_v, psi, out=psi)
                np.fft.fft(psi, out=psi)
                np.multiply(psi, kinetic, out=psi)
                np.fft.ifft(psi, out=psi)
                np.multiply(psi, half_v, out=psi)
        return np.fft.fft(psi, out=psi)

    spectrum_plus, spectrum_minus = map_in_order(exit_spectrum, (+1, -1))
    # z[n//2] == 0 exactly; trapezoidal half-weight there keeps
    # upper + lower == total and kills the half-cell bias at z = 0.
    upper = np.zeros(n)
    upper[n // 2] = 0.5
    upper[n // 2 + 1 :] = 1.0
    return GridExit(
        z=z,
        dx=dx,
        k2=k2,
        upper=upper,
        spectrum_plus=spectrum_plus,
        spectrum_minus=spectrum_minus,
        weight_up=complex(input_spin.amp_up),
        weight_down=complex(input_spin.amp_down),
        config=config,
    )


def grid_snapshot(source: GridExit, t: float) -> GridResult:
    """Both channels at time t after the magnet exit, by exact free flight.

    Raises NormDriftError if the total norm drifts beyond 1e-10 or is not a
    number, then BoundaryLeakError when density reaches the grid edge (the
    spin-up channel checked first).
    """
    import numpy as np
    t = float(t)
    if t < 0:
        raise ValueError("snapshot times must be non-negative")
    # np.exp(-1j * k2 * t / (2.0 * mass)), in place
    flight = np.multiply(-1j, source.k2)
    flight *= t
    flight /= 2.0 * source.config.mass
    np.exp(flight, out=flight)

    def flown(
        spectrum: np.ndarray, out: Optional[np.ndarray] = None
    ) -> Tuple[np.ndarray, float]:
        psi = np.multiply(flight, spectrum, out=out)
        np.fft.ifft(psi, out=psi)
        return psi, float(np.sum(np.abs(psi) ** 2))

    psi_plus, sum_plus = flown(source.spectrum_plus)
    # the spin-down channel flies into the flight phase's own array
    psi_minus, sum_minus = flown(source.spectrum_minus, out=flight)
    norm = (sum_plus + sum_minus) * source.dx
    if not abs(norm - 1.0) <= _NORM_TOL:
        raise NormDriftError(f"norm drifted to {norm} at t = {t:g}")
    _check_boundary(psi_plus, source.dx, t)
    _check_boundary(psi_minus, source.dx, t)
    return GridResult(t, psi_plus, psi_minus, sum_minus, source)


def grid_error_fraction(result: GridResult) -> float:
    """Upper-half weight of the normalized spin-down channel."""
    import numpy as np
    total = result.sum_minus
    if total * result.source.dx < 1e-300:
        raise ValueError("spin-down channel is empty; error fraction undefined")
    return float(np.sum(result.source.upper * np.abs(result.psi_minus) ** 2)) / total


def grid_half_plane_coherence(result: GridResult) -> complex:
    """Upper-half overlap of the normalized channels (weights divided out)."""
    import numpy as np
    source = result.source
    wp, wm = source.weight_up, source.weight_down
    if abs(wp) < 1e-15 or abs(wm) < 1e-15:
        raise ValueError("coherence undefined for a one-channel input")
    fp, fm = result.psi_plus, result.psi_minus
    raw = complex(np.sum(source.upper * fp * np.conj(fm))) * source.dx
    return raw / (wp * np.conj(wm))


def grid_density(result: GridResult) -> np.ndarray:
    """Total position density |psi_plus|^2 + |psi_minus|^2."""
    return abs(result.psi_plus) ** 2 + abs(result.psi_minus) ** 2
