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
expressions' bits without their temporaries.  The two free-flight phases
(``kinetic`` and the flight phase) are computed on the wavenumbers 0 to n/2
only and mirrored onto the rest, since ``k2[j] == k2[n - j]`` exactly.  The
initial packet is dropped once the channels are made from it, before the
threads start.

``grid_solve`` runs the whole solve on the calling thread and one worker
thread (``_Worker``), started once per solve: the spin-up channel on the
caller and the spin-down channel on the worker, first through the magnet
(``_exit_spectra``, which keeps only the exit spectra) and then at each
snapshot time in turn.  numpy's FFTs and ufuncs release the interpreter
lock, so the two overlap: on two cores, 100 steps on 65536 points take
about half the time of one thread, while on 16384 points the hand-offs of
the lock cost about what the overlap saves.  Each thread takes the same
operands in the same order as one thread would, so the bits do not depend
on the threads.  The worker runs in a copy of the caller's context, so
numpy's ``errstate`` (a context variable) holds there too, and its
exceptions are raised again on the calling thread, after the calling
thread's own.  One worker serving the whole solve also keeps the worker's
arrays in one malloc arena: a second thread started just after the first
is joined can get a fresh arena, and a 2^16-point run then peaked at
43 MiB against about 40.

Per time, each thread builds the flight phase in its channel's array (made
on the calling thread), multiplies it by the exit spectrum,
inverse-transforms it in place and forms |psi|^2 once, for the norm sum,
the edge density, the density and, for spin down, the error fraction's
upper-half sum.  The calling thread runs the norm check and the spin-up,
then spin-down, boundary checks, sums the half-plane coherence in place in
the spin-up array and drops both wave functions; then comes the L1
distance of the density from the caller's reference densities, made one
channel per thread.  So at most one time's arrays are alive, three and a
half complex arrays' worth, and a time costs two hand-offs to the worker,
not a thread start.  The earliest failing time is the one reported, and no
grid work runs after it.

This solver knows nothing of the impulsive Gaussian model in
``wavepacket``; it discretizes the Hamiltonian directly and serves as the
independent cross-check for it.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Optional, Sequence

from .errors import BoundaryLeakError, NormDriftError
from .spin import SpinState
from .wavepacket import SGConfig

if TYPE_CHECKING:
    import numpy as np

__all__ = ["GridSpec", "GridResult", "grid_solve"]

_BOUNDARY_TOL = 1e-10
_NORM_TOL = 1e-10
_EDGE = [0, 1, -2, -1]  # the grid points the boundary check reads


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


class GridResult(NamedTuple):
    """One time t after the magnet exit, norm and edges checked, reduced."""

    t: float
    error_fraction: float  # upper-half weight of the normalized spin-down channel
    coherence: complex  # upper-half overlap of the normalized channels
    density_l1: float  # sum |grid density - reference density| dx


class _Worker:
    """A worker thread for the pairs of a ``with`` block, run in a copy of
    the context that entered the block."""

    def __enter__(self) -> _Worker:
        import contextvars
        import threading
        # binary semaphores: a call (None, to stop) is posted; the call is done
        self._posted, self._done = threading.Lock(), threading.Lock()
        self._posted.acquire()
        self._done.acquire()
        self._thread = threading.Thread(
            target=contextvars.copy_context().run, args=(self._serve,)
        )
        self._thread.start()
        return self

    def __exit__(self, *exc_info) -> None:
        self._call = None
        self._posted.release()
        self._thread.join()

    def _serve(self) -> None:
        while True:
            self._posted.acquire()
            if self._call is None:
                return
            fn, arg = self._call
            try:
                self._outcome = fn(arg), None
            except BaseException as exc:  # raised again by pair, on the caller
                self._outcome = None, exc
            del fn, arg  # hold no call once it is done
            self._done.release()

    def pair(self, fn: Callable, here, there) -> tuple:
        """(fn(here), fn(there)), fn(there) on the worker.  Both calls end
        before this returns or raises; fn(here)'s exception comes first."""
        self._call = fn, there
        self._posted.release()
        try:
            first = fn(here)
        finally:
            self._done.acquire()
        # hold neither the call (fn's closure) nor its result
        (second, exc), self._call, self._outcome = self._outcome, None, None
        if exc is not None:
            raise exc
        return first, second


def _check_boundary(edge: float, dx: float, t: float) -> None:
    """edge is the largest density at the _EDGE points; a NaN fails."""
    if not edge * dx <= _BOUNDARY_TOL:
        raise BoundaryLeakError(
            f"boundary density {edge * dx:.2e} at t = {t:g} exceeds "
            f"{_BOUNDARY_TOL:g}"
        )


def _free_phase(
    k2: np.ndarray, t: float, mass: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """np.exp(-1j * k2 * t / (2.0 * mass)), in place in out (a new array if
    out is None).

    Computed on k2[0 : n/2 + 1] and mirrored onto the rest: k2[j] == k2[n - j]
    exactly, and each element takes the plain expression's operands.
    """
    import numpy as np
    n = len(k2)
    phase = np.empty(n, dtype=complex) if out is None else out
    head = phase[: n // 2 + 1]
    np.multiply(-1j, k2[: n // 2 + 1], out=head)
    head *= t
    head /= 2.0 * mass
    np.exp(head, out=head)
    phase[n // 2 + 1 :] = phase[n // 2 - 1 : 0 : -1]
    return phase


def _upper_weights(n: int) -> np.ndarray:
    """Upper-half weights of the coherence and error sums: z[n//2] == 0
    exactly, and its trapezoidal half-weight keeps upper + lower == total
    and kills the half-cell bias at z = 0."""
    import numpy as np
    upper = np.zeros(n)
    upper[n // 2] = 0.5
    upper[n // 2 + 1 :] = 1.0
    return upper


def _exit_spectra(
    worker: _Worker, config: SGConfig, input_spin: SpinState, grid: GridSpec
) -> tuple:
    """Both channels through the magnet, spin down on the worker: the grid
    positions z, the squared wavenumbers k2 and the two exit spectra.

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
    # (np.arange(n) - n // 2) * dx and (2 pi fftfreq(n, dx))**2, in place:
    # fftfreq's frequencies are the integers 0 .. n/2 - 1, -n/2 .. -1 times
    # 1 / (n dx), and the float integers are exact
    z = np.arange(n, dtype=float)
    z -= n // 2
    z *= dx
    k2 = np.arange(n, dtype=float)
    k2[n // 2 :] -= n
    k2 *= 1.0 / (n * dx)
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
    # psi0 >= 0, so np.abs(psi0) ** 2 is np.square(psi0)
    psi0 /= math.sqrt(float(np.sum(np.square(psi0))) * dx)
    # t = -transit at the magnet's entry; a zero transit reads t = 0, not -0
    _check_boundary(float(np.max(np.square(psi0[_EDGE]))), dx, 0.0 - config.transit)
    channels = {
        +1: np.multiply(input_spin.amp_up, psi0, out=np.empty(n, dtype=complex)),
        -1: np.multiply(input_spin.amp_down, psi0, out=np.empty(n, dtype=complex)),
    }
    del psi0

    if config.transit > 0:
        n_steps = max(1, math.ceil(config.transit / grid.dt))
        dt = config.transit / n_steps
        kinetic = _free_phase(k2, dt, config.mass)

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

    return (z, k2, *worker.pair(exit_spectrum, +1, -1))


def grid_solve(
    config: SGConfig,
    input_spin: SpinState,
    grid: GridSpec,
    times: Sequence[float],
    reference: Callable[[float, str, np.ndarray], np.ndarray],
) -> List[GridResult]:
    """Both channels through the magnet, then at each time t after its exit
    by exact free flight, reduced: the error fraction, the half-plane
    coherence and the L1 distance of the density from
    reference(t, "plus", z) + reference(t, "minus", z), new arrays of each
    channel's density at the grid positions z; reference(t, "minus", z) is
    called on the worker thread.

    The times run one after another.  Raises ValueError for a negative time
    or a one-channel input, before any grid work; BoundaryLeakError when the
    initial packet already reaches the grid edge; then, at the earliest
    failing time, NormDriftError if the total norm drifts beyond 1e-10 or
    is not a number, then BoundaryLeakError when density reaches the grid
    edge (the spin-up channel checked first).
    """
    import numpy as np
    times = [float(t) for t in times]
    if any(t < 0 for t in times):
        raise ValueError("snapshot times must be non-negative")
    wp, wm = complex(input_spin.amp_up), complex(input_spin.amp_down)
    if abs(wp) < 1e-15 or abs(wm) < 1e-15:
        raise ValueError("snapshots undefined for a one-channel input")
    n = grid.points
    dx = grid.extent / n

    # flown and snapshot read the worker and the exit's arrays, bound below
    def flown(channel: tuple) -> tuple:
        """A channel at t, in its array psi: psi, |psi|^2, its sum, its edge
        density and, for spin down, its upper-half sum."""
        t, spectrum, psi = channel
        # np.fft.ifft(np.exp(-1j * k2 * t / (2 mass)) * spectrum), in place
        _free_phase(k2, t, config.mass, out=psi)
        np.multiply(psi, spectrum, out=psi)
        np.fft.ifft(psi, out=psi)
        density = np.abs(psi)
        np.square(density, out=density)
        upper_sum = None
        if spectrum is spectrum_minus:
            upper_sum = float(np.sum(upper * density))
        edge = float(np.max(density[_EDGE]))
        return psi, density, float(np.sum(density)), edge, upper_sum

    def snapshot(t: float) -> GridResult:
        # both wave functions are made on this thread, which keeps the
        # worker's heap within what the magnet step left it: on 2^16 points
        # (a shared 2-vCPU Linux guest) 20 fresh runs peaked at 40.1 MiB
        # median (highest 40.6), against 40.8 (41.1) with the worker making
        # its own
        (psi_plus, density, sum_plus, edge_plus, _), (
            psi_minus, density_minus, sum_minus, edge_minus, upper_minus
        ) = worker.pair(
            flown,
            (t, spectrum_plus, np.empty(n, dtype=complex)),
            (t, spectrum_minus, np.empty(n, dtype=complex)),
        )
        norm = (sum_plus + sum_minus) * dx
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise NormDriftError(f"norm drifted to {norm} at t = {t:g}")
        _check_boundary(edge_plus, dx, t)
        _check_boundary(edge_minus, dx, t)
        if sum_minus * dx < 1e-300:
            raise ValueError("spin-down channel is empty; error fraction undefined")
        # sum(upper * psi_plus * conj(psi_minus)), in place in psi_plus
        np.multiply(upper, psi_plus, out=psi_plus)
        np.multiply(psi_plus, np.conjugate(psi_minus, out=psi_minus), out=psi_plus)
        coherence = complex(np.sum(psi_plus)) * dx / (wp * np.conj(wm))
        del psi_plus, psi_minus
        # (|psi_plus|^2 + |psi_minus|^2) - (reference plus + reference minus)
        density += density_minus
        del density_minus
        expected, expected_minus = worker.pair(
            lambda which: reference(t, which, z), "plus", "minus"
        )
        expected += expected_minus
        density -= expected
        np.abs(density, out=density)
        return GridResult(
            t, upper_minus / sum_minus, coherence, float(np.sum(density) * dx)
        )

    with _Worker() as worker:
        z, k2, spectrum_plus, spectrum_minus = _exit_spectra(
            worker, config, input_spin, grid
        )
        upper = _upper_weights(n)
        return [snapshot(t) for t in times]
