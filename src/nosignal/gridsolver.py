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

The whole solve runs in five n-point complex buffers, made once per solve
on the calling thread: one per channel, which holds the channel and then
its exit spectrum; a spare one, which holds the grid ``z`` and the squared
wavenumbers ``k2`` as floats until the half-steps and the kinetic phase
are built, then the kinetic phase; and one half-step buffer per channel,
which holds that channel's ``half_v`` in the magnet (the initial packet
``psi0`` sits in the spin-down one's floats until the channels are made
from it).  Each array is built in place with the operands of its plain
expression, such as ``np.exp(-1j * k2 * dt / (2 m))``, in the same order,
so it has the expression's bits without its temporaries; ``z`` and ``k2``
come from an exact integer ramp in place of ``np.arange``.  The two
free-flight phases (``kinetic`` and the flight phase) are computed on the
wavenumbers 0 to n/2 only and mirrored onto the rest, since
``k2[j] == k2[n - j]`` exactly, so only those n/2 + 1 wavenumbers are kept.

``grid_solve`` runs the whole solve on the calling thread and one worker
thread (``_Worker``), started once per solve: the spin-up channel on the
caller and the spin-down channel on the worker, first through the magnet
(``_exit_spectra``) and then at each snapshot time in turn.  numpy's FFTs
and ufuncs release the interpreter lock, so the two overlap: on two cores,
100 steps on 65536 points take about half the time of one thread, while on
16384 points the hand-offs of the lock cost about what the overlap saves.
Each thread takes the same operands in the same order as one thread would,
so the bits do not depend on the threads.  The worker runs in a copy of the
caller's context, so numpy's ``errstate`` (a context variable) holds there
too, and its exceptions are raised again on the calling thread, after the
calling thread's own.  One worker serving the whole solve also keeps the
worker's memory in one malloc arena: a second thread started just after
the first is joined can get a fresh arena, and a 2^16-point run then
peaked at 43 MiB against about 40.

Per time, each thread rebuilds the ``k2`` head in its channel's half of
the spare buffer's floats, builds the flight phase from it in its
half-step buffer, multiplies it by the exit spectrum, inverse-transforms
it in place and writes |psi|^2 over the ``k2`` head, for the norm sum and
the edge density.  The calling thread runs the norm check and the spin-up,
then spin-down, boundary checks, adds the spin-down density to the spin-up
one, weights the spin-down density in place for the error fraction's
upper-half sum and then writes the upper-half weights over it for the
half-plane coherence, summed in place in the spin-up wave function's
buffer.  Then ``z`` is rebuilt in place of the weights, and the two
reference densities, made one channel per thread, are written in the
spent spin-up buffer's floats for the L1 distance.  So a time allocates no
n-point array, and costs two hand-offs to the worker, not a thread start.
The earliest failing time is the one reported, and no grid work runs after
it.

Besides the five buffers, each thread holds what pocketfft keeps for its
FFTs: a plan per thread (about 1 MiB on 2^16 points, made at the thread's
first FFT of that size) and one array of scratch at each FFT (freed after
it; see ``_exit_spectra`` for why glibc keeps it mapped).  On 2^16 points
that is seven arrays and two plans, about 9 MiB above numpy's import.

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


def _ramp(out: np.ndarray) -> np.ndarray:
    """0.0, 1.0, ..., len(out) - 1 in place in out, np.arange's floats
    without its new array: each step adds m to the first m values, so every
    value is an exact integer."""
    import numpy as np
    out[:1] = 0.0
    m, size = 1, len(out)
    while m < size:
        np.add(out[: min(m, size - m)], m, out=out[m : 2 * m])
        m *= 2
    return out


def _positions(n: int, dx: float, out: np.ndarray) -> np.ndarray:
    """The grid positions (np.arange(n) - n // 2) * dx, in place in out."""
    z = _ramp(out)
    z -= n // 2
    z *= dx
    return z


def _wavenumbers_squared(n: int, dx: float, out: np.ndarray) -> np.ndarray:
    """(2 pi np.fft.fftfreq(n, dx))**2 at the first len(out) wavenumbers, in
    place in out: fftfreq's frequencies are the integers 0 .. n/2 - 1,
    -n/2 .. -1 times 1 / (n dx), and the float integers are exact."""
    import numpy as np
    k2 = _ramp(out)
    k2[n // 2 :] -= n
    k2 *= 1.0 / (n * dx)
    np.multiply(2.0 * math.pi, k2, out=k2)
    np.square(k2, out=k2)
    return k2


def _free_phase(
    k2: np.ndarray, t: float, mass: float, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """np.exp(-1j * k2 * t / (2.0 * mass)) on n points, in place in out (a
    new array of n = len(k2) points if out is None; n = len(out) if not).

    Computed on k2[0 : n/2 + 1] and mirrored onto the rest: k2[j] == k2[n - j]
    exactly, and each element takes the plain expression's operands.  So k2
    need hold only those n/2 + 1 wavenumbers when out is given.
    """
    import numpy as np
    phase = np.empty(len(k2), dtype=complex) if out is None else out
    n = len(phase)
    head = phase[: n // 2 + 1]
    np.multiply(-1j, k2[: n // 2 + 1], out=head)
    head *= t
    head /= 2.0 * mass
    np.exp(head, out=head)
    phase[n // 2 + 1 :] = phase[n // 2 - 1 : 0 : -1]
    return phase


def _upper_weights(out: np.ndarray) -> np.ndarray:
    """Upper-half weights of the coherence and error sums, in place in out:
    0 below z = 0 and 1 above.  z[n//2] == 0 exactly, and its trapezoidal
    half-weight keeps upper + lower == total and kills the half-cell bias
    at z = 0."""
    n = len(out)
    out[: n // 2] = 0.0
    out[n // 2] = 0.5
    out[n // 2 + 1 :] = 1.0
    return out


def _exit_spectra(
    worker: _Worker, config: SGConfig, input_spin: SpinState, grid: GridSpec
) -> tuple:
    """Both channels through the magnet, spin down on the worker, in five
    n-point complex buffers made here: the two exit spectra, then the three
    buffers the magnet is done with (the kinetic phase's, then each
    channel's half-step's, spin up first).

    Raises BoundaryLeakError when the initial packet already reaches the
    grid edge.
    """
    import numpy as np
    n = grid.points
    # pocketfft allocates an array of scratch at each FFT.  glibc returns the
    # top of its heap to the system once twice the largest mmap block freed
    # so far lies free there, and the buffers below leave the scratch no
    # hole but the top, so it would be unmapped and faulted in again at
    # every FFT.  Freeing an untouched two-array block at once raises that
    # bound past the scratch.  Without it, an oracle run on 2^16 points with
    # 100 magnet steps takes about 108k minor faults, not 7k.
    np.empty(2 * n, dtype=complex)
    plus, minus, spare, half_plus, half_minus = (
        np.empty(n, dtype=complex) for _ in range(5)
    )
    dx = grid.extent / n
    # z and the squared wavenumbers 0 .. n/2 in the spare buffer's floats, k2
    # at the end: the kinetic phase's head, built from k2 over z, then ends
    # before k2 starts (from 8 points up; below, numpy copies k2 first)
    floats = spare.view(float)
    z = _positions(n, dx, floats[:n])
    k2 = _wavenumbers_squared(n, dx, floats[-(n // 2 + 1) :])

    # 2 pi sigma0**2 overflows for a packet far wider than any grid, and its
    # -1/4 power would be 0 (then psi0 / 0); the factored form is finite
    two_pi_var = 2.0 * math.pi * config.sigma0**2
    if math.isfinite(two_pi_var):
        prefactor = two_pi_var ** (-0.25)
    else:
        prefactor = (2.0 * math.pi) ** (-0.25) * config.sigma0 ** (-0.5)
    # prefactor * np.exp(-(z**2) / (4 sigma0**2)), in place in the spin-down
    # half-step buffer's floats; for a packet far narrower than dx,
    # z**2 / (4 sigma0**2) overflows off z = 0, and exp(-inf) = 0 is the
    # exact limit there
    psi0 = half_minus.view(float)[:n]
    with np.errstate(over="ignore"):
        np.square(z, out=psi0)
        np.negative(psi0, out=psi0)
        psi0 /= 4.0 * config.sigma0**2
        np.exp(psi0, out=psi0)
    np.multiply(prefactor, psi0, out=psi0)
    # psi0 >= 0, so np.abs(psi0) ** 2 is np.square(psi0), made in the
    # spin-up half-step buffer's floats
    squared = np.square(psi0, out=half_plus.view(float)[:n])
    psi0 /= math.sqrt(float(np.sum(squared)) * dx)
    # t = -transit at the magnet's entry; a zero transit reads t = 0, not -0
    _check_boundary(float(np.max(np.square(psi0[_EDGE]))), dx, 0.0 - config.transit)
    np.multiply(input_spin.amp_up, psi0, out=plus)
    np.multiply(input_spin.amp_down, psi0, out=minus)
    channels = {+1: (plus, half_plus), -1: (minus, half_minus)}

    if config.transit > 0:
        n_steps = max(1, math.ceil(config.transit / grid.dt))
        dt = config.transit / n_steps

        def half_step(s: int) -> None:
            """np.exp(-1j * potential * dt / 2.0) for the potential
            -s * moment * (bias + gradient * z), in place in channel s's
            half-step buffer: the potential is built in the real part, and
            with the imaginary part +0 the array is what numpy's cast of a
            real potential would give."""
            half_v = channels[s][1]
            half_v.imag = 0.0
            potential = half_v.real
            np.multiply(config.gradient, z, out=potential)
            potential += config.bias
            potential *= -s * config.moment
            np.multiply(-1j, half_v, out=half_v)
            half_v *= dt
            half_v /= 2.0
            np.exp(half_v, out=half_v)

        worker.pair(half_step, +1, -1)
        # over z and k2, which no half-step reads any more
        kinetic = _free_phase(k2, dt, config.mass, out=spare)

    def exit_spectrum(s: int) -> np.ndarray:
        """Channel s through the magnet, in momentum space at its exit.

        Calls numpy only, so it may run off the calling thread.
        """
        psi, half_v = channels[s]  # evolved in place
        if config.transit > 0:
            for _ in range(n_steps):
                np.multiply(half_v, psi, out=psi)
                np.fft.fft(psi, out=psi)
                np.multiply(psi, kinetic, out=psi)
                np.fft.ifft(psi, out=psi)
                np.multiply(psi, half_v, out=psi)
        return np.fft.fft(psi, out=psi)

    return (*worker.pair(exit_spectrum, +1, -1), spare, half_plus, half_minus)


def grid_solve(
    config: SGConfig,
    input_spin: SpinState,
    grid: GridSpec,
    times: Sequence[float],
    reference: Callable[[float, str, np.ndarray, np.ndarray], object],
) -> List[GridResult]:
    """Both channels through the magnet, then at each time t after its exit
    by exact free flight, reduced: the error fraction, the half-plane
    coherence and the L1 distance of the density from the sum of the two
    reference densities.  reference(t, which, z, out) writes channel
    which's ("plus" or "minus") density at the grid positions z into out;
    reference(t, "minus", z, out) is called on the worker thread.

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

    def flown(channel: tuple) -> tuple:
        """A channel at t, psi in its buffer and |psi|^2 in its density:
        the density's sum and its edge density."""
        t, spectrum, psi, density = channel
        # np.fft.ifft(np.exp(-1j * k2 * t / (2 mass)) * spectrum), in place,
        # from k2 rebuilt in the density's floats, which |psi|^2 then takes
        k2 = _wavenumbers_squared(n, dx, density[: n // 2 + 1])
        _free_phase(k2, t, config.mass, out=psi)
        np.multiply(psi, spectrum, out=psi)
        np.fft.ifft(psi, out=psi)
        np.abs(psi, out=density)
        np.square(density, out=density)
        return float(np.sum(density)), float(np.max(density[_EDGE]))

    # snapshot reads the worker and the buffers, bound below
    def snapshot(t: float) -> GridResult:
        # the two densities in the spare buffer's floats
        density, density_minus = spare.view(float).reshape(2, n)
        (sum_plus, edge_plus), (sum_minus, edge_minus) = worker.pair(
            flown,
            (t, spectrum_plus, psi_plus, density),
            (t, spectrum_minus, psi_minus, density_minus),
        )
        norm = (sum_plus + sum_minus) * dx
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise NormDriftError(f"norm drifted to {norm} at t = {t:g}")
        _check_boundary(edge_plus, dx, t)
        _check_boundary(edge_minus, dx, t)
        if sum_minus * dx < 1e-300:
            raise ValueError("spin-down channel is empty; error fraction undefined")
        density += density_minus
        # sum(upper * density_minus), in place: a float times a float is
        # the same either way round, and 1.0 * x is x
        density_minus[: n // 2] *= 0.0
        density_minus[n // 2] *= 0.5
        upper_minus = float(np.sum(density_minus))
        # sum(upper * psi_plus * conj(psi_minus)), in place in psi_plus, with
        # the weights in density_minus's floats
        upper = _upper_weights(density_minus)
        np.multiply(upper, psi_plus, out=psi_plus)
        np.multiply(psi_plus, np.conjugate(psi_minus, out=psi_minus), out=psi_plus)
        coherence = complex(np.sum(psi_plus)) * dx / (wp * np.conj(wm))
        # (|psi_plus|^2 + |psi_minus|^2) - (reference plus + reference minus),
        # the references written in the spent spin-up buffer's floats
        z = _positions(n, dx, density_minus)
        expected, expected_minus = psi_plus.view(float).reshape(2, n)
        worker.pair(
            lambda args: reference(t, *args),
            ("plus", z, expected),
            ("minus", z, expected_minus),
        )
        expected += expected_minus
        density -= expected
        np.abs(density, out=density)
        return GridResult(
            t, upper_minus / sum_minus, coherence, float(np.sum(density) * dx)
        )

    with _Worker() as worker:
        spectrum_plus, spectrum_minus, spare, psi_plus, psi_minus = _exit_spectra(
            worker, config, input_spin, grid
        )
        return [snapshot(t) for t in times]
