"""Independent grid oracle: 1-D two-channel Schrodinger evolution.

Solves

    i d/dt psi_pm(z, t) = [ -1/(2m) d^2/dz^2  -+ moment (bias + gradient z) ] psi_pm

on a periodic FFT grid.  The two spin channels are decoupled (the coupling
is diagonal in sigma_z), so each evolves under its own scalar potential.
Inside the magnet the propagator is Trotterized with the symmetric
split-operator step  exp(-iV dt/2) exp(-iT dt) exp(-iV dt/2).  After the
magnet the Hamiltonian is purely kinetic, so the flight to each snapshot
time is one exact momentum-space phase (no step error accumulates there).
The bias term does not depend on z and commutes with the rest, so each
channel takes it once, as the Larmor factor exp(i s moment bias transit)
on its input amplitude, and the half-steps carry the gradient term alone.
The spin-down potential at z is then the spin-up one at -z, so the
spin-down half-step is the spin-up one's reversed view, on n + 1 points.

Every transform is a four-step one (Bailey 1990): the n points as an
(n1, n2) array, n2 transforms of n1 points, the twiddles W = exp(-2 pi i
k1 j2 / n), then n1 transforms of n2 points, so that each batch of short
transforms fits in cache.  A spectrum stays in that order, wavenumber
k1 + n1 k2 at n2 k1 + k2, and is never transposed; the kinetic and flight
phases are built in it (``_spectral_order``).  The inverse takes conj(W)
as conj(conj(y) W), so W is the one twiddle array, which both threads
read through the magnet and every time.

``grid_solve`` runs the spin-up channel on the calling thread and the
spin-down channel on one worker thread (``_Worker``), so that their FFTs
overlap on two cores: first through the magnet (``_exit_spectra``), then
at each snapshot time in turn, each time reduced before the next.

Each array takes the operands of its plain expression, such as
``np.exp(-1j * k2 * t / (2 mass))``, in their order, so it has that
expression's bits whichever thread builds it.  The magnet steps each
channel in place.  The times share two wave-function buffers and two
rows of n + 2 floats, and each time writes k2, its phase at the
wavenumbers 0 .. n/2, the density, z and the reference densities into
floats it has spent and takes the upper-half weights in place, so no time
allocates an n-point array.

This solver knows nothing of the impulsive Gaussian model in
``wavepacket``; it discretizes the Hamiltonian directly and serves as the
independent cross-check for it.  It takes only ``SGConfig`` from there,
and a channel's reference density, named by its sign s = +1 (spin up) or
-1 (spin down), comes from the caller.
"""

from __future__ import annotations

import cmath
import math
from typing import TYPE_CHECKING, Callable, List, NamedTuple, Sequence, Tuple

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
    """The grid positions (np.arange(len(out)) - n // 2) * dx, in place in
    out."""
    z = _ramp(out)
    z -= n // 2
    z *= dx
    return z


def _wavenumbers_squared(n: int, dx: float, out: np.ndarray) -> np.ndarray:
    """(2 pi np.fft.fftfreq(n, dx))**2 at the first len(out) <= n/2 + 1
    wavenumbers, all that _free_phase reads, in place in out: fftfreq's
    frequencies are the integers 0 .. n/2 - 1, then -n/2 (which squares as
    n/2) .. -1, times 1 / (n dx), and the float integers are exact."""
    import numpy as np
    k2 = _ramp(out)
    k2 *= 1.0 / (n * dx)
    np.multiply(2.0 * math.pi, k2, out=k2)
    return np.square(k2, out=k2)


def _free_phase(k2: np.ndarray, t: float, mass: float, out: np.ndarray) -> np.ndarray:
    """np.exp(-1j * k2 * t / (2.0 * mass)) in place in out, at the
    len(out) == len(k2) wavenumbers 0 .. n/2 that _spectral_order mirrors."""
    import numpy as np
    np.multiply(-1j, k2, out=out)
    out *= t
    out /= 2.0 * mass
    return np.exp(out, out=out)


def _shape(n: int) -> Tuple[int, int]:
    """(n1, n2) of the four-step transforms on n points: n2 =
    2**ceil(log2(n) / 2) >= 2, so 256 x 256 on 2^16 points."""
    n2 = 1 << (n.bit_length() // 2)
    return n // n2, n2


def _spectral_order(head: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The n-point spectral array whose values at the wavenumbers 0 .. n/2
    head holds, in place in out, in the four-step order: wavenumber k1 +
    n1 k2 at out[n2 k1 + k2].  Wavenumber n - j takes head[j]; n2 is even,
    so rows k2 < n2/2 of the transposed view hold 0 .. n/2 - 1 and the
    others n/2 .. n - 1."""
    n = len(out)
    n1, n2 = _shape(n)
    by_wavenumber = out.reshape(n1, n2).T
    by_wavenumber[: n2 // 2] = head[: n // 2].reshape(n2 // 2, n1)
    by_wavenumber[n2 // 2 :] = head[n // 2 : 0 : -1].reshape(n2 // 2, n1)
    return out


def _twiddles(n: int) -> np.ndarray:
    """The four-step's np.exp(np.outer(k1, j2) * (-2j * pi / n)), k1 < n1
    and j2 < n2, in place in one (n1, n2) array: the products k1 j2 < n are
    exact."""
    import numpy as np
    n1, n2 = _shape(n)
    twiddles = np.empty((n1, n2), dtype=complex)
    np.multiply.outer(_ramp(np.empty(n1)), _ramp(np.empty(n2)), out=twiddles)
    twiddles *= -2j * math.pi / n
    return np.exp(twiddles, out=twiddles)


def _fft(psi: np.ndarray, twiddles: np.ndarray) -> np.ndarray:
    """The DFT of psi in place, as n2 transforms of n1 points, the
    twiddles, then n1 transforms of n2 points; wavenumber k1 + n1 k2 lands
    at psi[n2 k1 + k2]."""
    import numpy as np
    grid = psi.reshape(twiddles.shape)
    np.fft.fft(grid, axis=0, out=grid)
    np.multiply(grid, twiddles, out=grid)
    np.fft.fft(grid, axis=1, out=grid)
    return psi


def _ifft(psi: np.ndarray, twiddles: np.ndarray) -> np.ndarray:
    """_fft's inverse in place: psi in _fft's order back to positions."""
    import numpy as np
    grid = psi.reshape(twiddles.shape)
    np.fft.ifft(grid, axis=1, out=grid)
    # times conj(twiddles) as conj(conj(grid) * twiddles): no second array
    np.conjugate(grid, out=grid)
    np.multiply(grid, twiddles, out=grid)
    np.conjugate(grid, out=grid)
    np.fft.ifft(grid, axis=0, out=grid)
    return psi


def _exit_spectra(
    worker: _Worker, config: SGConfig, input_spin: SpinState, grid: GridSpec
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both channels through the magnet, spin down on the worker, in
    momentum space at its exit, in _fft's order; and the twiddles, which
    _ifft reads for every time after it.

    Raises BoundaryLeakError when the initial packet already reaches the
    grid edge.
    """
    import numpy as np
    n = grid.points
    dx = grid.extent / n
    # the n-point arrays lie above glibc's mmap threshold, so until a mapped
    # block is freed glibc maps each afresh and faults it in; freeing an
    # untouched two-array block first raises its mmap and trim thresholds
    # past every array of the solve, whose pages the heap then keeps (on
    # 2^16 points and 100 magnet steps, 5.9k minor faults against 6.9k, at
    # the same peak resident set and time)
    np.empty(2 * n, dtype=complex)
    # z[n] = -z[0], where the spin-down half-step reads the spin-up one
    z = _positions(n, dx, np.empty(n + 1))

    # 2 pi sigma0**2 overflows for a packet far wider than any grid, and its
    # -1/4 power would be 0 (then psi0 / 0); the factored form is finite
    two_pi_var = 2.0 * math.pi * config.sigma0**2
    if math.isfinite(two_pi_var):
        prefactor = two_pi_var ** (-0.25)
    else:
        prefactor = (2.0 * math.pi) ** (-0.25) * config.sigma0 ** (-0.5)
    # prefactor * np.exp(-(z**2) / (4 sigma0**2)); for a packet far narrower
    # than dx, z**2 / (4 sigma0**2) overflows off z = 0, and exp(-inf) = 0 is
    # the exact limit there
    psi0 = np.square(z[:n])
    with np.errstate(over="ignore"):
        np.negative(psi0, out=psi0)
        psi0 /= 4.0 * config.sigma0**2
        np.exp(psi0, out=psi0)
    np.multiply(prefactor, psi0, out=psi0)
    # psi0 >= 0, so np.abs(psi0) ** 2 is np.square(psi0)
    psi0 /= math.sqrt(float(np.sum(np.square(psi0))) * dx)
    # t = -transit at the magnet's entry; a zero transit reads t = 0, not -0
    _check_boundary(float(np.max(np.square(psi0[_EDGE]))), dx, 0.0 - config.transit)
    # the bias term does not depend on z, so it commutes with the rest of
    # channel s's Hamiltonian: its propagator is the exact factor
    # exp(i s moment bias transit), which no half-step rounds
    larmor = config.moment * config.bias * config.transit
    channels = {
        s: np.multiply(
            amp * cmath.exp(1j * (s * larmor)), psi0, out=np.empty(n, dtype=complex)
        )
        for s, amp in ((+1, input_spin.amp_up), (-1, input_spin.amp_down))
    }
    del psi0

    half_steps = {}
    if config.transit > 0:
        n_steps = max(1, math.ceil(config.transit / grid.dt))
        dt = config.transit / n_steps
        # np.exp(-1j * potential * dt / 2.0) for the spin-up potential
        # -moment * gradient * z on n + 1 points.  The spin-down potential at
        # z[j] is the spin-up one at z[n - j] = -z[j], bit for bit, so the
        # spin-down half-step is the reversed view.  Each temporary comes
        # after the array it fills, so that it is freed at the heap's top,
        # where later arrays reuse its pages
        half_v = np.empty(n + 1, dtype=complex)
        potential = np.multiply(config.gradient, z)
        potential *= -config.moment
        np.multiply(-1j, potential, out=half_v)
        del potential
        half_v *= dt
        half_v /= 2.0
        np.exp(half_v, out=half_v)
        half_steps = {+1: half_v[:n], -1: half_v[:0:-1]}
        # np.exp(-1j * k2 * dt / (2 mass)) in _fft's order, k2 in its floats
        kinetic = np.empty(n, dtype=complex)
        k2 = _wavenumbers_squared(n, dx, kinetic.view(float)[: n // 2 + 1])
        _spectral_order(
            _free_phase(k2, dt, config.mass, np.empty(n // 2 + 1, dtype=complex)),
            kinetic,
        )
    del z
    twiddles = _twiddles(n)

    def exit_spectrum(s: int) -> np.ndarray:
        """Channel s through the magnet, in momentum space at its exit.

        Calls numpy only, so it may run off the calling thread.
        """
        psi = channels[s]  # evolved in place
        if half_steps:
            half_v = half_steps[s]
            # this operand order is what numpy's temporary elision made of
            # half_v * _ifft(kinetic * _fft(half_v * psi)) from 2^14 points
            # on, and complex products round differently in the other order
            for _ in range(n_steps):
                np.multiply(half_v, psi, out=psi)
                _fft(psi, twiddles)
                np.multiply(psi, kinetic, out=psi)
                _ifft(psi, twiddles)
                np.multiply(psi, half_v, out=psi)
        return _fft(psi, twiddles)

    return (*worker.pair(exit_spectrum, +1, -1), twiddles)


def grid_solve(
    config: SGConfig,
    input_spin: SpinState,
    grid: GridSpec,
    times: Sequence[float],
    reference: Callable[[float, int, np.ndarray, np.ndarray], object],
) -> List[GridResult]:
    """Both channels through the magnet, then at each time t after its exit
    by exact free flight, reduced: the error fraction, the half-plane
    coherence and the L1 distance of the density from the sum of the two
    reference densities.  reference(t, s, z, out) writes the density of
    channel s (+1 spin up, -1 spin down) at the grid positions z into out;
    reference(t, -1, z, out) is called on the worker thread.

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
        """A channel at t, psi in its buffer and |psi|^2 in the first n
        floats of its row: the density's sum and its edge density."""
        t, spectrum, psi, row = channel
        # _ifft(np.exp(-1j * k2 * t / (2 mass)) * spectrum), in place, with
        # k2 in psi's floats and the phase at wavenumbers 0 .. n/2 in the
        # row's n + 2 floats until _spectral_order and |psi|^2 take them
        k2 = _wavenumbers_squared(n, dx, psi.view(float)[: n // 2 + 1])
        _spectral_order(_free_phase(k2, t, config.mass, row.view(complex)), psi)
        np.multiply(psi, spectrum, out=psi)
        _ifft(psi, twiddles)
        density = row[:n]
        np.abs(psi, out=density)
        np.square(density, out=density)
        return float(np.sum(density)), float(np.max(density[_EDGE]))

    # snapshot reads the worker and the buffers, bound below
    def snapshot(t: float) -> GridResult:
        (sum_plus, edge_plus), (sum_minus, edge_minus) = worker.pair(
            flown,
            (t, spectrum_plus, psi_plus, rows[0]),
            (t, spectrum_minus, psi_minus, rows[1]),
        )
        density, density_minus = rows[:, :n]
        norm = (sum_plus + sum_minus) * dx
        if not abs(norm - 1.0) <= _NORM_TOL:
            raise NormDriftError(f"norm drifted to {norm} at t = {t:g}")
        _check_boundary(edge_plus, dx, t)
        _check_boundary(edge_minus, dx, t)
        if sum_minus * dx < 1e-300:
            raise ValueError("spin-down channel is empty; error fraction undefined")
        density += density_minus  # the spin-up density, now both channels'
        # the upper-half weights: 0 below z = 0 and 1 above, and at z = 0
        # (z[n//2] == 0 exactly) the trapezoidal 0.5, which keeps upper +
        # lower == total.  Each weighted sum applies them in place, since
        # an upper array would be an array more per time
        density_minus[: n // 2] *= 0.0
        density_minus[n // 2] *= 0.5
        upper_minus = float(np.sum(density_minus))
        # sum(upper * psi_plus * conj(psi_minus)), in place in psi_plus
        psi_plus[: n // 2] = 0.0
        psi_plus[n // 2] *= 0.5
        np.multiply(psi_plus, np.conjugate(psi_minus, out=psi_minus), out=psi_plus)
        coherence = complex(np.sum(psi_plus)) * dx / (wp * np.conj(wm))
        # the reference densities, in the spent psi_plus's floats
        z = _positions(n, dx, density_minus)
        expected, expected_minus = psi_plus.view(float).reshape(2, n)
        worker.pair(
            lambda args: reference(t, *args), (+1, z, expected), (-1, z, expected_minus)
        )
        expected += expected_minus
        density -= expected
        np.abs(density, out=density)
        return GridResult(
            t, upper_minus / sum_minus, coherence, float(np.sum(density) * dx)
        )

    # one worker for the whole solve, whose arrays then stay in one malloc
    # arena: a second thread can get a fresh one (43 MiB against 40 on 2^16)
    with _Worker() as worker:
        spectrum_plus, spectrum_minus, twiddles = _exit_spectra(
            worker, config, input_spin, grid
        )
        psi_plus, psi_minus = np.empty(n, dtype=complex), np.empty(n, dtype=complex)
        # per channel a density's n floats, or as complex the n/2 + 1 values
        # of a flight phase before _spectral_order spreads them
        rows = np.empty((2, n + 2))
        return [snapshot(t) for t in times]
