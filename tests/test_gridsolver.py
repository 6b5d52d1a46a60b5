import contextvars
import math
import threading
import time
import tracemalloc
import warnings
import weakref
from typing import NamedTuple

import numpy as np
import pytest

import nosignal.gridsolver
from nosignal import (
    BoundaryLeakError,
    GridSpec,
    NormDriftError,
    SGConfig,
    SpinState,
    WavePacketPair,
    component_density,
    grid_solve,
    make_spin_state,
    upper_overlaps,
)
from nosignal.gridsolver import _exit_spectra, _free_phase, _Worker
from conftest import grid_results

SMALL_GRID = GridSpec(extent=384.0, points=4096, dt=2e-4)


def grid_result_at(config, spin, grid, t):
    """The grid solver's checked, reduced snapshot at the one time t."""
    return grid_results(config, spin, grid, [t])[0]


def same_bits(a, b) -> bool:
    """a and b hold the same float64 or complex128 bits, signed zeros and
    NaN payloads included."""
    a, b = np.atleast_1d(a), np.atleast_1d(b)
    return a.dtype == b.dtype and a.shape == b.shape and np.array_equal(a.view(np.uint64), b.view(np.uint64))


class Exit(NamedTuple):
    """The solver's state at the magnet exit, as its snapshots read it."""

    z: np.ndarray
    dx: float
    k2: np.ndarray
    upper: np.ndarray  # upper-half weights of the coherence and error sums
    spectrum_plus: np.ndarray
    spectrum_minus: np.ndarray
    mass: float


def exit_spectra(config, spin, grid) -> Exit:
    """_exit_spectra's two exit spectra, on a worker of its own, with the
    grid positions, spacing, squared wavenumbers, upper-half weights and
    mass that the snapshots must use, from their plain expressions."""
    with _Worker() as worker:
        plus, minus = _exit_spectra(worker, config, spin, grid)
    n = grid.points
    dx = grid.extent / n
    upper = np.ones(n)
    upper[: n // 2] = 0.0
    upper[n // 2] = 0.5  # z = 0, the trapezoidal half-weight
    return Exit(
        (np.arange(n) - n // 2) * dx,
        dx,
        (2 * math.pi * np.fft.fftfreq(n, dx)) ** 2,
        upper,
        plus,
        minus,
        config.mass,
    )


def after_the_magnet(monkeypatch, action):
    """Call action() once the solver's magnet step has returned."""
    magnet = nosignal.gridsolver._exit_spectra

    def magnet_then_action(*args):
        spectra = magnet(*args)
        action()
        return spectra

    monkeypatch.setattr(nosignal.gridsolver, "_exit_spectra", magnet_then_action)


def flown(source, t):
    """Both channels at time t, by the plain flight expression the snapshots
    must reproduce: ifft(exp(-1j k2 t / 2m) * exit spectrum)."""
    flight = np.exp(-1j * source.k2 * t / (2.0 * source.mass))
    return [
        np.fft.ifft(flight * spectrum)
        for spectrum in (source.spectrum_plus, source.spectrum_minus)
    ]


def flown_norm(source, t) -> float:
    return sum(float(np.sum(np.abs(psi) ** 2)) for psi in flown(source, t)) * source.dx


def exit_mean_momentum(source, which: str) -> float:
    spectrum = source.spectrum_plus if which == "plus" else source.spectrum_minus
    weight = np.abs(spectrum) ** 2
    k = 2.0 * math.pi * np.fft.fftfreq(len(spectrum), source.dx)
    return float(np.sum(k * weight)) / float(np.sum(weight))


def no_reference(t, which, z, out):
    raise AssertionError(f"reference density asked for at t = {t:g}")


def no_grid_work(*args):
    raise AssertionError("grid work started")


class TestValidation:
    def test_points_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(extent=100.0, points=1000, dt=1e-3)

    def test_snapshot_needs_a_time(self, device, x_state):
        with pytest.raises(TypeError):
            grid_solve(device, x_state, SMALL_GRID)

    def test_negative_snapshot_time_rejected(self, device, x_state, monkeypatch):
        # before any grid work: the magnet does not run, no time is flown
        # and no reference is asked for
        monkeypatch.setattr(nosignal.gridsolver, "_exit_spectra", no_grid_work)
        with pytest.raises(ValueError, match="non-negative"):
            grid_solve(device, x_state, SMALL_GRID, [1.0, -1.0], no_reference)

    def test_one_channel_input_rejected(self, device, up_state, monkeypatch):
        monkeypatch.setattr(nosignal.gridsolver, "_exit_spectra", no_grid_work)
        with pytest.raises(ValueError, match="one-channel"):
            grid_solve(device, up_state, SMALL_GRID, [1.0], no_reference)

    def test_boundary_leak_detected(self, device, x_state):
        tiny = GridSpec(extent=16.0, points=256, dt=1e-3)
        with pytest.raises(BoundaryLeakError):
            grid_result_at(device, x_state, tiny, 40.0)

    def test_overflowing_potential_raises_instead_of_returning_nan(self, x_state):
        # each value is finite, moment * gradient is not: the potential, and
        # then every amplitude, becomes NaN, which a "> tol" check lets through
        sg = SGConfig(
            mass=1.0, sigma0=1.0, moment=1e200, gradient=1e200, bias=0.0, transit=0.002
        )
        grid = GridSpec(extent=64.0, points=256, dt=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NormDriftError, match="nan"):
                grid_solve(sg, x_state, grid, [1.0], no_reference)

    def test_wide_packet_is_normalized_without_a_warning(self, x_state):
        # 2 pi sigma0**2 overflows: the prefactor is not 0 and psi0 not 0/0;
        # the packet is flat on the grid, so each point holds 1 / points
        sg = SGConfig(
            mass=1.0, sigma0=6e153, moment=1.0, gradient=0.0, bias=0.0, transit=0.002
        )
        grid = GridSpec(extent=64.0, points=256, dt=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BoundaryLeakError, match=r"3\.91e-03 at t = -0\.002"):
                grid_solve(sg, x_state, grid, [1.0], no_reference)

    def test_zero_transit_leak_is_at_time_zero(self, x_state):
        # the entry check's time is -transit, and -0.0 would print as "-0"
        sg = SGConfig(
            mass=1.0, sigma0=0.5, moment=1.0, gradient=210.4, bias=0.0, transit=0.0
        )
        grid = GridSpec(extent=8.0, points=8, dt=1e-3)  # dx = 2 sigma0
        with pytest.raises(BoundaryLeakError, match=r"2\.64e-04 at t = 0 exceeds"):
            grid_solve(sg, x_state, grid, [1.0], no_reference)


class TestFreeParticle:
    def test_matches_analytic_gaussian(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.0)
        result = grid_result_at(cfg, x_state, SMALL_GRID, 9.0)
        assert result.density_l1 < 1e-6

    def test_norm_is_conserved(self, device, x_state):
        source = exit_spectra(device, x_state, SMALL_GRID)
        for t in [0.0, 5.0, 20.0]:
            assert abs(flown_norm(source, t) - 1.0) < 1e-10

    def test_norm_survives_many_magnet_steps(self, x_state):
        # 10^4 split-operator steps inside the magnet
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=1.0, bias=0.5, transit=1.0)
        grid = GridSpec(extent=128.0, points=1024, dt=1e-4)
        assert abs(flown_norm(exit_spectra(cfg, x_state, grid), 0.0) - 1.0) < 1e-10


class TestChannels:
    def test_up_eigenstate_leaves_down_channel_empty(self, device, up_state):
        source = exit_spectra(device, up_state, SMALL_GRID)
        assert float(np.max(np.abs(source.spectrum_minus))) == 0.0

    def test_impulsive_momentum_kicks(self, device, x_state):
        source = exit_spectra(device, x_state, SMALL_GRID)
        kick = device.momentum_kick
        assert abs(exit_mean_momentum(source, "plus") - kick) / kick < 0.01
        assert abs(exit_mean_momentum(source, "minus") + kick) / kick < 0.01


class TestAgainstAnalyticModel:
    @pytest.mark.parametrize("t", [2.0, 15.0, 40.0])
    def test_error_fraction_agreement(self, device, x_state, t):
        result = grid_result_at(device, x_state, SMALL_GRID, t)
        assert abs(result.error_fraction - upper_overlaps(device, t)[1]) < 1e-3

    @pytest.mark.parametrize("t", [2.0, 15.0, 40.0])
    def test_position_density_agreement(self, device, x_state, t):
        assert grid_result_at(device, x_state, SMALL_GRID, t).density_l1 < 1e-3

    @pytest.mark.parametrize("t", [2.0, 15.0, 40.0])
    def test_coherence_agreement(self, device, x_state, t):
        result = grid_result_at(device, x_state, SMALL_GRID, t)
        analytic = upper_overlaps(device, t)[2]
        assert abs(abs(result.coherence) - abs(analytic)) < 1e-3
        assert abs(np.angle(result.coherence) - np.angle(analytic)) < 1e-2

    def test_complex_weight_input(self, device):
        # relative phase of the input spin must survive the weight division
        state = make_spin_state(1.0, 1.0j)
        result = grid_result_at(device, state, SMALL_GRID, 10.0)
        assert abs(result.coherence - upper_overlaps(device, 10.0)[2]) < 1e-3


def nested_step(psi, half_v, kinetic):
    """One magnet step as the solver once wrote it, with fresh temporaries."""
    return half_v * np.fft.ifft(kinetic * np.fft.fft(half_v * psi))


def elided_step(psi, half_v, kinetic):
    """``nested_step`` in the operand order numpy's temporary elision gives it.

    Where numpy elides temporaries (CPython builds with backtrace support,
    arrays of 256 KiB = 16384 complex points or more), it computes
    ``kinetic * fft(...)`` as ``fft(...) * kinetic`` and ``half_v * ifft(...)``
    as ``ifft(...) * half_v``; this spells that order out, so it holds on
    every build.
    """
    return np.fft.ifft(np.fft.fft(half_v * psi) * kinetic) * half_v


def reference_exits(config, spin, grid, step):
    """The exit spectra of the solver with a fresh-array magnet step."""
    n = grid.points
    dx = grid.extent / n
    z = (np.arange(n) - n // 2) * dx
    k = 2.0 * math.pi * np.fft.fftfreq(n, dx)
    psi0 = (2.0 * math.pi * config.sigma0**2) ** (-0.25) * np.exp(
        -(z**2) / (4.0 * config.sigma0**2)
    )
    psi0 = psi0 / math.sqrt(float(np.sum(np.abs(psi0) ** 2)) * dx)
    amplitudes = {+1: spin.amp_up, -1: spin.amp_down}
    n_steps = max(1, math.ceil(config.transit / grid.dt))
    dt = config.transit / n_steps
    kinetic = np.exp(-1j * k**2 * dt / (2.0 * config.mass))
    exits = {}
    for s in (+1, -1):
        potential = -s * config.moment * (config.bias + config.gradient * z)
        half_v = np.exp(-1j * potential * dt / 2.0)
        psi = (amplitudes[s] * psi0).astype(complex)
        for _ in range(n_steps):
            psi = step(psi, half_v, kinetic)
        exits[s] = np.fft.fft(psi)
    return exits


class TestInPlaceMagnetLoop:
    TIMES = [0.0, 2.0, 15.0, 40.0]

    def test_bitwise_equal_to_elided_nested_expression(self, device, x_state):
        # at 2^14 points and more, builds that elide temporaries evaluated the
        # old nested step in exactly this order; equal exit spectra give equal
        # snapshots (TestInPlacePhases)
        grid = GridSpec(extent=1024.0, points=2**14, dt=2e-4)
        source = exit_spectra(device, x_state, grid)
        exits = reference_exits(device, x_state, grid, elided_step)
        assert same_bits(source.spectrum_plus, exits[+1])
        assert same_bits(source.spectrum_minus, exits[-1])

    def test_rounding_close_to_nested_expression_below_elision(self, device, x_state):
        # no elision at 4096 points, so the kinetic and second half_v products
        # swap operands and round differently: a few eps of the peak modulus
        # (up to 5.8 at t = 40), while near-zero tail components differ by
        # many of their own ulps
        source = exit_spectra(device, x_state, SMALL_GRID)
        exits = reference_exits(device, x_state, SMALL_GRID, nested_step)
        old_source = source._replace(spectrum_plus=exits[+1], spectrum_minus=exits[-1])
        eps = np.finfo(float).eps
        for t in self.TIMES:
            for new, old in zip(flown(source, t), flown(old_source, t)):
                bound = 8 * eps * float(np.max(np.abs(old)))
                assert float(np.max(np.abs(new.real - old.real))) <= bound
                assert float(np.max(np.abs(new.imag - old.imag))) <= bound

    def test_repeated_calls_are_identical(self, device, x_state):
        first = exit_spectra(device, x_state, SMALL_GRID)
        second = exit_spectra(device, x_state, SMALL_GRID)
        assert same_bits(first.spectrum_plus, second.spectrum_plus)
        assert same_bits(first.spectrum_minus, second.spectrum_minus)
        assert grid_results(device, x_state, SMALL_GRID, self.TIMES) == grid_results(
            device, x_state, SMALL_GRID, self.TIMES
        )


class TestInPlacePhases:
    """The initial state and the phase arrays are built in place with the
    operands of the expressions they replace, in the same order."""

    @pytest.mark.parametrize("n", [2**k for k in range(1, 17)])
    @pytest.mark.parametrize(
        "t, mass",
        [(0.0, 1.0), (2e-4, 1.0), (45.0, 1.7), (1e7, 0.3), (1e300, 1e-3)],
        ids=["zero", "magnet-step", "flight", "large", "overflowing"],
    )
    def test_mirrored_phase_equals_plain_expression(self, n, t, mass):
        # k2[j] == k2[n - j] exactly, so phases built on j <= n/2 and mirrored
        # have every bit of the plain expression, NaN from an overflow too
        k2 = (2.0 * math.pi * np.fft.fftfreq(n, 1024.0 / n)) ** 2
        with np.errstate(all="ignore"):
            plain = np.exp(-1j * k2 * t / (2.0 * mass))
            phase = _free_phase(k2, t, mass, out=np.empty(n, dtype=complex))
            assert same_bits(phase, plain)

    @pytest.mark.parametrize("n", [2**k for k in range(3, 17)])
    @pytest.mark.parametrize("extent", [1024.0, 3.7])
    def test_wavenumbers_equal_fftfreq(self, n, extent, monkeypatch):
        # the in-place k2 that each channel's flight phase reads, against
        # fftfreq's at the wavenumbers 0 .. n/2 that the phase reads; a
        # packet an eighth of a cell wide keeps the edge check quiet down to
        # 8 points
        dx = extent / n
        sg = SGConfig(
            mass=1.0, sigma0=dx / 8, moment=1.0, gradient=0.0, bias=0.0, transit=0.0
        )
        free_phase = nosignal.gridsolver._free_phase
        read = []

        def recorded(k2, t, mass, out):
            read.append(k2.copy())
            return free_phase(k2, t, mass, out)

        monkeypatch.setattr(nosignal.gridsolver, "_free_phase", recorded)
        grid_solve(
            sg,
            make_spin_state(1.0, 1.0),
            GridSpec(extent, n, 1e-3),
            [0.0],
            lambda t, which, z, out: out.fill(0.0),
        )
        assert len(read) == 2
        for k2 in read:
            assert same_bits(
                k2, ((2.0 * math.pi * np.fft.fftfreq(n, dx)) ** 2)[: n // 2 + 1]
            )

    @pytest.mark.parametrize(
        "grid",
        [SMALL_GRID, GridSpec(extent=1024.0, points=2**14, dt=2e-4)],
        ids=["2^12", "2^14"],
    )
    def test_snapshot_equals_flight_expression(self, device, grid, monkeypatch):
        # 2^12 points is below numpy's temporary elision, 2^14 above it.  Each
        # time's inverse FFTs (the spin-up channel on this thread, the
        # spin-down one on the worker) give the plain expression's psi, and
        # with |psi|^2 of those as the reference every density cancels
        spin = SpinState(0.48 + 0.64j, 0.36 - 0.48j)
        source = exit_spectra(device, spin, grid)
        times = [0.0, 2.0, 15.0, 40.0]
        expected = {t: flown(source, t) for t in times}
        caller = threading.get_ident()
        inverse = []
        ifft = np.fft.ifft

        def recorded(*args, **kwargs):
            psi = ifft(*args, **kwargs)
            inverse.append((threading.get_ident() != caller, psi.copy()))
            return psi

        after_the_magnet(
            monkeypatch, lambda: monkeypatch.setattr(np.fft, "ifft", recorded)
        )
        results = grid_solve(
            device,
            spin,
            grid,
            times,
            lambda t, which, z, out: np.copyto(
                out, np.abs(expected[t][which == "minus"]) ** 2
            ),
        )
        monkeypatch.undo()
        assert len(inverse) == 2 * len(times)
        for i, t in enumerate(times):
            channels = dict(inverse[2 * i : 2 * i + 2])  # by thread: worker?
            assert same_bits(channels[False], expected[t][0])
            assert same_bits(channels[True], expected[t][1])
        for t, result in zip(times, results):
            psi_plus, psi_minus = expected[t]
            density_minus = np.abs(psi_minus) ** 2
            assert result.t == t
            assert result.density_l1 == 0.0
            assert result.error_fraction == float(
                np.sum(source.upper * density_minus)
            ) / float(np.sum(density_minus))
            raw = complex(np.sum(source.upper * psi_plus * np.conj(psi_minus)))
            coherence = raw * source.dx / (spin.amp_up * np.conj(spin.amp_down))
            assert same_bits(result.coherence, coherence)

    @pytest.mark.parametrize(
        "grid",
        [SMALL_GRID, GridSpec(extent=1024.0, points=2**14, dt=2e-4)],
        ids=["2^12", "2^14"],
    )
    def test_initial_state_equals_plain_expressions(self, device, grid):
        # with no magnet step the exit spectra are the FFTs of the initial
        # channels, so they pin the solver's builds of z, psi0 and the channels
        # (test_wavenumbers_equal_fftfreq pins its k2)
        spin = SpinState(0.48 + 0.64j, 0.36 - 0.48j)
        device = device._replace(sigma0=0.7, transit=0.0)  # no exact quarter
        source = exit_spectra(device, spin, grid)
        n = grid.points
        dx = grid.extent / n
        z = (np.arange(n) - n // 2) * dx
        psi0 = (2.0 * math.pi * device.sigma0**2) ** (-0.25) * np.exp(
            -(z**2) / (4.0 * device.sigma0**2)
        )
        psi0 = psi0 / math.sqrt(float(np.sum(np.abs(psi0) ** 2)) * dx)
        for amp, spectrum in (
            (spin.amp_up, source.spectrum_plus),
            (spin.amp_down, source.spectrum_minus),
        ):
            assert np.array_equal(spectrum, np.fft.fft((amp * psi0).astype(complex)))

    def test_magnet_working_set(self, device, x_state):
        # five complex arrays in the loop: the two channels, their half-steps
        # and the kinetic phase, with z, psi0 and k2 freed before it; the
        # out-of-place builds peaked at 8.5 to 9.5, and separate z, k2 and
        # psi0 arrays beside the loop at 6
        n = 2**16
        grid = GridSpec(extent=4096.0, points=n, dt=1e-3)  # 2 magnet steps
        with _Worker() as worker:
            _exit_spectra(worker, device, x_state, grid)  # numpy's one-time set-up
            tracemalloc.start()
            try:
                _exit_spectra(worker, device, x_state, grid)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert peak <= 5.5 * 16 * n

    def test_snapshot_working_set(self, device, x_state, monkeypatch):
        # the times share two wave functions and two densities, with k2, the
        # weights, z and the reference densities in their spent floats.  So a
        # time after the first allocates no n-point array: its peak stays
        # within half an array of what the first time left (a time of new
        # arrays added 3.5)
        n = 2**16
        grid = GridSpec(extent=4096.0, points=n, dt=1e-3)  # 2 magnet steps

        def reference(t, which, z, out):
            component_density(WavePacketPair(device, x_state, t), z, which, out=out)

        grid_solve(device, x_state, grid, [1.0], reference)  # numpy's one-time set-up
        caller = threading.get_ident()
        free_phase = nosignal.gridsolver._free_phase
        marks = []  # (traced, peak since the last mark) as each time starts

        def marked(k2, t, mass, out=None):
            if threading.get_ident() == caller:
                marks.append(tracemalloc.get_traced_memory())
                tracemalloc.reset_peak()
            return free_phase(k2, t, mass, out)

        after_the_magnet(
            monkeypatch,
            lambda: monkeypatch.setattr(nosignal.gridsolver, "_free_phase", marked),
        )
        times = [1.0, 3.0, 7.0, 12.0]
        tracemalloc.start()
        try:
            results = grid_solve(device, x_state, grid, times, reference)
            marks.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert [result.t for result in results] == times
        assert len(marks) == len(times) + 1
        left = marks[1][0]  # traced as the second time starts
        for _, peak in marks[2:]:  # the peak of each later time
            assert peak - left < 0.5 * 16 * n


class TestTwoThreads:
    """The magnet and each time run the spin-down channel on a worker thread
    and the spin-up channel on the calling thread."""

    def test_bitwise_equal_to_serial_loop(self, device):
        # both weights complex and unequal: |0.48+0.64i|^2 = 0.64, |0.36-0.48i|^2 = 0.36
        spin = SpinState(0.48 + 0.64j, 0.36 - 0.48j)
        source = exit_spectra(device, spin, SMALL_GRID)

        # the solver as it ran on one thread, one channel after the other
        n = SMALL_GRID.points
        dx = SMALL_GRID.extent / n
        z = (np.arange(n) - n // 2) * dx
        k2 = (2.0 * math.pi * np.fft.fftfreq(n, dx)) ** 2
        psi0 = (2.0 * math.pi * device.sigma0**2) ** (-0.25) * np.exp(
            -(z**2) / (4.0 * device.sigma0**2)
        )
        psi0 = psi0 / math.sqrt(float(np.sum(np.abs(psi0) ** 2)) * dx)
        channels = {
            +1: (spin.amp_up * psi0).astype(complex),
            -1: (spin.amp_down * psi0).astype(complex),
        }
        n_steps = max(1, math.ceil(device.transit / SMALL_GRID.dt))
        dt = device.transit / n_steps
        kinetic = np.exp(-1j * k2 * dt / (2.0 * device.mass))
        for s in (+1, -1):
            potential = -s * device.moment * (device.bias + device.gradient * z)
            half_v = np.exp(-1j * potential * dt / 2.0)
            psi = channels[s]
            for _ in range(n_steps):
                np.multiply(half_v, psi, out=psi)
                np.fft.fft(psi, out=psi)
                np.multiply(psi, kinetic, out=psi)
                np.fft.ifft(psi, out=psi)
                np.multiply(psi, half_v, out=psi)

        assert n_steps == 10
        assert same_bits(source.spectrum_plus, np.fft.fft(channels[+1]))
        assert same_bits(source.spectrum_minus, np.fft.fft(channels[-1]))

    def test_worker_follows_the_callers_errstate(self, x_state):
        # the overflowing potential of both channels is ignored under the
        # caller's errstate; a worker in a fresh context would warn, and the
        # "error" filter would raise that warning in place of NormDriftError
        sg = SGConfig(
            mass=1.0, sigma0=1.0, moment=1e200, gradient=1e200, bias=0.0, transit=0.002
        )
        grid = GridSpec(extent=64.0, points=256, dt=1e-3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="ignore", invalid="ignore"):
                with pytest.raises(NormDriftError, match="nan"):
                    grid_solve(sg, x_state, grid, [1.0], no_reference)

    def test_worker_error_is_raised_to_the_caller(self, device, x_state, monkeypatch):
        class WorkerFailure(Exception):
            pass

        caller = threading.get_ident()
        fft = np.fft.fft

        def fft_failing_off_the_caller(*args, **kwargs):
            if threading.get_ident() != caller:
                raise WorkerFailure
            return fft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "fft", fft_failing_off_the_caller)
        threads = threading.active_count()
        with pytest.raises(WorkerFailure):
            grid_solve(device, x_state, SMALL_GRID, [1.0], no_reference)
        assert threading.active_count() == threads

    def test_snapshot_worker_error_is_raised_to_the_caller(
        self, device, x_state, monkeypatch
    ):
        # the spin-down channel's inverse FFT fails on the worker at t = 2:
        # the failure is raised here, and no grid work follows it
        class WorkerFailure(Exception):
            pass

        caller = threading.get_ident()
        ifft = np.fft.ifft
        flights = []

        def ifft_failing_off_the_caller(*args, **kwargs):
            flights.append(threading.get_ident() == caller)
            if threading.get_ident() != caller and len(flights) > 2:
                raise WorkerFailure
            return ifft(*args, **kwargs)

        asked = []

        def reference(t, which, z, out):
            asked.append(t)
            out.fill(0.0)

        after_the_magnet(
            monkeypatch,
            lambda: monkeypatch.setattr(np.fft, "ifft", ifft_failing_off_the_caller),
        )
        threads = threading.active_count()
        with pytest.raises(WorkerFailure):
            grid_solve(device, x_state, SMALL_GRID, [1.0, 2.0, 3.0], reference)
        assert sorted(flights) == [False, False, True, True]
        assert asked == [1.0, 1.0]
        assert threading.active_count() == threads

    def test_earliest_failing_boundary_check_is_reported(self, device):
        # the spin-down channel carries almost all the weight and reaches the
        # edge by t = 2; the spin-up channel reaches it only by t = 4
        spin = SpinState(1e-3, math.sqrt(1.0 - 1e-6))
        tiny = GridSpec(extent=16.0, points=256, dt=1e-3)
        message = r"^boundary density 5.78e-08 at t = 2 "  # the spin-down edge
        with pytest.raises(BoundaryLeakError, match=message):
            grid_solve(device, spin, tiny, [2.0, 4.0], no_reference)

    def test_earliest_failing_norm_check_is_reported(self, x_state, monkeypatch):
        # NaN from t = 1 on: each time would fail the norm check, and the
        # boundary checks too; the norm check at the first time decides, and
        # no later time is flown
        sg = SGConfig(
            mass=1.0, sigma0=1.0, moment=1e200, gradient=1e200, bias=0.0, transit=0.002
        )
        grid = GridSpec(extent=64.0, points=256, dt=1e-3)
        phases = []
        free_phase = nosignal.gridsolver._free_phase

        def recorded(k2, t, mass, out):
            phases.append(t)
            return free_phase(k2, t, mass, out)

        monkeypatch.setattr(nosignal.gridsolver, "_free_phase", recorded)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NormDriftError, match=r"^norm drifted to nan at t = 1$"):
                grid_solve(sg, x_state, grid, [1.0, 2.0, 3.0], no_reference)
        # the magnet's kinetic phase (2 steps of 1e-3), then both channels at t = 1
        assert phases == [1e-3, 1.0, 1.0]


class TestOneSolve:
    """grid_solve runs the magnet and every time on one worker thread."""

    def test_one_thread_per_solve(self, device, x_state, monkeypatch):
        started = []
        start = threading.Thread.start

        def counted(thread):
            started.append(thread)
            start(thread)

        monkeypatch.setattr(threading.Thread, "start", counted)
        threads = threading.active_count()
        results = grid_solve(
            device,
            x_state,
            SMALL_GRID,
            [1.0, 2.0, 3.0],
            lambda t, which, z, out: out.fill(0.0),
        )
        assert [result.t for result in results] == [1.0, 2.0, 3.0]
        assert len(started) == 1
        assert threading.active_count() == threads


class TestWorker:
    """_Worker().pair(fn, here, there) is (fn(here), fn(there)), fn(there) on
    the worker thread, which serves every pair of its with block."""

    def test_pairs_run_on_one_worker_in_order(self):
        caller = threading.get_ident()
        threads = threading.active_count()
        seen = []

        def fn(item):
            seen.append((item, threading.get_ident()))
            return item * item

        with _Worker() as worker:
            results = [worker.pair(fn, i, -i) for i in range(1, 4)]
        assert results == [(1, 1), (4, 4), (9, 9)]
        assert [item for item, _ in seen if item > 0] == [1, 2, 3]
        assert [item for item, _ in seen if item < 0] == [-1, -2, -3]
        workers = {ident for item, ident in seen if item < 0}
        assert len(workers) == 1 and caller not in workers
        assert {ident for item, ident in seen if item > 0} == {caller}
        assert threading.active_count() == threads

    def test_callers_exception_comes_first_once_both_calls_end(self):
        class ItemFailure(Exception):
            pass

        ended = []

        def fn(item):
            if item == "there":
                time.sleep(0.05)
                ended.append(item)
            raise ItemFailure(item)

        threads = threading.active_count()
        with pytest.raises(ItemFailure) as info:
            with _Worker() as worker:
                worker.pair(fn, "here", "there")
        assert info.value.args == ("here",)
        assert ended == ["there"]
        assert threading.active_count() == threads

    def test_workers_exception_is_raised_and_the_worker_serves_on(self):
        class ItemFailure(Exception):
            pass

        def fn(item):
            if item == "fail":
                raise ItemFailure(item)
            return item

        with _Worker() as worker:
            with pytest.raises(ItemFailure):
                worker.pair(fn, "ok", "fail")
            assert worker.pair(fn, "a", "b") == ("a", "b")

    def test_worker_holds_no_call_once_a_pair_returns(self):
        # a call's closure (the magnet's kinetic phase) is freed with it
        def fn(item):
            return item

        called = weakref.ref(fn)
        with _Worker() as worker:
            assert worker.pair(fn, 1, 2) == (1, 2)
            del fn
            assert called() is None

    def test_worker_runs_in_a_copy_of_the_context(self):
        var = contextvars.ContextVar("var", default="unset")
        token = var.set("caller's")
        try:
            with _Worker() as worker:
                assert worker.pair(lambda _: var.get(), None, None) == (
                    "caller's",
                    "caller's",
                )
        finally:
            var.reset(token)
