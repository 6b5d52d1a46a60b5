import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest

from nosignal import (
    BoundaryLeakError,
    GridSpec,
    NormDriftError,
    SGConfig,
    SpinState,
    component_amplitude,
    error_fraction,
    evolve_through_magnet,
    free_propagate,
    grid_density,
    grid_error_fraction,
    grid_evolve,
    grid_half_plane_coherence,
    grid_snapshot,
    make_spin_state,
)
from nosignal.gridsolver import map_in_order
from nosignal.wavepacket import closed_form_upper_coherence
from conftest import grid_snapshots

SMALL_GRID = GridSpec(extent=384.0, points=4096, dt=2e-4)


def grid_snapshot_at(config, spin, grid, t):
    """The grid solver's checked snapshot at the one time t."""
    return grid_snapshots(config, spin, grid, [t])[0]


def grid_norm(result) -> float:
    fp, fm = result.psi_plus, result.psi_minus
    return (
        float(np.sum(np.abs(fp) ** 2)) + float(np.sum(np.abs(fm) ** 2))
    ) * result.source.dx


def grid_mean_momentum(result, which: str) -> float:
    psi = result.psi_plus if which == "plus" else result.psi_minus
    weight = np.abs(np.fft.fft(psi)) ** 2
    k = 2.0 * math.pi * np.fft.fftfreq(len(psi), result.source.dx)
    return float(np.sum(k * weight)) / float(np.sum(weight))


class TestValidation:
    def test_points_must_be_power_of_two(self):
        with pytest.raises(ValueError):
            GridSpec(extent=100.0, points=1000, dt=1e-3)

    def test_snapshot_needs_a_time(self, device, x_state):
        with pytest.raises(TypeError):
            grid_snapshot(grid_evolve(device, x_state, SMALL_GRID))

    def test_negative_snapshot_time_rejected(self, device, x_state):
        source = grid_evolve(device, x_state, SMALL_GRID)
        with pytest.raises(ValueError, match="non-negative"):
            grid_snapshot(source, -1.0)

    def test_boundary_leak_detected(self, device, x_state):
        tiny = GridSpec(extent=16.0, points=256, dt=1e-3)
        with pytest.raises(BoundaryLeakError):
            grid_snapshot_at(device, x_state, tiny, 40.0)

    def test_overflowing_potential_raises_instead_of_returning_nan(self, x_state):
        # each value is finite, moment * gradient is not: the potential, and
        # then every amplitude, becomes NaN, which a "> tol" check lets through
        sg = SGConfig(
            mass=1.0, sigma0=1.0, moment=1e200, gradient=1e200, bias=0.0, transit=0.002
        )
        grid = GridSpec(extent=64.0, points=256, dt=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NormDriftError, match="nan"):
                grid_snapshot_at(sg, x_state, grid, 1.0)

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
                grid_snapshot_at(sg, x_state, grid, 1.0)


class TestFreeParticle:
    def test_matches_analytic_gaussian(self, x_state):
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=0, bias=0, transit=0.0)
        t = 9.0
        result = grid_snapshot_at(cfg, x_state, SMALL_GRID, t)
        pair = free_propagate(evolve_through_magnet(cfg, x_state), t)
        analytic = (
            np.abs(component_amplitude(pair, result.source.z, "plus")) ** 2
            + np.abs(component_amplitude(pair, result.source.z, "minus")) ** 2
        )
        l1 = float(np.sum(np.abs(grid_density(result) - analytic)) * result.source.dx)
        assert l1 < 1e-6

    def test_norm_is_conserved(self, device, x_state):
        for result in grid_snapshots(device, x_state, SMALL_GRID, [0.0, 5.0, 20.0]):
            assert abs(grid_norm(result) - 1.0) < 1e-10

    def test_norm_survives_many_magnet_steps(self, x_state):
        # 10^4 split-operator steps inside the magnet
        cfg = SGConfig(mass=1, sigma0=1, moment=1, gradient=1.0, bias=0.5, transit=1.0)
        grid = GridSpec(extent=128.0, points=1024, dt=1e-4)
        result = grid_snapshot_at(cfg, x_state, grid, 0.0)
        assert abs(grid_norm(result) - 1.0) < 1e-10


class TestChannels:
    def test_up_eigenstate_leaves_down_channel_empty(self, device, up_state):
        result = grid_snapshot_at(device, up_state, SMALL_GRID, 10.0)
        assert float(np.max(np.abs(result.psi_minus))) == 0.0

    def test_impulsive_momentum_kicks(self, device, x_state):
        result = grid_snapshot_at(device, x_state, SMALL_GRID, 0.0)
        kick = device.momentum_kick
        assert abs(grid_mean_momentum(result, "plus") - kick) / kick < 0.01
        assert abs(grid_mean_momentum(result, "minus") + kick) / kick < 0.01


class TestAgainstAnalyticModel:
    @pytest.mark.parametrize("t", [2.0, 15.0, 40.0])
    def test_error_fraction_agreement(self, device, x_state, t):
        result = grid_snapshot_at(device, x_state, SMALL_GRID, t)
        pair = free_propagate(evolve_through_magnet(device, x_state), t)
        assert abs(grid_error_fraction(result) - error_fraction(pair)) < 1e-3

    @pytest.mark.parametrize("t", [2.0, 15.0, 40.0])
    def test_position_density_agreement(self, device, x_state, t):
        result = grid_snapshot_at(device, x_state, SMALL_GRID, t)
        pair = free_propagate(evolve_through_magnet(device, x_state), t)
        analytic = (
            np.abs(component_amplitude(pair, result.source.z, "plus")) ** 2
            + np.abs(component_amplitude(pair, result.source.z, "minus")) ** 2
        )
        l1 = float(np.sum(np.abs(grid_density(result) - analytic)) * result.source.dx)
        assert l1 < 1e-3

    @pytest.mark.parametrize("t", [2.0, 15.0, 40.0])
    def test_coherence_agreement(self, device, x_state, t):
        result = grid_snapshot_at(device, x_state, SMALL_GRID, t)
        pair = free_propagate(evolve_through_magnet(device, x_state), t)
        analytic = closed_form_upper_coherence(pair)
        grid = grid_half_plane_coherence(result)
        assert abs(abs(grid) - abs(analytic)) < 1e-3
        assert abs(np.angle(grid) - np.angle(analytic)) < 1e-2

    def test_complex_weight_input(self, device):
        # relative phase of the input spin must survive the weight division
        state = make_spin_state(1.0, 1.0j)
        result = grid_snapshot_at(device, state, SMALL_GRID, 10.0)
        pair = free_propagate(evolve_through_magnet(device, state), 10.0)
        analytic = closed_form_upper_coherence(pair)
        grid = grid_half_plane_coherence(result)
        assert abs(grid - analytic) < 1e-3


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


def reference_snapshots(config, spin, grid, times, step):
    """The solver with a fresh-array magnet step."""
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
    snapshots = {}
    for s in (+1, -1):
        potential = -s * config.moment * (config.bias + config.gradient * z)
        half_v = np.exp(-1j * potential * dt / 2.0)
        psi = (amplitudes[s] * psi0).astype(complex)
        for _ in range(n_steps):
            psi = step(psi, half_v, kinetic)
        exit_k = np.fft.fft(psi)
        snapshots[s] = [
            np.fft.ifft(np.exp(-1j * k**2 * t / (2.0 * config.mass)) * exit_k)
            for t in times
        ]
    return snapshots


class TestInPlaceMagnetLoop:
    TIMES = [0.0, 2.0, 15.0, 40.0]

    @staticmethod
    def pairs(results, reference):
        return [
            (new, old)
            for s, which in ((+1, "psi_plus"), (-1, "psi_minus"))
            for new, old in zip(
                [getattr(result, which) for result in results], reference[s]
            )
        ]

    def test_bitwise_equal_to_elided_nested_expression(self, device, x_state):
        # at 2^14 points and more, builds that elide temporaries evaluated the
        # old nested step in exactly this order
        grid = GridSpec(extent=1024.0, points=2**14, dt=2e-4)
        results = grid_snapshots(device, x_state, grid, self.TIMES)
        reference = reference_snapshots(
            device, x_state, grid, self.TIMES, elided_step
        )
        for new, old in self.pairs(results, reference):
            assert np.array_equal(new, old)

    def test_rounding_close_to_nested_expression_below_elision(self, device, x_state):
        # no elision at 4096 points, so the kinetic and second half_v products
        # swap operands and round differently: a few eps of the peak modulus
        # (up to 5.8 at t = 40), while near-zero tail components differ by
        # many of their own ulps
        results = grid_snapshots(device, x_state, SMALL_GRID, self.TIMES)
        reference = reference_snapshots(
            device, x_state, SMALL_GRID, self.TIMES, nested_step
        )
        eps = np.finfo(float).eps
        for new, old in self.pairs(results, reference):
            bound = 8 * eps * float(np.max(np.abs(old)))
            assert float(np.max(np.abs(new.real - old.real))) <= bound
            assert float(np.max(np.abs(new.imag - old.imag))) <= bound

    def test_repeated_calls_are_identical(self, device, x_state):
        first = grid_snapshots(device, x_state, SMALL_GRID, self.TIMES)
        second = grid_snapshots(device, x_state, SMALL_GRID, self.TIMES)
        for a, b in zip(first, second):
            assert np.array_equal(a.psi_plus, b.psi_plus)
            assert np.array_equal(a.psi_minus, b.psi_minus)


class TestInPlacePhases:
    """The initial state and the phase arrays are built in place with the
    operands of the expressions they replace, in the same order."""

    @pytest.mark.parametrize(
        "grid",
        [SMALL_GRID, GridSpec(extent=1024.0, points=2**14, dt=2e-4)],
        ids=["2^12", "2^14"],
    )
    def test_snapshot_equals_flight_expression(self, device, grid):
        # 2^12 points is below numpy's temporary elision, 2^14 above it
        spin = SpinState(0.48 + 0.64j, 0.36 - 0.48j)
        source = grid_evolve(device, spin, grid)
        for t in [0.0, 2.0, 15.0, 40.0]:
            result = grid_snapshot(source, t)
            flight = np.exp(-1j * source.k2 * t / (2.0 * device.mass))
            for spectrum, psi in (
                (source.spectrum_plus, result.psi_plus),
                (source.spectrum_minus, result.psi_minus),
            ):
                assert np.array_equal(psi, np.fft.ifft(flight * spectrum))

    @pytest.mark.parametrize(
        "grid",
        [SMALL_GRID, GridSpec(extent=1024.0, points=2**14, dt=2e-4)],
        ids=["2^12", "2^14"],
    )
    def test_initial_state_equals_plain_expressions(self, device, grid):
        # with no magnet step the exit spectra are the FFTs of the initial
        # channels, so they pin the in-place builds of z, psi0 and the channels
        spin = SpinState(0.48 + 0.64j, 0.36 - 0.48j)
        device = device._replace(sigma0=0.7, transit=0.0)  # no exact quarter
        source = grid_evolve(device, spin, grid)
        n = grid.points
        dx = grid.extent / n
        z = (np.arange(n) - n // 2) * dx
        psi0 = (2.0 * math.pi * device.sigma0**2) ** (-0.25) * np.exp(
            -(z**2) / (4.0 * device.sigma0**2)
        )
        psi0 = psi0 / math.sqrt(float(np.sum(np.abs(psi0) ** 2)) * dx)
        assert np.array_equal(source.z, z)
        assert np.array_equal(source.k2, (2.0 * math.pi * np.fft.fftfreq(n, dx)) ** 2)
        for amp, spectrum in (
            (spin.amp_up, source.spectrum_plus),
            (spin.amp_down, source.spectrum_minus),
        ):
            assert np.array_equal(spectrum, np.fft.fft((amp * psi0).astype(complex)))

    def test_magnet_working_set(self, device, x_state):
        # grid z and k2 (half an array each), the two channels, kinetic and
        # each thread's half_v: 6 complex arrays; the out-of-place builds
        # peaked at 8.5 to 9.5
        n = 2**16
        grid = GridSpec(extent=4096.0, points=n, dt=1e-3)  # 2 magnet steps
        grid_evolve(device, x_state, grid)  # numpy's one-time set-up
        tracemalloc.start()
        try:
            grid_evolve(device, x_state, grid)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 7 * 16 * n


class TestTwoThreads:
    """The spin-down channel evolves through the magnet on a worker thread, the
    spin-up channel on the calling thread."""

    def test_bitwise_equal_to_serial_loop(self, device):
        # both weights complex and unequal: |0.48+0.64i|^2 = 0.64, |0.36-0.48i|^2 = 0.36
        spin = SpinState(0.48 + 0.64j, 0.36 - 0.48j)
        times = [0.0, 2.0, 15.0, 40.0]
        results = grid_snapshots(device, spin, SMALL_GRID, times)

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
        exits = {s: np.fft.fft(channels[s]) for s in (+1, -1)}

        assert n_steps == 10 and [result.t for result in results] == times
        for s, which in ((+1, "psi_plus"), (-1, "psi_minus")):
            for t, result in zip(times, results):
                flight = np.exp(-1j * k2 * t / (2.0 * device.mass))
                snapshot = getattr(result, which)
                assert np.array_equal(snapshot, np.fft.ifft(flight * exits[s]))
        # the norm check's sum is the error fraction's total
        for result in results:
            assert result.sum_minus == float(np.sum(np.abs(result.psi_minus) ** 2))

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
                    grid_snapshot_at(sg, x_state, grid, 1.0)

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
            grid_evolve(device, x_state, SMALL_GRID)
        assert threading.active_count() == threads

    def test_earliest_failing_boundary_check_is_reported(self, device):
        # the spin-down channel carries almost all the weight and reaches the
        # edge by t = 2; the spin-up channel reaches it only by t = 4
        spin = SpinState(1e-3, math.sqrt(1.0 - 1e-6))
        tiny = GridSpec(extent=16.0, points=256, dt=1e-3)
        message = r"^boundary density 5.78e-08 at t = 2 "  # the spin-down edge
        with pytest.raises(BoundaryLeakError, match=message):
            grid_snapshots(device, spin, tiny, [2.0, 4.0])

    def test_earliest_failing_norm_check_is_reported(self, x_state):
        # NaN from t = 1 on: each time fails the norm check, and the boundary
        # checks too, and the norm check at the first time decides
        sg = SGConfig(
            mass=1.0, sigma0=1.0, moment=1e200, gradient=1e200, bias=0.0, transit=0.002
        )
        grid = GridSpec(extent=64.0, points=256, dt=1e-3)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NormDriftError, match=r"^norm drifted to nan at t = 1$"):
                grid_snapshots(sg, x_state, grid, [1.0, 2.0, 3.0])


class TestMapInOrder:
    """map_in_order(fn, items) is [fn(item) for item in items], the odd
    positions on a worker thread and the even ones on the calling thread."""

    @pytest.mark.parametrize("count", [0, 1, 2, 5])
    def test_results_in_order(self, count):
        caller = threading.get_ident()
        threads = threading.active_count()
        results = map_in_order(
            lambda item: (item * item, threading.get_ident() == caller), range(count)
        )
        assert results == [(i * i, i % 2 == 0) for i in range(count)]
        assert threading.active_count() == threads

    # (failing items, the one that raises first in time, the items called)
    @pytest.mark.parametrize(
        "failing, first, called_items",
        [((3, 4), 4, [0, 1, 2, 3, 4]), ((2, 5), 5, [0, 1, 2, 3, 5])],
    )
    def test_earliest_failing_item_is_raised(self, failing, first, called_items):
        # the later failing item raises first in time: its exception must
        # still give way to the earlier item's
        class ItemFailure(Exception):
            pass

        raised_first = threading.Event()
        called = []

        def fn(item):
            called.append(item)
            if item == first:
                raised_first.set()
                raise ItemFailure(item)
            if item in failing:
                assert raised_first.wait(timeout=10)
                raise ItemFailure(item)
            return item

        threads = threading.active_count()
        with pytest.raises(ItemFailure) as info:
            map_in_order(fn, range(8))
        assert info.value.args == (min(failing),)
        # each thread stops at its first exception, of 8 items
        assert sorted(called) == called_items
        assert threading.active_count() == threads
