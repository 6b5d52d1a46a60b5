"""Acceptance suite.

Each test implements one acceptance criterion at its stated tolerance and
prints one PASS/FAIL line (visible with `pytest -s` or on failure).
Criteria 1-5 are analytic/oracle checks, 6-7 are statistical at fixed
seeds, 8 is byte-level determinism of the CLI outputs.
"""

import math
import time

import numpy as np

from nosignal import (
    GridSpec,
    asymptotic_error_fraction,
    born_probability,
    closed_form_rows,
    derive_seed,
    estimate_error_fraction,
    estimate_phase,
    postselected_pure_state,
    project_upper,
    sample,
    sigma_eigenstate,
    upper_overlaps,
    violation_bound,
)
from nosignal.cli import main
from nosignal.spin import wrap_to_pi
from conftest import (
    device_for_error_fraction,
    grid_results,
    run_pipeline,
    saturated_error_fraction,
)


def report(criterion: str, ok: bool, detail: str) -> None:
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_closed_form_identity():
    """phi_- = pi - phi_+ makes the two setting totals equal to 1e-12."""
    start = time.monotonic()
    es_grid = [0.05 * i for i in range(11)]
    angle_grid = [math.pi * i / 24 for i in range(25)]
    phi_grid = [math.pi * i / 12 for i in range(13)]
    worst = 0.0
    for es in es_grid:
        for theta in angle_grid:
            # the paper's aligned-setting total
            pb = 0.25 * (1 + (1 - 2 * es) * math.cos(theta))
            for omega in angle_grid:
                for phi_plus in phi_grid:
                    (result,) = closed_form_rows(
                        es, omega, (theta,), phi_plus, math.pi - phi_plus, "pure"
                    )
                    worst = max(worst, abs(result.PA_total - pb))
    elapsed = time.monotonic() - start
    report(
        "1 closed-form identity",
        worst <= 1e-12 and elapsed < 5.0,
        f"max |P_A - P_B| = {worst:.3e} over {11 * 25 * 25 * 13} cells, "
        f"{elapsed:.2f} s",
    )


def test_criterion_2_constraint_emergence_end_to_end():
    """Extracted phases sum to pi and the pipeline residual vanishes."""
    start = time.monotonic()
    targets = [0.02, 0.1, 0.2, 0.3, 0.45]
    omegas = [math.pi / 6, math.pi / 4, math.pi / 2, 3 * math.pi / 4]
    worst_phase = 0.0
    worst_residual = 0.0
    for target in targets:
        config = device_for_error_fraction(target)
        for omega in omegas:
            result = run_pipeline(config, omega, math.pi / 3, model="projected")
            assert 0.015 <= result.Es <= 0.46
            worst_phase = max(
                worst_phase,
                abs(wrap_to_pi(result.phi_plus + result.phi_minus - math.pi)),
            )
            worst_residual = max(worst_residual, abs(result.residual))
    elapsed = time.monotonic() - start
    report(
        "2 constraint emergence",
        worst_phase <= 1e-9 and worst_residual <= 1e-9 and elapsed < 60.0,
        f"max |phi_+ + phi_- - pi| = {worst_phase:.3e}, "
        f"max |residual| = {worst_residual:.3e} over "
        f"{len(targets)}x{len(omegas)} runs, {elapsed:.1f} s",
    )


def test_criterion_3_degenerate_limits():
    """Ideal device or aligned final axis: residual identically zero."""
    start = time.monotonic()
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(500):
        theta, omega = rng.uniform(0, math.pi, 2)
        p1, p2 = rng.uniform(0, 2 * math.pi, 2)
        (result,) = closed_form_rows(0.0, omega, (theta,), p1, p2, "pure")
        worst = max(worst, abs(result.residual))
    for _ in range(500):
        omega = rng.uniform(0, math.pi)
        es = rng.uniform(0, 1)
        p1, p2 = rng.uniform(0, 2 * math.pi, 2)
        (result,) = closed_form_rows(es, omega, (0.0,), p1, p2, "pure")
        worst = max(worst, abs(result.residual))
    elapsed = time.monotonic() - start
    report(
        "3 degenerate limits",
        worst <= 1e-14 and elapsed < 1.0,
        f"max |residual| = {worst:.3e} over 1000 random degenerate cells, "
        f"{elapsed:.2f} s",
    )


def test_criterion_4_oracle_equivalence(device, x_state):
    """Analytic Gaussian model vs split-operator solver on one device."""
    start = time.monotonic()
    times = [1.0, 3.0, 7.0, 12.0, 20.0, 30.0, 45.0, 70.0, 95.0, 120.0]
    grid = GridSpec(extent=1024.0, points=2**14, dt=2e-4)
    results = grid_results(device, x_state, grid, times)
    sat = saturated_error_fraction(device, tol=1e-4)
    assert times[-1] > 0.5 * sat.time  # sampling reaches the saturated regime

    worst_e = 0.0
    worst_mod = 0.0
    worst_phase = 0.0
    for idx, t in enumerate(times):
        _, e_analytic, c_analytic = upper_overlaps(device, t)
        worst_e = max(worst_e, abs(results[idx].error_fraction - e_analytic))
        c_grid = results[idx].coherence
        worst_mod = max(worst_mod, abs(abs(c_grid) - abs(c_analytic)))
        worst_phase = max(
            worst_phase,
            abs(wrap_to_pi(float(np.angle(c_grid)) - float(np.angle(c_analytic)))),
        )
    elapsed = time.monotonic() - start
    report(
        "4 oracle equivalence",
        worst_e <= 1e-3 and worst_mod <= 1e-3 and worst_phase <= 1e-2
        and elapsed < 120.0,
        f"max |dE| = {worst_e:.2e}, |d|C|| = {worst_mod:.2e}, "
        f"|d arg C| = {worst_phase:.2e} at {len(times)} times, {elapsed:.1f} s",
    )


def test_criterion_5_saturation(device):
    """E(t) decreases monotonically and settles on the closed-form tail."""
    start = time.monotonic()
    sat = saturated_error_fraction(device, tol=1e-6)
    probe = [
        upper_overlaps(device, t)[1] for t in np.geomspace(1e-3, 2 * sat.time, 200)
    ]
    monotone = bool(np.all(np.diff(probe) <= 1e-15))
    stability = abs(
        upper_overlaps(device, 2 * sat.time)[1] - upper_overlaps(device, sat.time)[1]
    )
    tail_error = abs(sat.value - asymptotic_error_fraction(device))
    elapsed = time.monotonic() - start
    report(
        "5 saturation",
        monotone and stability < 1e-4 and tail_error <= 1e-6 and elapsed < 5.0,
        f"monotone = {monotone}, |E(2t_sat) - E(t_sat)| = {stability:.2e}, "
        f"tail mismatch = {tail_error:.2e}, t_sat = {sat.time:g}, "
        f"{elapsed:.2f} s",
    )


def _bench_truths(config, omega):
    """Post-selected pure-state parameters for the two beam polarizations."""
    sat = saturated_error_fraction(config)
    from nosignal import phase_settle_time

    overlaps = upper_overlaps(config, max(sat.time, phase_settle_time(config)))
    truths = {}
    for polarization in (+1, -1):
        beam = sigma_eigenstate(omega, polarization)
        post = project_upper(beam, overlaps)
        truths[polarization] = (post.error_fraction, post.phase)
    return truths


def test_criterion_6_statistical_recovery():
    """Interval coverage and violation-bound behavior over 100 seeded runs."""
    start = time.monotonic()
    n = 1_000_000
    trials = 100
    config = device_for_error_fraction(0.2)
    # bias rotates the phases into the interior of [0, pi]
    config = type(config)(
        mass=config.mass,
        sigma0=config.sigma0,
        moment=config.moment,
        gradient=config.gradient,
        bias=500.0,
        transit=config.transit,
    )
    truths = _bench_truths(config, math.pi / 2)
    states = {
        s: postselected_pure_state(ef, phase) for s, (ef, phase) in truths.items()
    }
    mapped_truth = {
        s: (ef, math.acos(max(min(math.cos(phase), 1.0), -1.0)))
        for s, (ef, phase) in truths.items()
    }

    ef_cover = {+1: 0, -1: 0}
    phase_cover = {+1: 0, -1: 0}
    zero_in_bound = 0
    for trial in range(trials):
        ests = {}
        for b, s in enumerate((+1, -1)):
            rec_z = sample(states[s], 0.0, n, derive_seed(600, trial, b, 0))
            rec_x = sample(states[s], math.pi / 2, n, derive_seed(600, trial, b, 1))
            ef_hat, ef_ci = estimate_error_fraction(rec_z)
            est = estimate_phase(rec_x, ef_hat, ef_ci)
            ests[s] = est
            true_ef, true_phase = mapped_truth[s]
            ef_cover[s] += ef_ci[0] <= true_ef <= ef_ci[1]
            phase_cover[s] += est.phase_ci[0] <= true_phase <= est.phase_ci[1]
        _, ci = violation_bound(ests[+1], ests[-1])
        zero_in_bound += ci[0] <= 0.0 <= ci[1]

    # injected violation: second beam cosine shifted by 0.1
    cos_plus = math.cos(truths[+1][1])
    corrupted = postselected_pure_state(
        truths[-1][0], math.acos(max(min(-cos_plus + 0.1, 1.0), -1.0))
    )
    zero_excluded = 0
    for trial in range(trials):
        ests = {}
        for b, (s, state) in enumerate(((+1, states[+1]), (-1, corrupted))):
            rec_z = sample(state, 0.0, n, derive_seed(601, trial, b, 0))
            rec_x = sample(state, math.pi / 2, n, derive_seed(601, trial, b, 1))
            ef_hat, ef_ci = estimate_error_fraction(rec_z)
            ests[s] = estimate_phase(rec_x, ef_hat, ef_ci)
        _, ci = violation_bound(ests[+1], ests[-1])
        zero_excluded += not (ci[0] <= 0.0 <= ci[1])

    elapsed = time.monotonic() - start
    min_ef = min(ef_cover.values())
    min_phase = min(phase_cover.values())
    report(
        "6 statistical recovery",
        min_ef >= 90 and min_phase >= 90 and zero_in_bound >= 93
        and zero_excluded >= 95 and elapsed < 180.0,
        f"coverage: error fraction >= {min_ef}/100, phase >= {min_phase}/100; "
        f"bound contains 0 in {zero_in_bound}/100, excludes injected 0.1 in "
        f"{zero_excluded}/100; {elapsed:.1f} s",
    )


def test_criterion_7_sample_level_no_signalling(device):
    """Pooled finite-sample frequencies agree across Alice's settings."""
    start = time.monotonic()
    n = 1_000_000
    theta_grid = [i * math.pi / 12 for i in range(13)]
    from nosignal import phase_settle_time, singlet_conditional

    sat = saturated_error_fraction(device)
    overlaps = upper_overlaps(device, max(sat.time, phase_settle_time(device)))

    posts = {}
    for setting_idx, alice_axis in enumerate((math.pi / 2, 0.0)):
        for outcome in (+1, -1):
            _, bob = singlet_conditional(alice_axis, outcome)
            posts[(setting_idx, outcome)] = project_upper(bob, overlaps)

    worst_z = 0.0
    for theta_idx, theta in enumerate(theta_grid):
        freq = {}
        for setting_idx in (0, 1):
            rng = np.random.default_rng(derive_seed(424242, setting_idx, theta_idx))
            plus_counts = 0
            for outcome in (+1, -1):
                post = posts[(setting_idx, outcome)]
                n_branch = rng.binomial(n, 0.5)
                n_selected = rng.binomial(n_branch, post.select_prob)
                p_plus = born_probability(post.rho, theta, +1)
                plus_counts += rng.binomial(n_selected, p_plus)
            freq[setting_idx] = plus_counts / n
        pooled = 0.5 * (freq[0] + freq[1])
        sigma = math.sqrt(max(pooled * (1 - pooled), 1e-12) * 2.0 / n)
        worst_z = max(worst_z, abs(freq[0] - freq[1]) / sigma)
    elapsed = time.monotonic() - start
    report(
        "7 sample-level no-signalling",
        worst_z <= 4.0 and elapsed < 60.0,
        f"max |z-score over settings| = {worst_z:.2f} across "
        f"{len(theta_grid)} final angles at N = 10^6, {elapsed:.1f} s",
    )


def test_criterion_8_determinism(tmp_path):
    """verify / sweep / estimate / oracle rewrite byte-identical data files."""
    start = time.monotonic()
    config = "configs/default.json"
    outputs = {
        "verify": "report.json",
        "sweep": "sweep.csv",
        "estimate": "estimates.jsonl",
        "oracle": "oracle.json",
    }
    mismatches = []
    for command, filename in outputs.items():
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / f"{command}_{run}"
            code = main(
                [command, "--config", config, "--out", str(out), "--seed", "77"]
            )
            assert code == 0, f"{command} exited {code}"
            blobs.append((out / filename).read_bytes())
        if blobs[0] != blobs[1]:
            mismatches.append(command)
    elapsed = time.monotonic() - start
    report(
        "8 determinism",
        not mismatches and elapsed < 120.0,
        f"byte-identical reruns for {sorted(outputs)}; "
        f"mismatches = {mismatches or 'none'}, {elapsed:.1f} s",
    )
