"""End-to-end acceptance checks, one test per headline claim.

Each test exercises a complete pipeline (channel constructions, the
transmission and memory Monte Carlo experiments, the oracle phase formula,
the rotating-frame reduction) against its closed-form target at a stated
tolerance, prints the measured numbers, and enforces a wall-clock budget.
Run with ``pytest -v tests/test_acceptance.py`` for one pass/fail line per
criterion, add ``-s`` to see the measured values.
"""
import math
import time

import numpy as np
import pytest

from dephasim import (
    BlochVector,
    IDENTITY,
    MemoryConfig,
    MixingEnsemble,
    SIGMA_Z,
    TransmissionConfig,
    bang_bang_dephasing_time,
    bang_bang_retention,
    bang_bang_retention_fixed_start,
    bloch_from_density,
    channel_from_mixing,
    channels_equal_as_maps,
    decay_contrast,
    dephasing_time,
    density_from_bloch,
    interval_noise_retention,
    LabFrameParams,
    mat_equal,
    mixed_env_flip_channel,
    mixture_flip_channel,
    partial_trace_env,
    phase_flip,
    phase_shift,
    prediction,
    pure_env_flip_channel,
    rotating_frame_check,
    rotation_pulse,
    run_memory,
    run_transmission,
    simulate_schedule,
    transverse_amplitude,
)
from dephasim.experiments import four_case_phase

from helpers import J_REF, random_density, rho_00, window_schedule

PI = math.pi


def test_criterion_1_dilations_reproduce_the_phase_flip_channel():
    start = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(11)
    for p in (0.0, 0.25, 0.5, 1.0):
        direct = phase_flip(p)
        for built in (pure_env_flip_channel(p), mixed_env_flip_channel(p), mixture_flip_channel(p)):
            assert channels_equal_as_maps(built, direct, tol=1e-12)
            for _ in range(10):
                rho = random_density(rng)
                worst = max(worst, float(np.max(np.abs(
                    built.apply(rho) - direct.apply(rho)))))
    elapsed = time.perf_counter() - start
    print(f"\nphase-flip equivalence: max state deviation {worst:.3e} "
          f"(tol 1e-12), {elapsed:.2f} s")
    assert worst < 1e-12
    assert elapsed < 1.0


def test_criterion_2_free_transmission_dephases_completely():
    start = time.perf_counter()
    config = TransmissionConfig(
        j=J_REF, total_time=6e-3, noise_start=1e-3, trials=100_000, seed=1)
    result = run_transmission(config)
    magnitude = abs(result.grand_average)
    elapsed = time.perf_counter() - start
    print(f"\nfree transmission, N = 1e5: |grand average| = {magnitude:.5f} "
          f"(target < 0.02), {elapsed:.1f} s")
    assert magnitude < 0.02
    assert elapsed < 0.2


def test_criterion_3_pulse_train_retention_matches_both_sinc_laws():
    start = time.perf_counter()
    fixed_config, random_config = (TransmissionConfig(
        j=J_REF, total_time=8.5e-3, noise_start=1e-3, trials=10_000, seed=1,
        bang_bang=True, pulse_spacing=0.3e-3, random_train_phase=random) for random in (False, True))
    mag_fixed = abs(run_transmission(fixed_config).grand_average)
    mag_random = abs(run_transmission(random_config).grand_average)
    elapsed = time.perf_counter() - start
    (fixed_law, fixed_pred, _), (random_law, random_pred, _) = map(prediction, (fixed_config, random_config))
    print(f"\ntrain locked to window: {mag_fixed:.5f} vs 0.99312 ({fixed_law} = {fixed_pred:.5f})")
    print(f"randomly phased train:  {mag_random:.5f} vs 0.98629 "
          f"({random_law} = {random_pred:.5f}), {elapsed:.1f} s")
    assert abs(mag_fixed - 0.99312) < 0.005
    assert abs(mag_random - 0.98629) < 0.005
    assert elapsed < 0.1


def test_criterion_4_edge_offset_phase_formula_matches_full_simulation():
    start = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(1000):
        case = int(rng.integers(1, 5))
        spacing = float(rng.uniform(1e-4, 6e-4))
        eps0 = float(rng.uniform(0.001, 0.999)) * spacing
        eps1 = float(rng.uniform(0.001, 0.999)) * spacing
        pairs = int(rng.integers(1, 9))
        sched = window_schedule(case, eps0, eps1, spacing, J_REF, pairs)
        rho = simulate_schedule(sched, rho_00())
        amp = transverse_amplitude(partial_trace_env(rho))
        predicted = four_case_phase(case, eps0, eps1, spacing, J_REF)
        worst = max(worst, abs(float(np.angle(amp * np.exp(1j * predicted)))))
    elapsed = time.perf_counter() - start
    print(f"\nedge-offset phase formula, 1000 tuples: max phase error "
          f"{worst:.3e} (tol 1e-10), {elapsed:.1f} s")
    assert worst < 1e-10
    assert elapsed < 10.0


def test_criterion_5_memory_decay_follows_the_interval_noise_law():
    start = time.perf_counter()
    times = tuple(4e-3 * k for k in range(1, 26))  # 4 to 100 ms
    results = {}
    for spread in (0.10, 0.15, 0.20, 0.25):
        config = MemoryConfig(
            j=J_REF, mean_interval=2e-3, interval_spread=spread,
            observation_times=times, trials=10_000, seed=1)
        results[spread] = config, run_memory(config)

    print(f"\nmemory decay,  N = 1e4 per spread, {prediction(config)[0]}:")
    for spread, (config, curve) in results.items():
        t2_pred = prediction(config)[2]
        t2_err = abs(curve.fit.t2 - t2_pred) / t2_pred
        contrast = decay_contrast(float(curve.magnitudes[-1]), 1.0, spread)
        print(f"  spread {spread:.2f}: t2 = {curve.fit.t2 * 1e3:7.3f} ms "
              f"vs {t2_pred * 1e3:7.3f} ms ({100 * t2_err:+.2f}%), "
              f"contrast = {contrast:.2f} vs 45.84")
        assert curve.fit.decaying
        assert t2_err < 0.05
        assert abs(contrast - 45.84) < 2.0

    final_025 = float(results[0.25][1].magnitudes[-1])
    elapsed = time.perf_counter() - start
    print(f"  spread 0.25 magnitude at 100 ms: {final_025:.4f} "
          f"(target 0.057 +/- 0.006), {elapsed:.1f} s")
    assert abs(final_025 - 0.057) < 0.006
    assert elapsed < 1.7


def test_criterion_6_pulse_train_slows_memory_decay_to_the_sinc_law():
    start = time.perf_counter()
    times = tuple(4e-3 * k for k in range(1, 16))  # 4 to 60 ms
    # spacing equals the smallest plausible flip interval, which is exactly
    # what the coarse-train warning is for; the run itself is still valid
    with pytest.warns(UserWarning):
        config = MemoryConfig(
            j=J_REF, mean_interval=2e-3, interval_spread=0.25,
            observation_times=times, trials=10_000, seed=1,
            bang_bang=True, pulse_spacing=0.5e-3)
    curve = run_memory(config)
    final = float(curve.magnitudes[-1])
    elapsed = time.perf_counter() - start
    law, predicted, _ = prediction(config)   # 15 flip cycles in 60 ms
    print(f"\npulse-train memory: magnitude at 60 ms = {final:.4f} "
          f"(target 0.562 +/- 0.02, {law} {predicted:.4f}), {elapsed:.1f} s")
    assert abs(final - 0.562) < 0.02
    assert elapsed < 0.35


def test_criterion_7_rotating_frame_residual_shrinks_quadratically():
    start = time.perf_counter()
    check = rotating_frame_check(LabFrameParams(2 * PI * 125.0, 2 * PI * 500.0, J_REF), 1e-3)
    elapsed = time.perf_counter() - start
    ratio1, ratio2 = check.ratios
    print(f"\nrotating frame: shrink ratios {ratio1:.2f}, {ratio2:.2f} "
          f"(expect ~4), residual at dt = 1e-7 is {check.residuals[-1]:.3e} vs "
          f"1e-3 * |H| = {check.bound:.3e}, {elapsed:.2f} s")
    assert check.passed
    assert elapsed < 1.0


def test_criterion_8_property_suite():
    start = time.perf_counter()
    rng = np.random.default_rng(8)

    # channels keep states physical: trace one, positive semidefinite
    chans = [
        phase_flip(0.3),
        pure_env_flip_channel(0.6),
        channel_from_mixing(MixingEnsemble(
            (IDENTITY, SIGMA_Z, phase_shift(1.3)), (0.5, 0.2, 0.3))),
    ]
    for k in range(1000):
        out = chans[k % len(chans)].apply(random_density(rng))
        assert abs(np.trace(out) - 1.0) < 1e-12
        assert np.linalg.eigvalsh(out).min() > -1e-12

    # Bloch round-trip is exact
    for _ in range(200):
        v = rng.uniform(-1.0, 1.0, size=3)
        norm = np.linalg.norm(v)
        if norm > 1.0:
            v /= norm
        back = bloch_from_density(density_from_bloch(BlochVector(*v)))
        assert np.allclose(back, v, atol=1e-12)

    # sandwiching a phase between inverse flips undoes it exactly
    v_fwd = rotation_pulse("x", PI)
    v_bwd = rotation_pulse("-x", PI)
    for _ in range(100):
        th1, th2 = rng.uniform(-2 * PI, 2 * PI, size=2)
        product = (phase_shift(th2) @ v_bwd @ phase_shift(th2 + th1)
                   @ v_fwd @ phase_shift(th1))
        assert mat_equal(product, IDENTITY, tol=1e-12)

    # closed-form factors agree with their definitions and each other
    x = J_REF * 0.3e-3 / 2.0
    assert bang_bang_retention_fixed_start(J_REF, 0.3e-3) == pytest.approx(
        math.sin(x) / x, abs=1e-15)
    assert bang_bang_retention(J_REF, 0.3e-3) == pytest.approx(
        (math.sin(x) / x) ** 2, abs=1e-15)
    lam = interval_noise_retention(J_REF, 2e-3, 0.25)
    assert lam == pytest.approx(math.exp(-(J_REF * 2e-3 * 0.25) ** 2 / 4.0), abs=1e-15)
    t2 = dephasing_time(J_REF, 0.25, 2e-3)
    assert t2 == pytest.approx(8.0 / (J_REF**2 * 0.25**2 * 2e-3), abs=1e-15)
    # both routes to the magnitude after 25 flip cycles (100 ms)
    assert lam**25 == pytest.approx(math.exp(-0.1 / t2), rel=1e-12)
    t2b = bang_bang_dephasing_time(J_REF, 0.5e-3, 2e-3)
    assert t2b == pytest.approx(
        -2.0 * 2e-3 / math.log(bang_bang_retention(J_REF, 0.5e-3)), rel=1e-12)
    assert decay_contrast(math.exp(-45.0 * 0.25**2), 1.0, 0.25) == pytest.approx(45.0)

    # fixed seeds reproduce results bit for bit
    t_config = TransmissionConfig(
        j=J_REF, total_time=6e-3, noise_start=1e-3, trials=500, seed=3)
    a = run_transmission(t_config)
    b = run_transmission(t_config)
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.grand_average == b.grand_average
    m_config = MemoryConfig(
        j=J_REF, mean_interval=2e-3, interval_spread=0.2,
        observation_times=(4e-3, 8e-3, 12e-3), trials=200, seed=3)
    c = run_memory(m_config)
    d = run_memory(m_config)
    assert np.array_equal(c.magnitudes, d.magnitudes)

    elapsed = time.perf_counter() - start
    print(f"\nproperty suite: channels, Bloch round-trip, echo identity, "
          f"closed forms, determinism all green, {elapsed:.1f} s")
    assert elapsed < 30.0
