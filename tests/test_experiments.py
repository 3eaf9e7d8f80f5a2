import math
import random
import tracemalloc
import weakref
from fractions import Fraction
from concurrent.futures import ThreadPoolExecutor
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from dephasim import (
    CouplingSystem,
    FieldError,
    MemoryConfig,
    PulseEvent,
    PulseSchedule,
    PulseTrain,
    TransmissionConfig,
    bang_bang_dephasing_time,
    bang_bang_retention,
    bang_bang_retention_fixed_start,
    cyclic_axes,
    decay_contrast,
    dephasing_time,
    fit_exponential,
    four_case_phase,
    interval_noise_retention,
    memory_trial_schedule,
    partial_trace_env,
    prediction,
    run_memory,
    run_transmission,
    simulate_amplitudes,
    simulate_schedule,
    transmission_schedule,
    toggle_walk,
    train_walk,
    transverse_amplitude,
)
from dephasim import experiments
from dephasim.experiments import (
    FIT_FLOOR,
    FieldWarning,
    MAX_TRIAL_EVENTS,
    MAX_TRIALS,
    _STREAM_BLOCK,
    _generate_state,
    _next_doubles,
    _stream_generator,
    _toggle_times,
    _trial_schedule,
    _trial_streams,
)

from helpers import J_REF, rho_00, window_schedule

PI = np.pi

# Closed-form reference values for J = 2 pi 215.5 rad/s, evaluated once by
# hand from sinc(J t_b / 2), exp(-(J d a)^2 / 4), 8 / (J^2 a^2 d) and
# -2 d / ln kappa; frozen here so regressions cannot drift silently.
SINC_03MS = 0.9931389631701355
SINC_05MS = 0.9810113322750427
LAMBDA_025 = 0.891734600320494
T2_STAR_025 = 0.034908057951397856
T2B_STAR_05MS = 0.10432278285841141


def test_retention_factors_match_frozen_values():
    assert bang_bang_retention_fixed_start(J_REF, 0.3e-3) == pytest.approx(SINC_03MS, abs=1e-12)
    assert bang_bang_retention(J_REF, 0.3e-3) == pytest.approx(SINC_03MS**2, abs=1e-12)
    assert bang_bang_retention_fixed_start(J_REF, 0.5e-3) == pytest.approx(SINC_05MS, abs=1e-12)
    assert bang_bang_retention(J_REF, 0.5e-3) == pytest.approx(SINC_05MS**2, abs=1e-12)
    assert interval_noise_retention(J_REF, 2e-3, 0.25) == pytest.approx(LAMBDA_025, abs=1e-12)
    assert interval_noise_retention(J_REF, 2e-3, 0.0) == 1.0


def test_retention_factor_limits():
    # vanishing spacing keeps everything, continuously down to the limit
    assert bang_bang_retention(J_REF, 1e-12) == pytest.approx(1.0, abs=1e-9)
    assert bang_bang_retention(J_REF, 0.0) == 1.0
    # a full coupling period between pulses keeps nothing
    assert bang_bang_retention(J_REF, 2 * PI / J_REF) == pytest.approx(0.0, abs=1e-15)
    with pytest.raises(ValueError):
        bang_bang_retention(J_REF, -1e-3)
    with pytest.raises(ValueError):
        bang_bang_retention_fixed_start(J_REF, -1e-3)
    with pytest.raises(ValueError):
        bang_bang_retention(0.0, 1e-3)


def test_dephasing_times_match_frozen_values():
    assert dephasing_time(J_REF, 0.25, 2e-3) == pytest.approx(T2_STAR_025, rel=1e-12)
    assert bang_bang_dephasing_time(J_REF, 0.5e-3, 2e-3) == pytest.approx(T2B_STAR_05MS, rel=1e-12)
    # the memory prediction chain: 25 cycles of lambda vs exp(-T / T2*)
    assert LAMBDA_025**25 == pytest.approx(math.exp(-0.1 / T2_STAR_025), abs=1e-12)


def test_dephasing_time_edges():
    assert dephasing_time(J_REF, 0.0, 2e-3) == math.inf
    assert bang_bang_dephasing_time(J_REF, 1e-13, 2e-3) == math.inf
    with pytest.raises(ValueError):
        dephasing_time(J_REF, -0.1, 2e-3)
    with pytest.raises(ValueError):
        bang_bang_dephasing_time(J_REF, 2 * PI / J_REF, 2e-3)


@pytest.mark.parametrize("product", [1e-8, 2e-8, 3e-8])
def test_bang_bang_dephasing_time_is_infinite_where_retention_rounds_to_one(product):
    """Up to about 4.4e-8 the squared sinc of ``j * spacing / 2`` rounds to 1,
    whose log is 0: the time is infinite, not a zero division."""
    assert bang_bang_retention(1.0, product) == 1.0
    assert bang_bang_dephasing_time(1.0, product, 2e-3) == math.inf


def test_closed_forms_at_extreme_values():
    """Squares that overflow give inf rather than an OverflowError, and
    products that round to zero give inf rather than a zero division."""
    assert interval_noise_retention(1e160, 2e-3, 0.25) == 0.0
    assert dephasing_time(1e160, 0.25, 2e-3) == 0.0
    assert dephasing_time(J_REF, 5e-324, 2e-3) == math.inf
    assert decay_contrast(0.5, 1.0, 5e-324) == math.inf
    assert bang_bang_dephasing_time(1e-320, 1e-5, 2e-3) == math.inf


def test_decay_contrast():
    # no decay gives +0.0, not the -0.0 of -ln 1
    for no_decay in (decay_contrast(0.5, 0.5, 0.2), decay_contrast(1.0, 1.0, 0.1)):
        assert no_decay == 0.0 and math.copysign(1.0, no_decay) == 1.0
    expected = -math.log(0.057 / 1.0) / 0.25**2
    assert decay_contrast(0.057, 1.0, 0.25) == pytest.approx(expected)
    with pytest.raises(ValueError):
        decay_contrast(0.0, 1.0, 0.25)
    with pytest.raises(ValueError):
        decay_contrast(0.5, 1.0, 0.0)


def test_four_case_phase_formulas():
    tb = 3e-4
    # symmetric placements cancel exactly
    assert four_case_phase(2, 1e-4, 1e-4, tb, J_REF) == 0.0
    assert four_case_phase(4, 1e-4, 1e-4, tb, J_REF) == 0.0
    assert four_case_phase(1, tb / 2, tb / 2, tb, J_REF) == pytest.approx(0.0, abs=1e-18)
    assert four_case_phase(3, tb / 2, tb / 2, tb, J_REF) == pytest.approx(0.0, abs=1e-18)
    # signed structure
    assert four_case_phase(1, 1e-4, 2e-4, tb, J_REF) == pytest.approx(J_REF * 0.0, abs=1e-12)
    assert four_case_phase(2, 2e-4, 0.5e-4, tb, J_REF) == pytest.approx(J_REF * 1.5e-4)
    assert four_case_phase(3, 1e-4, 1e-4, tb, J_REF) == pytest.approx(J_REF * 1e-4)
    assert four_case_phase(4, 0.5e-4, 2e-4, tb, J_REF) == pytest.approx(J_REF * 1.5e-4)
    assert four_case_phase(1, e0 := 1e-4, e1 := 1e-4, tb, J_REF) == pytest.approx(-four_case_phase(3, e0, e1, tb, J_REF))


def test_four_case_phase_validation():
    with pytest.raises(ValueError, match="case"):
        four_case_phase(5, 1e-4, 1e-4, 3e-4, J_REF)
    with pytest.raises(ValueError, match="spacing"):
        four_case_phase(1, 0.0, 0.0, 0.0, J_REF)
    with pytest.raises(ValueError, match="eps0"):
        four_case_phase(1, 4e-4, 1e-4, 3e-4, J_REF)
    with pytest.raises(ValueError, match="eps1"):
        four_case_phase(1, 1e-4, -1e-9, 3e-4, J_REF)


def test_four_case_phase_matches_full_simulation():
    """The window phase algebra against the complete two-qubit evolution."""
    rng = np.random.default_rng(41)
    worst = 0.0
    for _ in range(100):
        case = int(rng.integers(1, 5))
        spacing = float(rng.uniform(1e-4, 6e-4))
        eps0, eps1 = rng.uniform(0.001, 0.999, size=2) * spacing
        pairs = int(rng.integers(1, 9))
        sched = window_schedule(case, eps0, eps1, spacing, J_REF, pairs)
        rho = simulate_schedule(sched, rho_00())
        amp = transverse_amplitude(partial_trace_env(rho), tol=1e-9)
        predicted = np.exp(-1j * four_case_phase(case, eps0, eps1, spacing, J_REF))
        worst = max(worst, abs(amp - predicted))
    assert worst < 1e-10, f"worst amplitude deviation {worst:.3e}"


# ---------------------------------------------------------------------------
# transmission experiment
# ---------------------------------------------------------------------------

def base_transmission(**overrides):
    params = dict(j=J_REF, total_time=6e-3, noise_start=1e-3, trials=64, seed=1)
    params.update(overrides)
    return TransmissionConfig(**params)


def test_transmission_config_validation():
    with pytest.raises(ValueError, match="noise_start"):
        base_transmission(noise_start=0.0)
    with pytest.raises(ValueError, match="noise window"):
        base_transmission(total_time=5e-3)  # 1 ms + 4.64 ms period does not fit
    with pytest.raises(ValueError, match="pulse_spacing"):
        base_transmission(bang_bang=True)
    with pytest.raises(ValueError, match="sparse"):
        base_transmission(total_time=20e-3, bang_bang=True, pulse_spacing=1e-3)
    with pytest.raises(ValueError, match="does not fit"):
        base_transmission(bang_bang=True, pulse_spacing=0.3e-3)  # 24 pulses need 7.2 ms
    with pytest.raises(ValueError, match="pulses_per_trial"):
        base_transmission(pulses_per_trial=16)
    with pytest.raises(ValueError, match="trials"):
        base_transmission(trials=0)
    with pytest.raises(ValueError, match="limit"):
        base_transmission(trials=MAX_TRIALS + 1)
    assert base_transmission(trials=MAX_TRIALS).trials == MAX_TRIALS
    with pytest.raises(ValueError, match="seed"):
        base_transmission(seed=-1)


def test_pulse_count():
    cfg = base_transmission(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3)
    # ceil((4.640 ms + 0.3 ms) / 0.3 ms) = 17, rounded up to a cycle multiple
    assert cfg.pulse_count() == 24
    with pytest.warns(FieldWarning, match="16 pulses ends before"):
        explicit = base_transmission(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3,
                                     pulses_per_trial=16)
    assert explicit.pulse_count() == 16
    with pytest.raises(ValueError, match="pulses_per_trial"):
        base_transmission(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3,
                          pulses_per_trial=0)


@pytest.mark.parametrize("pulses, warns", [(16, True), (17, False), (None, False)])
def test_a_train_ending_inside_the_noise_window_warns(pulses, warns):
    """16 pulses 0.3 ms apart end 4.5 ms after noise_start, inside a window
    that may last one coupling period, 4.64 ms; 17 end at 4.8 ms, and the
    default count, 24, spans it.  The warning names pulses_per_trial."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        base_transmission(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3, pulses_per_trial=pulses)
    assert [(type(w.message), w.message.field) for w in caught] == (
        [(FieldWarning, "pulses_per_trial")] if warns else [])
    assert all(w.filename == __file__ for w in caught)


def test_transmission_schedule_layout():
    cfg = base_transmission(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3)
    delta = 2.2e-3
    sched = transmission_schedule(cfg, delta, train_offset=1e-4)
    prep = sched.events[0]
    assert (prep.time, prep.target, prep.axis, prep.angle) == (0.0, 1, "y", PI / 2)
    flips = [ev for ev in sched.events if ev.target == 2]
    assert [ev.time for ev in flips] == [cfg.noise_start, cfg.noise_start + delta]
    assert [ev.axis for ev in flips] == ["x", "-x"]
    train = [ev for ev in sched.events if ev.target == 1 and ev.angle == PI]
    assert len(train) == 24
    assert train[0].time == pytest.approx(cfg.noise_start + 1e-4)
    assert train[3].time == pytest.approx(cfg.noise_start + 1e-4 + 3 * 0.3e-3)
    assert tuple(ev.axis for ev in train[:8]) == ("x", "-x", "y", "-y", "-x", "x", "-y", "y")
    with pytest.raises(ValueError, match="delta"):
        transmission_schedule(cfg, 5e-3)
    with pytest.raises(ValueError, match="train_offset"):
        transmission_schedule(cfg, delta, train_offset=0.5e-3)
    with pytest.raises(ValueError, match="train_offset"):
        transmission_schedule(base_transmission(), delta, train_offset=1e-4)


def test_transmission_phase_law():
    """One trial leaves amplitude exp(-i J delta) after the trivial phase
    is removed; delta = 0 leaves exactly 1."""
    cfg = base_transmission()
    trivial = np.exp(-0.5j * J_REF * cfg.total_time)
    rng = np.random.default_rng(42)
    for delta in [0.0] + list(rng.uniform(0.0, 2 * PI / J_REF, size=10)):
        sched = transmission_schedule(cfg, float(delta))
        rho = simulate_schedule(sched, rho_00())
        amp = transverse_amplitude(partial_trace_env(rho), tol=1e-9) * trivial
        assert abs(amp - np.exp(-1j * J_REF * delta)) < 1e-12


def test_run_transmission_deterministic():
    a = run_transmission(base_transmission())
    b = run_transmission(base_transmission())
    assert np.array_equal(a.amplitudes, b.amplitudes)
    assert a.grand_average == b.grand_average
    c = run_transmission(base_transmission(seed=2))
    assert not np.array_equal(a.amplitudes, c.amplitudes)


def test_ensemble_result_structure():
    result = run_transmission(base_transmission(trials=40, group_size=16))
    assert len(result.amplitudes) == 40
    assert len(result.group_averages) == 3  # 16 + 16 + 8
    assert result.grand_average == complex(result.amplitudes.mean())
    assert result.group_averages[0] == pytest.approx(result.amplitudes[:16].mean())
    assert result.group_averages[2] == pytest.approx(result.amplitudes[32:].mean())
    assert abs(result.grand_average) <= np.abs(result.amplitudes).max() + 1e-15
    assert result.observation_time == 6e-3
    with pytest.raises(ValueError):
        result.amplitudes[0] = 0.0


def test_grand_average_shrinks_like_sqrt_n():
    """No-pulse dephasing: |grand average| is Monte Carlo noise, so
    quadrupling the trial count should roughly halve it."""
    def rms(trials):
        devs = [abs(run_transmission(base_transmission(trials=trials, seed=s)).grand_average)
                for s in range(10)]
        return float(np.sqrt(np.mean(np.square(devs))))

    ratio = rms(400) / rms(1600)
    assert 1.3 < ratio < 3.1, f"scaling ratio {ratio:.2f}, expected about 2"


def test_bang_bang_retention_brackets_simulation():
    common = dict(total_time=9e-3, trials=2000, bang_bang=True, pulse_spacing=0.3e-3)
    fixed = run_transmission(base_transmission(**common))
    n = len(fixed.amplitudes)
    se = np.hypot(fixed.amplitudes.real.std(ddof=1), fixed.amplitudes.imag.std(ddof=1)) / np.sqrt(n)
    assert abs(abs(fixed.grand_average) - SINC_03MS) < 3 * se

    jittered = run_transmission(base_transmission(**common, random_train_phase=True))
    se = np.hypot(jittered.amplitudes.real.std(ddof=1),
                  jittered.amplitudes.imag.std(ddof=1)) / np.sqrt(n)
    assert abs(abs(jittered.grand_average) - SINC_03MS**2) < 3 * se


# ---------------------------------------------------------------------------
# memory experiment
# ---------------------------------------------------------------------------

def base_memory(**overrides):
    params = dict(j=J_REF, mean_interval=2e-3, interval_spread=0.25,
                  observation_times=tuple(4e-3 * k for k in range(1, 6)),
                  trials=32, seed=1)
    params.update(overrides)
    return MemoryConfig(**params)


def test_memory_config_validation():
    with pytest.raises(ValueError, match="interval_spread"):
        base_memory(interval_spread=0.3)
    with pytest.raises(ValueError, match="toggle cycle"):
        base_memory(observation_times=(4e-3, 5e-3, 8e-3))
    with pytest.raises(ValueError, match="increasing"):
        base_memory(observation_times=(4e-3, 12e-3, 8e-3))
    with pytest.raises(ValueError, match="observation"):
        base_memory(observation_times=())
    with pytest.raises(ValueError, match="pulse_spacing"):
        base_memory(pulse_spacing=0.5e-3)
    with pytest.raises(ValueError, match="pulse_spacing"):
        base_memory(bang_bang=True)
    with pytest.raises(ValueError, match="limit"):
        base_memory(trials=MAX_TRIALS + 1)
    assert base_memory().cycle_counts() == (1, 2, 3, 4, 5)


@pytest.mark.parametrize("build, overrides, field", [
    (base_transmission, {"j": math.inf}, "j"),
    (base_transmission, {"total_time": 5e-3}, "total_time"),
    (base_transmission, {"trials": MAX_TRIALS + 1}, "trials"),
    (base_transmission, {"bang_bang": True, "pulse_spacing": 0.3e-3, "pulses_per_trial": 0},
     "pulses_per_trial"),
    (base_memory, {"observation_times": (4e-3, 8e-3)}, "observation_times"),
    (base_memory, {"seed": -1}, "seed"),
    # both were accepted and ignored without the train
    (base_transmission, {"pulse_spacing": 3e-4}, "pulse_spacing"),
    (base_transmission, {"random_train_phase": True}, "random_train_phase"),
    # the rules both configs share, refused at the same field by each
    (base_transmission, {"seed": -1}, "seed"),
    (base_memory, {"j": -1.0}, "j"),
    (base_memory, {"trials": 0}, "trials"),
    (base_memory, {"trials": MAX_TRIALS + 1}, "trials"),
    (base_memory, {"bang_bang": True}, "pulse_spacing"),
    (base_memory, {"pulse_spacing": 0.5e-3}, "pulse_spacing"),
    (base_memory, {"bang_bang": True, "pulse_spacing": 5e-3}, "pulse_spacing"),
])
def test_config_refusals_name_their_field(build, overrides, field):
    with pytest.raises(ValueError) as info:
        build(**overrides)
    assert isinstance(info.value, FieldError) and info.value.field == field


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_configs_refuse_non_finite_numbers(value):
    """An infinite j or total_time used to run to NaN amplitudes, and an
    infinite mean_interval to an IndexError inside run_memory."""
    for field in ("j", "total_time", "noise_start", "pulse_spacing"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            base_transmission(**{field: value})
    for field in ("j", "mean_interval", "interval_spread", "pulse_spacing"):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            base_memory(**{field: value})
    with pytest.raises(ValueError, match="observation_times must be finite"):
        base_memory(observation_times=(4e-3, 8e-3, value))


def test_memory_bang_bang_warns_when_spacing_is_coarse():
    with pytest.warns(UserWarning, match="pulse_spacing") as record:
        base_memory(bang_bang=True, pulse_spacing=0.5e-3)
    # names the code that built the config, not the dataclass __init__ ("<string>")
    assert record[0].filename == __file__
    # fine spacing stays quiet
    base_memory(bang_bang=True, pulse_spacing=0.4e-3)


LOCKED_LAW = "sinc retention (train locked to window start)"
PLAIN_LAW = "interval-noise law, t2 = 8 / (j^2 spread^2 mean_interval)"
PULSED_LAW = "squared-sinc retention per toggle cycle"
TRAIN = dict(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3)


@pytest.mark.parametrize("build, overrides, warns, expected", [
    (base_transmission, {}, None, ("complete dephasing", 0.0, None)),
    (base_transmission, TRAIN, None, (LOCKED_LAW, bang_bang_retention_fixed_start(J_REF, 0.3e-3), None)),
    (base_transmission, {**TRAIN, "random_train_phase": True}, None,
     ("squared-sinc retention (random train phase)", bang_bang_retention(J_REF, 0.3e-3), None)),
    # the law does not hold for a train that ends inside the window, but it stays the one named
    (base_transmission, {**TRAIN, "pulses_per_trial": 16}, "pulses_per_trial",
     (LOCKED_LAW, bang_bang_retention_fixed_start(J_REF, 0.3e-3), None)),
    (base_memory, {}, None,
     (PLAIN_LAW, interval_noise_retention(J_REF, 2e-3, 0.25) ** 5, dephasing_time(J_REF, 0.25, 2e-3))),
    (base_memory, {"interval_spread": 0.0}, None,
     (PLAIN_LAW, interval_noise_retention(J_REF, 2e-3, 0.0) ** 5, math.inf)),
    (base_memory, {"bang_bang": True, "pulse_spacing": 0.4e-3}, None,
     (PULSED_LAW, bang_bang_retention(J_REF, 0.4e-3) ** 5, bang_bang_dephasing_time(J_REF, 0.4e-3, 2e-3))),
    # j * pulse_spacing 2e-8: the squared sinc rounds to one
    (base_memory, {"j": 200.0, "mean_interval": 1e-6, "observation_times": (2e-6, 4e-6, 6e-6),
                   "bang_bang": True, "pulse_spacing": 1e-10}, None,
     (PULSED_LAW, bang_bang_retention(200.0, 1e-10) ** 3, math.inf)),
], ids=["free", "locked", "random_phase", "short_train", "plain_memory", "zero_spread", "pulsed_memory",
        "retention_one"])
def test_prediction_is_the_law_of_each_run_shape(build, overrides, warns, expected):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        config = build(**overrides)
    assert [w.message.field for w in caught] == ([warns] if warns else [])
    assert prediction(config) == expected


def test_memory_trial_schedule_plain():
    cfg = base_memory(observation_times=(4e-3, 8e-3, 12e-3))
    intervals = np.full(6, 2e-3)
    sched, snapshots = memory_trial_schedule(cfg, intervals)
    flips = [ev for ev in sched.events if ev.target == 2]
    assert [ev.time for ev in flips] == pytest.approx([2e-3, 4e-3, 6e-3, 8e-3, 10e-3, 12e-3])
    assert tuple(ev.axis for ev in flips) == ("x", "-x", "y", "-y", "-x", "x")
    # snapshots sit at the second, fourth and sixth flip
    assert snapshots == pytest.approx([4e-3, 8e-3, 12e-3])
    assert sched.total_time == pytest.approx(12e-3)


def test_memory_trial_schedule_bang_bang():
    with pytest.warns(UserWarning):
        cfg = base_memory(observation_times=(4e-3, 8e-3, 12e-3), bang_bang=True, pulse_spacing=1e-3)
    intervals = np.full(6, 2.1e-3)  # flips drift past the horizon
    sched, snapshots = memory_trial_schedule(cfg, intervals)
    assert snapshots == pytest.approx([4e-3, 8e-3, 12e-3])
    assert sched.total_time == pytest.approx(12e-3)
    flips = [ev.time for ev in sched.events if ev.target == 2]
    assert flips == pytest.approx([2.1e-3, 4.2e-3, 6.3e-3, 8.4e-3, 10.5e-3])  # 12.6 ms falls outside
    train = [ev.time for ev in sched.events if ev.target == 1 and ev.angle == PI]
    assert train == pytest.approx([1e-3 * k for k in range(1, 13)])


def test_memory_zero_spread_keeps_full_amplitude():
    curve = run_memory(base_memory(interval_spread=0.0, trials=8))
    assert np.max(np.abs(curve.magnitudes - 1.0)) < 1e-12
    assert not curve.fit.decaying
    assert curve.fit.t2 == math.inf


def test_run_memory_deterministic():
    """Also after runs of other configs, or on a thread's new generator: the
    reused generator carries nothing from one run to the next."""
    a = run_memory(base_memory())
    b = run_memory(base_memory())
    assert np.array_equal(a.magnitudes, b.magnitudes)
    assert a.fit == b.fit
    c = run_memory(base_memory(seed=3))
    assert not np.array_equal(a.magnitudes, c.magnitudes)
    run_memory(_memory_config("pulsed", 300))
    assert np.array_equal(_magnitudes(base_memory()), a.magnitudes)
    with ThreadPoolExecutor(1) as pool:
        assert np.array_equal(pool.submit(_magnitudes, base_memory()).result(), a.magnitudes)


def test_stream_generator_is_one_per_thread():
    """Calls in one thread return its one generator and view; another
    thread builds its own, with the same layout."""
    rng, state, layout = _stream_generator()
    again, again_state, _ = _stream_generator()
    assert again is rng and again_state is state
    with ThreadPoolExecutor(1) as pool:
        other, other_state, other_layout = pool.submit(_stream_generator).result()
    streams = _trial_streams(3, 0, 4)
    assert other is not rng and other_layout(streams).tobytes() == layout(streams).tobytes()
    assert not np.shares_memory(np.frombuffer(other_state, np.uint8), np.frombuffer(state, np.uint8))


def _magnitudes(config):
    return run_memory(config).magnitudes


def test_threads_running_memory_at_once_match_sequential_runs():
    """Two threads each write their trials' words into their own generator;
    one generator shared by both would draw from the other's streams."""
    configs = [_memory_config(shape, 2000) for shape in ("plain", "pulsed")] * 3
    sequential = [_magnitudes(config) for config in configs]
    with ThreadPoolExecutor(2) as pool:
        concurrent = list(pool.map(_magnitudes, configs))
    for expected, got in zip(sequential, concurrent):
        assert np.array_equal(got, expected)


def _stub_toggle_times(rng, *args, **kwargs):
    """`_toggle_times` of one trial on a stub ``rng``, which ignores the state words."""
    return _toggle_times(rng, memoryview(bytearray(32)), _zero_words(1), 32, *args, **kwargs)


def _zero_words(trials):
    """All-zero state words of ``trials`` trials, laid out as `run_memory` lays them out."""
    return np.zeros((trials, 2, 2), np.uint64)


class _NegativeThenFine:
    def __init__(self):
        self.calls = 0

    def standard_normal(self, out):
        self.calls += 1
        out[:] = -1e9 if self.calls <= 2 else 0.0


def test_interval_rejection_resamples():
    rng = _NegativeThenFine()
    value = _stub_toggle_times(rng, 2e-3, 0.25, 1)
    assert value == pytest.approx(2e-3)
    assert rng.calls == 3


class _Sequence:
    """Stub stream: the given normals in order, then zeros."""

    def __init__(self, normals):
        self.normals = list(normals)

    def standard_normal(self, out):
        head, self.normals = self.normals[:len(out)], self.normals[len(out):]
        out[:] = head + [0.0] * (len(out) - len(head))


def test_intervals_run_until_their_sum_passes_the_horizon():
    # 2 ms + 2 ms lands exactly on a 4 ms horizon, which is not past it
    flips = _stub_toggle_times(_Sequence([]), 2e-3, 0.25, horizon=4e-3)
    assert np.diff(flips[0], prepend=0.0) == pytest.approx([2e-3] * 3)
    # several rows, each a row of normals, needing from 4 to 9 flips: each
    # row is its own flips, then its first flip past the horizon repeated
    normals = np.random.default_rng(0).uniform(-2.0, 2.0, (6, 32))
    flips = _toggle_times(_Sequence(normals.ravel().tolist()), memoryview(bytearray(32)), _zero_words(6),
                          32, 2e-3, 0.25, horizon=9.1e-3)
    sums = np.cumsum(2e-3 * (1.0 + 0.25 * normals), axis=1)
    need = (sums <= 9.1e-3).sum(axis=1) + 1
    assert len(set(need.tolist())) > 2 and flips.shape == (6, need.max())
    for row, scalar, n in zip(flips, sums, need):
        assert np.array_equal(row[:n], scalar[:n])
        assert np.all(row[n:] == scalar[n - 1])


def _one_at_a_time(rng, mean, spread, count=None, horizon=math.inf):
    """The intervals drawn one scalar normal at a time, resampling non-positive ones."""
    out = []
    while (len(out) < count) if count is not None else (sum(out) <= horizon):
        value = mean * (1.0 + spread * rng.standard_normal())
        if value > 0.0:
            out.append(value)
    return np.array(out)


def _drawn_one_at_a_time(rng, mean, spread, count=None, horizon=math.inf):
    """A row as `_toggle_times` hands it out, drawn one value at a time: the
    ``count`` intervals, or the flip times up to the first past ``horizon``."""
    intervals = _one_at_a_time(rng, mean, spread, count, horizon)
    return intervals if count is not None else np.cumsum(intervals)


def _state_words(seed, start, stop):
    """The state words of trials ``start`` to ``stop - 1``, a ``(2, 2)`` row a
    trial, as `run_memory` lays them out."""
    return _stream_generator()[2](_trial_streams(seed, start, stop))


@pytest.mark.parametrize("spread", [0.25, 1.5])
def test_block_draws_equal_one_at_a_time_draws(spread):
    """Same stream, same intervals, or flip times up to a horizon; at spread
    1.5 a quarter of the draws are rejected, runs of them span blocks, and
    the horizon falls mid-block."""
    rng, state, _ = _stream_generator()
    words = _state_words(9, 0, 40)
    for k in range(40):
        for count, horizon in ((50, math.inf), (None, 60e-3), (None, 1e-4)):
            block = _toggle_times(rng, state, words[k:k + 1], 32,
                                  2e-3, spread, count, horizon)[0]
            scalar = _drawn_one_at_a_time(np.random.default_rng((9, k)), 2e-3, spread, count, horizon)
            assert np.array_equal(block, scalar)


@pytest.mark.parametrize("spread", [0.0, 0.25, 1.5])
@pytest.mark.parametrize("count, horizon", [(50, math.inf), (None, 60e-3)], ids=["count", "horizon"])
@pytest.mark.parametrize("chunk, width", [(1, 64), (32, 64), (32, 8)], ids=["1", "32", "32-short"])
def test_chunked_draws_equal_one_at_a_time_draws(spread, count, horizon, chunk, width):
    """Each row of a chunk holds its trial's intervals, or its flips up to a
    horizon, then repeats of its last flip up to the chunk's widest row.  70
    trials end in a partial chunk; at width 8 every chunk runs short and is
    drawn again."""
    trials = 70
    rng, state, _ = _stream_generator()
    words = _state_words(5, 0, trials)
    for start in range(0, trials, chunk):
        block = range(start, min(start + chunk, trials))
        drawn = _toggle_times(rng, state, words[block.start:block.stop], width, 2e-3, spread,
                              count, horizon)
        expected = [_drawn_one_at_a_time(np.random.default_rng((5, k)), 2e-3, spread, count, horizon)
                    for k in block]
        assert drawn.shape == (len(block), max(map(len, expected)))
        for row, scalar in zip(drawn, expected):
            assert np.array_equal(row[:len(scalar)], scalar)
            assert np.all(row[len(scalar):] == scalar[-1])


@pytest.mark.parametrize("cycles", [1, 2, 30])
def test_pulsed_width_rows_equal_one_at_a_time_draws(cycles, monkeypatch):
    """Rows drawn at `experiments._pulsed_width` hold each trial's flips up
    to its first past a horizon of 1, 2 or 30 toggle cycles, then repeats of
    that one, as drawing one value at a time from ``default_rng((4, k))``
    gives them, in one draw.  The same chunk forced to start short, at one
    normal a trial, is drawn again, wider, to the same rows."""
    mean, spread, trials = 2e-3, 0.25, 300
    horizon = cycles * 2 * mean
    width = experiments._pulsed_width(horizon, mean, spread)
    expected = [np.cumsum(_one_at_a_time(np.random.default_rng((4, k)), mean, spread, horizon=horizon))
                for k in range(trials)]
    widths = _recording_draws(monkeypatch)
    rng, state, _ = _stream_generator()
    words = _state_words(4, 0, trials)
    for start in (width, 1):
        widths.clear()
        flips = experiments._toggle_times(rng, state, words, start, mean, spread, None, horizon)
        if start == width:
            assert widths == [width]   # drawn once
        else:
            assert widths[:2] == [1, 2]   # drawn again, twice as wide
        assert flips.shape == (trials, max(map(len, expected)))
        for row, scalar in zip(flips, expected):
            assert np.array_equal(row[:len(scalar)], scalar)
            assert np.all(row[len(scalar):] == scalar[-1])


def _oracle_memory_magnitudes(config):
    acc = 0.0
    for k in range(config.trials):
        rng = np.random.default_rng((config.seed, k))
        if config.bang_bang:
            intervals = _one_at_a_time(rng, config.mean_interval, config.interval_spread,
                                       horizon=max(config.observation_times))
        else:
            intervals = _one_at_a_time(rng, config.mean_interval, config.interval_spread,
                                       count=2 * max(config.cycle_counts()))
        schedule, snapshots = memory_trial_schedule(config, intervals)
        acc = acc + simulate_amplitudes(schedule, snapshots)
    return np.abs(acc / config.trials)


def _default_rng_streams(seed, start, stop):
    """`_trial_streams` read from ``default_rng((seed, k)).bit_generator.state``."""
    words = np.array([_as_words(*_default_rng_stream(seed, k)) for k in range(start, stop)], dtype=np.uint64)
    return np.ascontiguousarray(words.reshape(-1, 4).T)


def _on_numpy_streams(monkeypatch):
    """Patch `_trial_streams` onto `_default_rng_streams`; returns the list of
    trials it has given out, so a test can tell that a run reached it."""
    given = []

    def streams(seed, start, stop):
        given.extend(range(start, stop))
        return _default_rng_streams(seed, start, stop)

    monkeypatch.setattr(experiments, "_trial_streams", streams)
    return given


def _as_words(state, inc):
    mask = 2**64 - 1
    return [[state >> 64, state & mask], [inc >> 64, inc & mask]]


@pytest.mark.parametrize("overrides", [
    {},
    {"interval_spread": 0.1, "trials": 40},
    {"bang_bang": True, "pulse_spacing": 0.5e-3},
    {"bang_bang": True, "pulse_spacing": 1e-4, "observation_times": (4e-3, 12e-3, 60e-3)},
])
def test_run_memory_matches_the_schedule_oracle(overrides, monkeypatch):
    """The batched walk against memory_trial_schedule + simulate_amplitudes,
    on the same (seed, k) streams drawn one normal at a time.  The walk's
    arithmetic differs from the oracle's in the last digits; the streams
    must not differ at all, so the run equals, bit for bit, the run on
    numpy's own per-trial generators."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = base_memory(**overrides)
    curve = run_memory(config)
    assert np.max(np.abs(curve.magnitudes - _oracle_memory_magnitudes(config))) < 1e-12
    given = _on_numpy_streams(monkeypatch)
    assert np.array_equal(run_memory(config).magnitudes, curve.magnitudes)
    assert given == list(range(config.trials))


@pytest.mark.parametrize("overrides", [{}, {"bang_bang": True, "pulse_spacing": 0.5e-3}],
                         ids=["plain", "pulsed"])
def test_draw_width_never_changes_a_result(overrides, monkeypatch):
    """Starting each chunk's draw at 1, 32 or 256 normals a trial gives the
    run's own result bit for bit.  At spread 0.25 a value is skipped about
    once in 30,000 draws; here trial 1072, the last, skips its eleventh, in a
    partial chunk."""
    assert np.random.default_rng((1, 1072)).standard_normal(11)[10] <= -4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = base_memory(interval_spread=0.25, trials=1073,
                             observation_times=tuple(4e-3 * k for k in range(1, 11)), **overrides)
    runs = [run_memory(config).magnitudes]
    for block in (1, 32, 256):
        _recording_draws(monkeypatch, lambda chunk, width, block=block: block)
        runs.append(run_memory(config).magnitudes)
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])


# entries a kernel call may hold: one trial a call, the default, a whole stream block a call
ENTRY_BUDGETS = [1, experiments._CHUNK_EVENTS, _STREAM_BLOCK * MAX_TRIAL_EVENTS]
TRANSMISSION_SHAPES = {
    "free": {},
    "locked": {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 0.3e-3},
    "random-phase": {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 0.3e-3,
                     "random_train_phase": True},
}
MEMORY_SHAPES = {"plain": {}, "pulsed": {"bang_bang": True, "pulse_spacing": 0.5e-3},
                 "plain-short": {"observation_times": (4e-3, 8e-3, 12e-3)}}


def _memory_config(shape, trials):
    params = {"observation_times": tuple(4e-3 * k for k in range(1, 11)), **MEMORY_SHAPES[shape]}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return base_memory(trials=trials, **params)


@pytest.mark.parametrize("shape", sorted(TRANSMISSION_SHAPES))
def test_transmission_does_not_depend_on_the_entries_per_call(shape, monkeypatch):
    """8,197 trials cross a stream block's edge."""
    config = base_transmission(trials=_STREAM_BLOCK + 5, **TRANSMISSION_SHAPES[shape])
    runs = []
    for budget in ENTRY_BUDGETS:
        monkeypatch.setattr(experiments, "_CHUNK_EVENTS", budget)
        runs.append(run_transmission(config).amplitudes)
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])


@pytest.mark.parametrize("shape", sorted(MEMORY_SHAPES))
def test_memory_does_not_depend_on_the_entries_per_call(shape, monkeypatch):
    """The sum over trials runs in trial order whatever the rows per call;
    1,000 trials end in a partial chunk.  A plain chunk of one trial takes
    `toggle_walk`'s cumsum and one of 1,000 rows its column adds: at the
    widest budget with 10 cycles a trial, and at the default one too with the
    3 of "plain-short" (and 10 cycles in 409 rows)."""
    config = _memory_config(shape, 1000)
    runs = []
    for budget in ENTRY_BUDGETS:
        monkeypatch.setattr(experiments, "_CHUNK_EVENTS", budget)
        runs.append(run_memory(config).magnitudes)
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])


def _recording_walk(monkeypatch):
    """Patch both walks to record each call's trials and entries a trial.
    A `train_walk` trial holds its toggles and its snapshots' results; the
    train and the snapshot times are one row that all its trials share."""
    calls = []

    def recording_toggle(j, cycles, at):
        calls.append(cycles.shape)
        return toggle_walk(j, cycles, at)

    def recording_train(j, toggles, train, snapshots, shift=0.0):
        calls.append((len(toggles), toggles.shape[1] + len(snapshots)))
        return train_walk(j, toggles, train, snapshots, shift)

    monkeypatch.setattr(experiments, "toggle_walk", recording_toggle)
    monkeypatch.setattr(experiments, "train_walk", recording_train)
    return calls


@pytest.mark.parametrize("budget", [100, experiments._CHUNK_EVENTS])
def test_each_kernel_call_holds_at_most_the_entry_budget(budget, monkeypatch):
    """A call holds at most the budget's entries, or one trial."""
    monkeypatch.setattr(experiments, "_CHUNK_EVENTS", budget)
    calls = _recording_walk(monkeypatch)
    for shape in TRANSMISSION_SHAPES.values():
        run_transmission(base_transmission(trials=_STREAM_BLOCK + 5, **shape))
    run_memory(_memory_config("plain", 300))
    run_memory(_memory_config("pulsed", 300))
    assert all(trials * entries <= budget or trials == 1 for trials, entries in calls)


def _oracle_rows(toggles, pulses, snapshots):
    """`simulate_amplitudes` a trial at a time: each row's toggles, pulses
    and ascending read times, in a schedule whose window ends at the row's
    last event or read."""
    return np.array([simulate_amplitudes(_trial_schedule(J_REF, row, train, max(reads[-1], *row, *train)), reads)
                     for row, train, reads in zip(toggles, pulses, snapshots)])


@pytest.mark.parametrize("spread, cycles", [
    pytest.param(0.0, range(1, 26), id="0.0"),
    pytest.param(0.25, range(1, 26), id="0.25"),
    pytest.param(0.25, (1, 3, 9, 25), id="0.25-skipping-cycles"),
])
def test_toggle_walk_meets_the_oracle_on_plain_memory_flips(spread, cycles):
    """Intervals as a plain memory run draws them, paired into cycles as it
    pairs them and read after ``cycles``, at flips 2 k - 1: within 1e-12 of
    the oracle on their running sums, trial by trial.  Seed 1's trials
    1040-1072 hold trial 1072, which skips its eleventh draw at spread 0.25."""
    rng, state, _ = _stream_generator()
    intervals = _toggle_times(rng, state, _state_words(1, 1040, 1073), 64, 2e-3, spread, 50)
    flips = np.cumsum(intervals, axis=1)
    cycles = np.array(cycles)
    walked = toggle_walk(J_REF, intervals[:, 0::2] - intervals[:, 1::2], cycles - 1)
    assert np.max(np.abs(walked - _oracle_rows(flips, [()] * len(flips), flips[:, 2 * cycles - 1]))) < 1e-12


def test_toggle_walk_meets_the_oracle_on_transmission_rows():
    """Free transmission rows, toggles at noise_start and its end and the
    read at total_time, as the intervals up to each: within 1e-12 of the
    oracle, also where the second toggle lies on total_time or past it: the
    config's rounding slack lets it pass by a few ulps, and 1e-13 s here.
    The walk takes that toggle clamped onto total_time and the oracle where
    it lies, so the clamp must keep it from counting.  The walk takes the
    toggle cycle, the interval up to the window less the window, and the
    lone interval on to the read."""
    start, total = 1e-3, 1e-3 + 2 * PI / J_REF
    ends = start + (0.0 + (2 * PI / J_REF) * _next_doubles(_trial_streams(7, 0, 1000)))
    ends = np.concatenate((ends, [start, np.nextafter(total, 0.0), total, total + 1e-13]))
    starts, totals = np.full(len(ends), start), np.full((len(ends), 1), total)
    clamped = np.minimum(ends, total)
    walked = toggle_walk(J_REF, np.stack((starts - (clamped - starts), totals[:, 0] - clamped), axis=1), (1,))
    expected = _oracle_rows(np.stack((starts, ends), axis=1), [()] * len(ends), totals)
    assert np.max(np.abs(walked - expected)) < 1e-12


@pytest.mark.parametrize("random_phase", [False, True])
def test_train_walk_meets_the_oracle_on_transmission_rows(random_phase):
    """Pulsed transmission rows as a run draws them, in the shape of
    transmission_pulsed.json, also where the second toggle lies on
    noise_start, just before total_time, on it or past it (the config's
    rounding slack lets it pass by a few ulps, and 1e-13 s here): `train_walk` on
    the clamped toggles, the shared train and its shifts, within 1e-12 of
    the oracle on the unclamped toggles and each trial's own train."""
    config = TransmissionConfig(j=J_REF, total_time=8.5e-3, noise_start=1e-3, trials=1, seed=1,
                                bang_bang=True, pulse_spacing=0.3e-3, random_train_phase=random_phase)
    start, total, spacing = config.noise_start, config.total_time, config.pulse_spacing
    streams = _trial_streams(7, 0, 1004)
    ends = start + (0.0 + (2 * PI / J_REF) * _next_doubles(streams))
    ends[-4:] = start, np.nextafter(total, 0.0), total, total + 1e-13
    shift = 0.0 + spacing * _next_doubles(streams) if random_phase else 0.0
    train = start + np.arange(config.pulse_count()) * spacing
    starts = np.full(len(ends), start)
    walked = train_walk(J_REF, np.stack((starts, np.minimum(ends, total)), axis=1),
                        PulseTrain(train), np.array([total]), shift)
    pulses = np.broadcast_to(train + np.reshape(shift, (-1, 1)), (len(ends), len(train)))
    expected = _oracle_rows(np.stack((starts, ends), axis=1), pulses, np.full((len(ends), 1), total))
    assert np.max(np.abs(walked - expected)) < 1e-12


def _pulsed_memory_rows(mean, horizon, trials):
    """Toggles as a pulsed memory run draws them (seed 1, spread 0.25), rows
    padded past the horizon with their first flip after it, and the 0.5 ms
    train up to the horizon."""
    rng, state, _ = _stream_generator()
    width = experiments._pulsed_width(horizon, mean, 0.25)
    toggles = _toggle_times(rng, state, _state_words(1, 0, trials), width, mean, 0.25, None, horizon)
    assert (toggles[:, -1] > horizon).all() and (toggles[:, -1] == toggles[:, -2]).any()
    return toggles, experiments._memory_train(0.5e-3, horizon)


def test_train_walk_meets_the_oracle_on_pulsed_memory_rows():
    """300 trials in the shape of memory_pulsed.json, about 30 toggles under
    a 120-pulse train read on every 8th pulse: within 1e-12 of the oracle,
    trial by trial, the padding included."""
    toggles, train = _pulsed_memory_rows(2e-3, 60e-3, 300)
    snapshots = train[7::8]
    walked = train_walk(J_REF, toggles, PulseTrain(train), snapshots)
    expected = _oracle_rows(toggles, [train] * len(toggles), [snapshots] * len(toggles))
    assert np.max(np.abs(walked - expected)) < 1e-12


def test_train_walk_meets_toggle_walk_on_a_49400_pulse_train():
    """8 trials of about 500 toggles under a 49,400-pulse train up to 24.7 s,
    where the oracle takes a third of a second a trial.  Toggles and pulses
    both reverse the switching function, so a row's toggles and pulses,
    merged in a stable sort, are one row of `toggle_walk`.  The reads, at
    pulse 8 j + 7, fall inside its toggle cycles, so each interval between
    events is a cycle of its own, paired with an empty one: the walk is the
    running sum of the row's signed intervals.  After seven pulses of a
    train cycle sigma is -1 and E is -1 (three y pulses), so
    ``a = -conj(toggle_walk)``, to 1e-14."""
    toggles, train = _pulsed_memory_rows(0.05, 24.7, 8)
    walked = train_walk(J_REF, toggles, PulseTrain(train), train[7::8])
    merged = np.concatenate((toggles, np.broadcast_to(train, (len(toggles), len(train)))), axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    merged = np.take_along_axis(merged, order, axis=1)
    # where each read pulse's column sorted to, a row at a time
    reads = np.argsort(order, axis=1)[:, toggles.shape[1] + np.arange(7, len(train), 8)]
    signed = np.diff(merged, axis=1, prepend=0.0)
    signed[:, 1::2] *= -1.0
    expected = -np.conj([toggle_walk(J_REF, row[None], at)[0] for row, at in zip(signed, reads)])
    assert np.max(np.abs(walked - expected)) < 1e-14


def _recording_draws(monkeypatch, first=None):
    """Patch `_toggle_times` to record the width of each draw of a chunk.
    ``first(chunk, width)``, given the chunk's number from 0 and the run's
    width, gives the width of the chunk's first draw in place of the run's."""
    widths, chunks = [], []

    def recording(rng, state, words, width, *args):
        if not chunks or words is not chunks[-1]:   # a chunk drawn again passes the same words
            chunks.append(words)
            if first is not None:
                width = first(len(chunks) - 1, width)
        widths.append(width)
        return _toggle_times(rng, state, words, width, *args)

    monkeypatch.setattr(experiments, "_toggle_times", recording)
    return widths


def test_plain_memory_draws_each_chunk_once(monkeypatch):
    """A plain run knows how many flips a trial needs before any draw, 50
    here, so it draws one normal more, 51.  At spread 0.1 no value is
    skipped, so no chunk is drawn again."""
    draws = _recording_draws(monkeypatch)
    calls = _recording_walk(monkeypatch)
    run_memory(base_memory(interval_spread=0.1, trials=300,
                           observation_times=tuple(4e-3 * k for k in range(1, 26))))
    assert len(calls) > 1
    assert draws == [51] * len(calls)
    # a call holds the 25 cycles of 50 flips a trial, in the rows 50 flips give
    assert calls[0] == (experiments._CHUNK_EVENTS // 50, 25) == (163, 25)


def test_pulsed_memory_draws_each_chunk_once(monkeypatch):
    """A pulsed run draws until the horizon, about 30 flips in the shape of
    memory_pulsed.json; it draws six standard deviations of their count more
    and one, 40, so its first chunk is not drawn again at twice the width."""
    draws = _recording_draws(monkeypatch)
    calls = _recording_walk(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = base_memory(trials=300, observation_times=tuple(4e-3 * k for k in range(1, 16)),
                             bang_bang=True, pulse_spacing=0.5e-3)
    run_memory(config)
    assert len(calls) > 1
    assert draws == [40] * len(calls)
    # a call holds 40 drawn flips and 15 snapshots a trial, not the 120-pulse train as well
    assert calls[0][0] == experiments._CHUNK_EVENTS // (40 + 15) == 148


@pytest.mark.parametrize("shape", ["memory", "locked", "random-phase"])
def test_pulsed_memory_hands_its_walk_one_train(shape, monkeypatch):
    """A pulsed run, memory or transmission, passes `train_walk` the train
    and the read times as one row each, never a copy a trial, with a random
    train phase as a shift a trial, and never calls `toggle_walk`."""
    calls = []

    def recording(j, toggles, train, snapshots, shift=0.0):
        calls.append((train.times.shape, snapshots.shape, np.shape(shift), len(toggles)))
        return train_walk(j, toggles, train, snapshots, shift)

    def free(*args):
        raise AssertionError("a pulsed run called toggle_walk")

    monkeypatch.setattr(experiments, "train_walk", recording)
    monkeypatch.setattr(experiments, "toggle_walk", free)
    if shape == "memory":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = base_memory(trials=300, observation_times=tuple(4e-3 * k for k in range(1, 16)),
                                 bang_bang=True, pulse_spacing=0.5e-3)
        run_memory(config)
        expected = (120,), (15,)
    else:
        config = base_transmission(trials=_STREAM_BLOCK + 5, **TRANSMISSION_SHAPES[shape])
        run_transmission(config)
        expected = (config.pulse_count(),), (1,)
    assert len(calls) > 1
    assert all((train, snapshots) == expected for train, snapshots, _, _ in calls)
    assert all(shift == ((rows,) if shape == "random-phase" else ()) for _, _, shift, rows in calls)


@pytest.mark.parametrize("shape", ["memory", "locked", "random-phase"])
def test_a_pulsed_run_builds_its_train_once(shape, monkeypatch):
    """A 250-trial pulsed memory run and a 5,000-trial pulsed transmission
    run walk two chunks each, and both chunks walk one `PulseTrain`, built
    once before the first."""
    built, walked = [], []

    class CountedTrain(PulseTrain):
        __slots__ = ()

        def __init__(self, times):
            built.append(self)
            super().__init__(times)

    def recording(j, toggles, train, snapshots, shift=0.0):
        walked.append(train)
        return train_walk(j, toggles, train, snapshots, shift)

    monkeypatch.setattr(experiments, "PulseTrain", CountedTrain)
    monkeypatch.setattr(experiments, "train_walk", recording)
    if shape == "memory":
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            run_memory(base_memory(trials=250, observation_times=tuple(4e-3 * k for k in range(1, 16)),
                                   bang_bang=True, pulse_spacing=0.5e-3))
    else:
        run_transmission(base_transmission(trials=5000, **TRANSMISSION_SHAPES[shape]))
    assert len(built) == 1 and len(walked) == 2
    assert all(train is built[0] for train in walked)


# 16 cycles need 32 flips a trial; seed 1's trial 1072 skips its eleventh draw
SIXTEEN_CYCLES = {"trials": 1500, "observation_times": tuple(4e-3 * k for k in range(1, 17))}


def test_a_power_of_two_flip_count_draws_each_chunk_once(monkeypatch):
    """A plain run draws its 32 flips and one normal more, so the chunk of
    trial 1072, which skips one value, is drawn once like the other five."""
    assert np.random.default_rng((1, 1072)).standard_normal(11)[10] <= -4
    draws = _recording_draws(monkeypatch)
    calls = _recording_walk(monkeypatch)
    run_memory(base_memory(**SIXTEEN_CYCLES))
    assert len(calls) == 6
    assert draws == [33] * 6


def test_a_chunk_drawn_again_leaves_the_next_chunk_at_the_run_width(monkeypatch):
    """The chunk of trial 1072, trials 1024-1279, forced to start at 32
    normals a trial, runs short and is drawn again at 64; the chunk after it
    starts at the run's 33 again."""
    draws = _recording_draws(monkeypatch, lambda chunk, width: 32 if chunk == 4 else width)
    calls = _recording_walk(monkeypatch)
    run_memory(base_memory(**SIXTEEN_CYCLES))
    assert len(calls) == 6
    assert draws == [33] * 4 + [32, 64, 33]


@pytest.mark.parametrize("shape", sorted(TRANSMISSION_SHAPES))
def test_a_transmission_run_peaks_at_one_block_derivation(shape):
    """20,000 trials, three stream blocks, peak under 1.2 MB of tracemalloc:
    one block's derivation (about 0.723 MB, `_trial_streams`; a block's
    draw peaks as high), plus the run's 20,000 complex amplitudes (0.32 MB),
    plus, with a random train phase, the block's windows, held while its
    offsets are drawn (8,192 doubles, 0.066 MB), is 1.109 MB.  A run that
    held the previous block's streams, draws or time array through the next
    derivation read 1.31 MB."""
    config = base_transmission(trials=20_000, **TRANSMISSION_SHAPES[shape])
    tracemalloc.start()
    try:
        run_transmission(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.2e6


def test_a_pulsed_memory_run_peaks_at_one_block_derivation():
    """memory_pulsed.json's shape at 20,000 trials, three stream blocks, peaks
    under 0.8 MB of tracemalloc: one block's derivation (about 0.723 MB,
    `_trial_streams`; laying a block out holds its streams and its words,
    2 x 0.262 MB, and peaks lower), plus at most one chunk's amplitudes
    (148 trials x 15 reads, 0.036 MB), plus the train and the sums, a few
    kB, is about 0.76 MB.  A run that held the previous block's streams or
    words (8,192 x 32 B, 0.262 MB) through the next derivation read 0.99 MB."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = base_memory(trials=20_000, observation_times=tuple(4e-3 * k for k in range(1, 16)),
                             bang_bang=True, pulse_spacing=0.5e-3)
    _stream_generator()   # the thread's generator, built once, is not the run's
    tracemalloc.start()
    try:
        run_memory(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.8e6


def test_transmission_at_the_event_limit_stays_small():
    """A train of MAX_TRIAL_EVENTS pulses is one row that all trials share,
    so the kernel's temporaries are a few train-long arrays, not a chunk of
    them."""
    with pytest.warns(FieldWarning, match="ends before the noise window"):
        config = base_transmission(bang_bang=True, pulse_spacing=4e-8, pulses_per_trial=MAX_TRIAL_EVENTS)
    tracemalloc.start()
    try:
        run_transmission(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


@pytest.mark.parametrize("params, field", [
    ({"noise_start": 3.52e13, "total_time": 5.28e13}, "total_time"),
    ({"noise_start": 2.2e12, "total_time": 3.3e12}, "total_time"),
    ({"j": 2 * PI * 1e300}, "total_time"),
    ({"noise_start": 1.5e12, "total_time": 1.5e12 + 1e-2, "bang_bang": True, "pulse_spacing": 0.3e-3},
     "total_time"),
    ({"j": 2 * PI * 1e9, "bang_bang": True, "pulse_spacing": 2e-14}, "pulse_spacing"),
], ids=["0.59-ulps", "9.5-ulps", "huge-j", "train", "spacing"])
def test_a_window_or_spacing_lost_in_rounding_is_refused(params, field):
    """A trial's times and phase round on the grid of total_time.  A window
    0.59 of its ulps long read |grand average| 0.979 over 400,000 trials
    against the law's 0, and one of 9.5 ulps 0.0102, six standard errors;
    j_hz 1e300 read 1; a locked train 1.2 ulps apart read 0.923 against the
    sinc's 0.993.  Each is refused, at the field to change."""
    with pytest.raises(FieldError, match="rounding at total_time") as refused:
        base_transmission(**params)
    assert refused.value.field == field


@pytest.mark.parametrize("params, message", [
    ({"j": 2 * PI * 1e13, "total_time": 1.00000000000005e-3}, "must fit before total_time"),
    ({"j": 2 * PI * 1e13, "total_time": 1.00000000005e-3}, "must fit before total_time"),
    ({"total_time": 1e-3 + 24 * 0.3e-3 - 5e-13, "bang_bang": True, "pulse_spacing": 0.3e-3}, "does not fit"),
], ids=["every-window", "half-window", "train"])
def test_a_window_or_train_past_total_time_is_refused(params, message):
    """An absolute 1e-12 s of slack let a 1e-13 s window (j_hz 1e13) end
    ten windows past total_time, where the run clamps it onto the read:
    100,000 trials read |grand average| 0.99999999917 with every window
    clamped, and 0.5917 with total_time half a window after noise_start,
    against the law's 0, and exited 0; a train could end 1e-12 s past the
    read as well.  The slack is now a few ulps of total_time."""
    with pytest.raises(FieldError, match=message) as refused:
        base_transmission(noise_start=1e-3, trials=100_000, **params)
    assert refused.value.field == "total_time"


def test_a_window_ending_on_total_time_runs():
    """1e-3 s + 1 / 5000 Hz is 1.2e-3 s, but noise_start + 2 pi / j rounds
    to an ulp past total_time; the rounding slack lets that window run."""
    config = base_transmission(j=2 * PI * 5000.0, noise_start=1e-3, total_time=1.2e-3, trials=20_000)
    assert config.noise_start + 2 * PI / config.j > config.total_time
    assert abs(run_transmission(config).grand_average) < 4 / math.sqrt(config.trials)


def test_a_window_of_enough_ulps_runs_unbiased():
    """At total_time 1e9 s the 4.64 ms window spans 39,000 ulps, over the
    31,623 that hold the rounding bias to a tenth of the least standard
    error a run can have, and runs to the law's 0 within four standard
    errors; at 1.1e9 s it spans 19,500 and is refused."""
    config = base_transmission(noise_start=1e-3, total_time=1e9, trials=20_000)
    assert abs(run_transmission(config).grand_average) < 4 / math.sqrt(config.trials)
    with pytest.raises(FieldError, match="rounding at total_time"):
        base_transmission(total_time=1.1e9)


def test_memory_config_needs_three_observation_times():
    """The decay fit needs three points; a shorter config is refused before any run."""
    for times in ((4e-3,), (4e-3, 8e-3)):
        with pytest.raises(ValueError, match="at least 3"):
            base_memory(observation_times=times)


@pytest.mark.parametrize("overrides", [
    {},
    {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 0.3e-3},
    {"total_time": 9e-3, "bang_bang": True, "pulse_spacing": 0.3e-3, "random_train_phase": True},
    {"remove_trivial_phase": False},
])
def test_run_transmission_matches_the_schedule_oracle(overrides, monkeypatch):
    """As for memory: within 1e-12 of the oracle, and bit for bit the run on
    numpy's own per-trial streams, which it must have drawn every trial from.
    numpy's own draws, walked as the run walks its rows, give the run's
    amplitudes bit for bit, so the run's arithmetic on its draws is pinned
    too, not only within the oracle's 1e-12."""
    config = base_transmission(**overrides)
    result = run_transmission(config)
    trivial = np.exp(-0.5j * J_REF * config.total_time) if config.remove_trivial_phase else 1.0
    deltas, offsets = [], []
    for k, amp in enumerate(result.amplitudes):
        rng = np.random.default_rng((config.seed, k))
        delta = rng.uniform(0.0, 2 * PI / J_REF)
        offset = rng.uniform(0.0, config.pulse_spacing) if config.random_train_phase else 0.0
        schedule = transmission_schedule(config, delta, offset)
        expected = simulate_amplitudes(schedule, [config.total_time])[0] * trivial
        assert abs(amp - expected) < 1e-12
        deltas.append(delta)
        offsets.append(offset)
    start, total, n = config.noise_start, config.total_time, config.trials
    times = np.stack((np.full(n, start), np.minimum(start + np.array(deltas), total), np.full(n, total)), axis=1)
    if config.bang_bang:
        train = PulseTrain(start + np.arange(config.pulse_count()) * config.pulse_spacing)
        shift = np.array(offsets) if config.random_train_phase else 0.0
        walked = train_walk(J_REF, times[:, :2], train, np.array([total]), shift)[:, 0]
    else:
        # the cycle, up to the window less the window, then on to the read
        cycles = np.stack((start - (times[:, 1] - start), total - times[:, 1]), axis=1)
        walked = toggle_walk(J_REF, cycles, (1,))[:, 0]
    assert np.array_equal(walked * trivial, result.amplitudes)
    given = _on_numpy_streams(monkeypatch)
    assert np.array_equal(run_transmission(config).amplitudes, result.amplitudes)
    assert given == list(range(config.trials))


@pytest.mark.parametrize("shape", ["locked", "random-phase"])
def test_transmission_schedule_toggle_axes_change_no_bit(shape):
    """The builder's toggles run x then -x, on the cycle; a schedule built by
    hand with both about x gives the oracle's amplitudes bit for bit, also
    for the shortest and the longest window."""
    config = base_transmission(**TRANSMISSION_SHAPES[shape])
    draws = [(0.0, 0.0), (2 * PI / J_REF, 0.0)]
    for k in range(config.trials):
        rng = np.random.default_rng((config.seed, k))
        delta = rng.uniform(0.0, 2 * PI / J_REF)
        draws.append((delta, rng.uniform(0.0, config.pulse_spacing) if config.random_train_phase else 0.0))
    for delta, offset in draws:
        events = [PulseEvent(0.0, 1, "y", PI / 2), PulseEvent(config.noise_start, 2, "x", PI),
                  PulseEvent(config.noise_start + delta, 2, "x", PI)]
        events += [PulseEvent(config.noise_start + offset + k * config.pulse_spacing, 1, axis, PI)
                   for k, axis in enumerate(cyclic_axes(config.pulse_count()))]
        events.sort(key=lambda ev: ev.time)
        by_hand = PulseSchedule(CouplingSystem(J_REF), tuple(events), config.total_time)
        built = transmission_schedule(config, delta, offset)
        assert (simulate_amplitudes(built, [config.total_time]).tobytes()
                == simulate_amplitudes(by_hand, [config.total_time]).tobytes())


# ---------------------------------------------------------------------------
# per-trial random streams
# ---------------------------------------------------------------------------

def _default_rng_stream(seed, k):
    state = np.random.default_rng((seed, k)).bit_generator.state["state"]
    return state["state"], state["inc"]


def _as_ints(streams):
    state_hi, state_lo, inc_hi, inc_lo = (a.tolist() for a in streams)
    return [(sh << 64 | sl, ih << 64 | il)
            for sh, sl, ih, il in zip(state_hi, state_lo, inc_hi, inc_lo)]


def _uniform_draws(config, trials):
    """Window lengths and train offsets drawn by numpy, one generator a trial."""
    windows, offsets = [], []
    for k in trials:
        rng = np.random.default_rng((config.seed, k))
        windows.append(rng.uniform(0.0, 2 * PI / config.j))
        offsets.append(rng.uniform(0.0, config.pulse_spacing) if config.random_train_phase else 0.0)
    return np.array(windows), np.array(offsets)


# one to six entropy words: 2**128 + 7 has five seed words, so with k six,
# which runs SeedSequence's mixing loop for words past its pool of four
STREAM_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 + 5, 2**128 + 7]


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_streams_equal_default_rng(seed):
    for start in (0, 2**32 - 64):
        expected = [_default_rng_stream(seed, k) for k in range(start, start + 64)]
        assert _as_ints(_trial_streams(seed, start, start + 64)) == expected


@settings(max_examples=200, deadline=None, derandomize=True)
@given(seed=st.one_of(st.sampled_from(STREAM_SEEDS), st.integers(0, 2**200)),
       k=st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1)))
def test_trial_streams_equal_default_rng_at_random(seed, k):
    assert _as_ints(_trial_streams(seed, k, k + 1)) == [_default_rng_stream(seed, k)]


def test_trial_streams_are_uint64_rows():
    streams = _trial_streams(1, 0, 5)
    assert streams.dtype == np.uint64
    assert streams.shape == (4, 5)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_generate_state_equals_seed_sequence(seed):
    for k in (0, 1, 2**32 - 1):
        expected = np.random.SeedSequence((seed, k)).generate_state(4, np.uint64)
        assert np.array_equal(_generate_state(seed, k, k + 1)[:, 0], expected)


@pytest.mark.parametrize("seed", STREAM_SEEDS)
def test_trial_streams_equal_default_rng_over_a_full_block(seed):
    """One call derives a whole block; its first and last trials and some between."""
    ks = [0, 1, 2, 1000, 4095, 4096, _STREAM_BLOCK // 2 + 1, _STREAM_BLOCK - 2, _STREAM_BLOCK - 1]
    streams = _trial_streams(seed, 0, _STREAM_BLOCK)
    assert _as_ints(streams[:, ks]) == [_default_rng_stream(seed, k) for k in ks]


@pytest.mark.parametrize("seed", [1, 2**128 + 7], ids=["one-word", "five-word"])
def test_a_stream_block_peaks_under_its_budget(seed):
    """A whole block's derivation peaks under 0.92 MB of tracemalloc, about
    90 B a trial; a five-word seed also mixes the words past the pool."""
    tracemalloc.start()
    try:
        _trial_streams(seed, 0, _STREAM_BLOCK)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 0.92e6


def test_trial_states_run_across_stream_blocks():
    """`_walk_chunks` draws blocks of `_STREAM_BLOCK` trials, the last one
    short, and walks chunks of the budget's share of trials, cut short where
    a stream block ends; the words it walks are numpy's own."""
    trials = _STREAM_BLOCK + 5
    rng, state, layout = _stream_generator()
    expected = layout(_default_rng_streams(3, 0, trials))
    for events, rows in ((256, 32), (75, 109), (1, experiments._CHUNK_EVENTS)):
        blocks = []

        def draw(streams):
            blocks.append(streams.shape[1])
            return layout(streams)

        chunks = list(experiments._walk_chunks(3, trials, events, draw, lambda words: words))
        assert blocks == [_STREAM_BLOCK, 5]
        assert all(len(words) <= rows for _, words in chunks)
        assert len(chunks) == -(-_STREAM_BLOCK // rows) + 1
        firsts = np.cumsum([0] + [len(words) for _, words in chunks])
        assert [first for first, _ in chunks] == firsts[:-1].tolist()
        words = np.concatenate([words for _, words in chunks])
        assert words.tobytes() == expected.tobytes()
    # a generator set to derived words draws what default_rng draws
    state[:] = words[-1].tobytes()
    assert np.array_equal(rng.standard_normal(40),
                          np.random.default_rng((3, trials - 1)).standard_normal(40))


def test_walk_chunks_frees_a_block_before_deriving_the_next(monkeypatch):
    """When `_walk_chunks` derives a block's streams, neither the last block's
    streams nor the rows drawn from them are alive."""
    derive, held = experiments._trial_streams, []

    def streams(seed, start, stop):
        assert all(ref() is None for ref in held)
        block = derive(seed, start, stop)
        held.append(weakref.ref(block))
        return block

    def draw(block):
        rows = block.T.copy()
        held.append(weakref.ref(rows))
        return rows

    monkeypatch.setattr(experiments, "_trial_streams", streams)
    walked = [first for first, _ in experiments._walk_chunks(3, 2 * _STREAM_BLOCK + 1, 3, draw,
                                                           lambda rows: rows.sum(axis=1))]
    assert len(held) == 6 and walked[-1] == 2 * _STREAM_BLOCK


def _laid_out(words, layout):
    """``[[state_hi, state_lo], [inc_hi, inc_lo]]`` as the 32 bytes of a generator's state view."""
    return layout(np.array(words, np.uint64).reshape(4, 1)).tobytes()


def test_state_view_reads_numpy_state():
    """The view reads the probe state numpy's own setter wrote, and a state
    set later, as ``[[state_hi, state_lo], [inc_hi, inc_lo]]``."""
    rng, state, layout = experiments._new_stream_generator()
    probe = rng.bit_generator.state["state"]
    assert bytes(state) == _laid_out(_as_words(probe["state"], probe["inc"]), layout)
    rng.bit_generator.state = np.random.default_rng((3, 7)).bit_generator.state
    assert bytes(state) == _laid_out(_as_words(*_default_rng_stream(3, 7)), layout)


_RANDOM_WORDS = random.Random(27)
STATE_WORDS = [(0, 0), (2**128 - 1, 2**128 - 1)] + [
    (_RANDOM_WORDS.getrandbits(128), _RANDOM_WORDS.getrandbits(128)) for _ in range(6)]


@pytest.mark.parametrize("value, inc", STATE_WORDS)
def test_bytes_copied_into_the_view_read_back_as_numpy_sets_them(value, inc):
    """A state and increment laid out in the view's order and copied in as
    32 bytes read back through numpy's getter exactly as numpy's own setter
    writes them: random words, and all-zero and all-ones ones, whose halves
    show no word order."""
    rng, state, layout = experiments._new_stream_generator()
    state[:] = _laid_out(_as_words(value, inc), layout)
    expected = np.random.Generator(np.random.PCG64())
    expected.bit_generator.state = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                                    "state": {"state": value, "inc": inc}}
    assert rng.bit_generator.state == expected.bit_generator.state
    assert rng.bit_generator.state["state"] == {"state": value, "inc": inc}


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**128 + 7])
def test_written_words_give_default_rng_state_and_draws(seed):
    """Trial k's words written into the reused generator give, through numpy's
    own getter, exactly ``default_rng((seed, k))``'s state, the buffered
    32-bit half included, before and after 64 normals; and the same normals."""
    ks = [0, 1, _STREAM_BLOCK - 1, _STREAM_BLOCK, _STREAM_BLOCK + 1]
    rng, state, _ = _stream_generator()
    words = _state_words(seed, 0, ks[-1] + 1)
    for k in ks:
        expected = np.random.default_rng((seed, k))
        state[:] = words[k].tobytes()
        assert rng.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(rng.standard_normal(64), expected.standard_normal(64))
        assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("random_phase", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**128 + 7])
def test_transmission_draws_equal_per_trial_uniforms(seed, random_phase):
    """The uniforms `run_transmission` computes from a trial's stream, as numpy does."""
    config = base_transmission(seed=seed, total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3,
                               random_train_phase=random_phase)
    for trials in (range(0, 2000), range(4090, 4100)):
        streams = _trial_streams(seed, trials.start, trials.stop)
        windows = 0.0 + (2 * PI / config.j) * _next_doubles(streams)
        offsets = 0.0 + config.pulse_spacing * _next_doubles(streams) if random_phase else np.zeros(len(trials))
        expected_windows, expected_offsets = _uniform_draws(config, trials)
        assert np.array_equal(windows, expected_windows)
        assert np.array_equal(offsets, expected_offsets)


@pytest.mark.parametrize("spacing", [1e-5, 2e-5, 5e-5, 1e-4, 2e-4])
def test_memory_train_stays_inside_the_horizon(spacing):
    """(k + 1) * spacing rounds past 60 ms for these spacings; the last
    pulse must sit on the horizon instead."""
    cfg = base_memory(observation_times=(4e-3, 8e-3, 60e-3), bang_bang=True, pulse_spacing=spacing)
    sched, _ = memory_trial_schedule(cfg, np.full(31, 2e-3))
    train = [ev.time for ev in sched.events if ev.target == 1 and ev.angle == PI]
    assert len(train) == round(60e-3 / spacing)
    assert train[-1] == 60e-3


@pytest.fixture(scope="module")
def alpha_grid_curves():
    """Decay curves over the spread grid at full trial count (shared: slow)."""
    times = tuple(4e-3 * k for k in range(1, 26))
    return {
        spread: run_memory(MemoryConfig(
            j=J_REF, mean_interval=2e-3, interval_spread=spread,
            observation_times=times, trials=10_000, seed=1))
        for spread in (0.10, 0.15, 0.20, 0.25)
    }


def test_memory_decay_is_exponential(alpha_grid_curves):
    """ln magnitude vs time is linear (R^2 > 0.99) over 20..100 ms."""
    for spread, curve in alpha_grid_curves.items():
        keep = curve.times >= 20e-3
        t = curve.times[keep]
        y = np.log(curve.magnitudes[keep])
        design = np.stack([t, np.ones_like(t)], axis=1)
        coef, *_ = np.linalg.lstsq(design, y, rcond=None)
        ss_res = float(np.sum((design @ coef - y) ** 2))
        ss_tot = float(np.sum((y - y.mean()) ** 2))
        r2 = 1.0 - ss_res / ss_tot
        assert r2 > 0.99, f"spread {spread}: R^2 = {r2:.5f}"


def test_memory_rate_scales_with_spread_squared(alpha_grid_curves):
    """1 / T2 is proportional to the squared spread within 10 percent."""
    consts = []
    for spread, curve in alpha_grid_curves.items():
        assert curve.fit.decaying
        consts.append(1.0 / (curve.fit.t2 * spread**2))
    spread_rel = (max(consts) - min(consts)) / np.mean(consts)
    assert spread_rel < 0.10, f"relative spread {spread_rel:.3f}"


def test_memory_matches_closed_form_decay(alpha_grid_curves):
    for spread, curve in alpha_grid_curves.items():
        predicted = dephasing_time(J_REF, spread, 2e-3)
        assert curve.fit.t2 == pytest.approx(predicted, rel=0.05)


# ---------------------------------------------------------------------------
# fitting
# ---------------------------------------------------------------------------

def test_fit_exponential_exact():
    t = np.linspace(0.004, 0.1, 10)
    fit = fit_exponential(t, np.exp(-t / 0.05))
    assert fit.decaying
    assert fit.t2 == pytest.approx(0.05, abs=1e-9)
    assert fit.intercept == pytest.approx(0.0, abs=1e-12)
    assert fit.residual < 1e-12
    assert fit.n_used == 10
    assert fit.magnitude(0.05) == pytest.approx(math.exp(-1.0))


def test_fit_exponential_floor_and_errors():
    t = np.linspace(0.0, 0.5, 12)
    m = np.exp(-t / 0.05)  # tail dips below the floor
    fit = fit_exponential(t, m)
    assert fit.n_used == int(np.sum(m > 0.02))
    assert fit.t2 == pytest.approx(0.05, abs=1e-9)
    with pytest.raises(ValueError, match="at least 3"):
        fit_exponential([1.0, 2.0, 3.0], [0.5, 0.01, 0.01])
    with pytest.raises(ValueError, match="matching shapes"):
        fit_exponential([1.0, 2.0], [0.5, 0.4, 0.3])


def test_run_memory_leaves_a_decay_in_noise_unfitted():
    """At this coupling every magnitude is Monte Carlo noise, below the
    floor: the curve comes back with its magnitudes and no fit."""
    curve = run_memory(base_memory(j=2 * PI * 1.6e159, interval_spread=0.1, trials=20000))
    assert curve.fit is None
    assert np.all((curve.magnitudes > 0) & (curve.magnitudes <= experiments.FIT_FLOOR))


def test_fit_exponential_flags_non_decay():
    t = np.linspace(0.0, 1.0, 8)
    flat = fit_exponential(t, np.full(8, 0.7))
    assert not flat.decaying and flat.t2 == math.inf
    rising = fit_exponential(t, np.exp(+t / 2.0) / 3.0)
    assert not rising.decaying and rising.t2 == math.inf


def test_fit_exponential_refuses_non_finite_times():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="times must be finite"):
            fit_exponential([0.0, bad, 2.0], [0.5, 0.4, 0.3])


@pytest.mark.parametrize("bad, floor", [(math.inf, FIT_FLOOR), (0.0, -1.0), (-0.1, -1.0)])
def test_fit_exponential_refuses_kept_magnitudes_that_are_not_positive_and_finite(bad, floor):
    with pytest.raises(ValueError, match="must be positive and finite"):
        fit_exponential([0.0, 1.0, 2.0], [0.5, bad, 0.3], floor=floor)


def test_fit_exponential_refuses_a_nan_magnitude():
    """NaN > floor is False, so a floor alone would fit the other three
    points and hide the hole; the error names the NaN's time instead."""
    with pytest.raises(ValueError, match=r"must not be NaN, got NaN at times \[1\.\]"):
        fit_exponential([0.0, 1.0, 2.0, 3.0], [0.5, math.nan, 0.3, 0.2])


def test_fit_exponential_of_one_time_is_flat_at_the_mean_log():
    """No slope fits a window of one time: the fit is flat, through the
    geometric mean of the magnitudes, not a minimum-norm line."""
    fit = fit_exponential([1.0, 1.0, 1.0], [0.5, 0.4, 0.3])
    assert not fit.decaying and fit.t2 == math.inf
    assert fit.intercept == pytest.approx(np.log([0.5, 0.4, 0.3]).mean(), rel=1e-15)
    assert fit.magnitude(1.0) == pytest.approx(0.06 ** (1 / 3), rel=1e-15)
    assert fit.residual == pytest.approx(np.log([0.5, 0.4, 0.3]).std(), rel=1e-15)


@pytest.mark.parametrize("scale", [1e-170, 1e300])
def test_fit_exponential_does_not_depend_on_the_unit_of_time(scale):
    """A config may set its mean interval anywhere a float reaches, so the
    fit must give the same line in any unit: the squares of tiny or huge
    times would under- or overflow, and lstsq's rank cutoff drops a column
    of its design there."""
    t = 4e-3 * np.arange(1, 26)
    m = np.exp(0.1 - t / 0.05 + 0.05 * np.sin(7 * np.arange(25)))
    fit, scaled = fit_exponential(t, m), fit_exponential(t * scale, m)
    assert scaled.decaying and scaled.t2 == pytest.approx(fit.t2 * scale, rel=1e-12)
    assert scaled.intercept == pytest.approx(fit.intercept, rel=1e-12)
    assert scaled.residual == pytest.approx(fit.residual, rel=1e-12)


def _lstsq_fit(t, m):
    """Slope, intercept and RMS residual of the log-linear fit by LAPACK's
    least squares over the points above the floor, with those points and
    the condition number of the design."""
    keep = m > FIT_FLOOR
    t, y = t[keep], np.log(m[keep])
    design = np.stack([t, np.ones_like(t)], axis=1)
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.sqrt(np.mean((design @ coef - y) ** 2)))
    return coef[0], coef[1], residual, t, y, float(np.linalg.cond(design))


def _exact_fit(t, y):
    """Slope, intercept and RMS residual of the least-squares line through
    the float points ``(t, y)``, exact: each float is an integer over a power
    of two, so over the largest such power every sum below is an integer."""
    def integers(values):
        ratios = [float(v).as_integer_ratio() for v in values]
        scale = max(q for _, q in ratios)
        return [p * (scale // q) for p, q in ratios], scale

    (ti, t_scale), (yi, y_scale) = integers(t), integers(y)
    n, t_sum, y_sum = len(ti), sum(ti), sum(yi)
    # n times the centred sums of squares and products of the integers
    sxx = n * sum(a * a for a in ti) - t_sum**2
    syy = n * sum(b * b for b in yi) - y_sum**2
    sxy = n * sum(a * b for a, b in zip(ti, yi)) - t_sum * y_sum
    slope = Fraction(sxy * t_scale, sxx * y_scale)
    intercept = Fraction(y_sum, n * y_scale) - slope * Fraction(t_sum, n * t_scale)
    square = Fraction(syy * sxx - sxy**2, n**2 * sxx * y_scale**2)
    return float(slope), float(intercept), math.sqrt(square)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(n=st.integers(3, 200), seed=st.integers(0, 2**32 - 1), start=st.floats(0.0, 0.1),
       step=st.floats(1e-5, 1e-2), even=st.booleans(), t2=st.floats(1e-3, 10.0),
       log_m0=st.floats(math.log(FIT_FLOOR), 1.0), noise=st.floats(0.0, 0.5))
def test_fit_exponential_matches_lstsq(n, seed, start, step, even, t2, log_m0, noise):
    """The closed form against an lstsq reference and the exact line, on
    noisy decays that start near or above the floor and cross it.  Each
    quantity agrees with lstsq to 1e-12 relative, or to 1e-12 of its
    roundoff scale times the design's condition number, which bounds
    lstsq's own error: ``|y| / |t - mean t|`` for the slope, and ``|y|`` plus
    the slope's scale times the latest time for the intercept and the
    residual, whose roundoff the rounded mean time sets.  Closely spaced times far from zero make a design of
    condition number up to about 1e5, where lstsq strays further than the
    closed form does from the exact line."""
    rng = np.random.default_rng(seed)
    gaps = np.full(n, step) if even else step * rng.uniform(0.1, 2.0, n)
    t = start + np.cumsum(gaps)
    m = np.exp(log_m0 - t / t2 + noise * rng.standard_normal(n))
    assume(np.count_nonzero(m > FIT_FLOOR) >= 3)
    slope, intercept, residual, t_kept, y, cond = _lstsq_fit(t, m)
    fit = fit_exponential(t, m)
    y_scale = float(np.max(np.abs(y)))
    slope_scale = float(np.linalg.norm(y) / np.linalg.norm(t_kept - t_kept.mean()))
    line_scale = y_scale + slope_scale * float(t_kept.max())
    tol = 1e-12 * cond
    assert fit.n_used == len(y)
    assert fit.decaying == (slope * (t_kept.max() - t_kept.min()) <= -1e-12)
    if fit.decaying:
        assert -1.0 / fit.t2 == pytest.approx(slope, rel=1e-12, abs=tol * slope_scale)
    assert fit.intercept == pytest.approx(intercept, rel=1e-12, abs=tol * line_scale)
    assert fit.residual == pytest.approx(residual, rel=1e-12, abs=tol * line_scale)
    # and within 32 units of roundoff (2**-52 of each scale) of the exact line
    slope, intercept, residual = _exact_fit(t_kept, y)
    ulps = 32 * 2.0**-52
    if fit.decaying:
        assert -1.0 / fit.t2 == pytest.approx(slope, rel=ulps, abs=ulps * slope_scale)
    assert fit.intercept == pytest.approx(intercept, abs=ulps * line_scale)
    assert fit.residual == pytest.approx(residual, abs=ulps * line_scale)


@pytest.mark.parametrize("overrides", [{}, {"bang_bang": True, "pulse_spacing": 0.5e-3}])
def test_run_memory_makes_no_linalg_call(overrides, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("np.linalg called on the run path")

    for name in np.linalg.__all__:
        if not isinstance(getattr(np.linalg, name), type):   # LinAlgError stays
            monkeypatch.setattr(np.linalg, name, refuse)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = base_memory(**overrides)
    curve = run_memory(config)
    assert curve.fit is not None and curve.fit.decaying
