import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from dephasim import (
    FieldError,
    MemoryConfig,
    TransmissionConfig,
    bang_bang_dephasing_time,
    bang_bang_retention,
    bang_bang_retention_fixed_start,
    decay_contrast,
    dephasing_time,
    fit_exponential,
    four_case_phase,
    interval_noise_retention,
    memory_trial_schedule,
    partial_trace_env,
    phase_walk,
    run_memory,
    run_transmission,
    simulate_amplitudes,
    simulate_schedule,
    transmission_schedule,
    transverse_amplitude,
)
from dephasim import experiments
from dephasim.experiments import (
    MAX_TRIAL_EVENTS,
    MAX_TRIALS,
    _DRAW_BLOCK,
    _STREAM_BLOCK,
    _generate_state,
    _stream_generator,
    _toggle_times,
    _transmission_draws,
    _trial_streams,
    _trial_words,
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


def test_closed_forms_at_extreme_values():
    """Squares that overflow give inf rather than an OverflowError, and
    products that round to zero give inf rather than a zero division."""
    assert interval_noise_retention(1e160, 2e-3, 0.25) == 0.0
    assert dephasing_time(1e160, 0.25, 2e-3) == 0.0
    assert dephasing_time(J_REF, 5e-324, 2e-3) == math.inf
    assert decay_contrast(0.5, 1.0, 5e-324) == math.inf
    assert bang_bang_dephasing_time(1e-320, 1e-5, 2e-3) == math.inf


def test_decay_contrast():
    assert decay_contrast(0.5, 0.5, 0.2) == 0.0
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
    explicit = base_transmission(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3,
                                 pulses_per_trial=16)
    assert explicit.pulse_count() == 16
    with pytest.raises(ValueError, match="pulses_per_trial"):
        base_transmission(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3,
                          pulses_per_trial=0)


def test_transmission_schedule_layout():
    cfg = base_transmission(total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3)
    delta = 2.2e-3
    sched = transmission_schedule(cfg, delta, train_offset=1e-4)
    prep = sched.events[0]
    assert (prep.time, prep.target, prep.axis, prep.angle) == (0.0, 1, "y", PI / 2)
    flips = [ev for ev in sched.events if ev.target == 2]
    assert [ev.time for ev in flips] == [cfg.noise_start, cfg.noise_start + delta]
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
    a = run_memory(base_memory())
    b = run_memory(base_memory())
    assert np.array_equal(a.magnitudes, b.magnitudes)
    assert a.fit == b.fit
    c = run_memory(base_memory(seed=3))
    assert not np.array_equal(a.magnitudes, c.magnitudes)


def _stub_toggle_times(rng, *args, **kwargs):
    """`_toggle_times` of one trial on a stub ``rng``, which ignores the state words."""
    return _toggle_times(rng, np.empty((2, 2), np.uint64), np.zeros((1, 2, 2), np.uint64),
                         _DRAW_BLOCK, *args, **kwargs)


class _NegativeThenFine:
    def __init__(self):
        self.calls = 0

    def standard_normal(self, out):
        self.calls += 1
        out[:] = -1e9 if self.calls <= 2 else 0.0


def test_interval_rejection_resamples():
    rng = _NegativeThenFine()
    value, width = _stub_toggle_times(rng, 2e-3, 0.25, 1)
    assert value == pytest.approx(2e-3)
    assert rng.calls == 3
    assert width == 4 * _DRAW_BLOCK


class _Sequence:
    """Stub stream: the given normals in order, then zeros."""

    def __init__(self, normals):
        self.normals = list(normals)

    def standard_normal(self, out):
        head, self.normals = self.normals[:len(out)], self.normals[len(out):]
        out[:] = head + [0.0] * (len(out) - len(head))


def test_intervals_run_until_their_sum_passes_the_horizon():
    # 2 ms + 2 ms lands exactly on a 4 ms horizon, which is not past it
    flips, _ = _stub_toggle_times(_Sequence([]), 2e-3, 0.25, horizon=4e-3)
    assert np.diff(flips[0], prepend=0.0) == pytest.approx([2e-3] * 3)


def _one_at_a_time(rng, mean, spread, count=None, horizon=math.inf):
    """The intervals drawn one scalar normal at a time, resampling non-positive ones."""
    out = []
    while (len(out) < count) if count is not None else (sum(out) <= horizon):
        value = mean * (1.0 + spread * rng.standard_normal())
        if value > 0.0:
            out.append(value)
    return np.array(out)


class _Counted:
    """A stream that counts the normals drawn from it."""

    def __init__(self, rng):
        self.rng, self.draws = rng, 0

    def standard_normal(self):
        self.draws += 1
        return self.rng.standard_normal()


def _all_trial_words(seed, trials):
    return np.concatenate(list(_trial_words(seed, trials, 32)))


@pytest.mark.parametrize("spread", [0.25, 1.5])
def test_block_draws_equal_one_at_a_time_draws(spread):
    """Same stream, same intervals; at spread 1.5 a quarter of the draws are
    rejected, runs of them span blocks, and the horizon falls mid-block."""
    rng, state = _stream_generator()
    words = _all_trial_words(9, 40)
    for k in range(40):
        for count, horizon in ((50, math.inf), (None, 60e-3), (None, 1e-4)):
            block = _toggle_times(rng, state, words[k:k + 1], _DRAW_BLOCK,
                                  2e-3, spread, count, horizon)[0][0]
            scalar = np.cumsum(_one_at_a_time(np.random.default_rng((9, k)), 2e-3, spread, count, horizon))
            assert np.array_equal(block, scalar)


@pytest.mark.parametrize("spread", [0.0, 0.25, 1.5])
@pytest.mark.parametrize("count, horizon", [(50, math.inf), (None, 60e-3)], ids=["count", "horizon"])
@pytest.mark.parametrize("chunk, width", [(1, 64), (32, 64), (32, 8)], ids=["1", "32", "32-short"])
def test_chunked_draws_equal_one_at_a_time_draws(spread, count, horizon, chunk, width):
    """Each row of a chunk holds its trial's flips, then repeats of its last
    one up to the chunk's widest row.  70 trials end in a partial chunk; at
    width 8 every chunk runs short and is drawn again.  The width that comes
    back is the first doubling at which no trial needs more normals."""
    trials = 70
    rng, state = _stream_generator()
    words = _all_trial_words(5, trials)
    for block in experiments._blocks(trials, chunk):
        flips, drawn = _toggle_times(rng, state, words[block.start:block.stop], width,
                                     2e-3, spread, count, horizon)
        streams = [_Counted(np.random.default_rng((5, k))) for k in block]
        expected = [np.cumsum(_one_at_a_time(stream, 2e-3, spread, count, horizon)) for stream in streams]
        needed = width
        while needed < max(stream.draws for stream in streams):
            needed *= 2
        assert drawn == needed
        assert flips.shape == (len(block), max(map(len, expected)))
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


def _default_rng_words(seed, trials, rows):
    """`_trial_words` read from ``default_rng((seed, k)).bit_generator.state``."""
    for chunk in experiments._blocks(trials, rows):
        yield np.array([_as_words(*_default_rng_stream(seed, k)) for k in chunk], dtype=np.uint64)


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
    monkeypatch.setattr(experiments, "_trial_words", _default_rng_words)
    assert np.array_equal(run_memory(config).magnitudes, curve.magnitudes)


@pytest.mark.parametrize("overrides", [{}, {"bang_bang": True, "pulse_spacing": 0.5e-3}],
                         ids=["plain", "pulsed"])
def test_draw_width_never_changes_a_result(overrides, monkeypatch):
    """Starting to draw at 1, 32 or 256 normals a trial gives the same run
    bit for bit.  At spread 0.25 a value is skipped about once in 30,000
    draws; here trial 1072, the last, skips its eleventh, in a partial chunk."""
    assert np.random.default_rng((1, 1072)).standard_normal(11)[10] <= -4
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = base_memory(interval_spread=0.25, trials=1073,
                             observation_times=tuple(4e-3 * k for k in range(1, 11)), **overrides)
    runs = []
    for block in (1, 32, 256):
        monkeypatch.setattr(experiments, "_DRAW_BLOCK", block)
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
MEMORY_SHAPES = {"plain": {}, "pulsed": {"bang_bang": True, "pulse_spacing": 0.5e-3}}


def _memory_config(shape, trials):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return base_memory(trials=trials, observation_times=tuple(4e-3 * k for k in range(1, 11)),
                           **MEMORY_SHAPES[shape])


@pytest.mark.parametrize("shape", sorted(TRANSMISSION_SHAPES))
def test_transmission_does_not_depend_on_the_entries_per_call(shape, monkeypatch):
    """4,101 trials cross a stream block's edge."""
    config = base_transmission(trials=_STREAM_BLOCK + 5, **TRANSMISSION_SHAPES[shape])
    runs = []
    for budget in ENTRY_BUDGETS:
        monkeypatch.setattr(experiments, "_CHUNK_EVENTS", budget)
        runs.append(run_transmission(config).amplitudes)
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])


@pytest.mark.parametrize("shape", sorted(MEMORY_SHAPES))
def test_memory_does_not_depend_on_the_entries_per_call(shape, monkeypatch):
    """The sum over trials runs in the same groups whatever the rows per call;
    1,000 trials end in a partial group."""
    config = _memory_config(shape, 1000)
    runs = []
    for budget in ENTRY_BUDGETS:
        monkeypatch.setattr(experiments, "_CHUNK_EVENTS", budget)
        runs.append(run_memory(config).magnitudes)
    assert all(np.array_equal(run, runs[0]) for run in runs[1:])


def _recording_walk(monkeypatch):
    """Patch the kernel to record each call's trials and entries a trial."""
    calls = []

    def recording(j, toggles, pulses, signs, snapshots):
        calls.append((len(snapshots), toggles.shape[1] + pulses.shape[1] + snapshots.shape[1]))
        return phase_walk(j, toggles, pulses, signs, snapshots)

    monkeypatch.setattr(experiments, "phase_walk", recording)
    return calls


@pytest.mark.parametrize("budget", [100, experiments._CHUNK_EVENTS])
def test_each_kernel_call_holds_at_most_the_entry_budget(budget, monkeypatch):
    """A call holds at most the budget's entries, or one trial.  A pulsed
    memory row holds the toggles its trial drew before the horizon, padded
    to the widest row of its call, while rows are sized on their mean
    number; so those calls get a tenth of slack."""
    monkeypatch.setattr(experiments, "_CHUNK_EVENTS", budget)
    calls = _recording_walk(monkeypatch)
    for shape in TRANSMISSION_SHAPES.values():
        run_transmission(base_transmission(trials=_STREAM_BLOCK + 5, **shape))
    run_memory(_memory_config("plain", 300))
    assert all(trials * entries <= budget or trials == 1 for trials, entries in calls)
    calls.clear()
    run_memory(_memory_config("pulsed", 300))
    assert all(trials * entries <= 1.1 * budget or trials == 1 for trials, entries in calls)


def _recording_draws(monkeypatch):
    """Patch `_toggle_times` to record the width of each draw of a chunk."""
    widths = []

    def recording(rng, state, words, width, *args):
        widths.append(width)
        return _toggle_times(rng, state, words, width, *args)

    monkeypatch.setattr(experiments, "_toggle_times", recording)
    return widths


def test_plain_memory_draws_each_chunk_once(monkeypatch):
    """A plain run knows how many normals a trial needs before any draw, so it
    starts at the first doubling of `_DRAW_BLOCK` that holds them: 50 here.
    At spread 0.1 no value is skipped, so no chunk is drawn again."""
    draws = _recording_draws(monkeypatch)
    calls = _recording_walk(monkeypatch)
    run_memory(base_memory(interval_spread=0.1, trials=300,
                           observation_times=tuple(4e-3 * k for k in range(1, 26))))
    assert len(calls) > 1
    assert len(draws) == len(calls)


def test_pulsed_memory_draws_each_chunk_once(monkeypatch):
    """A pulsed run draws until the horizon, about 30 flips in the shape of
    memory_pulsed.json; it starts at the first doubling of `_DRAW_BLOCK` that
    holds half as many again and one more, 64, so its first chunk is not drawn
    again at twice the width."""
    draws = _recording_draws(monkeypatch)
    calls = _recording_walk(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        config = base_memory(trials=300, observation_times=tuple(4e-3 * k for k in range(1, 16)),
                             bang_bang=True, pulse_spacing=0.5e-3)
    run_memory(config)
    assert len(calls) > 1
    assert draws == [64] * len(calls)


def test_transmission_at_the_event_limit_stays_small():
    """A trial of MAX_TRIAL_EVENTS pulses walks alone, so the kernel's
    temporaries are a few trial-long arrays, not a chunk of them."""
    config = base_transmission(bang_bang=True, pulse_spacing=4e-8, pulses_per_trial=MAX_TRIAL_EVENTS)
    tracemalloc.start()
    try:
        run_transmission(config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10e6


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
    numpy's own per-trial draws."""
    config = base_transmission(**overrides)
    result = run_transmission(config)
    trivial = np.exp(-0.5j * J_REF * config.total_time) if config.remove_trivial_phase else 1.0
    for k, amp in enumerate(result.amplitudes):
        rng = np.random.default_rng((config.seed, k))
        delta = rng.uniform(0.0, 2 * PI / J_REF)
        offset = rng.uniform(0.0, config.pulse_spacing) if config.random_train_phase else 0.0
        schedule = transmission_schedule(config, delta, offset)
        expected = simulate_amplitudes(schedule, [config.total_time])[0] * trivial
        assert abs(amp - expected) < 1e-12
    monkeypatch.setattr(experiments, "_transmission_draws",
                        lambda config, start, stop: _uniform_draws(config, range(start, stop)))
    assert np.array_equal(run_transmission(config).amplitudes, result.amplitudes)


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


@settings(max_examples=200, deadline=None)
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
    """Chunks of ``rows`` trials, cut short where a stream block ends."""
    trials = _STREAM_BLOCK + 5
    rng, state = _stream_generator()
    expected = np.concatenate(list(_default_rng_words(3, trials, 32)))
    for rows in (32, 109, 2 * _STREAM_BLOCK):
        chunks = list(_trial_words(3, trials, rows))
        assert all(len(words) <= rows for words in chunks)
        assert len(chunks) == -(-_STREAM_BLOCK // rows) + 1
        words = np.concatenate(chunks)
        assert np.array_equal(words, expected)
    # a generator set to derived words draws what default_rng draws
    state[:] = words[-1]
    assert np.array_equal(rng.standard_normal(40),
                          np.random.default_rng((3, trials - 1)).standard_normal(40))


def test_state_view_reads_numpy_state():
    """The view reads the probe state numpy's own setter wrote, and a state
    set later, as ``[[state_hi, state_lo], [inc_hi, inc_lo]]``."""
    rng, state = _stream_generator()
    probe = rng.bit_generator.state["state"]
    assert state.tolist() == _as_words(probe["state"], probe["inc"])
    rng.bit_generator.state = np.random.default_rng((3, 7)).bit_generator.state
    assert state.tolist() == _as_words(*_default_rng_stream(3, 7))


@pytest.mark.parametrize("seed", [0, 1, 2**32, 2**128 + 7])
def test_written_words_give_default_rng_state_and_draws(seed):
    """Trial k's words written into the reused generator give, through numpy's
    own getter, exactly ``default_rng((seed, k))``'s state, the buffered
    32-bit half included, before and after 64 normals; and the same normals."""
    ks = [0, 1, _STREAM_BLOCK - 1, _STREAM_BLOCK, _STREAM_BLOCK + 1]
    rng, state = _stream_generator()
    words = _all_trial_words(seed, ks[-1] + 1)
    for k in ks:
        expected = np.random.default_rng((seed, k))
        state[:] = words[k]
        assert rng.bit_generator.state == expected.bit_generator.state
        assert np.array_equal(rng.standard_normal(64), expected.standard_normal(64))
        assert rng.bit_generator.state == expected.bit_generator.state


@pytest.mark.parametrize("random_phase", [False, True])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3, 2**128 + 7])
def test_transmission_draws_equal_per_trial_uniforms(seed, random_phase):
    config = base_transmission(seed=seed, total_time=9e-3, bang_bang=True, pulse_spacing=0.3e-3,
                               random_train_phase=random_phase)
    for trials in (range(0, 2000), range(4090, 4100)):
        windows, offsets = _transmission_draws(config, trials.start, trials.stop)
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


def test_fit_exponential_flags_non_decay():
    t = np.linspace(0.0, 1.0, 8)
    flat = fit_exponential(t, np.full(8, 0.7))
    assert not flat.decaying and flat.t2 == math.inf
    rising = fit_exponential(t, np.exp(+t / 2.0) / 3.0)
    assert not rising.decaying and rising.t2 == math.inf
