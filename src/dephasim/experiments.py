"""Monte Carlo dephasing experiments on the coupled pair.

Two setups, mirroring how a classical bit next to the observed qubit
destroys its phase:

* transmission: the environment qubit is flipped up at a fixed time and
  back down after a random delay drawn uniformly from one full coupling
  period.  Averaged over trials the transverse amplitude vanishes unless
  a bang-bang pulse train refocuses the conditional phase.
* memory: the environment qubit is toggled at noisy regular intervals.
  The ensemble-average amplitude decays exponentially; closed forms for
  the per-cycle retention and the resulting dephasing time are provided
  for comparison.

Trials are statistically independent, each driven by its own RNG stream
derived from (seed, trial index), so results are reproducible bit for bit
and independent of execution order.
"""
from __future__ import annotations

import ctypes
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .pulse import (
    CouplingSystem,
    PulseEvent,
    PulseSchedule,
    cyclic_axes,
    phase_walk,
    pi_pulse_signs,
    simulate_amplitudes,  # noqa: F401  the oracle; bench/bench.py traces calls through this name
)

# Points at or below this magnitude are ignored by the exponential fit;
# they are dominated by Monte Carlo noise.
FIT_FLOOR = 0.02
# Most events (toggles and pulses) one trial may have; bounds what a config
# can ask the kernel to hold.  The sample configs need under 200.
MAX_TRIAL_EVENTS = 100_000
# Most trials one run may have; also keeps the trial index k to the one
# 32-bit entropy word that `_trial_streams` derives streams for.
MAX_TRIALS = 10_000_000
# Normals a memory trial draws at least; a run starts at the first doubling
# that holds the flips it expects, and doubles again while rows run short.
_DRAW_BLOCK = 32
# Trials x events entries a phase-walk call is sized for (a lone trial may hold more); bounds its arrays.
_CHUNK_EVENTS = 8192
# Memory trials summed as one group, whatever the rows per call; fixes the sum's order and last bits.
_SUM_TRIALS = 32
# Trials whose random streams are derived at a time; bounds the derivation's
# arrays, about 90 B a trial at their peak (0.72 MB a block).
_STREAM_BLOCK = 8192

PI = math.pi


class FieldError(ValueError):
    """A refused config.  ``field`` names the field to change; a rule over
    several fields names the one a user would change."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


class FieldWarning(UserWarning):
    """A config that runs, but whose ``field`` makes a closed form approximate."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


# ---------------------------------------------------------------------------
# configurations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransmissionConfig:
    """One-shot noise-window experiment.

    The environment qubit flips up at ``noise_start`` and back down a
    uniform random delay (one coupling period at most) later.  With
    ``bang_bang`` a train of pi pulses runs on the observed qubit from
    ``noise_start`` at ``pulse_spacing`` intervals; ``random_train_phase``
    shifts the whole train by a per-trial uniform offset inside one
    spacing, which is the regime where the squared retention factor
    applies.
    """

    j: float                 # coupling, rad/s
    total_time: float        # s
    noise_start: float       # s
    trials: int
    seed: int
    bang_bang: bool = False
    pulse_spacing: float | None = None
    pulses_per_trial: int | None = None
    random_train_phase: bool = False
    group_size: int = 16
    remove_trivial_phase: bool = True

    def __post_init__(self):
        _check_finite(j=self.j, total_time=self.total_time, noise_start=self.noise_start,
                      pulse_spacing=self.pulse_spacing)
        if not self.j > 0:
            raise FieldError("j", "coupling j must be positive")
        if not 0 < self.noise_start < self.total_time:
            raise FieldError("noise_start", "need 0 < noise_start < total_time")
        if self.noise_start + 2 * PI / self.j > self.total_time + 1e-12:
            raise FieldError("total_time", "noise window (one coupling period) must fit before total_time")
        _check_phase(self.j, self.total_time, "total_time")
        _check_trials(self.trials)
        if not 1 <= self.group_size <= MAX_TRIALS:
            raise FieldError("group_size", f"group_size must lie in [1, {MAX_TRIALS}]")
        if self.seed < 0:
            raise FieldError("seed", "seed must be a non-negative integer")
        if self.bang_bang:
            if self.pulse_spacing is None or not self.pulse_spacing > 0:
                raise FieldError("pulse_spacing", "bang_bang requires a positive pulse_spacing")
            if self.j * self.pulse_spacing >= 1.0:
                raise FieldError("pulse_spacing", "pulse train too sparse: need j * pulse_spacing < 1")
            n = self.pulse_count()
            counted = self.pulses_per_trial is not None
            if n > MAX_TRIAL_EVENTS:
                raise FieldError("pulses_per_trial" if counted else "pulse_spacing",
                                 f"pulse train exceeds the limit of {MAX_TRIAL_EVENTS} events a trial")
            if self.noise_start + n * self.pulse_spacing > self.total_time + 1e-12:
                raise FieldError("pulses_per_trial" if counted else "total_time",
                                 f"train of {n} pulses does not fit between noise_start and total_time")
        elif self.pulses_per_trial is not None:
            raise FieldError("pulses_per_trial", "pulses_per_trial only applies with bang_bang")
        elif self.pulse_spacing is not None:
            raise FieldError("pulse_spacing", "pulse_spacing only applies with bang_bang")
        elif self.random_train_phase:
            raise FieldError("random_train_phase", "random_train_phase only applies with bang_bang")

    def pulse_count(self) -> int:
        """Length of the pi-pulse train.

        Defaults to enough pulses to span the worst-case noise window,
        rounded up to a whole number of eight-pulse axis cycles.
        """
        if self.pulses_per_trial is not None:
            if self.pulses_per_trial < 1:
                raise FieldError("pulses_per_trial", "pulses_per_trial must be at least 1")
            return self.pulses_per_trial
        assert self.pulse_spacing is not None
        # capped, so that a subnormal spacing gives a count over the limit, not an overflow
        needed = math.ceil(min((2 * PI / self.j + self.pulse_spacing) / self.pulse_spacing - 1e-12,
                               2 * MAX_TRIAL_EVENTS))
        return ((needed + 7) // 8) * 8


@dataclass(frozen=True)
class MemoryConfig:
    """Repeated-toggling experiment with noisy intervals.

    The environment qubit flips every ``mean_interval * (1 + spread * xi)``
    seconds with standard normal ``xi``.  Observation times must be
    multiples of twice the mean interval (whole toggle cycles).  Without
    ``bang_bang`` each observation is taken after the corresponding number
    of flips; with it, a regular pi-pulse train runs on the observed qubit
    and observations happen at the wall-clock times themselves.
    """

    j: float
    mean_interval: float
    interval_spread: float   # relative std dev of the intervals
    observation_times: tuple[float, ...]
    trials: int
    seed: int
    bang_bang: bool = False
    pulse_spacing: float | None = None

    def __post_init__(self):
        object.__setattr__(self, "observation_times", tuple(float(t) for t in self.observation_times))
        _check_finite(j=self.j, mean_interval=self.mean_interval, interval_spread=self.interval_spread,
                      pulse_spacing=self.pulse_spacing, observation_times=self.observation_times)
        if not self.j > 0:
            raise FieldError("j", "coupling j must be positive")
        if not self.mean_interval > 0:
            raise FieldError("mean_interval", "mean_interval must be positive")
        if not 0.0 <= self.interval_spread <= 0.25:
            raise FieldError("interval_spread", "interval_spread must lie in [0, 0.25]")
        # the exponential fit of the decay needs three points
        if len(self.observation_times) < 3:
            raise FieldError("observation_times", "need at least 3 observation times")
        if self.bang_bang:
            if self.pulse_spacing is None or not self.pulse_spacing > 0:
                raise FieldError("pulse_spacing", "bang_bang requires a positive pulse_spacing")
            # the domain of bang_bang_dephasing_time, the run's closed form
            if not self.j * self.pulse_spacing < 2 * PI:
                raise FieldError("pulse_spacing", "pulse train too sparse: need j * pulse_spacing < 2 pi")
            if self.pulse_spacing >= self.interval_spread * self.mean_interval:
                # stacklevel 3: past the dataclass __init__, to the code that built the config
                warnings.warn(FieldWarning("pulse_spacing", "pulse_spacing is not small against the interval "
                                           "jitter; the closed-form retention factor becomes approximate"),
                              stacklevel=3)
        elif self.pulse_spacing is not None:
            raise FieldError("pulse_spacing", "pulse_spacing only applies with bang_bang")
        # toggles up to the horizon (their mean number with bang_bang) and the train
        horizon = max(self.observation_times)
        train = horizon / self.pulse_spacing if self.bang_bang else 0
        if horizon / self.mean_interval + train > MAX_TRIAL_EVENTS:
            raise FieldError("pulse_spacing" if train > MAX_TRIAL_EVENTS else "observation_times",
                             f"toggles and pulse train exceed the limit of {MAX_TRIAL_EVENTS} "
                             "events a trial")
        # with the train the snapshots are the observation times; without it
        # they are flips, where psi is an alternating sum of the intervals,
        # about half the horizon
        _check_phase(self.j, horizon, "observation_times")
        # the flips a trial draws pass the horizon by about one interval, and
        # twice the horizon only at odds below 1e-20 (a mean xi of 4 over at
        # least 6 draws); a chunk whose needed flip overflows is drawn again forever
        if not math.isfinite(2.0 * horizon):
            raise FieldError("observation_times", "observation times must stay below half the largest float")
        cycle = 2.0 * self.mean_interval
        prev = 0.0
        for t in self.observation_times:
            if t <= prev:
                raise FieldError("observation_times",
                                 "observation times must be positive and strictly increasing")
            n = t / cycle
            if round(n) < 1 or abs(n - round(n)) > 1e-9 * max(n, 1.0):
                raise FieldError("observation_times", f"observation time {t:.12g} is not a "
                                 f"multiple of one toggle cycle {cycle:.12g}")
            prev = t
        _check_trials(self.trials)
        if self.seed < 0:
            raise FieldError("seed", "seed must be a non-negative integer")

    def cycle_counts(self) -> tuple[int, ...]:
        cycle = 2.0 * self.mean_interval
        return tuple(int(round(t / cycle)) for t in self.observation_times)


def _check_finite(**values) -> None:
    """Refuse NaN and infinities; a tuple is checked entry by entry, None passes."""
    for name, value in values.items():
        entries = () if value is None else value if isinstance(value, tuple) else (value,)
        if not all(map(math.isfinite, entries)):
            raise FieldError(name, f"{name} must be finite")


def _check_trials(trials: int) -> None:
    if trials < 1:
        raise FieldError("trials", "trials must be at least 1")
    if trials > MAX_TRIALS:
        raise FieldError("trials", f"trials exceeds the limit of {MAX_TRIALS}")


def _check_phase(j: float, time: float, field: str) -> None:
    """Refuse a ``time`` at which the phase ``j * time / 2`` overflows.

    `phase_walk` returns ``exp(0.5j * j * psi)`` with ``|psi|`` at most the
    latest snapshot time, and the trivial-phase factor is
    ``exp(-0.5j * j * total_time)``; an infinite phase makes both NaN.
    """
    if not math.isfinite(0.5 * j * time):
        raise FieldError(field, f"phase j * {field} / 2 overflows")


# ---------------------------------------------------------------------------
# results
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Per-trial transverse amplitudes and their averages at one time."""

    amplitudes: np.ndarray        # complex, one entry per trial
    group_averages: np.ndarray    # complex, means of consecutive groups
    grand_average: complex
    observation_time: float

    def __post_init__(self):
        self.amplitudes.setflags(write=False)
        self.group_averages.setflags(write=False)


@dataclass(frozen=True)
class ExponentialFit:
    """Least-squares fit of ``ln m = -t / t2 + intercept``."""

    t2: float
    intercept: float
    residual: float    # RMS of the log residuals
    n_used: int
    decaying: bool

    def magnitude(self, t) -> np.ndarray:
        """Fitted magnitude at time(s) ``t``."""
        return np.exp(self.intercept - np.asarray(t, dtype=float) / self.t2)


@dataclass(frozen=True, eq=False)
class DecayCurve:
    """Grand-average magnitude versus observation time, with its fit."""

    times: np.ndarray
    magnitudes: np.ndarray
    fit: ExponentialFit

    def __post_init__(self):
        self.times.setflags(write=False)
        self.magnitudes.setflags(write=False)


# ---------------------------------------------------------------------------
# closed-form factors
# ---------------------------------------------------------------------------

def bang_bang_retention(j: float, spacing: float) -> float:
    """Coherence kept per noise window under a randomly phased pulse train.

    Both window edges fall uniformly inside a pulse interval, each costing
    a factor ``sin(x)/x`` with ``x = j * spacing / 2``; the product is the
    squared sinc.
    """
    x = _half_step(j, spacing)
    if x == 0.0:
        return 1.0
    return float((math.sin(x) / x) ** 2)


def bang_bang_retention_fixed_start(j: float, spacing: float) -> float:
    """Retention when the train starts exactly at the window opening.

    Only the trailing window edge is random, so a single sinc factor
    survives instead of its square.
    """
    x = _half_step(j, spacing)
    if x == 0.0:
        return 1.0
    return float(math.sin(x) / x)


def _half_step(j: float, spacing: float) -> float:
    if not j > 0:
        raise ValueError("coupling j must be positive")
    if spacing < 0:
        raise ValueError("spacing must be non-negative")
    return j * spacing / 2.0


def interval_noise_retention(j: float, mean_interval: float, spread: float) -> float:
    """Coherence kept per toggle cycle with Gaussian interval noise.

    One up/down cycle leaves the Gaussian characteristic function
    ``exp(-(j * mean_interval * spread)^2 / 4)``.
    """
    if not j > 0 or not mean_interval > 0:
        raise ValueError("coupling and mean_interval must be positive")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    x = j * mean_interval * spread
    # a product, not ** 2, so that a huge x gives inf and retention 0
    return float(math.exp(-(x * x) / 4.0))


def dephasing_time(j: float, spread: float, mean_interval: float) -> float:
    """Exponential time constant of the interval-noise decay.

    ``magnitude(t) = retention^(t / cycle)`` collapses to
    ``exp(-t / t2)`` with ``t2 = 8 / (j^2 spread^2 mean_interval)``.
    An infinitely long constant comes back for zero spread, or one whose
    rate rounds to zero; 0 comes back for a rate that overflows.
    """
    if not j > 0 or not mean_interval > 0:
        raise ValueError("coupling and mean_interval must be positive")
    if spread < 0:
        raise ValueError("spread must be non-negative")
    rate = j * j * (spread * spread) * mean_interval
    return 8.0 / rate if rate > 0 else math.inf


def bang_bang_dephasing_time(j: float, spacing: float, mean_interval: float) -> float:
    """Decay constant left over when the pulse train is running.

    From ``magnitude(t) = retention^(t / cycle)``:
    ``t2 = -2 * mean_interval / ln(retention)``.  Returns infinity when the
    train is fast enough that the retention rounds to one.
    """
    if not mean_interval > 0:
        raise ValueError("mean_interval must be positive")
    if not (j > 0 and spacing > 0 and j * spacing < 2 * PI):
        raise ValueError("need positive j and spacing, and j * spacing < 2 pi")
    if j * spacing < 1e-8:
        return math.inf
    retention = bang_bang_retention(j, spacing)
    return float(-2.0 * mean_interval / math.log(retention))


def decay_contrast(decay: float, reference: float, spread: float) -> float:
    """Spread-normalised log decay ratio ``-ln(decay / reference) / spread^2``.

    Collapses curves taken at different interval spreads onto a single
    number for comparison against ``j^2 mean_interval t / 8``.
    """
    if decay <= 0 or reference <= 0:
        raise ValueError("decay factors must be positive")
    if spread <= 0:
        raise ValueError("spread must be positive")
    # divided twice, so that a tiny spread gives inf, not a zero division
    return float(-math.log(decay / reference) / spread / spread)


def four_case_phase(case: int, eps0: float, eps1: float, spacing: float, j: float) -> float:
    """Net phase a noise window leaves on the transverse amplitude.

    A window embedded in a regular pi-pulse train cancels everything except
    its two edge offsets: ``eps0`` from window start to the first pulse
    inside, ``eps1`` from the last pulse inside to the window end.  The
    sign pattern depends only on the parity of the pulse count before the
    window (cases 1-2 even, 3-4 odd) and inside it (odd for cases 2, 4).
    The transverse amplitude is multiplied by ``exp(-1j * phase)``.
    """
    if case not in (1, 2, 3, 4):
        raise ValueError("case must be 1, 2, 3, or 4")
    if not spacing > 0:
        raise ValueError("spacing must be positive")
    for name, e in (("eps0", eps0), ("eps1", eps1)):
        if not 0.0 <= e <= spacing:
            raise ValueError(f"{name} must lie in [0, spacing]")
    if case == 1:
        return j * (eps0 + eps1 - spacing)
    if case == 2:
        return j * (eps0 - eps1)
    if case == 3:
        return j * (spacing - eps0 - eps1)
    return j * (eps1 - eps0)


# ---------------------------------------------------------------------------
# schedule builders
# ---------------------------------------------------------------------------

def transmission_schedule(config: TransmissionConfig, delta: float, train_offset: float = 0.0) -> PulseSchedule:
    """Concrete schedule for one transmission trial.

    A pi/2 pulse prepares the observed qubit along +x at t = 0; the
    environment qubit is flipped up at ``noise_start`` and back down
    ``delta`` later.  With bang-bang enabled the pi-pulse train starts at
    ``noise_start + train_offset``.
    """
    if not 0.0 <= delta <= 2 * PI / config.j:
        raise ValueError("delta must lie within one coupling period")
    events = [
        PulseEvent(0.0, 1, "y", PI / 2),
        PulseEvent(config.noise_start, 2, "x", PI),
        PulseEvent(config.noise_start + delta, 2, "x", PI),
    ]
    if config.bang_bang:
        spacing = config.pulse_spacing
        assert spacing is not None
        if not 0.0 <= train_offset < spacing:
            raise ValueError("train_offset must lie in [0, pulse_spacing)")
        start = config.noise_start + train_offset
        for k, axis in enumerate(cyclic_axes(config.pulse_count())):
            events.append(PulseEvent(start + k * spacing, 1, axis, PI))
    elif train_offset != 0.0:
        raise ValueError("train_offset only applies with bang_bang")
    events.sort(key=lambda ev: ev.time)
    return PulseSchedule(CouplingSystem(config.j), tuple(events), config.total_time)


def _memory_train(spacing: float, horizon: float) -> np.ndarray:
    """Pulse times ``spacing, 2 * spacing, ...`` of the memory train, up to ``horizon``.

    A pulse that rounding puts past the horizon (``1200 * 5e-5`` is
    ``0.060000000000000005``) is placed on it.
    """
    n = int(horizon / spacing + 1e-9)
    return np.minimum(np.arange(1, n + 1) * spacing, horizon)


def memory_trial_schedule(config: MemoryConfig, intervals: np.ndarray) -> tuple[PulseSchedule, np.ndarray]:
    """Schedule and snapshot times for one memory trial.

    ``intervals`` are the per-trial toggle intervals.  Returns the schedule
    and the snapshot times: flip times ``t_{2n}`` without bang-bang, the
    configured wall-clock times with it.
    """
    flip_times = np.cumsum(intervals)
    horizon = max(config.observation_times)
    events = [PulseEvent(0.0, 1, "y", PI / 2)]
    if config.bang_bang:
        spacing = config.pulse_spacing
        assert spacing is not None
        kept = flip_times[flip_times <= horizon]
        for t, axis in zip(kept, cyclic_axes(len(kept))):
            events.append(PulseEvent(float(t), 2, axis, PI))
        train = _memory_train(spacing, horizon)
        for t, axis in zip(train, cyclic_axes(len(train))):
            events.append(PulseEvent(float(t), 1, axis, PI))
        snapshots = np.asarray(config.observation_times, dtype=float)
        total = horizon
    else:
        for t, axis in zip(flip_times, cyclic_axes(len(flip_times))):
            events.append(PulseEvent(float(t), 2, axis, PI))
        snapshots = flip_times[np.array(config.cycle_counts()) * 2 - 1]
        total = float(flip_times[-1])
    events.sort(key=lambda ev: ev.time)
    return PulseSchedule(CouplingSystem(config.j), tuple(events), total), snapshots


# ---------------------------------------------------------------------------
# per-trial random streams
# ---------------------------------------------------------------------------
#
# Trial k draws from np.random.default_rng((seed, k)): a PCG64 generator
# seeded by SeedSequence((seed, k)).  Building one Generator per trial costs
# more than the rest of a transmission trial, so the (state, inc) each such
# generator starts from is derived here for a whole block of trials at once,
# following numpy/random/bit_generator.pyx and pcg64.h step for step.  NEP 19
# keeps both the SeedSequence and the PCG64 streams stable across numpy
# versions; the tests check the derivation against default_rng.  Transmission
# computes its draws from these states; memory writes them into one generator.
#
# Every operand below is an array, 0-d or a column of constants, built once
# here: under NEP 50 promotion an op with a numpy-scalar operand costs 1.4 to
# 2.6 times one with a 0-d array (0.95 against 0.68 us up to 1.22 against
# 0.47 us, numpy 2.4 on a 2-core host), and a small block's derivation is
# mostly such fixed costs.

_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
# SeedSequence hash constants
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _XSHIFT = (np.array(v, np.uint32) for v in (0xCA01F9DD, 0x4973F715, 16))
# PCG64 multiplier, as 64-bit halves and as the 32-bit limbs of its low half
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_PCG_MULT_HI, _PCG_MULT_LO = (np.array(_PCG_MULT >> s & 2**64 - 1, np.uint64) for s in (64, 0))
_PCG_LIMBS = np.array([_PCG_MULT & _MASK32, _PCG_MULT >> 32 & _MASK32], np.uint64)[:, None]
_LIMB_SHIFTS = np.array([0, 32], np.uint64)[:, None]
_MASK32_64, _ONE, _SHIFT_11, _SHIFT_32, _SHIFT_58, _SHIFT_63, _SHIFT_64 = (
    np.array(v, np.uint64) for v in (_MASK32, 1, 11, 32, 58, 63, 64))
_DOUBLE_UNIT = np.array(2.0**-53)


def _hash_constants(init: int, mult: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """The first ``count`` ``(xor, mult)`` pairs of a SeedSequence hash, as
    ``(count, 1)`` uint32 columns.

    The running hash constant starts at ``init`` and is multiplied by
    ``mult`` at every use, whatever the data: each use XORs with the
    constant, advances it, then multiplies by the advanced one.
    """
    constants = [init]
    for _ in range(count):
        constants.append(constants[-1] * mult & _MASK32)
    column = np.array(constants, np.uint32)[:, None]
    return column[:-1], column[1:]


# Hashes of the entropy: four fill the pool, then mixing round ``src`` hashes
# pool word ``src`` three times, once for each other word ``dst`` in turn;
# every entropy word past the pool takes four more (`_entropy_pool`).
_HASH_A = _hash_constants(_INIT_A, _MULT_A, 4 * _POOL_SIZE)
_FILL = tuple(column[:_POOL_SIZE] for column in _HASH_A)
_ROUNDS = tuple(
    (np.array([dst for dst in range(_POOL_SIZE) if dst != src]),
     *(column[_POOL_SIZE + 3 * src:_POOL_SIZE + 3 * src + 3] for column in _HASH_A))
    for src in range(_POOL_SIZE))
# generate_state(4, np.uint64) hashes the pool twice over, into eight words
_HASH_B = tuple(column.reshape(2, _POOL_SIZE, 1) for column in _hash_constants(_INIT_B, _MULT_B, 8))


def _hash(values: np.ndarray, xor: np.ndarray, mult: np.ndarray) -> np.ndarray:
    """``values`` hashed with the constant columns ``xor`` and ``mult``, a row each."""
    values = values ^ xor
    values *= mult
    values ^= values >> _XSHIFT
    return values


def _mix(x: np.ndarray, hashed: np.ndarray) -> np.ndarray:
    """SeedSequence's mix of ``x`` with ``hashed``, in place in ``x``; spends ``hashed``."""
    x *= _MIX_L
    hashed *= _MIX_R
    x -= hashed
    x ^= x >> _XSHIFT
    return x


def _mul_pcg(value: np.ndarray) -> None:
    """Multiply the 128-bit ``value``, rows ``(hi, lo)``, by the PCG64
    multiplier modulo 2**128, in place.

    uint64 products wrap modulo 2**64; the carry out of ``lo * mult_lo``
    comes from the products of 32-bit limbs, all four in one op, whose
    partial sums fit in 64 bits.
    """
    hi, lo = value
    limbs = lo >> _LIMB_SHIFTS
    limbs &= _MASK32_64
    (p00, p01), (p10, p11) = limbs[:, None] * _PCG_LIMBS   # p_ij = a_i * b_j
    p00 >>= _SHIFT_32
    p00 += p10
    p01 += p00 & _MASK32_64
    p00 >>= _SHIFT_32
    p01 >>= _SHIFT_32
    p11 += p00
    p11 += p01
    hi *= _PCG_MULT_LO
    hi += p11
    hi += lo * _PCG_MULT_HI
    lo *= _PCG_MULT_LO


def _add128(a: np.ndarray, b: np.ndarray) -> None:
    """``a += b`` modulo 2**128, for rows ``(hi, lo)``."""
    (a_hi, a_lo), (b_hi, b_lo) = a, b
    a_lo += b_lo
    a_hi += b_hi
    a_hi += a_lo < b_lo


def _entropy_pool(seed: int, start: int, stop: int) -> np.ndarray:
    """SeedSequence((seed, k)).pool of the trials ``start <= k < stop``, its
    four words the rows of a uint32 array."""
    assert 0 <= start <= stop <= _MASK32 + 1   # k is one 32-bit entropy word
    # the entropy words: seed in 32-bit words, least significant first, then k
    entropy = []
    while True:
        entropy.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    trial = np.arange(start, stop, dtype=np.uint32)
    pool = np.zeros((_POOL_SIZE, len(trial)), np.uint32)
    for row, word in zip(pool, entropy):
        row[:] = word
    if len(entropy) < _POOL_SIZE:
        pool[len(entropy)] = trial
    pool = _hash(pool, *_FILL)
    for src, (others, xor, mult) in enumerate(_ROUNDS):
        pool[others] = _mix(pool.take(others, axis=0), _hash(pool[src], xor, mult))
    if len(entropy) >= _POOL_SIZE:
        extra = [np.array(word, np.uint32) for word in entropy[_POOL_SIZE:]] + [trial]
        xor, mult = (column[4 * _POOL_SIZE:].reshape(len(extra), _POOL_SIZE, 1)
                     for column in _hash_constants(_INIT_A, _MULT_A, _POOL_SIZE * (len(entropy) + 1)))
        for word, word_xor, word_mult in zip(extra, xor, mult):
            _mix(pool, _hash(word, word_xor, word_mult))
    return pool


def _generate_state(seed: int, start: int, stop: int) -> np.ndarray:
    """SeedSequence((seed, k)).generate_state(4, np.uint64) of the trials
    ``start <= k < stop``, as the rows of a uint64 array; each word is two
    hashed pool words, paired little-endian.  The pool is freed before the
    pairing, where it would add to the derivation's peak."""
    words = _hash(_entropy_pool(seed, start, stop), *_HASH_B).reshape(8, stop - start)
    state = words[1::2].astype(np.uint64)
    state <<= _SHIFT_32
    state |= words[0::2]
    return state


def _trial_streams(seed: int, start: int, stop: int) -> np.ndarray:
    """PCG64 ``(state_hi, state_lo, inc_hi, inc_lo)`` of the trials ``start <= k < stop``.

    Rows of a ``(4, stop - start)`` uint64 array, equal to the 128-bit
    ``state`` and ``inc`` of ``np.random.default_rng((seed, k)).bit_generator``.
    """
    # PCG64 seeding from the rows (seed_hi, seed_lo, seq_hi, seq_lo):
    # inc = seq << 1 | 1, state = (inc + seed) * mult + inc
    streams = _generate_state(seed, start, stop)
    inc_hi, inc_lo = streams[2:]
    inc_hi <<= _ONE
    inc_hi |= inc_lo >> _SHIFT_63
    inc_lo <<= _ONE
    inc_lo |= _ONE
    _add128(streams[:2], streams[2:])
    _mul_pcg(streams[:2])
    _add128(streams[:2], streams[2:])
    return streams


def _next_doubles(streams: np.ndarray) -> np.ndarray:
    """Step each PCG64 stream of ``streams``, as `_trial_streams` gives them,
    in place, and return the doubles in [0, 1) that ``Generator.random``
    returns for that step."""
    _mul_pcg(streams[:2])
    _add128(streams[:2], streams[2:])
    hi, lo = streams[:2]
    # XSL-RR output: the XOR of both halves, rotated right by the top six bits
    folded, rot = hi ^ lo, hi >> _SHIFT_58
    out = (folded >> rot) | (folded << ((_SHIFT_64 - rot) & _SHIFT_63))
    return (out >> _SHIFT_11) * _DOUBLE_UNIT


def _stream_generator() -> tuple[np.random.Generator, np.ndarray]:
    """A PCG64 generator and a writable ``(2, 2)`` view of its state words.

    ``bit_generator.ctypes.state_address`` points to numpy's ``pcg64_state``,
    which starts with a pointer to the 128-bit ``{state, inc}``.  The view's
    rows are the state and the increment, its columns their high and low
    64-bit words.  A ``pcg128_t`` is a native 128-bit integer (low word first
    on little-endian hosts) or a ``{high, low}`` struct, so the columns are
    reversed when a probe state, set through numpy's own setter, reads back
    low word first.  The setter also clears the buffered 32-bit half, which
    ``standard_normal`` never uses, so writing a trial's words sets the whole
    state.  The view does not keep ``rng`` alive: use it only while ``rng``
    is referenced.
    """
    rng = np.random.Generator(np.random.PCG64())
    address = ctypes.c_void_p.from_address(rng.bit_generator.ctypes.state_address).value
    state = np.frombuffer((ctypes.c_uint64 * 4).from_address(address), dtype=np.uint64).reshape(2, 2)
    probe = [[0x5EED00A1, 0x5EED00B2], [0x5EED00C3, 0x5EED00D5]]
    rng.bit_generator.state = {
        "bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
        "state": {"state": probe[0][0] << 64 | probe[0][1], "inc": probe[1][0] << 64 | probe[1][1]},
    }
    if state.tolist() != probe:
        state = state[:, ::-1]
    if state.tolist() != probe:
        raise RuntimeError(f"unrecognised PCG64 state layout {state.tolist()}")
    return rng, state


def _trial_words(seed: int, trials: int, rows: int):
    """The PCG64 state words of ``default_rng((seed, k))`` for k = 0, 1, ...,
    laid out like the view of `_stream_generator`, in ``(rows, 2, 2)`` arrays;
    a chunk holds fewer rows only where a stream block or the run ends."""
    for block in _blocks(trials, _STREAM_BLOCK):
        words = _trial_streams(seed, block.start, block.stop).T.reshape(-1, 2, 2)
        for chunk in _blocks(len(block), rows):
            yield words[chunk.start:chunk.stop]


# ---------------------------------------------------------------------------
# experiment drivers
# ---------------------------------------------------------------------------

def _group_averages(amps: np.ndarray, group_size: int) -> np.ndarray:
    starts = np.arange(0, len(amps), group_size)
    return np.add.reduceat(amps, starts) / np.diff(starts, append=len(amps))


def _blocks(trials: int, size: int):
    for first in range(0, trials, size):
        yield range(first, min(first + size, trials))


def _transmission_draws(config: TransmissionConfig, start: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
    """Window lengths and train offsets of the trials ``start <= k < stop``.

    Trial k's stream ``rng = default_rng((config.seed, k))`` gives the window
    ``rng.uniform(0, period)`` and, with a random train phase, then the offset
    ``rng.uniform(0, pulse_spacing)``; the offset is 0 otherwise.  Both are
    computed as numpy does, ``low + (high - low) * rng.random()``.
    """
    streams = _trial_streams(config.seed, start, stop)
    windows = 0.0 + (2 * PI / config.j) * _next_doubles(streams)
    offsets = np.zeros(stop - start)
    if config.bang_bang and config.random_train_phase:
        offsets = 0.0 + config.pulse_spacing * _next_doubles(streams)
    return windows, offsets


def run_transmission(config: TransmissionConfig) -> EnsembleResult:
    """Monte Carlo ensemble of single noise-window trials."""
    steps = signs = np.empty(0)
    if config.bang_bang:
        n_pulses = config.pulse_count()
        steps = np.arange(n_pulses) * config.pulse_spacing
        signs = pi_pulse_signs(cyclic_axes(n_pulses))
    per_call = max(1, _CHUNK_EVENTS // (3 + len(steps)))   # two toggles, a snapshot, the train
    amps = np.empty(config.trials, dtype=complex)
    for block in _blocks(config.trials, _STREAM_BLOCK):
        windows, offsets = _transmission_draws(config, block.start, block.stop)
        block_amps = amps[block.start:block.stop]
        for chunk in _blocks(len(block), per_call):
            rows = slice(chunk.start, chunk.stop)
            toggles = np.stack((np.full(len(chunk), config.noise_start),
                                config.noise_start + windows[rows]), axis=1)
            pulses = (config.noise_start + offsets[rows])[:, None] + steps
            snapshots = np.full((len(chunk), 1), config.total_time)
            block_amps[rows] = phase_walk(config.j, toggles, pulses, signs, snapshots)[:, 0]
    if config.remove_trivial_phase:
        amps *= np.exp(-0.5j * config.j * config.total_time)
    return EnsembleResult(
        amplitudes=amps,
        group_averages=_group_averages(amps, config.group_size),
        grand_average=complex(amps.mean()),
        observation_time=config.total_time,
    )


def _toggle_times(rng, state: np.ndarray, words: np.ndarray, width: int, mean: float, spread: float,
                  count: int | None = None, horizon: float = math.inf) -> tuple[np.ndarray, int]:
    """Flip times of the trials whose generators start from ``words``, a row a
    trial, and the width they were drawn at.

    A trial's intervals are ``mean * (1 + spread * xi)`` for the standard
    normals ``xi`` of its stream, skipping non-positive values: ``count`` of
    them, or else enough for their running sum to pass ``horizon``.  A row
    holds their running sums, padded to the widest row with its last flip.
    ``rng`` is set to each trial's stream by writing its words into
    ``state``, the view of `_stream_generator`, and draws ``width`` normals;
    if any row runs short, the whole chunk is drawn again twice as wide.  A
    block draw equals that many scalar draws, so these are the flips that
    drawing and resampling one value at a time gives.
    Resampling needs no limit: ``MemoryConfig`` keeps the spread at most
    0.25, where a value is non-positive only for ``xi <= -4``, about one
    draw in 30,000.
    """
    values = np.empty((len(words), width))
    for row, trial in zip(values, words):
        state[:] = trial
        rng.standard_normal(out=row)
    # mean * (1 + spread * xi) in the scalar form's order, so values match it bit for bit
    values *= spread
    values += 1.0
    values *= mean
    skipped = values <= 0.0
    if skipped.any():
        # each row's positive values first, in drawing order; the rest become
        # inf, so no sum from them on is at or before the horizon
        values = np.take_along_axis(values, np.argsort(skipped, axis=1, kind="stable"), axis=1)
        values[values <= 0.0] = np.inf
    flips = np.cumsum(values, axis=1, out=values)
    if count is not None:
        if count <= width and np.isfinite(flips[:, count - 1]).all():
            return flips[:, :count].copy(), width   # a copy frees the wider draw
    else:
        need = (flips <= horizon).sum(axis=1) + 1
        if need.max() <= width and np.isfinite(flips[np.arange(len(words)), need - 1]).all():
            return np.take_along_axis(flips, np.minimum(np.arange(need.max()), need[:, None] - 1), axis=1), width
    return _toggle_times(rng, state, words, 2 * width, mean, spread, count, horizon)


def run_memory(config: MemoryConfig) -> DecayCurve:
    """Ensemble decay curve of the repeated-toggling experiment."""
    times = np.asarray(config.observation_times, dtype=float)
    horizon = times[-1]
    train = signs = np.empty(0)
    count = None
    if config.bang_bang:
        train = _memory_train(config.pulse_spacing, horizon)
        signs = pi_pulse_signs(cyclic_axes(len(train)))
        # the flips before the horizon, with room for their count's spread
        expected = 1.5 * horizon / config.mean_interval + 1
    else:
        count = expected = 2 * max(config.cycle_counts())
        snapshot_flips = np.array(config.cycle_counts()) * 2 - 1
    # snapshots, train and expected toggles; a draw chunk is a kernel chunk
    per_call = max(1, _CHUNK_EVENTS // (len(times) + len(train) + math.ceil(horizon / config.mean_interval)))
    # one generator, set to trial k's stream by writing k's words before k's draws
    rng, state = _stream_generator()
    # the width chunks draw at; it only grows, so a chunk is drawn twice only where it does
    width = _DRAW_BLOCK
    while width < expected:
        width *= 2
    acc = np.zeros(len(times), dtype=complex)
    held = np.empty((0, len(times)), dtype=complex)   # amplitudes of a group not yet summed
    for words in _trial_words(config.seed, config.trials, per_call):
        # with the pulse train, a row's padding lies past the horizon
        toggles, width = _toggle_times(rng, state, words, width, config.mean_interval,
                                       config.interval_spread, count, horizon)
        if count is None:
            snapshots = np.broadcast_to(times, (len(words), len(times)))
        else:
            snapshots = toggles[:, snapshot_flips]
        pulses = np.broadcast_to(train, (len(words), len(train)))
        held = np.concatenate((held, phase_walk(config.j, toggles, pulses, signs, snapshots)))
        *groups, held = np.split(held, range(_SUM_TRIALS, len(held) + 1, _SUM_TRIALS))
        for group in groups:
            acc += group.sum(axis=0)
    acc += held.sum(axis=0)
    magnitudes = np.abs(acc / config.trials)
    fit = fit_exponential(times, magnitudes)
    return DecayCurve(times=times, magnitudes=magnitudes, fit=fit)


def fit_exponential(times, magnitudes, floor: float = FIT_FLOOR) -> ExponentialFit:
    """Fit ``ln m = -t / t2 + c`` by linear least squares.

    Points at or below ``floor`` are excluded.  A non-negative slope, or
    one whose total log-drop over the fitted window is below numerical
    noise, is reported as ``decaying=False`` with an infinite time
    constant rather than a nonsense near-zero or negative one.
    """
    times = np.asarray(times, dtype=float)
    magnitudes = np.asarray(magnitudes, dtype=float)
    if times.shape != magnitudes.shape:
        raise ValueError("times and magnitudes must have matching shapes")
    keep = magnitudes > floor
    if keep.sum() < 3:
        raise ValueError(f"need at least 3 points above floor={floor}, have {int(keep.sum())}")
    t = times[keep]
    y = np.log(magnitudes[keep])
    design = np.stack([t, np.ones_like(t)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residual = float(np.sqrt(np.mean((design @ [slope, intercept] - y) ** 2)))
    # flat within roundoff: a log-drop under 1e-12 across the window is noise
    if slope * (t.max() - t.min()) > -1e-12:
        return ExponentialFit(math.inf, float(intercept), residual, int(keep.sum()), False)
    return ExponentialFit(float(-1.0 / slope), float(intercept), residual, int(keep.sum()), True)
