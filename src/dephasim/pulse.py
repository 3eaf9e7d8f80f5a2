"""Pulse schedules on a pair of Ising-coupled qubits.

The model throughout is the rotating-frame Hamiltonian ``H = J Iz x Iz``
(``Iz = Z/2``, ``J > 0`` in rad/s) with instantaneous single-qubit
rotations on top.  Free evolution is diagonal, so schedules are simulated
in closed form segment by segment; there is no generic matrix
exponential anywhere.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .linalg import DEFAULT_TOL, IDENTITY, SIGMA_X, SIGMA_Y, as_matrix, tensor, validate_density

AXES = ("x", "-x", "y", "-y")
# Eight-step axis pattern used to balance pulse imperfections; applied
# per pulse, so trains should be a multiple of eight pulses long.
AXIS_CYCLE = ("x", "-x", "y", "-y", "-x", "x", "-y", "y")

_AXIS_MATRIX = {"x": SIGMA_X, "-x": -SIGMA_X, "y": SIGMA_Y, "-y": -SIGMA_Y}
# `train_walk`'s eps after the first r pulses of the cycle, r = 0..7 (a whole cycle's y pulses cancel)
_CYCLE_EPS = np.array([(-1) ** sum("y" in axis for axis in AXIS_CYCLE[:r]) for r in range(len(AXIS_CYCLE))])

# Signs of Z x Z on the computational basis; H = (J/4) diag of this.
_ZZ_SIGNS = np.array([1.0, -1.0, -1.0, 1.0])

# rows per column after the first from which `toggle_walk` adds columns in place; best of 15, us, cumsum
# vs adds (2-core Xeon, numpy 2.4.6): 2730x3 68 vs 10, 546x15 38 vs 25, 512x16 38 vs 39, 163x50 37 vs 118
_COLUMN_ADD_ROWS = 32


@dataclass(frozen=True, slots=True)
class CouplingSystem:
    """Ising-coupled qubit pair with coupling strength ``j`` in rad/s."""

    j: float

    def __post_init__(self):
        if not self.j > 0:
            raise ValueError(f"coupling must be positive, got {self.j}")


@dataclass(frozen=True, slots=True)
class PulseEvent:
    """Instantaneous rotation: ``exp(-i (angle/2) sigma_axis)`` on one qubit."""

    time: float
    target: int  # 1 = observed qubit (left factor), 2 = environment qubit
    axis: str
    angle: float

    def __post_init__(self):
        if self.target not in (1, 2):
            raise ValueError(f"target must be 1 or 2, got {self.target}")
        if self.axis not in AXES:
            raise ValueError(f"axis must be one of {AXES}, got {self.axis!r}")
        if not np.isfinite(self.time):
            raise ValueError("event time must be finite")


@dataclass(frozen=True, slots=True)
class PulseSchedule:
    """Events on a coupled pair over ``[0, total_time]``.

    Events must be listed in non-decreasing time order and lie inside the
    schedule window.  Simultaneous events on different qubits are legal;
    the qubit-2 event is applied first by convention.
    """

    system: CouplingSystem
    events: tuple[PulseEvent, ...]
    total_time: float

    def __post_init__(self):
        if not self.total_time >= 0:
            raise ValueError("total_time must be non-negative")
        object.__setattr__(self, "events", tuple(self.events))
        prev = 0.0
        for ev in self.events:
            if ev.time < 0.0 or ev.time > self.total_time:
                raise ValueError(
                    f"event at t={ev.time:.12g} outside [0, {self.total_time:.12g}]"
                )
            if ev.time < prev:
                raise ValueError("events must be sorted by time")
            prev = ev.time


@dataclass(frozen=True, slots=True)
class LabFrameParams:
    """Laboratory-frame frequencies (rad/s) of the coupled pair."""

    omega_1: float
    omega_2: float
    j: float


def phase_shift(theta: float) -> np.ndarray:
    """Phase-shift gate ``exp(i theta Z / 2) = diag(e^{i theta/2}, e^{-i theta/2})``.

    Conjugation multiplies ``rho[0, 1]`` by ``e^{i theta}`` (and ``rho[1, 0]``
    by its conjugate).
    """
    half = np.exp(0.5j * theta)
    return np.array([[half, 0.0], [0.0, half.conjugate()]], dtype=complex)


def rotation_pulse(axis: str, angle: float) -> np.ndarray:
    """Rotation ``exp(-i (angle/2) sigma_axis)`` with signed axes allowed."""
    if axis not in AXES:
        raise ValueError(f"axis must be one of {AXES}, got {axis!r}")
    sigma = _AXIS_MATRIX[axis]
    return np.cos(angle / 2.0) * IDENTITY - 1j * np.sin(angle / 2.0) * sigma


def conditional_phase_evolution(system: CouplingSystem, duration: float, env_state: int) -> np.ndarray:
    """Qubit-1 evolution under the coupling for a fixed environment state.

    For ``duration`` tau the observed qubit sees ``phase_shift(-j tau / 2)``
    when the environment sits in |0> and ``phase_shift(+j tau / 2)`` in |1>.
    """
    if duration < 0:
        raise ValueError("duration must be non-negative")
    if env_state not in (0, 1):
        raise ValueError("env_state must be 0 or 1")
    sign = 1.0 if env_state == 1 else -1.0
    return phase_shift(sign * system.j * duration / 2.0)


def cyclic_axes(n: int) -> tuple[str, ...]:
    """First ``n`` entries of the eight-step axis cycle, repeating as needed."""
    if n < 0:
        raise ValueError("n must be non-negative")
    reps = -(-n // len(AXIS_CYCLE))
    return (AXIS_CYCLE * max(reps, 1))[:n]


@lru_cache(maxsize=256)
def _event_unitary(target: int, axis: str, angle: float) -> np.ndarray:
    r = rotation_pulse(axis, angle)
    u = tensor(r, IDENTITY) if target == 1 else tensor(IDENTITY, r)
    u.setflags(write=False)
    return u


def _free_phases(j: float, tau: float) -> np.ndarray:
    # Diagonal of exp(-i H tau) with H = (J/4) diag(1, -1, -1, 1).
    return np.exp(-0.25j * j * tau * _ZZ_SIGNS)


def _ordered(events: Sequence[PulseEvent]) -> list[PulseEvent]:
    # Stable: equal (time, target) keeps the written order.
    return sorted(events, key=lambda ev: (ev.time, -ev.target))


def simulate_schedule(schedule: PulseSchedule, rho0, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Evolve a two-qubit density matrix through a schedule.

    Alternates closed-form diagonal free evolution with the instantaneous
    pulse unitaries and returns the final 4x4 state.
    """
    rho = validate_density(as_matrix(rho0, dims=(4,)), tol, name="rho0").copy()
    j = schedule.system.j
    now = 0.0
    for ev in _ordered(schedule.events):
        if ev.time > now:
            d = _free_phases(j, ev.time - now)
            rho = (d[:, None] * rho) * d.conj()[None, :]
            now = ev.time
        u = _event_unitary(ev.target, ev.axis, ev.angle)
        rho = u @ rho @ u.conj().T
    if schedule.total_time > now:
        d = _free_phases(j, schedule.total_time - now)
        rho = (d[:, None] * rho) * d.conj()[None, :]
    return rho


def simulate_amplitudes(schedule: PulseSchedule, times: Sequence[float]) -> np.ndarray:
    """Qubit-1 transverse amplitudes at the requested times.

    Starts from both qubits in |0> (state-vector evolution; every schedule
    here is unitary, so this agrees with `simulate_schedule` exactly) and
    records ``a_x + i a_y`` of the reduced qubit-1 state at each time in
    ``times``.  Snapshots are taken before any event at the same instant.
    """
    times = list(times)
    if any(t2 < t1 for t1, t2 in zip(times, times[1:])):
        raise ValueError("snapshot times must be sorted ascending")
    if times and (times[0] < 0 or times[-1] > schedule.total_time):
        raise ValueError("snapshot times must lie within the schedule window")
    j = schedule.system.j
    events = _ordered(schedule.events)
    # (time, 0 for a snapshot or 1 for an event, index): at one instant
    # snapshots come first, and each kind keeps its own order
    steps = sorted([(t, 0, k) for k, t in enumerate(times)]
                   + [(ev.time, 1, k) for k, ev in enumerate(events)])
    psi = np.array([1.0, 0.0, 0.0, 0.0], dtype=complex)
    out = np.empty(len(times), dtype=complex)
    now = 0.0
    for t, is_event, k in steps:
        if t > now:
            psi = psi * _free_phases(j, t - now)
            now = t
        if is_event:
            ev = events[k]
            psi = _event_unitary(ev.target, ev.axis, ev.angle) @ psi
        else:
            out[k] = 2.0 * (psi[2] * psi[0].conjugate() + psi[3] * psi[1].conjugate())
    return out


class PulseTrain:
    """A run's pi-pulse train on qubit 1, built once and shared by every chunk.

    ``times`` are the ascending pulse times.  ``starts`` holds t = 0 and the
    pulses, ``signs`` the train's switching function from each start to the
    next and ``at_start`` its integral ``G`` at each start: `train_walk`'s
    table of ``G``.  `index` counts the pulses before a time.
    """

    __slots__ = ("times", "starts", "signs", "at_start", "_ends", "_base", "_scale")

    def __init__(self, times):
        times = np.asarray(times, dtype=float)
        if times.ndim != 1 or not np.isfinite(times).all() or (np.diff(times) < 0.0).any():
            raise ValueError("pulse times must be a finite, ascending 1-D array")
        n = len(times)
        # t = 0, the pulses and inf: at k, G's table starts and the index finds pulse k - 1;
        # each table is built in place, as a run's train may hold 100,000 pulses
        self._ends = np.concatenate(([0.0], times, [np.inf]))
        self.starts, self.times = self._ends[:-1], self._ends[1:-1]
        self.signs = np.ones(n + 1)
        self.signs[1::2] = -1.0
        self.at_start = np.zeros(n + 1)
        np.subtract(self.times, self.starts[:-1], out=self.at_start[1:])
        self.at_start[1:] *= self.signs[:-1]
        np.cumsum(self.at_start[1:], out=self.at_start[1:])
        for table in (self._ends, self.signs, self.at_start):
            table.setflags(write=False)
        # the guess (t - t_0) / d + 1, d the mean spacing (any for one pulse), is
        # within one of the count of the pulses before t when every pulse lies
        # within d / 4 of t_0 + k d, less a few ulps for the rounding of t_0 + k d
        spacing = float(times[-1] - times[0]) / (n - 1) if n > 1 else 1.0
        regular = False
        if n:
            off_grid = np.arange(n, dtype=float)
            off_grid *= spacing
            off_grid += times[0]
            off_grid -= times
            slack = 4.0 * np.spacing(max(-times[0], times[-1]))
            regular = np.abs(off_grid, out=off_grid).max() + slack <= 0.25 * spacing
        # on any other train (equal pulses, or none) the index searches
        self._base = times[0] - spacing if regular else None
        self._scale = 1.0 / spacing if regular else None

    def index(self, t) -> np.ndarray:
        """``np.searchsorted(times, t, "left")``, the pulses before each of
        ``t``: on a regular train an arithmetic guess, put right by one step
        against its neighbouring pulses."""
        if self._base is None:
            return np.searchsorted(self.times, t, "left")
        guess = t - self._base
        guess *= self._scale
        # at least 1, so a step down reads pulse 0, not t = 0; two ufuncs cost
        # less than np.clip on a chunk's few snapshots
        np.minimum(guess, len(self.times), out=guess)
        np.maximum(guess, 1.0, out=guess)
        k = guess.astype(np.intp)   # floor, as the guess is positive
        # a step where a neighbour says so; the neighbours go into the guess's memory and
        # a mask picks the step (a bool operand cast to intp would add a t-sized buffer)
        np.subtract(k, 1, out=k, where=self._ends.take(k, out=guess, mode="clip") >= t)
        np.add(k, 1, out=k, where=self._ends[1:].take(k, out=guess, mode="clip") < t)
        return k


def train_walk(j: float, toggles: np.ndarray, train: PulseTrain, snapshots: np.ndarray,
               shift=0.0) -> np.ndarray:
    """Qubit-1 transverse amplitudes of a chunk of trials under a shared pi-pulse train.

    Each trial starts as in `simulate_amplitudes`, its exact oracle: both
    qubits in |0> and a y pi/2 pulse at t = 0 set ``a = a_x + i a_y`` to 1.
    A row of ``toggles`` holds one trial's pi pulses on qubit 2, ascending,
    and may be padded past the last snapshot.  ``train``, a `PulseTrain`,
    holds the pi pulses on qubit 1, pulse k about ``AXIS_CYCLE[k % 8]``:
    ``a -> eps * conj(a)``, ``eps`` 1 for ±x and -1 for ±y.  ``shift``, a
    non-negative time a trial or ``0.0``, moves each trial's train later.
    ``a`` is read at the ascending, positive ``snapshots``, a column each.

    Free evolution for ``tau`` multiplies ``a`` by ``exp(i s J tau / 2)``,
    ``s = +1`` while qubit 2 sits in |0>, so ``a = E exp(i sigma J psi / 2)``:
    ``psi`` integrates a sign that every toggle and pulse reverses (the
    switching function), ``sigma`` is -1 after an odd number of pulses and
    ``E`` is the product of their ``eps``.  With ``G`` the integral from 0
    of the train's own switching function, a snapshot at ``T`` after a
    row's toggles ``t_1 < ... < t_m`` has
    ``psi = 2 sum_k (-1)^(k+1) G(t_k) + (-1)^m G(T)``: work per toggle, not
    per pulse, with ``G`` read off the train's table of its values at the
    pulses, at the pulse its `PulseTrain.index` finds.  A train shifted by
    ``o`` has ``G(u - o) + o`` for ``G``, since ``G(u) = u`` before the
    first pulse; the ``o`` terms sum to one ``o`` whatever ``m``.
    At one instant a snapshot reads before a pulse and a toggle; ``G`` is
    continuous, so where a toggle falls against a pulse changes nothing.
    """
    rows, n_toggles = toggles.shape
    n_snap = len(snapshots)
    o = np.asarray(shift)[..., None]   # a column of each row's shift, or one for all rows
    starts, signs, at_start = train.starts, train.signs, train.at_start
    # the pulses a snapshot follows; x - 0.0 is x, but T - o rounds, so a
    # shifted pulse next to it is settled by its own time, equal pulses
    # together: the pulses up to one are those before the next float
    x = snapshots - o
    before = train.index(x)
    if o.any():
        after = train._ends.take(before + 1)   # the next pulse, inf past the last
        late = after + o < snapshots   # rare, so looked up only where it happens
        if late.any():
            before = np.where(late, train.index(np.nextafter(after, np.inf)), before)
        prior = starts[before]
        early = prior + o >= snapshots
        if early.any():
            before = np.where(early, train.index(prior), before)
    # (-1)^(k+1) G(t_k - o), the difference from the pulse first, so its error
    # is an ulp of the spacing, not of the time; contiguous operands keep numpy
    # from buffering them, so at most three toggle-sized temporaries are alive
    # at once, m's rows not yet among them; t - 0.0 is t, -0.0 included
    g = toggles - o
    k = train.index(g)
    g -= starts.take(k)
    g *= signs.take(k)
    g += at_start.take(k)
    del k
    g[:, 1::2] *= -1.0
    # the sums over each row's first m toggles, in column m
    partial = np.zeros((rows, n_toggles + 1))
    np.cumsum(g, axis=1, out=partial[:, 1:])
    del g
    # m, the toggles before each snapshot: per row, a histogram of the first snapshot after each toggle
    slot = np.searchsorted(snapshots, toggles, "right")
    slot += np.arange(0, rows * (n_snap + 1), n_snap + 1)[:, None]
    m = np.bincount(slot.ravel(), minlength=rows * (n_snap + 1)).reshape(rows, n_snap + 1)
    del slot
    m = np.cumsum(m[:, :n_snap], axis=1)
    psi = np.take_along_axis(partial, m, axis=1)
    del partial
    psi *= 2.0
    psi += (1 - 2 * (m & 1)) * ((x - starts[before]) * signs[before] + at_start[before])
    psi += o
    psi *= signs[before]   # sigma
    amps = 0.5j * j * psi
    np.exp(amps, out=amps)
    amps *= _CYCLE_EPS[before % len(AXIS_CYCLE)]   # E
    return amps


def toggle_walk(j: float, times: np.ndarray, at) -> np.ndarray:
    """`train_walk` for trials without a train: toggles are their only events.

    Each row of ``times`` holds one trial's toggle times, ascending; the
    amplitude is read at the times in the columns ``at`` and returned as a
    C-ordered (trials x len(at)) array.  A toggle changes nothing before
    it, so a read time after the last toggle can be a column of its own.
    Toggle ``i`` ends an interval of rate sign ``(-1)**i``, so ``psi`` is a
    running sum along each row: ``np.cumsum``, or on a tall, narrow chunk
    column adds in place, the same additions in the same order, same bits.
    """
    # interval lengths along the flattened rows; contiguous operands need no
    # buffers; each row's first interval runs from t = 0
    psi = np.empty(times.shape)
    np.subtract(times.ravel()[1:], times.ravel()[:-1], out=psi.ravel()[1:])
    psi[:, 0] = times[:, 0]
    psi[:, 1::2] *= -1.0
    if len(psi) >= _COLUMN_ADD_ROWS * (psi.shape[1] - 1):
        for c in range(1, psi.shape[1]):
            psi[:, c] += psi[:, c - 1]
    else:
        np.cumsum(psi, axis=1, out=psi)
    # take, not psi[:, at]: a group sum over the rows depends on their layout
    return np.exp(0.5j * j * psi.take(at, axis=1))


def lab_frame_hamiltonian(params: LabFrameParams) -> np.ndarray:
    """Diagonal lab-frame Hamiltonian ``-w1 Iz x I - w2 I x Iz + J Iz x Iz``."""
    iz = np.array([0.5, -0.5])
    diag = (
        -params.omega_1 * np.kron(iz, np.ones(2))
        - params.omega_2 * np.kron(np.ones(2), iz)
        + params.j * np.kron(iz, iz)
    )
    return np.diag(diag).astype(complex)


def _rotation_frame(params: LabFrameParams, t: float) -> np.ndarray:
    # R(t) = exp(-i w1 Iz t) x exp(-i w2 Iz t), diagonal.
    d1 = np.exp(-0.5j * params.omega_1 * t * np.array([1.0, -1.0]))
    d2 = np.exp(-0.5j * params.omega_2 * t * np.array([1.0, -1.0]))
    return np.diag(np.kron(d1, d2))


def rotating_frame_residual(params: LabFrameParams, t: float, dt: float) -> float:
    """Check numerically that the rotating frame removes the Zeeman terms.

    Builds ``R H R† + i (dR/dt) R†`` with a central finite difference for
    the derivative and returns the Frobenius distance to the pure coupling
    ``J Iz x Iz``.  The difference scheme leaves an O(dt^2) residual.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    h = lab_frame_hamiltonian(params)
    r = _rotation_frame(params, t)
    dr = (_rotation_frame(params, t + dt) - _rotation_frame(params, t - dt)) / (2.0 * dt)
    transformed = r @ h @ r.conj().T + 1j * dr @ r.conj().T
    iz = np.array([0.5, -0.5])
    target = np.diag(params.j * np.kron(iz, iz)).astype(complex)
    return float(np.linalg.norm(transformed - target))


# Finite-difference steps of the rotating-frame check, in s, at omega_2 = 2 pi * 500 rad/s:
# two halvings, then a small step.
FRAME_CHECK_STEPS = (1e-6, 5e-7, 2.5e-7, 1e-7)
# the omega_2, rad/s, below which the steps stop growing: they scale as 1 / omega_2,
# and under about 1.8e-305 rad/s a step overflows into NaN residuals
_MIN_FRAME_RATE = 1e-300


@dataclass(frozen=True)
class FrameCheck:
    """Outcome of ``rotating_frame_check``."""

    steps: tuple[float, ...]       # the finite-difference steps, s
    residuals: tuple[float, ...]   # one per step
    ratios: tuple[float, ...]      # residual shrink per halving; NaN where a residual is 0
    bound: float                   # 1e-3 * |H|, the limit on the last residual
    passed: bool


def rotating_frame_check(params: LabFrameParams, t: float) -> FrameCheck:
    """``rotating_frame_residual`` at the steps of ``FRAME_CHECK_STEPS``,
    scaled by ``2 pi * 500 / abs(omega_2)`` so that they turn R(t) by the same
    angles at any ``omega_2``, judged.

    Passes when each of the two halvings of the step shrinks the residual
    by a factor between 3 and 5 (4 for an O(dt^2) scheme) and the residual
    at the last step is below ``1e-3 * |H|``.
    """
    scale = 2.0 * math.pi * 500.0 / max(abs(params.omega_2), _MIN_FRAME_RATE)   # exactly 1 at 500 Hz
    steps = tuple(dt * scale for dt in FRAME_CHECK_STEPS)
    residuals = tuple(rotating_frame_residual(params, t, dt) for dt in steps)
    # a residual of 0 (frequencies too small to resolve) leaves no ratio
    ratios = tuple(a / b if b else math.nan for a, b in zip(residuals[:2], residuals[1:3]))
    bound = 1e-3 * float(np.linalg.norm(lab_frame_hamiltonian(params)))
    passed = residuals[-1] < bound and all(3.0 < r < 5.0 for r in ratios)
    return FrameCheck(steps, residuals, ratios, bound, passed)
