import contextlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from dephasim import (
    AXIS_CYCLE,
    CouplingSystem,
    IDENTITY,
    LabFrameParams,
    PulseEvent,
    PulseSchedule,
    PulseTrain,
    SIGMA_X,
    conditional_phase_evolution,
    cyclic_axes,
    lab_frame_hamiltonian,
    mat_equal,
    partial_trace_env,
    phase_shift,
    rotating_frame_check,
    rotating_frame_residual,
    rotation_pulse,
    simulate_amplitudes,
    simulate_schedule,
    tensor,
    toggle_walk,
    train_walk,
    transverse_amplitude,
    validate_density,
)

from dephasim.experiments import MAX_TRIAL_EVENTS, _memory_train, _trial_schedule
from dephasim.pulse import FRAME_CHECK_STEPS

from helpers import J_REF, random_density, rho_00

PI = np.pi


def test_phase_shift_basics():
    assert mat_equal(phase_shift(0.0), IDENTITY, tol=1e-15)
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    theta = 0.83
    out = phase_shift(theta) @ rho @ phase_shift(theta).conj().T
    assert out[0, 1] == pytest.approx(0.5 * np.exp(1j * theta))
    out_pi = phase_shift(PI) @ rho @ phase_shift(PI).conj().T
    assert out_pi[0, 1] == pytest.approx(-0.5)


def test_phase_shift_group():
    rng = np.random.default_rng(31)
    for t1, t2 in rng.uniform(-4, 4, size=(20, 2)):
        assert mat_equal(phase_shift(t1) @ phase_shift(t2), phase_shift(t1 + t2), tol=1e-14)


def test_rotation_pulse_conventions():
    v = rotation_pulse("x", PI)
    assert mat_equal(v, -1j * SIGMA_X, tol=1e-15)
    assert mat_equal(rotation_pulse("-x", PI), 1j * SIGMA_X, tol=1e-15)
    # V dagger equals the -x pi pulse
    assert mat_equal(v.conj().T, rotation_pulse("-x", PI), tol=1e-15)
    half = rotation_pulse("y", PI / 2)
    ket0 = np.diag([1.0, 0.0]).astype(complex)
    assert mat_equal(half @ ket0 @ half.conj().T, (IDENTITY + SIGMA_X) / 2, tol=1e-14)
    with pytest.raises(ValueError, match="axis"):
        rotation_pulse("z", PI)


def test_pi_pulse_reverses_phase_shift():
    """V† S(theta) V = S(-theta), the relation everything else rests on."""
    v = rotation_pulse("x", PI)
    rng = np.random.default_rng(32)
    for theta in rng.uniform(-2 * PI, 2 * PI, size=30):
        assert mat_equal(v.conj().T @ phase_shift(theta) @ v, phase_shift(-theta), tol=1e-13)


def test_echo_identity_map():
    """S(t2) V† S(t2 + t1) V S(t1) leaves every state unchanged."""
    v = rotation_pulse("x", PI)
    rng = np.random.default_rng(33)
    for _ in range(100):
        t1, t2 = rng.uniform(-PI, PI, size=2)
        u = phase_shift(t2) @ v.conj().T @ phase_shift(t2 + t1) @ v @ phase_shift(t1)
        rho = random_density(rng)
        assert mat_equal(u @ rho @ u.conj().T, rho, tol=1e-12)


def test_conditional_phase_evolution():
    sys = CouplingSystem(J_REF)
    tau = 1.3e-3
    assert mat_equal(
        conditional_phase_evolution(sys, tau, 0) @ conditional_phase_evolution(sys, tau, 1),
        IDENTITY, tol=1e-14)
    assert mat_equal(conditional_phase_evolution(sys, 0.0, 0), IDENTITY, tol=1e-15)
    assert mat_equal(conditional_phase_evolution(sys, tau, 1), phase_shift(J_REF * tau / 2), tol=1e-14)
    # a full coupling period in |1> flips the sign of the coherence
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    u = conditional_phase_evolution(sys, 2 * PI / J_REF, 1)
    assert (u @ rho @ u.conj().T)[0, 1] == pytest.approx(-0.5)
    with pytest.raises(ValueError):
        conditional_phase_evolution(sys, -1e-9, 0)
    with pytest.raises(ValueError):
        conditional_phase_evolution(sys, tau, 2)


def test_coupling_system_requires_positive_j():
    with pytest.raises(ValueError):
        CouplingSystem(0.0)
    with pytest.raises(ValueError):
        CouplingSystem(-1.0)


def test_cyclic_axes():
    assert cyclic_axes(8) == AXIS_CYCLE
    assert cyclic_axes(0) == ()
    assert cyclic_axes(9) == AXIS_CYCLE + ("x",)
    assert cyclic_axes(3) == ("x", "-x", "y")
    with pytest.raises(ValueError):
        cyclic_axes(-1)


def test_event_and_schedule_validation():
    with pytest.raises(ValueError, match="target"):
        PulseEvent(0.0, 3, "x", PI)
    with pytest.raises(ValueError, match="axis"):
        PulseEvent(0.0, 1, "z", PI)
    sys = CouplingSystem(J_REF)
    good = PulseEvent(1e-3, 1, "x", PI)
    with pytest.raises(ValueError, match="sorted"):
        PulseSchedule(sys, (PulseEvent(2e-3, 1, "x", PI), good), 5e-3)
    with pytest.raises(ValueError, match="outside"):
        PulseSchedule(sys, (PulseEvent(6e-3, 1, "x", PI),), 5e-3)
    with pytest.raises(ValueError, match="outside"):
        PulseSchedule(sys, (PulseEvent(-1e-3, 1, "x", PI),), 5e-3)
    with pytest.raises(ValueError, match="total_time"):
        PulseSchedule(sys, (), -1.0)
    # events exactly on the boundaries are allowed
    PulseSchedule(sys, (PulseEvent(0.0, 1, "x", PI), PulseEvent(5e-3, 2, "x", PI)), 5e-3)


def test_empty_schedule_matches_conditional_evolution():
    sys = CouplingSystem(J_REF)
    rng = np.random.default_rng(34)
    for env_state, env in ((0, np.diag([1.0, 0.0])), (1, np.diag([0.0, 1.0]))):
        for _ in range(10):
            t = float(rng.uniform(0.0, 5e-3))
            rho_s = random_density(rng)
            sched = PulseSchedule(sys, (), t)
            reduced = partial_trace_env(simulate_schedule(sched, tensor(rho_s, env)))
            u = conditional_phase_evolution(sys, t, env_state)
            assert mat_equal(reduced, u @ rho_s @ u.conj().T, tol=1e-12)


def random_flip_schedule(rng, sys, n_q1=4, n_flips=4):
    """Random qubit-1 rotations interleaved with qubit-2 pi flips around x."""
    total = 8e-3
    times = np.sort(rng.uniform(1e-4, total - 1e-4, size=n_q1 + n_flips))
    events = []
    q1_slots = rng.permutation(n_q1 + n_flips)[:n_q1]
    for k, t in enumerate(times):
        if k in q1_slots:
            axis = ("x", "-x", "y", "-y")[int(rng.integers(4))]
            angle = float(rng.uniform(0.2, PI))
            events.append(PulseEvent(float(t), 1, axis, angle))
        else:
            events.append(PulseEvent(float(t), 2, "x", PI))
    return PulseSchedule(sys, tuple(events), total)


def test_joint_simulation_agrees_with_two_level_walk():
    """Full 4x4 evolution reduces to conditional 2x2 segments when the
    environment only ever gets pi-x flips."""
    sys = CouplingSystem(J_REF)
    rng = np.random.default_rng(35)
    for _ in range(50):
        sched = random_flip_schedule(rng, sys)
        rho_s = random_density(rng)
        joint = simulate_schedule(sched, tensor(rho_s, np.diag([1.0, 0.0])))
        reduced = partial_trace_env(joint)

        rho = rho_s.copy()
        env = 0
        now = 0.0
        for ev in sched.events:
            u = conditional_phase_evolution(sys, ev.time - now, env)
            rho = u @ rho @ u.conj().T
            now = ev.time
            if ev.target == 2:
                env = 1 - env
            else:
                r = rotation_pulse(ev.axis, ev.angle)
                rho = r @ rho @ r.conj().T
        u = conditional_phase_evolution(sys, sched.total_time - now, env)
        rho = u @ rho @ u.conj().T
        assert mat_equal(reduced, rho, tol=1e-10)


def test_regular_train_is_an_echo():
    """An even pi train with no noise window returns the initial state."""
    sys = CouplingSystem(J_REF)
    t_b = 3e-4
    rho0 = tensor((IDENTITY + SIGMA_X) / 2, np.diag([1.0, 0.0]))
    for count, axes in ((8, cyclic_axes(8)), (16, cyclic_axes(16)), (6, ("x", "-x") * 3)):
        events = tuple(PulseEvent((k + 1) * t_b, 1, ax, PI) for k, ax in enumerate(axes))
        sched = PulseSchedule(sys, events, count * t_b)
        out = simulate_schedule(sched, rho0)
        assert mat_equal(out, rho0, tol=1e-10), f"train of {count} pulses"


def test_simulate_schedule_preserves_validity():
    sys = CouplingSystem(J_REF)
    rng = np.random.default_rng(36)
    for _ in range(20):
        sched = random_flip_schedule(rng, sys, n_q1=6, n_flips=6)
        out = simulate_schedule(sched, tensor(random_density(rng), random_density(rng)))
        validate_density(out, tol=1e-12)


def test_simulate_amplitudes_matches_truncated_schedules():
    sys = CouplingSystem(J_REF)
    rng = np.random.default_rng(37)
    for _ in range(10):
        sched = random_flip_schedule(rng, sys)
        event_times = {ev.time for ev in sched.events}
        times = sorted(t for t in rng.uniform(0.0, sched.total_time, size=5)
                       if t not in event_times)
        amps = simulate_amplitudes(sched, times)
        for t, amp in zip(times, amps):
            kept = tuple(ev for ev in sched.events if ev.time <= t)
            sub = PulseSchedule(sys, kept, t)
            rho = simulate_schedule(sub, rho_00())
            expected = transverse_amplitude(partial_trace_env(rho), tol=1e-9)
            assert abs(amp - expected) < 1e-10


def test_snapshot_at_event_time_reads_the_state_before_the_pulse():
    sys = CouplingSystem(J_REF)
    tau = 1.5e-3
    sched = PulseSchedule(
        sys,
        (PulseEvent(0.0, 1, "y", PI / 2), PulseEvent(tau, 1, "x", PI)),
        2 * tau,
    )
    amp = simulate_amplitudes(sched, [tau])[0]
    # without the pi pulse the amplitude at tau is exp(+i J tau / 2)
    assert amp == pytest.approx(np.exp(0.5j * J_REF * tau), abs=1e-12)


def test_simulate_amplitudes_validation():
    sys = CouplingSystem(J_REF)
    sched = PulseSchedule(sys, (), 1e-3)
    with pytest.raises(ValueError, match="sorted"):
        simulate_amplitudes(sched, [5e-4, 1e-4])
    with pytest.raises(ValueError, match="within"):
        simulate_amplitudes(sched, [2e-3])
    assert simulate_amplitudes(sched, []).shape == (0,)


def test_same_instant_same_qubit_keeps_written_order():
    sys = CouplingSystem(J_REF)
    t = 1e-3
    rho0 = tensor(random_density(np.random.default_rng(38)), np.diag([1.0, 0.0]))
    for first, second in (("x", "y"), ("y", "x")):
        sched = PulseSchedule(
            sys,
            (PulseEvent(t, 1, first, PI / 2), PulseEvent(t, 1, second, PI / 2)),
            t,
        )
        out = simulate_schedule(sched, rho0)
        u = tensor(rotation_pulse(second, PI / 2) @ rotation_pulse(first, PI / 2), IDENTITY)
        d = np.exp(-0.25j * J_REF * t * np.array([1, -1, -1, 1]))
        free = np.diag(d)
        expected = u @ free @ rho0 @ free.conj().T @ u.conj().T
        assert mat_equal(out, expected, tol=1e-12)


# Event times: a coarse grid makes events of different kinds coincide often.
_event_time = st.one_of(
    st.integers(1, 40).map(lambda k: k * 1e-4),
    st.floats(1e-6, 4e-3, allow_nan=False),
)


@st.composite
def toggle_chunks(draw):
    """A chunk of 1-3 trials of 0-8 ascending toggles and a last column
    at or after the last toggle, with the toggle cycles read after: the
    last one, which ends at that column, and a random subset of the rest,
    each ending at an even toggle."""
    rows = draw(st.integers(1, 3))
    n_toggles = draw(st.integers(0, 8))
    times = []
    for _ in range(rows):
        toggles = sorted(draw(st.lists(_event_time, min_size=n_toggles, max_size=n_toggles)))
        times.append(toggles + [max(toggles + [draw(_event_time)])])
    read = draw(st.lists(st.booleans(), min_size=n_toggles // 2, max_size=n_toggles // 2))
    at = np.flatnonzero(read + [True])
    return np.array(times), at


@settings(max_examples=100, deadline=None, derandomize=True)
@given(toggle_chunks())
def test_toggle_walk_matches_simulate_amplitudes(chunk):
    """The toggle-only walk against the state-vector oracle, trial by trial,
    with toggles and reads at one instant on the coarse grid; the last
    column is a read time only.  The walk takes each cycle's increment, the
    interval up to an odd toggle less the interval on to the next column,
    and a lone last interval where the intervals are odd in number; the
    oracle takes the times."""
    times, at = chunk
    sys = CouplingSystem(J_REF)
    intervals = np.diff(times, axis=1, prepend=0.0)
    if intervals.shape[1] % 2:
        intervals = np.concatenate((intervals, np.zeros((len(times), 1))), axis=1)
    amps = toggle_walk(J_REF, intervals[:, 0::2] - intervals[:, 1::2], at)
    # cycle c ends at toggle 2 c + 2, column 2 c + 1, and the last at the read
    read_times = times[:, np.minimum(2 * at + 1, times.shape[1] - 1)]
    assert amps.shape == (len(times), len(at))
    # C order: a run's group sums depend on how the rows are laid out
    assert amps.flags.c_contiguous
    for row in range(len(times)):
        toggles = times[row, :-1]
        events = [PulseEvent(0.0, 1, "y", PI / 2)]
        events += [PulseEvent(float(t), 2, axis, PI) for t, axis in zip(toggles, cyclic_axes(len(toggles)))]
        schedule = PulseSchedule(sys, tuple(events), float(times[row, -1]))
        expected = simulate_amplitudes(schedule, read_times[row])
        assert np.max(np.abs(amps[row] - expected)) < 1e-12


@st.composite
def train_chunks(draw):
    """A chunk of 1-3 trials that share a train and snapshots, and the
    shift of each trial's train.

    The train is regular, on the coarse grid of `_event_time` or at a
    random offset from it, and may hold up to three pulses at random times
    among its own, which makes `PulseTrain.index` search it.  A shift is 0,
    on the grid or random, so snapshots, toggles and shifted pulses can
    coincide.  A snapshot may also be put on a pulse as one row shifts it
    or an ulp after it, and a row's toggle on such a pulse, where undoing
    the shift rounds either way.  Each row's toggles ascend and may end in
    copies of a time at or after the last snapshot, as a memory run pads
    its rows.
    """
    rows = draw(st.integers(1, 3))
    n_toggles = draw(st.integers(0, 6))
    n_pad = draw(st.integers(0, 2))
    n_train = draw(st.integers(0, 12))
    first, step = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    offset = draw(st.one_of(st.just(0.0), st.floats(0.0, step * 1e-4, exclude_max=True)))
    train = [(first + k * step) * 1e-4 + offset for k in range(n_train)]
    train = np.array(sorted(train + draw(st.lists(_event_time, max_size=3))))
    n_train = len(train)
    shift = np.array(draw(st.lists(st.one_of(st.just(0.0), st.integers(1, 4).map(lambda k: k * 1e-4),
                                             st.floats(0.0, 4e-4)), min_size=rows, max_size=rows)))
    # a pulse of the train as one of the rows shifts it
    pulse = st.tuples(st.integers(0, rows - 1), st.integers(0, n_train - 1)).map(
        lambda at: train[at[1]] + shift[at[0]])
    snapshots = draw(st.lists(_event_time, min_size=1, max_size=4))
    if n_train and draw(st.booleans()):
        snapshots[0] = draw(st.one_of(pulse, pulse.map(lambda t: np.nextafter(t, 1.0))))
    snapshots = np.array(sorted(snapshots))
    toggles = []
    for row in range(rows):
        times = draw(st.lists(_event_time, min_size=n_toggles, max_size=n_toggles))
        if n_toggles and n_train and draw(st.booleans()):
            times[0] = train[draw(st.integers(0, n_train - 1))] + shift[row]
        times.sort()
        pad = max(times + [snapshots[-1]]) + draw(st.sampled_from([0.0, 1e-4, 2.5e-4]))
        toggles.append(times + [pad] * n_pad)
    return np.array(toggles).reshape(rows, n_toggles + n_pad), train, snapshots, shift


@settings(max_examples=150, deadline=None, derandomize=True)
@given(train_chunks())
# the read at 1.1e-3 + 5e-19, less the shift, rounds onto the pulse at 1e-3, though the shifted pulse is an ulp before it
@example((np.empty((1, 0)), np.array([1e-3]), np.array([0.0011000000000000005]), np.array([0.00010000000000000037])))
def test_train_walk_matches_simulate_amplitudes(chunk):
    """The walk over a shared train, shifted a row at a time, against the
    state-vector oracle, trial by trial, with all three kinds of event at
    one instant.  Pulse k is about the cycle's axis k."""
    toggles, train, snapshots, shift = chunk
    amps = train_walk(J_REF, toggles, PulseTrain(train), snapshots, shift)
    assert amps.shape == (len(toggles), len(snapshots))
    for row in range(len(toggles)):
        pulses = train + shift[row]
        total = max([snapshots[-1], *toggles[row], *pulses])
        expected = simulate_amplitudes(_trial_schedule(J_REF, toggles[row], pulses, total), snapshots)
        assert np.max(np.abs(amps[row] - expected)) < 1e-12


def test_train_walk_orders_events_at_one_instant():
    """A three-pulse train, x, -x and y, all at tau, and a toggle at tau: a
    snapshot at tau reads before all four; the toggle goes before the y
    pulse, a -> -conj(a), and the phase then winds back with s = -1."""
    tau = 1.5e-3
    train = np.full(3, tau)
    snapshots = np.array([tau, 2 * tau])
    amps = train_walk(J_REF, np.array([[tau]]), PulseTrain(train), snapshots)
    assert amps[0, 0] == pytest.approx(np.exp(0.5j * J_REF * tau), abs=1e-15)
    assert amps[0, 1] == pytest.approx(-np.exp(-1j * J_REF * tau), abs=1e-12)
    schedule = _trial_schedule(J_REF, [tau], train, 2 * tau)
    assert np.max(np.abs(amps[0] - simulate_amplitudes(schedule, snapshots))) < 1e-12
    # without the toggle the y pulse alone acts at tau, after the first read
    alone = train_walk(J_REF, np.empty((1, 0)), PulseTrain(train), snapshots)
    assert alone[0, 0] == amps[0, 0]
    assert alone[0, 1] == pytest.approx(-1.0, abs=1e-12)


@st.composite
def indexed_trains(draw):
    """Ascending pulse times, whether a run builds trains like them, and a
    shift in [0, spacing): a memory train, ``k * spacing`` up to a horizon
    with its last pulse clamped onto it, a transmission train
    ``noise_start + k * spacing`` of up to `MAX_TRIAL_EVENTS` pulses, a
    regular train jittered by up to a fifth of its spacing, equal pulses, or
    any ascending times."""
    kind = draw(st.sampled_from(["memory", "transmission", "jittered", "equal", "any"]))
    if kind == "memory":
        spacing = draw(st.one_of(st.sampled_from([1e-5, 2e-5, 5e-5, 1e-4, 2e-4, 5e-4]), st.floats(1e-6, 1e-2)))
        horizon = draw(st.one_of(st.integers(1, 250).map(lambda k: k * 4e-3), st.floats(spacing, 1.0)))
        assume(horizon / spacing <= MAX_TRIAL_EVENTS)
        times = _memory_train(spacing, horizon)
    elif kind in ("transmission", "jittered"):
        n = draw(st.integers(1, MAX_TRIAL_EVENTS))
        start, spacing = draw(st.floats(1e-4, 1e-2)), draw(st.floats(1e-9, 1e-3))
        times = start + np.arange(n) * spacing
        if kind == "jittered":
            seed = draw(st.integers(0, 2**32 - 1))
            times = np.sort(times + spacing * np.random.default_rng(seed).uniform(-0.2, 0.2, n))
    elif kind == "equal":
        times, spacing = np.full(draw(st.integers(1, 4)), 1.5e-3), 1e-4
    else:
        times = np.array(sorted(draw(st.lists(st.floats(0.0, 1e-2), max_size=12))))
        spacing = 1e-4
    shift = draw(st.one_of(st.just(0.0), st.floats(0.0, spacing, exclude_max=True)))
    return times, kind in ("memory", "transmission"), shift


@settings(max_examples=60, deadline=None, derandomize=True)
@given(indexed_trains())
# memory_pulsed.json's train, 120 pulses up to 60 ms, and 1,200 at 50 us, whose last rounds past the horizon
@example((_memory_train(0.5e-3, 60e-3), True, 0.0))
@example((_memory_train(5e-5, 60e-3), True, 0.0))
# the longest transmission train: the index's guess strays furthest here
@example((1e-3 + np.arange(MAX_TRIAL_EVENTS) * 4e-8, True, 1.234e-8))
# the zero-spacing train of test_train_walk_orders_events_at_one_instant
@example((np.full(3, 1.5e-3), False, 0.0))
def test_pulse_train_index_is_searchsorted(case):
    """`PulseTrain.index` gives `np.searchsorted(times, t, "left")` at every
    pulse and one ulp either side, before the first pulse and after the
    last, at -0.0 and 0.0; then at each of those less the shift, and at
    each pulse shifted and the shift taken off again, as `train_walk` looks
    up a shifted train.  A train a run builds is indexed with no search."""
    times, built_by_a_run, shift = case
    train = PulseTrain(times)
    at = np.concatenate((times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf), [-0.0, 0.0]))
    if len(times):
        at = np.concatenate((at, [times[0] - 1.0, times[0] / 2, times[-1] * 2, times[-1] + 1.0]))
    at = np.concatenate((at, at - shift, (times + shift) - shift))
    expected = np.searchsorted(times, at, "left")
    search = mock.patch.object(np, "searchsorted", side_effect=AssertionError("searched"))
    with search if built_by_a_run else contextlib.nullcontext():
        assert np.array_equal(train.index(at), expected)
    # the rows of a chunk, read in one call
    rows = at[: len(at) // 2 * 2].reshape(2, -1)
    assert np.array_equal(train.index(rows), np.searchsorted(times, rows, "left"))


@pytest.mark.parametrize("times", [[2e-3, 1e-3], [1e-3, np.nan], [1e-3, np.inf], [[1e-3, 2e-3]]])
def test_pulse_train_refuses_times_it_cannot_index(times):
    """The index and the table of ``G`` need finite, ascending times in one row."""
    with pytest.raises(ValueError, match="finite, ascending 1-D"):
        PulseTrain(times)


def test_lab_frame_hamiltonian_shape():
    params = LabFrameParams(omega_1=2 * PI * 125.0, omega_2=2 * PI * 500.0, j=J_REF)
    h = lab_frame_hamiltonian(params)
    assert np.allclose(h, np.diag(np.diag(h)))
    iz = np.diag([0.5, -0.5]).astype(complex)
    expected = (-params.omega_1 * tensor(iz, IDENTITY)
                - params.omega_2 * tensor(IDENTITY, iz)
                + params.j * tensor(iz, iz))
    assert mat_equal(h, expected, tol=1e-12)


def test_rotating_frame_residual_quadratic_in_dt():
    params = LabFrameParams(omega_1=2 * PI * 125.0, omega_2=2 * PI * 500.0, j=J_REF)
    t = 1e-3
    r1 = rotating_frame_residual(params, t, 1e-6)
    r2 = rotating_frame_residual(params, t, 5e-7)
    r4 = rotating_frame_residual(params, t, 2.5e-7)
    assert 3.0 < r1 / r2 < 5.0
    assert 3.0 < r2 / r4 < 5.0


def test_rotating_frame_residual_edge_cases():
    still = LabFrameParams(omega_1=0.0, omega_2=0.0, j=J_REF)
    assert rotating_frame_residual(still, 2e-3, 1e-6) < 1e-12
    with pytest.raises(ValueError):
        rotating_frame_residual(still, 1e-3, 0.0)
    # without coupling only the finite-difference error remains
    free = LabFrameParams(omega_1=2 * PI * 125.0, omega_2=2 * PI * 500.0, j=1e-30)
    h_norm = np.linalg.norm(lab_frame_hamiltonian(free))
    assert rotating_frame_residual(free, 1e-3, 1e-7) < 1e-6 * h_norm


@pytest.mark.parametrize("hz", [500.0, 1e6, 5e8])
def test_rotating_frame_check_scales_its_steps_with_omega_2(hz):
    """The check's steps are ``FRAME_CHECK_STEPS`` at 500 Hz, bit for bit,
    and shrink as 1 / omega_2, so a library caller at NMR frequencies gets a
    resolved, passing check at the frame's phase of 1 ms at 500 Hz."""
    omega_2 = 2 * PI * hz
    check = rotating_frame_check(LabFrameParams(omega_2 / 4, omega_2, J_REF), 1e-3 * 500.0 / hz)
    assert check.steps == pytest.approx([dt * 500.0 / hz for dt in FRAME_CHECK_STEPS], rel=1e-12)
    assert check.steps == FRAME_CHECK_STEPS or hz != 500.0
    assert check.passed
