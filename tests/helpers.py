"""Shared test utilities: random states, the embedded-window oracle schedule
and `phase_walk`, the merged walk that `toggle_walk` and `train_walk` are
checked against."""
import numpy as np

from dephasim import AXIS_CYCLE, CouplingSystem, PulseEvent, PulseSchedule

PI = np.pi

J_REF = 2 * PI * 215.5  # rad/s, the coupling used throughout the experiments

# `phase_walk`'s codes of the cycle's pi pulses: 3 for ±x (a -> conj(a)), 7 for ±y (a -> -conj(a))
_CYCLE_CODES = np.array([7 if "y" in axis else 3 for axis in AXIS_CYCLE], dtype=np.int8)


def random_pure_density(rng, dim=2):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi /= np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def random_density(rng, dim=2, terms=3):
    """Random full-rank-ish density matrix: convex mix of random pure states."""
    weights = rng.uniform(0.1, 1.0, size=terms)
    weights /= weights.sum()
    rho = np.zeros((dim, dim), dtype=complex)
    for w in weights:
        rho += w * random_pure_density(rng, dim)
    return rho


def random_unitary(rng, dim=2):
    z = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def rho_00():
    """Both qubits in |0>."""
    rho = np.zeros((4, 4), dtype=complex)
    rho[0, 0] = 1.0
    return rho


def window_schedule(case, eps0, eps1, spacing, j, pairs):
    """Schedule realizing one parity case of an embedded noise window.

    A regular all-x pi train runs on qubit 1 at times k*spacing for
    k = 1..count with total time count*spacing, so with even count the
    train alone is a perfect echo.  The environment toggles up at t1 and
    down at t1 + delta, placed so that the first pulse inside the window
    sits eps0 after t1 and the last one eps1 before t1 + delta, with the
    pre-window and in-window pulse counts carrying the case parities
    (1: even/even, 2: even/odd, 3: odd/even, 4: odd/odd).
    """
    pre = 2 if case in (1, 2) else 3
    inside = 2 * pairs if case in (1, 3) else 2 * pairs + 1
    count = pre + inside + 2
    if count % 2:
        count += 1  # even train = net identity without the window
    t1 = pre * spacing + (spacing - eps0)
    delta = eps0 + (inside - 1) * spacing + eps1
    events = [
        PulseEvent(0.0, 1, "y", PI / 2),
        PulseEvent(t1, 2, "x", PI),
        PulseEvent(t1 + delta, 2, "x", PI),
    ]
    events += [PulseEvent(k * spacing, 1, "x", PI) for k in range(1, count + 1)]
    events.sort(key=lambda ev: ev.time)
    return PulseSchedule(CouplingSystem(j), tuple(events), count * spacing)


def phase_walk(j: float, toggles: np.ndarray, pulses: np.ndarray, snapshots: np.ndarray) -> np.ndarray:
    """Qubit-1 transverse amplitudes of a chunk of trials, one trial a row.

    Each trial starts like the schedules of `simulate_amplitudes`: both
    qubits in |0> and a y pi/2 pulse at t = 0 set ``a = a_x + i a_y`` to 1.
    Three kinds of event follow, given as (trials x events) arrays of times:

    * ``toggles``: pi pulses on qubit 2, which reverse the sign ``s``;
    * ``pulses``: pi pulses on qubit 1, column k about ``AXIS_CYCLE[k % 8]``,
      ``a -> eps * conj(a)`` with ``eps`` 1 for ±x and -1 for ±y;
    * ``snapshots``: positive times, ascending in each row, at which ``a``
      is recorded; returned as a (trials x snapshots) array.

    Events after a row's last snapshot change nothing, so they can pad
    rows to a common length.

    Free evolution for ``tau`` multiplies ``a`` by ``exp(i s J tau / 2)``,
    with ``s = +1`` while qubit 2 sits in |0>.  So
    ``a = E exp(i sigma J psi / 2)``, where ``psi`` is the time integral of
    a sign that every toggle and every pulse reverses (the switching
    function), ``sigma`` is -1 after an odd number of pulses and ``E`` is
    the product of their ``eps``: all three are cumulative along the
    merged, time-ordered events of each row.  Events at one instant run in
    the order snapshot, toggle, pulse, as in `simulate_amplitudes`, which
    is the exact oracle for this walk.
    """
    n, n_snap = snapshots.shape
    times = np.concatenate((snapshots, toggles, pulses), axis=1)
    # per column, bit 0: reverses the rate sign; bit 1: a pulse; bit 2: eps = -1
    codes = np.concatenate((
        np.zeros(n_snap, dtype=np.int8),
        np.ones(toggles.shape[1], dtype=np.int8),
        _CYCLE_CODES.take(np.arange(pulses.shape[1]) % len(AXIS_CYCLE)),
    ))
    # a stable sort keeps the column order (snapshot, toggle, pulse) on ties
    codes = codes[np.argsort(times, axis=1, kind="stable")]
    times.sort(axis=1)
    # parity bits of the events up to and including each one
    parity = np.bitwise_xor.accumulate(codes, axis=1)
    # interval lengths along the flattened rows; each row's first runs from t = 0
    psi = np.empty_like(times)
    np.subtract(times.ravel()[1:], times.ravel()[:-1], out=psi.ravel()[1:])
    psi[:, 0] = times[:, 0]
    del times   # keeps the (trials x events) temporaries to two at a time
    # each interval has the rate sign left by the events before its end
    psi *= 1 - 2 * ((parity ^ codes) & 1)
    np.cumsum(psi, axis=1, out=psi)
    at = np.flatnonzero(codes == 0)
    psi = psi.ravel()[at].reshape(n, n_snap)
    parity = parity.ravel()[at].reshape(n, n_snap)
    sigma = 1 - (parity & 2)
    eps = 1 - ((parity & 4) >> 1)
    return eps * np.exp(0.5j * j * (sigma * psi))
