"""Shared test utilities: random states, unitaries and the embedded-window
oracle schedule."""
import numpy as np

from dephasim import CouplingSystem, PulseEvent, PulseSchedule

PI = np.pi

J_REF = 2 * PI * 215.5  # rad/s, the coupling used throughout the experiments


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

