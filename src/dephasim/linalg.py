"""Exact complex linear algebra for one- and two-qubit states.

Everything here operates on plain numpy arrays of shape (2, 2) or (4, 4)
with complex dtype.  Qubit 1 (the observed spin) is always the left tensor
factor; the second factor plays the role of the environment.  Comparisons
are element-wise with an absolute tolerance, never relative.
"""
from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

# Default absolute tolerance for matrix comparisons and validity checks.
DEFAULT_TOL = 1e-10
# Eigenvalues of a density matrix may dip this far below zero before the
# positivity check rejects them (rounding slack, not physics).
EIGENVALUE_TOL = 1e-9

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z}

KET_0 = np.array([1, 0], dtype=complex)
KET_1 = np.array([0, 1], dtype=complex)


class BlochVector(NamedTuple):
    """Cartesian Bloch components of a one-qubit state."""

    a_x: float
    a_y: float
    a_z: float

    def norm(self) -> float:
        return float(np.sqrt(self.a_x**2 + self.a_y**2 + self.a_z**2))


def as_matrix(m: Iterable, dims: tuple[int, ...] = (2, 4)) -> np.ndarray:
    """Coerce ``m`` to a square complex array of an allowed dimension.

    Raises ``ValueError`` for anything that is not square 2x2 or 4x4
    (or whatever ``dims`` permits).
    """
    a = np.asarray(m, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] not in dims:
        raise ValueError(f"dimension {a.shape[0]} not in supported dims {dims}")
    return a


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def mat_equal(a, b, tol: float = DEFAULT_TOL) -> bool:
    """Element-wise equality within absolute tolerance ``tol``."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a - b)) <= tol)


def tensor(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices; qubit 1 is the left factor."""
    a = as_matrix(a, dims=(2,))
    b = as_matrix(b, dims=(2,))
    return np.kron(a, b)


def partial_trace_env(m) -> np.ndarray:
    """Trace a 4x4 operator over the right (environment) factor.

    With the composite index ordered as (system, environment), the result
    is ``rho_s[i, j] = sum_e m[2 i + e, 2 j + e]``.
    """
    m = as_matrix(m, dims=(4,))
    return m.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)


def is_hermitian(m, tol: float = DEFAULT_TOL) -> bool:
    m = np.asarray(m, dtype=complex)
    return bool(np.max(np.abs(m - m.conj().T)) <= tol)


def is_unitary(m, tol: float = DEFAULT_TOL) -> bool:
    """True when ``m m† = I`` within absolute tolerance."""
    m = as_matrix(m)
    eye = np.eye(m.shape[0], dtype=complex)
    return bool(np.max(np.abs(m @ m.conj().T - eye)) <= tol)


def is_density_matrix(m, tol: float = DEFAULT_TOL) -> bool:
    """Whether `validate_density` accepts ``m``."""
    try:
        validate_density(m, tol)
    except ValueError:
        return False
    return True


def validate_density(m, tol: float = DEFAULT_TOL, name: str = "rho") -> np.ndarray:
    """Return ``m`` as a complex array or raise ``ValueError`` with the reason."""
    m = as_matrix(m)
    if not is_hermitian(m, tol):
        raise ValueError(f"{name} is not Hermitian within tol={tol}")
    if abs(m.trace() - 1.0) > tol:
        raise ValueError(f"{name} has trace {m.trace():.12g}, expected 1")
    low = np.linalg.eigvalsh(m).min()
    if low < -EIGENVALUE_TOL:
        raise ValueError(f"{name} has negative eigenvalue {low:.3e}")
    return m


def bloch_from_density(rho, tol: float = DEFAULT_TOL) -> BlochVector:
    """Bloch components of a one-qubit density matrix.

    ``a_x + i a_y = 2 rho[1, 0]`` and ``a_z = rho[0, 0] - rho[1, 1]``.
    """
    rho = validate_density(as_matrix(rho, dims=(2,)), tol)
    amp = 2.0 * rho[1, 0]
    return BlochVector(float(amp.real), float(amp.imag), float((rho[0, 0] - rho[1, 1]).real))


def density_from_bloch(b, tol: float = DEFAULT_TOL) -> np.ndarray:
    """Density matrix ``(I + a_x X + a_y Y + a_z Z) / 2`` from Bloch components.

    Rejects vectors outside the unit ball (norm > 1 + tol).
    """
    a_x, a_y, a_z = (float(c) for c in b)
    norm = np.sqrt(a_x**2 + a_y**2 + a_z**2)
    if norm > 1.0 + tol:
        raise ValueError(f"Bloch vector norm {norm:.12g} exceeds 1")
    return 0.5 * (IDENTITY + a_x * SIGMA_X + a_y * SIGMA_Y + a_z * SIGMA_Z)


def transverse_amplitude(rho, tol: float = DEFAULT_TOL) -> complex:
    """In-plane amplitude ``a_x + i a_y`` of a one-qubit state.

    This is the quantity an NMR-style quadrature measurement reports; its
    argument is the signal phase.
    """
    rho = validate_density(as_matrix(rho, dims=(2,)), tol)
    return complex(2.0 * rho[1, 0])
