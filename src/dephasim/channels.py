"""Quantum channels in operator-sum form and their physical constructions.

A channel is a list of 2x2 operators ``E_k`` acting as
``rho -> sum_k E_k rho E_k†`` with the completeness constraint
``sum_k E_k† E_k = I`` (trace preservation).  The module builds the same
dephasing channel three ways: directly from its operators, by tracing an
environment qubit out of a joint unitary, and by classically mixing
unitaries.  Map-level equality between the constructions is the main
consistency check.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOL,
    IDENTITY,
    KET_0,
    KET_1,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint,
    as_matrix,
    is_unitary,
    tensor,
    validate_density,
)

# Completeness defect allowed at construction time.
COMPLETENESS_TOL = 1e-10
# Mixing probabilities must sum to one this tightly.
PROBABILITY_TOL = 1e-12


def _frozen(ops) -> tuple[np.ndarray, ...]:
    out = []
    for op in ops:
        a = np.array(op, dtype=complex)
        a.setflags(write=False)
        out.append(a)
    return tuple(out)


@dataclass(frozen=True, eq=False)
class KrausChannel:
    """Trace-preserving map given by 2x2 operator-sum terms.

    Zero operators are legal and kept as written; they matter when a
    construction naturally produces them (pure environment states,
    degenerate probabilities).
    """

    operators: tuple[np.ndarray, ...]
    label: str = ""

    def __post_init__(self):
        if len(self.operators) == 0:
            raise ValueError("channel needs at least one operator")
        ops = _frozen(as_matrix(op, dims=(2,)) for op in self.operators)
        object.__setattr__(self, "operators", ops)
        defect = self.completeness_defect()
        if defect > COMPLETENESS_TOL:
            raise ValueError(
                f"operators violate completeness: max |sum E†E - I| = {defect:.3e}"
            )

    def completeness_defect(self) -> float:
        acc = sum(adjoint(e) @ e for e in self.operators)
        return float(np.max(np.abs(acc - IDENTITY)))

    def apply(self, rho, tol: float = DEFAULT_TOL) -> np.ndarray:
        """Apply the channel to a one-qubit density matrix."""
        rho = validate_density(as_matrix(rho, dims=(2,)), tol)
        return self._apply_matrix(rho)

    def _apply_matrix(self, m: np.ndarray) -> np.ndarray:
        # No density validation: used for map-level comparisons on a full
        # operator basis, where inputs are not states.
        out = np.zeros((2, 2), dtype=complex)
        for e in self.operators:
            out += e @ m @ e.conj().T
        return out


@dataclass(frozen=True, eq=False)
class MixingEnsemble:
    """Unitaries applied with classical probabilities."""

    unitaries: tuple[np.ndarray, ...]
    probabilities: tuple[float, ...]

    def __post_init__(self):
        if len(self.unitaries) == 0:
            raise ValueError("ensemble needs at least one unitary")
        if len(self.unitaries) != len(self.probabilities):
            raise ValueError("unitaries and probabilities differ in length")
        us = _frozen(as_matrix(u, dims=(2,)) for u in self.unitaries)
        object.__setattr__(self, "unitaries", us)
        probs = tuple(float(p) for p in self.probabilities)
        object.__setattr__(self, "probabilities", probs)
        for p in probs:
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} outside [0, 1]")
        if abs(sum(probs) - 1.0) > PROBABILITY_TOL:
            raise ValueError(f"probabilities sum to {sum(probs):.15g}, expected 1")
        for u in us:
            if not is_unitary(u):
                raise ValueError("ensemble contains a non-unitary operator")


def _check_flip_probability(p: float) -> None:
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"flip probability {p} outside [0, 1]")


def phase_flip(p: float) -> KrausChannel:
    """Dephasing channel with operators ``{sqrt(p) I, sqrt(1-p) Z}``.

    Off-diagonal elements scale by ``2p - 1``; populations are untouched.
    """
    _check_flip_probability(p)
    ops = (np.sqrt(p) * IDENTITY, np.sqrt(1.0 - p) * SIGMA_Z)
    return KrausChannel(ops, label=f"phase_flip(p={p:g})")


def channel_from_environment(u, rho_env, tol: float = DEFAULT_TOL) -> KrausChannel:
    """Reduce a joint unitary with a 2x2 environment state to a channel.

    The environment state is spectrally decomposed,
    ``rho_env = sum_j lam_j |e_j><e_j|``, and each operator is
    ``E_{k,j} = sqrt(lam_j) <k| U |e_j>`` with ``k`` running over the
    environment basis.  All four operators are returned even when some
    weights vanish.
    """
    u = as_matrix(u, dims=(4,))
    if not is_unitary(u, tol):
        raise ValueError("joint operator is not unitary")
    rho_env = validate_density(as_matrix(rho_env, dims=(2,)), tol, name="rho_env")
    lam, vecs = np.linalg.eigh(rho_env)
    u4 = u.reshape(2, 2, 2, 2)  # [sys_out, env_out, sys_in, env_in]
    ops = []
    for j in range(2):
        weight = np.sqrt(max(lam[j], 0.0))
        v = vecs[:, j]
        for k in range(2):
            # <k|U|e_j> leaves a 2x2 operator on the system factor.
            ops.append(weight * np.tensordot(u4[:, k, :, :], v, axes=([2], [0])))
    return KrausChannel(tuple(ops), label="environment dilation")


def channel_from_mixing(ensemble: MixingEnsemble) -> KrausChannel:
    """Channel of a classical mixture: ``E_k = sqrt(p_k) U_k``."""
    ops = tuple(np.sqrt(p) * u for u, p in zip(ensemble.unitaries, ensemble.probabilities))
    return KrausChannel(ops, label="unitary mixture")


def pure_env_flip_channel(p: float) -> KrausChannel:
    """`phase_flip(p)` dilated with the environment in a pure state.

    The joint unitary ``I x |0><0| + Z x |1><1|`` applies Z to the system
    when the environment is in |1>; the environment starts in
    ``sqrt(p) |0> + sqrt(1-p) |1>``.
    """
    _check_flip_probability(p)
    psi = np.sqrt(p) * KET_0 + np.sqrt(1.0 - p) * KET_1
    u = tensor(IDENTITY, np.outer(KET_0, KET_0)) + tensor(SIGMA_Z, np.outer(KET_1, KET_1))
    return channel_from_environment(u, np.outer(psi, psi.conj()))


def mixed_env_flip_channel(p: float) -> KrausChannel:
    """`phase_flip(p)` dilated with the environment in a mixed state.

    The joint unitary ``I x |+><+| + Z x |-><-|`` applies Z to the system
    when the environment is in |->; the environment starts in
    ``p |+><+| + (1-p) |-><-|``.
    """
    _check_flip_probability(p)
    plus = np.array([1.0, 1.0]) / np.sqrt(2.0)
    minus = np.array([1.0, -1.0]) / np.sqrt(2.0)
    rho_env = p * np.outer(plus, plus) + (1.0 - p) * np.outer(minus, minus)
    u = tensor(IDENTITY, np.outer(plus, plus)) + tensor(SIGMA_Z, np.outer(minus, minus))
    return channel_from_environment(u, rho_env)


def mixture_flip_channel(p: float) -> KrausChannel:
    """`phase_flip(p)` as the mixture of I with probability p and Z otherwise."""
    _check_flip_probability(p)
    return channel_from_mixing(MixingEnsemble((IDENTITY, SIGMA_Z), (p, 1.0 - p)))


def map_deviation(a: KrausChannel, b: KrausChannel) -> float:
    """Largest element-wise difference of the two maps on the basis {I, X, Y, Z}."""
    return max(
        float(np.max(np.abs(a._apply_matrix(m) - b._apply_matrix(m))))
        for m in (IDENTITY, SIGMA_X, SIGMA_Y, SIGMA_Z)
    )


def channels_equal_as_maps(a: KrausChannel, b: KrausChannel, tol: float = DEFAULT_TOL) -> bool:
    """Compare two channels as linear maps on the operator basis {I, X, Y, Z}.

    Different operator lists can represent the same map, so comparisons on a
    basis are the only faithful equality.
    """
    return map_deviation(a, b) <= tol


@dataclass(frozen=True)
class UniformPhase:
    """Phase spread uniformly over the full circle [0, 2 pi)."""


@dataclass(frozen=True)
class GaussianPhase:
    """Zero-mean Gaussian phase with standard deviation ``std`` (radians)."""

    std: float

    def __post_init__(self):
        if self.std < 0:
            raise ValueError("standard deviation must be non-negative")


@dataclass(frozen=True)
class TwoPointPhase:
    """Phase ``+delta`` with probability ``prob_plus``, else ``-delta``."""

    delta: float
    prob_plus: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.prob_plus <= 1.0:
            raise ValueError("prob_plus must lie in [0, 1]")


def mean_phase_factor(dist) -> complex:
    """Expected value of ``exp(i theta)`` under a phase distribution.

    This is the factor multiplying the upper off-diagonal element when the
    phase-shift angle fluctuates shot to shot; its magnitude is the
    coherence retained by the average.
    """
    if isinstance(dist, UniformPhase):
        return 0j
    if isinstance(dist, GaussianPhase):
        return complex(np.exp(-0.5 * dist.std**2))
    if isinstance(dist, TwoPointPhase):
        q = dist.prob_plus
        return complex(q * np.exp(1j * dist.delta) + (1.0 - q) * np.exp(-1j * dist.delta))
    raise TypeError(f"unsupported phase distribution: {type(dist).__name__}")
