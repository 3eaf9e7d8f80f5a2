import numpy as np
import pytest
from scipy import integrate

from dephasim import (
    GaussianPhase,
    IDENTITY,
    KrausChannel,
    MixingEnsemble,
    SIGMA_X,
    SIGMA_Z,
    TwoPointPhase,
    UniformPhase,
    bloch_from_density,
    channel_from_environment,
    channel_from_mixing,
    channels_equal_as_maps,
    map_deviation,
    mat_equal,
    mean_phase_factor,
    mixed_env_flip_channel,
    mixture_flip_channel,
    partial_trace_env,
    phase_flip,
    phase_shift,
    pure_env_flip_channel,
    tensor,
    transverse_amplitude,
)

from helpers import random_density, random_unitary


def test_phase_flip_operators():
    ch = phase_flip(0.25)
    assert len(ch.operators) == 2
    assert mat_equal(ch.operators[0], 0.5 * IDENTITY, tol=1e-15)
    assert mat_equal(ch.operators[1], np.sqrt(0.75) * SIGMA_Z, tol=1e-15)
    # degenerate probabilities keep their zero operator
    assert len(phase_flip(0.0).operators) == 2
    assert len(phase_flip(1.0).operators) == 2


def test_phase_flip_action():
    rho = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    assert mat_equal(phase_flip(1.0).apply(rho), rho)
    flipped = phase_flip(0.0).apply(rho)
    assert flipped[0, 1] == pytest.approx(-0.5)
    assert mat_equal(phase_flip(0.5).apply(rho), IDENTITY / 2)
    # off-diagonal scales by 2p - 1
    out = phase_flip(0.75).apply(rho)
    assert out[0, 1] == pytest.approx(0.25)


def test_phase_flip_rejects_bad_probability():
    for build in (phase_flip, pure_env_flip_channel, mixed_env_flip_channel, mixture_flip_channel):
        for p in (-0.1, 1.1, 2.0):
            with pytest.raises(ValueError, match="outside"):
                build(p)


def test_completeness_enforced():
    with pytest.raises(ValueError, match="completeness"):
        KrausChannel((SIGMA_Z * 0.5,))
    with pytest.raises(ValueError, match="at least one"):
        KrausChannel(())
    ch = KrausChannel((IDENTITY,))
    assert ch.completeness_defect() < 1e-15


def test_trace_preservation_and_positivity_on_random_inputs():
    """1000 random states through assorted channels stay valid states."""
    rng = np.random.default_rng(21)
    chans = [
        phase_flip(0.3),
        pure_env_flip_channel(0.4),
        channel_from_mixing(MixingEnsemble(
            (IDENTITY, SIGMA_Z, phase_shift(0.9)), (0.2, 0.3, 0.5))),
    ]
    for k in range(1000):
        rho = random_density(rng)
        out = chans[k % len(chans)].apply(rho)
        assert abs(out.trace() - 1.0) < 1e-12
        assert np.max(np.abs(out - out.conj().T)) < 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-9


def test_phase_channels_contract_amplitude_and_keep_populations():
    rng = np.random.default_rng(22)
    mix = channel_from_mixing(MixingEnsemble(
        (phase_shift(0.4), phase_shift(-1.1)), (0.5, 0.5)))
    for _ in range(100):
        rho = random_density(rng)
        for ch in (phase_flip(0.65), mix):
            out = ch.apply(rho)
            assert abs(transverse_amplitude(out)) <= abs(transverse_amplitude(rho)) + 1e-12
            assert bloch_from_density(out).a_z == pytest.approx(bloch_from_density(rho).a_z, abs=1e-12)


def test_dilation_matches_partial_trace_on_random_inputs():
    """Kraus form of a dilation reproduces the traced-out joint evolution."""
    rng = np.random.default_rng(23)
    for _ in range(200):
        u = random_unitary(rng, dim=4)
        rho_e = random_density(rng)
        rho_s = random_density(rng)
        ch = channel_from_environment(u, rho_e)
        direct = partial_trace_env(u @ tensor(rho_s, rho_e) @ u.conj().T)
        assert mat_equal(ch.apply(rho_s), direct, tol=1e-10)


def test_dilation_of_flip_unitary_is_phase_flip():
    for p in (0.0, 0.25, 0.5, 1.0):
        assert channels_equal_as_maps(pure_env_flip_channel(p), phase_flip(p), tol=1e-12)
    # identity joint unitary gives the identity channel whatever the environment
    ch = channel_from_environment(np.eye(4), np.diag([0.3, 0.7]))
    assert channels_equal_as_maps(ch, KrausChannel((IDENTITY,)), tol=1e-12)


def test_mixed_environment_dilation_is_phase_flip():
    """A CNOT-like unitary with a mixed +/- environment dephases identically."""
    for p in (0.0, 0.25, 0.5, 1.0):
        assert channels_equal_as_maps(mixed_env_flip_channel(p), phase_flip(p), tol=1e-12)


def test_dilation_input_validation():
    with pytest.raises(ValueError, match="unitary"):
        channel_from_environment(np.diag([1, 1, 1, 2]), np.eye(2) / 2)
    with pytest.raises(ValueError):
        channel_from_environment(np.eye(4), np.eye(2))


def test_mixing_constructions():
    assert channels_equal_as_maps(mixture_flip_channel(0.5), phase_flip(0.5))
    single = channel_from_mixing(MixingEnsemble((SIGMA_X,), (1.0,)))
    rho = np.diag([0.8, 0.2]).astype(complex)
    assert mat_equal(single.apply(rho), SIGMA_X @ rho @ SIGMA_X, tol=1e-14)


def test_opposite_phase_shift_mixture_gives_cosine():
    rng = np.random.default_rng(24)
    for theta in rng.uniform(-np.pi, np.pi, size=20):
        ch = channel_from_mixing(MixingEnsemble(
            (phase_shift(theta), phase_shift(-theta)), (0.5, 0.5)))
        rho = np.array([[0.5, 0.4 - 0.1j], [0.4 + 0.1j, 0.5]])
        out = ch.apply(rho)
        assert out[0, 1] == pytest.approx(np.cos(theta) * rho[0, 1], abs=1e-12)


def test_mixing_validation():
    with pytest.raises(ValueError, match="sum"):
        MixingEnsemble((IDENTITY, SIGMA_Z), (0.5, 0.6))
    with pytest.raises(ValueError, match="outside"):
        MixingEnsemble((IDENTITY, SIGMA_Z), (1.5, -0.5))
    with pytest.raises(ValueError, match="length"):
        MixingEnsemble((IDENTITY,), (0.5, 0.5))
    with pytest.raises(ValueError, match="non-unitary"):
        MixingEnsemble((IDENTITY + SIGMA_Z,), (1.0,))
    with pytest.raises(ValueError, match="at least one"):
        MixingEnsemble((), ())


def test_map_equality_semantics():
    assert not channels_equal_as_maps(phase_flip(0.3), phase_flip(0.7))
    # X maps to (2p - 1) X, so the off-diagonal entries differ by 0.8
    assert map_deviation(phase_flip(0.3), phase_flip(0.7)) == pytest.approx(0.8, abs=1e-15)
    ch = phase_flip(0.25)
    assert map_deviation(ch, ch) == 0.0
    permuted = KrausChannel(tuple(reversed(ch.operators)))
    assert channels_equal_as_maps(ch, permuted)


def test_mean_phase_factor_uniform_and_two_point():
    assert mean_phase_factor(UniformPhase()) == 0j
    for delta in (0.0, 0.7, np.pi / 2, 2.0):
        assert mean_phase_factor(TwoPointPhase(delta)) == pytest.approx(np.cos(delta))
    val = mean_phase_factor(TwoPointPhase(0.9, prob_plus=0.8))
    assert val == pytest.approx(0.8 * np.exp(0.9j) + 0.2 * np.exp(-0.9j))


def test_mean_phase_factor_gaussian_against_quadrature():
    """Closed form e^{-s^2/2} must match direct numeric integration."""
    for s in (0.1, 0.5, 1.0, 2.0):
        def integrand(x, s=s):
            return np.cos(x) * np.exp(-x**2 / (2 * s**2)) / (s * np.sqrt(2 * np.pi))
        numeric, err = integrate.quad(integrand, -np.inf, np.inf)
        closed = mean_phase_factor(GaussianPhase(s))
        assert closed.imag == 0.0
        assert closed.real == pytest.approx(numeric, abs=max(1e-12, 10 * err))
        assert abs(closed) <= 1.0


def test_phase_distribution_validation():
    with pytest.raises(ValueError):
        GaussianPhase(-0.1)
    with pytest.raises(ValueError):
        TwoPointPhase(0.5, prob_plus=1.2)
    with pytest.raises(TypeError):
        mean_phase_factor("uniform")
