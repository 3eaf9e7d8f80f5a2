"""Two-qubit engineered-dephasing simulator with bang-bang decoupling.

A single observed qubit is Ising-coupled to a neighbour that is toggled
like a classical bit.  The package builds the resulting dephasing channel
three equivalent ways, simulates pulse schedules exactly, and runs the
Monte Carlo transmission and memory experiments whose ensemble averages
follow closed-form decay laws.
"""

from .linalg import (
    BlochVector,
    DEFAULT_TOL,
    IDENTITY,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    adjoint,
    bloch_from_density,
    density_from_bloch,
    is_density_matrix,
    is_hermitian,
    is_unitary,
    mat_equal,
    partial_trace_env,
    tensor,
    transverse_amplitude,
    validate_density,
)
from .channels import (
    GaussianPhase,
    KrausChannel,
    MixingEnsemble,
    TwoPointPhase,
    UniformPhase,
    channel_from_environment,
    channel_from_mixing,
    channels_equal_as_maps,
    map_deviation,
    mean_phase_factor,
    mixed_env_flip_channel,
    mixture_flip_channel,
    phase_flip,
    pure_env_flip_channel,
)
from .pulse import (
    AXIS_CYCLE,
    CouplingSystem,
    LabFrameParams,
    PulseEvent,
    PulseSchedule,
    PulseTrain,
    conditional_phase_evolution,
    cyclic_axes,
    lab_frame_hamiltonian,
    phase_shift,
    rotating_frame_check,
    rotating_frame_residual,
    rotation_pulse,
    simulate_amplitudes,
    simulate_schedule,
    toggle_walk,
    train_walk,
)
from .experiments import (
    DecayCurve,
    EnsembleResult,
    ExponentialFit,
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
    prediction,
    run_memory,
    run_transmission,
    transmission_schedule,
)

__version__ = "0.1.0"
