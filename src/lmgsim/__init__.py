"""Exact collective-spin simulation on the Dicke ladder: twisting dynamics,
scrambling diagnostics, time-reversal amplification, and tomography."""

# The single source of the version: pyproject.toml reads it from here, so an
# installed package and a source tree hash their manifests alike.
__version__ = "0.1.0"

from .dicke import (
    AXIS_X,
    AXIS_Y,
    AXIS_Z,
    CollectiveSpinParams,
    DensityMatrix,
    PureState,
    SX,
    SY,
    SZ,
    SpinAxis,
    apply_spin,
    as_density,
    css,
    ladder,
    rotate,
    rotation_matrix,
    spin_component,
    state_from_json,
    state_to_json,
)
from .dynamics import (
    HamiltonianSpec,
    LindbladSpec,
    StabilityReport,
    build_hamiltonian,
    classify_stability,
    default_lindblad_dt,
    evolve_lindblad,
    evolve_unitary,
    propagator_for,
)
from .observables import (
    Antisqueezing,
    QfiResult,
    SpinMoments,
    antisqueezing,
    binder_cumulant,
    binder_from_central_moments,
    multipole_components,
    qfi,
    spin_moments,
    wigner,
    wigner_points,
    yz_moments,
)
from .scrambling import (
    DEFAULT_DELTA_PHI_GRID,
    FotocSample,
    OtocResult,
    fotoc,
    heisenberg_operator,
    otoc_from_fotoc,
    otoc_trace_form,
)
from .satin import (
    SatinConfig,
    SatinResult,
    metrological_gain,
    run_satin,
    signal_gain,
)
from .tomography import (
    BootstrapOtoc,
    FotocPipelineConfig,
    MeasurementRecord,
    MeasurementSetting,
    ReconstructionResult,
    TomographicFotoc,
    bootstrap_otoc,
    born_probabilities,
    fibonacci_directions,
    infinite_shot_records,
    reconstruct,
    records_from_json_lines,
    records_to_json_lines,
    simulate_measurements,
    tomographic_fotoc_pipeline,
    uhlmann_fidelity,
)
from .experiments import (
    ALIASES,
    ConfigError,
    ExponentFit,
    RunResult,
    expand_config,
    fit_exponent,
    load_config,
    manifest_hash,
    run_experiment,
)
