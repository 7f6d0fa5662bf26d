"""Quantum Fisher information and the geometry of qubit state space.

Computes classical Fisher information of POVMs, symmetric logarithmic
derivatives and quantum Fisher information, the closed-form mixed-qubit
metrics (sphere + transverse), the full Fisher tensor with its metric and
symplectic parts, and bound-attainability analysis of measurements.
"""

from .errors import (
    ChartSingularity,
    DegenerateSld,
    DimensionMismatch,
    DimensionUnsupported,
    DomainError,
    InputError,
    InvalidPovm,
    InvariantViolation,
    NonFiniteResult,
    NonHermitianInput,
    NotAPovm,
    NotNormalized,
    NotOrthogonal,
    NotPositiveSemidefinite,
    NotTangentForm,
    ParseError,
    QfgError,
    SupportMismatch,
    TableResolutionError,
    ZeroVelocityCurve,
)
from .fisher import (
    FisherTensorValue,
    Povm,
    QubitQfi,
    WavefunctionGrid,
    classical_fisher,
    fisher_tensor,
    fisher_tensor_general,
    pure_qdit_fisher,
    qfi_qubit_closed_form,
    quantum_fisher,
    total_fisher_metric,
    wavefunction_fisher,
)
from .geometry import (
    KahlerPair,
    complex_structure,
    coordinate_forms,
    fs_kks_at,
    g_kks,
    hermitian_form_pullback,
    k_generator,
    reference_density,
    round_s3_metric,
    sphere_generator,
    sphere_tangent_matrix,
)
from .linalg import (
    DensityOp,
    herm_eigen,
    psd_sqrt,
    require_hermitian,
)
from .optimize import (
    AttainabilityReport,
    MixedConditionReport,
    OptimizeResult,
    ReachResult,
    attainability_check,
    bloch_vector,
    fibonacci_sphere,
    maximize_cfi,
    mixed_conditions_check,
    reach_check_pure,
    sld_eigenbasis_povm,
)
from .scenario import Options, Scenario, load_scenario, parse_scenario
from .sld import (
    ANALYTIC,
    FD,
    GreatCirclePure,
    PureQditCoeffs,
    SphereCurve,
    TableCurve,
    TransverseCurve,
    assemble_drho,
    differentiate_curve,
    sld_solve,
    sld_transverse,
)
from .states import (
    AT_INFINITY,
    Chart,
    PureState,
    QubitPoint,
    S3Point,
    chart_convert,
    from_spherical,
    pure_projector,
    qubit_point,
    rho_of_kz,
    s3_embed,
    s3_tangent,
    spherical_tangent,
    unitary_of_z,
)

__version__ = "0.1.0"
