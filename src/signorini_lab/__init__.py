"""Desk-scale laboratory for incompressible Signorini energies."""

from .geometry import (
    Mesh,
    MeshError,
    ObstacleError,
    ObstacleSet,
    build_box_mesh,
    extract_obstacle,
    integrate_volume,
    read_mesh_file,
)
from .kinematics import (
    DeformationField,
    DisplacementField,
    determinant_expansion_check,
    extract_displacement,
    optimal_rotation,
    translations,
)
from .loads import (
    AdmissibilityReport,
    KernelClass,
    LoadError,
    LoadSpec,
    Rotation,
    affine_field,
    classify_kernel,
    constant_field,
    nodal_field,
    phi,
    verify_global_admissibility,
)
from .material import (
    MaterialError,
    MaterialModel,
    quadratic_form_QI,
    verify_taylor_remainder,
    yeoh_material,
)
from .recovery import (
    FlowDomainError,
    FlowResult,
    RecoveryStep,
    SmoothField,
    UnderResolvedError,
    bogovskii_correct,
    build_recovery_sequence,
    integrate_flow,
    mollify,
    verify_upper_bound,
)
from .solvers import (
    NonlinearProblem,
    QuadraticProblem,
    SolveFailure,
    SolveResult,
    Variant,
    eval_limit,
    max_load_over_kernel,
    minimize_limit,
    minimize_nonlinear,
    optimal_shear_b,
    tilde_lift,
)
from .harness import (
    ConvergenceRecord,
    ExperimentConfig,
    ExperimentError,
    ExperimentReport,
    emit_outputs,
    parse_config,
    run_experiment,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
