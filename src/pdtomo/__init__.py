"""Matrix-free primal-dual solvers with a fan-beam CT test bench."""

__version__ = "0.1.0"

from .linop import LinearMap, stack
from .ct import (
    FanBeamGeometry,
    ImageGrid,
    Sinogram,
    build_geometry,
    fov_active,
    gradient,
    projector,
)
from .prox import (
    Grid1D,
    ProxResult,
    clip_linf,
    lf_transform_numeric,
    project_l1_ball,
    prox_lsq_conjugate,
    prox_tvc_conjugate,
    shrink,
)
from .spectral import (
    EigenSet,
    StepPlan,
    build_lowrank_T,
    diagonal_steps,
    leading_eigenpairs,
    lowrank_steps,
    scalar_steps,
    spectral_norm,
)
from .solver import (
    ConvergenceRecord,
    DivergenceError,
    ProblemSpec,
    SaddleState,
    cppd_step,
    run_cgls,
    run_cppd,
    run_gd_lsq,
)
from .phantom import GRAY_WINDOWS, Phantom, generate, gmi, phantom_tv
from .config import ConfigError, ExperimentConfig, load_config

__all__ = [
    "__version__",
    "LinearMap",
    "stack",
    "FanBeamGeometry",
    "ImageGrid",
    "Sinogram",
    "build_geometry",
    "fov_active",
    "gradient",
    "projector",
    "Grid1D",
    "ProxResult",
    "clip_linf",
    "lf_transform_numeric",
    "project_l1_ball",
    "prox_lsq_conjugate",
    "prox_tvc_conjugate",
    "shrink",
    "EigenSet",
    "StepPlan",
    "build_lowrank_T",
    "diagonal_steps",
    "leading_eigenpairs",
    "lowrank_steps",
    "scalar_steps",
    "spectral_norm",
    "ConvergenceRecord",
    "DivergenceError",
    "ProblemSpec",
    "SaddleState",
    "cppd_step",
    "run_cgls",
    "run_cppd",
    "run_gd_lsq",
    "GRAY_WINDOWS",
    "Phantom",
    "generate",
    "gmi",
    "phantom_tv",
    "ConfigError",
    "ExperimentConfig",
    "load_config",
]
