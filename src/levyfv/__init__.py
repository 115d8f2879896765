"""Monotone finite-volume solver and verification suite for nonlocal
degenerate convection-diffusion problems with exterior data."""

from .measures import (
    AtomicSymmetric,
    DyadicA,
    DyadicB,
    FractionalRadial,
    LevyMeasure,
    MomentReport,
    ScaledMeasure,
    SumMeasure,
    measure_from_config,
    single_atom,
    truncate,
    validate_measure,
    weighted_tv_distance,
    zero_measure,
)
from .multiplier import MultiplierEval, multiplier_inf_estimate
from .stencil import (
    StencilWeights,
    apply_stencil,
    bilinear_energy,
    build_stencil,
    fourier_energy_check,
    zero_extended_energy,
)
from .problem import (
    DiffusionFn,
    ExteriorData,
    FluxFn,
    ProblemSpec,
    discretize,
    make_problem,
    problem_from_config,
    validate_problem,
)
from .scheme import (
    SchemeConfig,
    Trajectory,
    cfl_max_dt,
    l1_q_distance,
    picard_solve,
    solve,
    stability_run,
    step,
    vanishing_viscosity_run,
)
from . import analysis

__version__ = "0.1.0"
