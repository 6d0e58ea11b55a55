"""holodisc: forced multiscale dynamics and their coarse closures.

Simulate fine Burgers-type fields under constant, harmonic, chaotic, or
white-noise forcing; evolve coarse element models carrying convolution
memory of the forcing; reduce iterated-convolution products by parts;
replace memory with weak drift and noise terms; and verify the coarse
models against the fine truth through the experiment harness.
"""

from .convolution import (
    ConvChain,
    ConvTerm,
    Reduction,
    canonical_rates,
    chain_rhs,
    integrate_chain,
    integrate_chains,
    reduce_by_parts,
)
from .errors import (
    ConfigError,
    DataError,
    HolodiscError,
    ReductionError,
    StabilityError,
)
from .forcing import (
    ElementGrid,
    SignalSpec,
    csn,
    make_signal,
    mode_decay_rate,
    project_to_modes,
)
from .harness import (
    EXPERIMENTS,
    CoarseSide,
    ComparisonReport,
    ExperimentSpec,
    FineSide,
    PairedRun,
    convergence_order,
    default_spec,
    fit_emergence_rate,
    nsm_series,
    rms,
    run_macro_forced,
    run_paired,
    spec_from_dict,
)
from .macromodel import (
    VARIANTS,
    ChainBank,
    ModelConfig,
    alternating_signs,
    build_bank,
    lattice_coarse_rhs,
    lowg_rhs,
    nsm_subgrid_field,
    ssm1_rhs,
    strongquad_rhs,
)
from .microscale import (
    burgers_rhs,
    check_scheme_legal,
    lattice_decay_rates,
    lattice_rhs,
    rk4_step,
)
from .stencil import delta2, delta4, mudelta
from .weakmodel import (
    QuadraticTermDescriptor,
    StochasticReplacement,
    WeakCoarseModel,
    build_weak_model,
    harmonic_drift_1,
    harmonic_drift_2,
    phasor_drift,
    simulate_quadrature_ensemble,
    stochastic_replace,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "HolodiscError",
    "ConfigError",
    "DataError",
    "StabilityError",
    "ReductionError",
    "csn",
    "mode_decay_rate",
    "SignalSpec",
    "make_signal",
    "ElementGrid",
    "project_to_modes",
    "delta2",
    "mudelta",
    "delta4",
    "ConvChain",
    "chain_rhs",
    "integrate_chain",
    "integrate_chains",
    "canonical_rates",
    "ConvTerm",
    "Reduction",
    "reduce_by_parts",
    "burgers_rhs",
    "lattice_rhs",
    "lattice_decay_rates",
    "rk4_step",
    "check_scheme_legal",
    "VARIANTS",
    "ModelConfig",
    "alternating_signs",
    "ChainBank",
    "build_bank",
    "lowg_rhs",
    "lattice_coarse_rhs",
    "ssm1_rhs",
    "strongquad_rhs",
    "nsm_subgrid_field",
    "harmonic_drift_1",
    "harmonic_drift_2",
    "phasor_drift",
    "QuadraticTermDescriptor",
    "StochasticReplacement",
    "stochastic_replace",
    "simulate_quadrature_ensemble",
    "WeakCoarseModel",
    "build_weak_model",
    "rms",
    "fit_emergence_rate",
    "convergence_order",
    "ExperimentSpec",
    "ComparisonReport",
    "spec_from_dict",
    "default_spec",
    "FineSide",
    "CoarseSide",
    "PairedRun",
    "run_paired",
    "run_macro_forced",
    "nsm_series",
    "EXPERIMENTS",
]
