"""Simulation and analysis toolkit for a stochastic delayed phage-coinfection model."""

from .dde import DecayFit, Trajectory, fit_decay, integrate, monitor_region
from .equilibria import StabilityInfo, stability_at_e0
from .history import History
from .hypotheses import (
    RegionBounds,
    ValidationReport,
    compute_nu,
    invariant_region,
    minimal_dose,
    validate,
)
from .model import Parameters, SigmaFn
from .scenario import Scenario, parse_scenario
from .sde import (
    ConcentrationTable,
    EnsembleStats,
    PathConfig,
    concentration_experiment,
    ensemble,
    sample_path,
)

__version__ = "0.1.0"
