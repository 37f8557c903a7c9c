"""TensorKMC core: triple-encoding, vacancy cache, rates, and the engine."""

from .engine import KMCEvent, NoMovesError, SerialAKMCBase, TensorKMCEngine
from .kernel import EventKernel, KernelStats
from .profiling import PhaseProfiler
from .propensity import FenwickPropensity, LinearPropensity, PropensityStore
from .rates import RateModel, residence_time
from .tet import TripleEncoding
from .vacancy_cache import VacancyCache
from .vacancy_system import StateEnergies, VacancySystemEvaluator

__all__ = [
    "KMCEvent",
    "NoMovesError",
    "SerialAKMCBase",
    "TensorKMCEngine",
    "EventKernel",
    "KernelStats",
    "PhaseProfiler",
    "FenwickPropensity",
    "LinearPropensity",
    "PropensityStore",
    "RateModel",
    "residence_time",
    "TripleEncoding",
    "VacancyCache",
    "StateEnergies",
    "VacancySystemEvaluator",
]
