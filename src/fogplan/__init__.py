"""Availability-aware fog service placement with multiobjective EAs."""

from .fsdp import ObjectiveVector, ProblemInstance, ViolationVector, evaluate, is_feasible
from .model import Application, Colony, Landscape, Resource, Service
from .moea import ALGORITHMS, AlgoParams, ParetoArchive, select_compromise
from .scenario import ScenarioSpec, paper_scenario, scaled_scenario

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "AlgoParams",
    "Application",
    "Colony",
    "Landscape",
    "ObjectiveVector",
    "ParetoArchive",
    "ProblemInstance",
    "Resource",
    "ScenarioSpec",
    "Service",
    "ViolationVector",
    "evaluate",
    "is_feasible",
    "paper_scenario",
    "scaled_scenario",
    "select_compromise",
]
