"""Experiment runners reproducing every figure of the paper's evaluation.

:mod:`repro.experiments.runner` runs one rack under one workload and
returns metrics; :mod:`repro.experiments.figures` maps each paper figure
to a parameter sweep over runner calls; :mod:`repro.experiments.report`
renders results as the text tables recorded in EXPERIMENTS.md.
"""

from repro.experiments.figures import ALL_FIGURES, FigureResult
from repro.experiments.parallel import (
    ParallelRunner,
    RunCache,
    RunSpec,
    default_jobs,
    get_runner,
    using_jobs,
)
from repro.experiments.regression import compare_figures, compare_runs
from repro.experiments.report import run_figures
from repro.experiments.results_io import load_figures, save_figures
from repro.experiments.runner import RackResult, run_rack_experiment, run_until
from repro.experiments.sweeps import Sweep, best_point

__all__ = [
    "run_rack_experiment",
    "RackResult",
    "run_until",
    "FigureResult",
    "ALL_FIGURES",
    "run_figures",
    "save_figures",
    "load_figures",
    "compare_figures",
    "compare_runs",
    "Sweep",
    "best_point",
    "ParallelRunner",
    "RunCache",
    "RunSpec",
    "default_jobs",
    "get_runner",
    "using_jobs",
]
