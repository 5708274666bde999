"""Evaluation harness regenerating the paper's figures.

``harness`` runs variant suites behind the unified :class:`BenchAdapter`;
``parallel`` fans independent jobs over a worker pool; ``experiments``
holds the per-figure drivers; ``report`` renders ASCII figures plus the
cache/wall-time summaries.
"""

from .harness import (
    DP_THREADS,
    QUICK,
    BenchAdapter,
    adapter_for,
    gmean_speedup,
    normalized_breakdowns,
    normalized_energy,
    profile_guided_pipeline,
    run_suite,
)
from .parallel import Job, JobResult, resolve_jobs, run_jobs

__all__ = [
    "DP_THREADS",
    "QUICK",
    "BenchAdapter",
    "adapter_for",
    "gmean_speedup",
    "normalized_breakdowns",
    "normalized_energy",
    "profile_guided_pipeline",
    "run_suite",
    "Job",
    "JobResult",
    "resolve_jobs",
    "run_jobs",
]
