"""Execution-engine selection.

Two engines share one timing model: the reference interpreter
(:class:`~repro.pipette.interp.StageInterp`), which is the oracle, and the
batch-advance whole-stage compiler (:mod:`repro.pipette.batchpath`), which
is the default and falls back to the reference interpreter per stage for
shapes it cannot compile. Both produce bit-identical :class:`SimStats`.
"""

import os

from .interp import StageInterp

#: The execution engines, oracle first.
ENGINES = ("reference", "batch")

#: Environment default for runs that pass no explicit engine. It sits
#: *below* explicit arguments in priority: CI sets REPRO_ENGINE per matrix
#: leg, and the differential tests inside a leg must still be able to pin
#: each engine explicitly without the environment leaking into the oracle
#: side of the comparison.
ENGINE_ENV = "REPRO_ENGINE"

#: The class a batch stage falls back to. It keeps this name because
#: ``perfbench/hooks.py`` imports it to tell a fallen-back batch stage from
#: a compiled one.
FastStageInterp = StageInterp


def resolve_engine(pipeline, engine=None):
    """Pick one of :data:`ENGINES` for ``pipeline``.

    Priority: explicit ``engine`` > ``REPRO_ENGINE`` > ``"batch"``. An
    unknown name raises :class:`ValueError` listing the valid ones. The
    choice does not depend on ``pipeline``; the parameter stays for callers
    such as ``perfbench/child.py``.
    """
    choice = engine or os.environ.get(ENGINE_ENV) or "batch"
    if choice not in ENGINES:
        raise ValueError(
            "unknown engine %r (expected one of %s)" % (choice, ", ".join(ENGINES))
        )
    return choice
