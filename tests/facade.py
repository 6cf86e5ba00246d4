"""Test-suite helpers over the :class:`repro.api.AnalysisSession` facade.

The deprecated free functions (``analyze_program``, ``analyze_image``,
``analyze_incremental``, ``optimize_program``) are gone; the session
facade is the only supported entry point.  Most tests just want "give
me the analysis for this program" without spelling out session
construction, so these wrappers keep call sites one line.
"""

from typing import Optional, Sequence

from repro.api import AnalysisConfig, AnalysisSession
from repro.interproc.analysis import InterproceduralAnalysis
from repro.interproc.incremental import IncrementalAnalysis
from repro.interproc.persist import SummaryCache
from repro.program.image import ExecutableImage
from repro.program.model import Program


def analyze_program(
    program: Program, config: Optional[AnalysisConfig] = None
) -> InterproceduralAnalysis:
    """Serial analysis of an in-memory program via the facade."""
    return AnalysisSession.from_program(program, config).analyze()


def analyze_image(
    image: ExecutableImage, config: Optional[AnalysisConfig] = None
) -> InterproceduralAnalysis:
    """Serial analysis of an executable image via the facade."""
    return AnalysisSession.from_image(image, config).analyze()


def analyze_incremental(
    program: Program,
    cache: Optional[SummaryCache] = None,
    config: Optional[AnalysisConfig] = None,
) -> IncrementalAnalysis:
    """Incremental analysis via the facade (cold when ``cache=None``)."""
    session = AnalysisSession.from_program(program, config)
    return session.analyze_incremental(cache=cache)


def optimize_program(
    program: Program,
    passes: Optional[Sequence[str]] = None,
    config: Optional[AnalysisConfig] = None,
    verify: bool = False,
    max_steps: int = 5_000_000,
):
    """The Figure-1 optimization pipeline via the facade."""
    session = AnalysisSession.from_program(program, config)
    return session.optimize(passes=passes, verify=verify, max_steps=max_steps)
