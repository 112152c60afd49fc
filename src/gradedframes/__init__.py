"""Two-sided frame bounds over graded sequence spaces.

Weighted coefficient families acting on truncated sequences, with per-level
bound computation along two independent routes, strictness classification,
subsequence selection, concrete reconstruction operators with tail-bound
verification, and deterministic tabular reports behind a small CLI.
"""

from .gradings import (
    DualWeighting,
    GradedVector,
    WeightGrading,
    dual_norm,
    graded_norm,
    lp_norm,
)
from .frames import (
    BlockFrame,
    CoordinateFrame,
    DenseFrame,
    DiagonalFrame,
    FrameBounds,
    FrameSystem,
    analyze,
    coanalyze,
    frame_bounds_analytic,
    frame_bounds_numeric,
    runo_demo,
)
from .multilevel import (
    ContinuityData,
    IndexPlan,
    SelectionResult,
    StrictnessVerdict,
    classify_strictness,
    select_subsequence,
    verify_pre_f_frame,
    verify_selected_chain,
)
from .reconstruction import (
    ProjectionOp,
    SequenceOperator,
    SynthesisOp,
    V_from_projection,
    build_V_from_dual,
    build_dual_from_V,
    projection_from_V,
    synthesis_from_rule,
    synthesize,
    verify_dual_expansion,
    verify_equivalences,
    verify_expansion,
)
from .scenarios import ReportRow, ScenarioConfig, ScenarioResult, run_scenario
from .reportio import emit_report, load_report

__version__ = "0.1.0"

__all__ = [
    "DualWeighting", "GradedVector", "WeightGrading", "dual_norm",
    "graded_norm", "lp_norm",
    "BlockFrame", "CoordinateFrame", "DenseFrame", "DiagonalFrame",
    "FrameBounds", "FrameSystem",
    "analyze", "coanalyze", "frame_bounds_analytic", "frame_bounds_numeric",
    "runo_demo",
    "ContinuityData", "IndexPlan", "SelectionResult", "StrictnessVerdict",
    "classify_strictness", "select_subsequence", "verify_pre_f_frame",
    "verify_selected_chain",
    "ProjectionOp", "SequenceOperator", "SynthesisOp",
    "V_from_projection", "build_V_from_dual", "build_dual_from_V",
    "projection_from_V", "synthesis_from_rule", "synthesize",
    "verify_dual_expansion", "verify_equivalences", "verify_expansion",
    "ReportRow", "ScenarioConfig", "ScenarioResult", "run_scenario",
    "emit_report", "load_report",
]
