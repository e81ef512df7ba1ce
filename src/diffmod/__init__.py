"""Exact workbench for linear differential operators over a differential field.

The pieces, bottom up: a coefficient field with exact derivations
(`field`), the noncommutative operator ring and its formal adjoint
(`ops`), Janet involutive completion (`janet`), compatibility conditions
and differential sequences (`syzygy`), the double-duality torsion test
and ext modules (`duality`), the classical operator families
(`families`), Spencer delta-cohomology dimension counts (`spencer`), and
a small text format for systems (`dsl`) with a command line driver
(`cli`).
"""

from .field import (CaseSplitRequired, DiffField, DivisionByZero,
                    PivotNotInvertible, RatFunc, ResourceLimit, Session,
                    is_zero_under)
from .ops import DEFAULT_ORDER, OpMatrix, ScalarOp, ShapeMismatch, TermOrder
from .janet import (InvolutiveBasis, board_text, complete, count_parametric,
                    janet_board)
from .syzygy import (DiffSequence, build_sequence, compatibility_conditions,
                     differential_rank)
from .duality import (ExtReport, NotParametrizable, ParametrizationResult,
                      TorsionCertificate, double_duality_test, ext_module,
                      kernel_analysis, parametrize, torsion_submodule)
from .dsl import ParseError, SystemDecl, elaborate, parse_system, render_system

__all__ = [
    "CaseSplitRequired", "DiffField", "DivisionByZero", "PivotNotInvertible",
    "RatFunc", "ResourceLimit", "Session", "is_zero_under",
    "DEFAULT_ORDER", "OpMatrix", "ScalarOp", "ShapeMismatch", "TermOrder",
    "InvolutiveBasis", "board_text", "complete", "count_parametric",
    "janet_board",
    "DiffSequence", "build_sequence", "compatibility_conditions",
    "differential_rank",
    "ExtReport", "NotParametrizable", "ParametrizationResult",
    "TorsionCertificate", "double_duality_test", "ext_module",
    "kernel_analysis", "parametrize", "torsion_submodule",
    "ParseError", "SystemDecl", "elaborate", "parse_system", "render_system",
]

__version__ = "0.1.0"
