"""Exact verification and construction of Kochen-Specker sets.

The package stores the known minimal uncolorable projector/context sets in
every Hilbert-space dimension, checks their defining properties with exact
cyclotomic arithmetic, and implements the direct-sum, rank-scaling,
zero-padding and coordinate-swap constructions that generate critical sets
in arbitrary dimensions.
"""

from . import catalog, construct, setfile
from .cyclo import CycNum, parse_scalar, render_scalar, zeta
from .model import (
    Context,
    KSSet,
    Projector,
    Ray,
    Symbol,
    ValidationReport,
    inner,
    orthogonality_graph,
    projector_equal,
    projector_orthogonal,
    symbol,
    validate,
)
from .verify import (
    Assignment,
    CriticalityReport,
    Mode,
    SearchStats,
    export_cnf,
    find_assignment,
    is_critical,
    is_ks,
    is_parity,
)

__version__ = "1.0.0"

__all__ = [
    "Assignment",
    "Context",
    "CriticalityReport",
    "CycNum",
    "KSSet",
    "Mode",
    "Projector",
    "Ray",
    "SearchStats",
    "Symbol",
    "ValidationReport",
    "export_cnf",
    "find_assignment",
    "inner",
    "is_critical",
    "is_ks",
    "is_parity",
    "orthogonality_graph",
    "parse_scalar",
    "projector_equal",
    "projector_orthogonal",
    "render_scalar",
    "symbol",
    "validate",
    "zeta",
]
