"""fqzeta: exact zeta functions over finite fields and forced trace equalities.

The pipeline: describe a variety by polynomial equations (varieties), count
its points over F_{q^n} exhaustively, reconstruct the zeta function as an
exact rational function, split it into weight factors and Frobenius traces
(zeta), and check concrete trace data against the symbolic constraint
systems whose solution spaces the solver analyzes (tracesolver).
"""

from .errors import (
    BudgetExceededError,
    DimensionMismatchError,
    DualityViolationError,
    FqZetaError,
    InsufficientCountsError,
    MalformedSpecError,
    NonIntegralCoefficientsError,
    NonIntegralCountError,
    NoRationalFitError,
    NotPrimeError,
    WeightSeparationError,
)
from .fields import ExtensionField, make_extension
from .pairsearch import CurveModel, PairSearchResult, curve_zeta, find_pairs, weierstrass_spec
from .tracesolver import (
    ConstraintRow,
    ForcedReport,
    SolverFlags,
    TraceConstraintSystem,
    build_constraint_system,
    instantiate_at_q,
    solve_forced,
    solve_forced_numeric,
    unknown_names,
    verify_traces_against_system,
)
from .varieties import (
    DEFAULT_BUDGET,
    Ambient,
    PointCountSeries,
    VarietySpec,
    count_points,
    count_series,
    load_spec,
)
from .zeta import (
    CohomologyProfile,
    TraceVector,
    WeilFactorization,
    ZetaFunction,
    check_functional_equation,
    check_riemann_hypothesis,
    connected_denominator,
    counts_from_zeta,
    factor_by_weights,
    traces_from_factorization,
    zeta_from_counts,
)

__version__ = "0.1.0"
