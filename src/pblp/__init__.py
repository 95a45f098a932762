"""Exact solver for linear parametric biobjective programs.

Two problem shapes share one engine: case ONE adds lambda times a
direction row to the first objective only, case TWO to both.  The
package computes the weight set decomposition of the companion
triobjective program, per-image parameter intervals by two independent
methods, the ordered breakpoint set, and the annotated lambda axis, all
in exact rational arithmetic.  Brute-force oracles for extreme images
and grid sweeps live in pblp.oracle.
"""

from .breakpoints import (
    AxisSegment,
    Method,
    ParameterInterval,
    ParametricSolution,
    enumerate_breakpoints,
    interval_lp_case1,
    interval_lp_case2,
    interval_system,
    interval_vertex,
    solve_on_decomposition,
)
from .errors import (
    BadCase,
    DimensionMismatch,
    EmptyComponent,
    InfeasibleProblem,
    InvariantViolation,
    NegativeParameter,
    NoFiniteVertex,
    NotRational,
    ParseError,
    PblpError,
    SystemMismatch,
    TooLarge,
    UnboundedScalarization,
)
from .lp_core import (
    FeasibleSystem,
    LinearProgram,
    LpResult,
    LpStatus,
    Sense,
    solve_lex_lp,
    solve_lp,
)
from .numerics import INF, rat_parse
from .oracle import (
    SweepReport,
    dichotomic_bolp,
    extreme_nondominated_bruteforce,
    sweep_lambda,
)
from .problem_model import (
    Case,
    Pblp,
    segment_for_lambda,
)
from .cli_io import (
    cli_main,
    emit_plot_data,
    emit_problem,
    emit_solution,
    parse_problem,
)
from .weight_geometry import (
    ComponentHrep,
    ConvexPolygon2,
    HalfPlane,
    clip_polygon,
    component_halfplanes,
    component_hrep,
    component_vertices,
    simplex_triangle,
)
from .wsd import Decomposition, ExtremeImage, decompose, find_extreme_image

__version__ = "0.1.0"
