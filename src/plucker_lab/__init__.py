"""Exact plane-curve invariants over the Eisenstein rationals.

The package computes singular loci, flexes, dual curves and genus of
plane curves with coefficients in Q(rho)[lambda], checks the classical
degree/class/node/cusp/flex/bitangent relations, works out the orbit
structure of a fixed 18-element projective symmetry group, and carries
a small intersection calculus used to predict those counts for curves
cut out on an abelian surface.  Everything is exact; no floats.
"""

__version__ = "0.1.0"

from .scalars import (  # noqa: F401
    EisensteinScalar,
    LambdaPoly,
    RootSearch,
    lambda_roots,
)
from .polynomials import (  # noqa: F401
    MultiPoly,
    PolyParseError,
    bl2_sextic,
    parse_poly,
    quadratic_map,
    render_poly,
    resultant,
)
from .curve import (  # noqa: F401
    PlaneCurve,
    ProjectivePoint,
    analysis_report,
    classified_singularities,
    dual_curve,
    flexes,
    geometric_genus,
    parse_point,
    singular_locus,
)
from .pluecker import (  # noqa: F401
    InfeasibleInvariantsError,
    NodeCuspSolution,
    PlueckerInvariants,
    dual_invariants,
    solve_nodes_cusps,
)
from .chow import (  # noqa: F401
    ChowClass,
    chern_twist,
    multiplicity_bound,
    pencil_singular_count,
)
from .heisenberg import (  # noqa: F401
    Orbit,
    ProjectiveTransform,
    curve_orbit_obstruction,
    enumerate_group,
    fixed_locus,
    orbit,
)
from .corpus import (  # noqa: F401
    ScenarioReport,
    corpus_curve,
    run_main_theorem,
    run_special_case,
)
