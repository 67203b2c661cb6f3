"""Graph-norm functionals on step kernels, colouring symmetry analysis, and
machine-checkable non-norming certificates for bipartite graphs."""

from .config import DEFAULT, RunConfig
from .errors import (
    CapExceeded,
    GnormError,
    InvalidParameter,
    ParseError,
    VerificationFailed,
)
from .graphs import (
    BipartiteGraph,
    EdgeColouring,
    complete_bipartite,
    count_two_edge_matchings,
    cycle,
    girth,
    graph_from_json,
    graph_to_json,
    is_balanced,
    is_biregular,
    is_eulerian,
    iter_balanced_colourings,
    star,
)
from .symmetry import (
    SymmetryReport,
    automorphisms,
    isomorphic,
)
from .cycles import (
    FourCycleProfile,
    classify_4cycles,
    enumerate_cycles,
    four_cycles_generate_cycle_space,
    kappa_alternating,
)
from .kernels import Decoration, StepKernel, phase_kernel
from .density import (
    rho_2m,
    s_max,
    second_order_expansion,
    t_decoration,
    t_density,
)
from .falsify import (
    hatami_check,
    hatami_random_scan,
    hatami_violation_search,
    triangle_falsifier,
)
from .constructions import (
    Tournament,
    bipartite_kneser,
    clockwise_tournament,
    colouring_from_tournament,
    count_directed_cycles,
    hypercube,
    hypercube_alpha,
    hypercube_beta,
    quadratic_residue_tournament,
    regular_tournaments,
    set_inclusion_graph,
    subdivide,
    subdivided_complete,
    tournament_from_colouring,
)
from .arithmetic import (
    class_A_membership,
    kneser_integrality_test,
)
from .certify import Certificate, certify_family, certify_not_norming

__version__ = "0.1.0"
