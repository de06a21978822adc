"""Exact-arithmetic poset associahedra, affine poset cyclohedra, and
compactified poset configuration spaces."""

from .poset import (
    Poset,
    alpha,
    avg,
    build_poset,
    ideal_filter_splits,
    is_connected,
    is_convex,
    proj_sigma0,
    quotient_poset,
    res,
)
from .tubes import (
    Tube,
    Tubing,
    TubingTree,
    d_graph,
    enumerate_proper_tubings,
    enumerate_tubes,
    is_tubing,
    make_tube,
    tubing_from_ordered_set_partition,
    tubing_from_plane_tree,
    tubing_tree,
)
from .lattice import (
    EMPTY,
    FaceLattice,
    associahedron_face_lattice,
    f_vector,
    face_product_decomposition,
    h_vector,
    is_flag_dual,
    order_polytope_face_lattice,
)
from .polytope import Chart, Facet, RationalPolytope, polar_dual
from .geometry import (
    AdmissiblePoset,
    MeltedSet,
    admissible_tubings,
    order_polytope,
    realize_poset_associahedron,
    stellar_subdivide,
)
from .compact import (
    UNBOUNDED,
    ConfigPoint,
    Stratum,
    b_partition,
    collapse,
    composite_collapse,
    composite_expand,
    embed,
    expand,
    is_coherent,
    limit_sample,
    ratio_counterexample_demo,
    stratum_point,
    synthesize,
    t_max,
    tubing_of,
)
from .affine import (
    AffinePoset,
    AffineTube,
    AffineTubing,
    affine_order_polytope,
    build_affine_poset,
    cyclohedron_face_lattice,
    enumerate_affine_tubes,
    linear_extension,
    realize_affine_cyclohedron,
    tube_from_signed_pair,
)

__version__ = "0.1.0"
