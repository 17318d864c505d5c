"""Hyperbolic volume computations in the Klein ball model.

Geodesics in the Klein model are Euclidean chords, so hyperbolic convex
hulls coincide with Euclidean ones and polytope machinery applies
verbatim; all metric quantities come from the density
(1 - |x|^2)^(-(n+1)/2).  The package computes hull volumes (exact in 2D
and 3D, adaptive quadrature or Monte Carlo above), vertex-cone integrals
with explicit majorants, and epsilon-extension volumes with packing
certificates, plus a CLI for the desk-scale experiment sweeps.
"""

from .klein import (
    BOUNDARY_TOL,
    IdealPoint,
    Isometry,
    KleinPoint,
    ball_boundary_array,
    ball_volume,
    boost_to,
    cosh_dist_matrix,
    density,
    density_array,
    dist,
    dist_matrix,
    random_isometry,
    sinh_power_integral,
    translation_to,
    unit_sphere_area,
)
from .pointcloud import load_points, save_points
from .hull import (
    DegenerateHullError,
    Polytope,
    Simplex,
    affine_rank,
    apex_triangulation,
    convex_hull,
    simplicial_perturbation,
)
from .volume import (
    Region,
    VolumeEstimate,
    polytope_volume,
    preferred_method,
    region_volume_mc,
    simplex_volume,
    triangle_area_2d,
)
from .cones import (
    PHI_CAP,
    BarycentricPoint,
    ConeSection,
    NoSectionError,
    SingularIntegralError,
    boundary_rays,
    cone_integral_bound,
    cone_report,
    cone_sections,
    cone_volume,
    first_summand_closed,
    first_summand_quad,
    lemma1_argmax,
    lemma1_det,
    lemma1_map,
    lemma1_matrix,
    majorant,
    second_summand,
    section_integral,
    t_function,
    tangent_grid,
    verify_facet_decomposition,
)
from .extension import (
    PackingBoundError,
    PackingResult,
    UnionOfBalls,
    euclidean_capsule_ratio,
    extension_volume,
    greedy_packing,
    hull_of_extension,
    sandwich_check,
    theorem2_ratio,
    two_ball_hull_area,
    two_ball_ratio,
)
from .experiments import RunConfig, generate_points, regular_simplex
from .rng import substream

__version__ = "0.1.0"
