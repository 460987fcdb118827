"""crystile: exact-arithmetic toolkit for crystallographic tilings."""

from .rational import Q, rat
from .isometry import (
    Frame,
    IsoDecomposition,
    Isometry,
    compose,
    decompose,
    hexagonal_frame,
    identity_iso,
    inverse,
    iso_distance,
    linear_about,
    operator_norm,
    ortho_sqrt,
    standard_frame,
    translation_iso,
)
from .groups import (
    CrystalGroup,
    GroupValidationError,
    OrbitPointSet,
    PRESET_NAMES,
    WALLPAPER_NAMES,
    conjugacy_search,
    generic_point,
    is_conjugate_subgroup,
    is_symmorphic,
    orbit_in_ball,
    preset,
    stabilizer,
    subgroup_index,
    validate_group,
)
from .polytope import (
    ConvexPolytope,
    HalfSpace,
    InteriorOverlapError,
    MeetResult,
    clip,
    congruent,
    faces,
    halfspace_intersection,
    meet_face_to_face,
    sq_distance_point,
    volume,
)
from .voronoi import (
    DeloneCertificate,
    DegenerateSiteError,
    UnboundedCellError,
    delone_params,
    voronoi_cell,
    voronoi_tiling,
)
from .tiling import (
    DistanceBound,
    LDResult,
    Patch,
    PeriodicTiling,
    TilingValidationError,
    automorphism_group,
    combine_witnesses,
    distance_upper_bound,
    is_crystallographic,
    ld_check,
    mld_check,
    patch,
    periodic_tiling,
    prototiles,
    tilings_equal,
    transform_tiling,
    translation_mld_check,
    verify_witness,
)
from .construction import (
    ConstructionError,
    GenericityCertificate,
    cone_subdivide,
    construct_tiling,
    generic_apex,
)

__version__ = "0.1.0"
