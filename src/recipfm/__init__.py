"""Numerical verification engine for reciprocal transformations of diagonal
hydrodynamic systems and the flat connections they carry."""

from .jets import Jet, JetDomainError, JetError, Point, PointSet, partial, point
from .exprlang import EvalError, FieldExpr, ParseError, ScalarField, compile_field, field, parse_field
from .geometry import (
    ConnectionTable,
    DegenerateSystemError,
    DiagonalSystem,
    GeometryError,
    ResidualReport,
    SamplingError,
    christoffel_primary,
    curvature_full_residual,
    curvature_natural_residual,
    curvature_oracle,
    dual_connection,
    identity_parallel_residual,
    natural_connection,
    sample_points,
    sh_residual,
)
from .reciprocal import (
    BiflatVerdict,
    ConservationDensity,
    InadmissibleGeneratorError,
    PathSingularityError,
    ReciprocalError,
    RotationFrame,
    TransformResult,
    a_system_residual,
    biflat_admissibility,
    biflat_verdict,
    covariant_hessian_residual,
    current_from_density,
    darboux_residual,
    darboux_transform,
    density_residual,
    grading_residual,
    orbit_compose,
    theta_system_residual,
    transform,
)
from .catalog import (
    CatalogEntry,
    catalog_entries,
    entry,
    epsilon_frame_n2,
    epsilon_system,
    hypergeom_flat_coordinates,
)

__version__ = "0.1.0"
