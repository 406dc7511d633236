"""Verification and construction kernel for Lagrangian immersions in C^n_s.

The package certifies defining conditions (isotropy, Legendrian and
horizontality conditions, curvature identities, product structure) of
explicitly parameterized immersions by sampling exact jet derivatives, and
builds new spherical Lagrangian immersions from Legendrian inputs via the
circle product.
"""

from .ambient import AmbientQuadric, Signature
from .catalog import (
    CatalogEntry,
    catalog,
    catalog_entry,
    catalog_names,
    catalog_source,
)
from .checks import (
    CheckEntry,
    CheckReport,
    SampleConfig,
    SphereFit,
    Transform,
    check_cubic_symmetry,
    check_horizontal,
    check_lagrangian,
    check_legendrian,
    check_product_metric,
    check_umbilical_relation,
    fit_hypersphere,
    run_suite,
    sample_frames,
)
from .dsl import ImmersionSpec, Param, parse, serialize
from .errors import (
    DegenerateMetricError,
    DimensionMismatchError,
    DomainError,
    DslError,
    DslSyntaxError,
    IndeterminateFitError,
    LagkitError,
    SingularEvaluationError,
    UnknownSpecError,
)
from .findiff import finite_difference_oracle, jet_fd_deviation
from .geometry import (
    FrameBatch,
    build_frame,
    codazzi_residual,
    gauss_residual,
    riemann_tensor,
    sectional_curvature,
)
from .jets import Jet
from .products import circle_product, dilate, translate
from .sampling import sample_points

__version__ = "0.1.0"

__all__ = [
    "AmbientQuadric",
    "CatalogEntry",
    "CheckEntry",
    "CheckReport",
    "DegenerateMetricError",
    "DimensionMismatchError",
    "DomainError",
    "DslError",
    "DslSyntaxError",
    "FrameBatch",
    "ImmersionSpec",
    "IndeterminateFitError",
    "Jet",
    "LagkitError",
    "Param",
    "SampleConfig",
    "Signature",
    "SingularEvaluationError",
    "SphereFit",
    "Transform",
    "UnknownSpecError",
    "build_frame",
    "catalog",
    "catalog_entry",
    "catalog_names",
    "catalog_source",
    "check_cubic_symmetry",
    "check_horizontal",
    "check_lagrangian",
    "check_legendrian",
    "check_product_metric",
    "check_umbilical_relation",
    "circle_product",
    "codazzi_residual",
    "dilate",
    "finite_difference_oracle",
    "fit_hypersphere",
    "gauss_residual",
    "jet_fd_deviation",
    "parse",
    "riemann_tensor",
    "run_suite",
    "sample_frames",
    "sample_points",
    "sectional_curvature",
    "serialize",
    "translate",
    "__version__",
]
