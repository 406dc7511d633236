"""Verification and construction kernel for Lagrangian immersions in C^n_s.

The package certifies defining conditions (isotropy, Legendrian and
horizontality conditions, curvature identities, product structure) of
explicitly parameterized immersions by sampling exact jet derivatives, and
builds new spherical Lagrangian immersions from Legendrian inputs via the
circle product.
"""

import sys
import types

# module -> the public names it defines.  Each name is imported on its first
# use (PEP 562), so `import lagkit` loads no submodule and a command loads only
# the modules it runs.
_EXPORTS = {
    "ambient": ("AmbientQuadric", "Signature"),
    "catalog": ("CatalogEntry", "catalog", "catalog_entry", "catalog_names", "catalog_source"),
    "checks": ("CheckEntry", "CheckReport", "SampleConfig", "SphereFit", "Transform", "run_suite"),
    "dsl": ("ImmersionSpec", "Param", "parse", "serialize"),
    "errors": (
        "DegenerateMetricError", "DimensionMismatchError", "DomainError", "DslError",
        "DslSyntaxError", "LagkitError", "SingularEvaluationError", "UnknownSpecError",
    ),
    "findiff": ("finite_difference_oracle", "jet_fd_deviation"),
    "geometry": (
        "FrameBatch", "build_frame", "codazzi_residual", "gauss_residual", "riemann_tensor",
        "sectional_curvature",
    ),
    "products": ("circle_product", "dilate", "translate"),
    "sampling": ("sample_points",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}


def __getattr__(name):
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    __import__(f"{__name__}.{module}")  # the import statement's path: -X importtime logs it
    value = sys.modules[f"{__name__}.{module}"]
    if name in _MODULE_OF:  # a public name, not a submodule such as lagkit.checks
        value = globals()[name] = getattr(value, name)
    return value


def __dir__():
    return sorted({*globals(), *_MODULE_OF})


class _Package(types.ModuleType):
    """Importing a submodule binds it on the package, and the submodule
    lagkit.catalog shares its name with the function lagkit.catalog: keep the
    function."""

    def __setattr__(self, name, value):
        if not (name in _MODULE_OF and isinstance(value, types.ModuleType)):
            super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package

__version__ = "0.1.0"

__all__ = [*sorted(_MODULE_OF), "__version__"]
