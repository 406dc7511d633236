"""Built-in immersion catalog.

Base entries are parsed from the DSL sources shipped as package data under
catalog_data/; the product entries are derived from them with circle_product
so the constructor path is exercised by the catalog itself.  Every shipped
source, products included, must stay byte-identical to
serialize(catalog(name)).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources

from .ambient import AmbientQuadric
from .dsl import ImmersionSpec, parse
from .errors import UnknownSpecError
from .products import circle_product

__all__ = [
    "CatalogEntry",
    "catalog",
    "catalog_entry",
    "catalog_names",
    "catalog_source",
]

_SPHERE = AmbientQuadric("pseudo_sphere", 1.0)
_HYPERBOLIC = AmbientQuadric("pseudo_hyperbolic", -1.0)


@dataclass(frozen=True)
class CatalogEntry:
    """One named example: spec, ambient quadric (if any), expectations."""

    name: str
    spec: ImmersionSpec
    quadric: AmbientQuadric | None
    summary: str
    # check name -> expected pass/fail, for checks with a definite outcome
    expects: dict = field(default_factory=dict)


def _read_source(name: str) -> str:
    return (
        resources.files("lagkit")
        .joinpath(f"catalog_data/{name}.imm")
        .read_text(encoding="utf-8")
    )


def _base(name, expected_index=None):
    return parse(_read_source(name)).with_metadata(
        name=name, expected_index=expected_index
    )


_REAL_CIRCLE = _base("real_circle_S3", expected_index=0)
_REAL_SPHERE = _base("real_sphere_S5", expected_index=0)
_MINIMAL_TORUS = _base("minimal_legendrian_torus_S5", expected_index=0)
_WHITNEY = _base("whitney_sphere")
_PSEUDO_H3 = _base("pseudo_legendrian_H3", expected_index=0)
_PSEUDO_S3 = _base("pseudo_legendrian_S3_index1", expected_index=1)
_NON_LAGRANGIAN = _base("control_non_lagrangian")
_NON_HORIZONTAL = _base("control_non_horizontal")


def _product(base, name, expected_index):
    return circle_product(base).with_metadata(name=name, expected_index=expected_index)


_LEGENDRIAN_OK = {"legendrian": True, "umbilical": True, "gauss": True, "codazzi": True}
_LAGRANGIAN_OK = {
    "lagrangian": True,
    "spherical": True,
    "cubic_symmetry": True,
    "gauss": True,
    "codazzi": True,
    "structure_v_tangent": True,
    "structure_v_unit": True,
    "structure_h_mixed": True,
    "structure_h_vv": True,
    "structure_v_parallel": True,
    "product_metric": True,
    "umbilical": True,
}

_ENTRIES = (
    CatalogEntry(
        name="real_circle_S3",
        spec=_REAL_CIRCLE,
        quadric=_SPHERE,
        summary="great circle of the unit 3-sphere, horizontal and Legendrian",
        expects=dict(_LEGENDRIAN_OK, horizontal=True),
    ),
    CatalogEntry(
        name="clifford_torus",
        spec=_product(_REAL_CIRCLE, "clifford_torus", 0),
        quadric=_SPHERE,
        summary="flat square torus exp(i t) (cos u, sin u) inside the unit 3-sphere",
        expects=dict(_LAGRANGIAN_OK),
    ),
    CatalogEntry(
        name="real_sphere_S5",
        spec=_REAL_SPHERE,
        quadric=_SPHERE,
        summary="totally real round 2-sphere inside the unit 5-sphere",
        expects=dict(_LEGENDRIAN_OK, horizontal=True),
    ),
    CatalogEntry(
        name="product_S1xS2",
        spec=_product(_REAL_SPHERE, "product_S1xS2", 0),
        quadric=_SPHERE,
        summary="circle times round 2-sphere, Lagrangian in C^3",
        expects=dict(_LAGRANGIAN_OK),
    ),
    CatalogEntry(
        name="minimal_legendrian_torus_S5",
        spec=_MINIMAL_TORUS,
        quadric=_SPHERE,
        summary="minimal Legendrian torus (exp(iu), exp(iv), exp(-i(u+v)))/sqrt(3)",
        expects=dict(_LEGENDRIAN_OK, horizontal=True),
    ),
    CatalogEntry(
        name="whitney_sphere",
        spec=_WHITNEY,
        quadric=None,
        summary="Whitney 2-sphere: Lagrangian with conical double point, not spherical",
        expects={
            "lagrangian": True,
            "spherical": False,
            "cubic_symmetry": True,
            "gauss": True,
            "codazzi": True,
        },
    ),
    CatalogEntry(
        name="pseudo_legendrian_H3",
        spec=_PSEUDO_H3,
        quadric=_HYPERBOLIC,
        summary="spacelike curve (cosh u, sinh u) in the anti-de-Sitter quadric of C^2_1",
        expects=dict(_LEGENDRIAN_OK),
    ),
    CatalogEntry(
        name="pseudo_legendrian_S3_index1",
        spec=_PSEUDO_S3,
        quadric=_SPHERE,
        summary="timelike curve (sinh u, cosh u) in the indefinite unit sphere of C^2_1",
        expects=dict(_LEGENDRIAN_OK, horizontal=True),
    ),
    CatalogEntry(
        name="theorem42_example",
        spec=_product(_PSEUDO_S3, "theorem42_example", 1),
        quadric=_SPHERE,
        summary="Lorentzian product surface exp(i t) (sinh u, cosh u) in the indefinite unit sphere",
        expects=dict(_LAGRANGIAN_OK),
    ),
    CatalogEntry(
        name="theorem43_example",
        spec=_product(_PSEUDO_H3, "theorem43_example", 1),
        quadric=_HYPERBOLIC,
        summary="Lorentzian product surface exp(i t) (cosh u, sinh u) in the anti-de-Sitter quadric",
        expects=dict(_LAGRANGIAN_OK),
    ),
    CatalogEntry(
        name="control_non_lagrangian",
        spec=_NON_LAGRANGIAN,
        quadric=None,
        summary="complex line parameterized twice over: fails isotropy by a fixed margin",
        expects={"lagrangian": False},
    ),
    CatalogEntry(
        name="control_non_horizontal",
        spec=_NON_HORIZONTAL,
        quadric=_SPHERE,
        summary="Hopf fiber direction on the unit 3-sphere: fails horizontality by 1",
        expects={"legendrian": False, "horizontal": False},
    ),
)

_BY_NAME = {e.name: e for e in _ENTRIES}


def catalog_names() -> tuple[str, ...]:
    return tuple(e.name for e in _ENTRIES)


def catalog_entry(name: str) -> CatalogEntry:
    try:
        return _BY_NAME[name]
    except KeyError:
        known = ", ".join(catalog_names())
        raise UnknownSpecError(f"unknown catalog spec {name!r}; known: {known}") from None


def catalog(name: str) -> ImmersionSpec:
    return catalog_entry(name).spec


def catalog_source(name: str) -> str:
    """Canonical DSL source text, from the shipped catalog_data files."""
    catalog_entry(name)
    return _read_source(name)
