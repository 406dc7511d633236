"""Built-in immersion catalog.

Every entry is parsed from its DSL source, shipped as package data under
catalog_data/, which stays byte-identical to serialize(catalog(name)).  The
sources of the four product entries are serialize(circle_product(base)) of
their base entries, which the tests pin, so the catalog loads no constructor.

An entry is its parsed source plus what only the catalog knows, in a static
table: its declared quadric, summary and expectations.  Its parameter count
and signature are its spec's.  The spec is built on the first catalog_entry or
catalog call, and the same objects come back on every later call (the
crosscheck oracle caches its compiled map per spec object).
"""

from __future__ import annotations

import functools
from importlib import resources

from .ambient import AmbientQuadric
from .dsl import ImmersionSpec, parse
from .errors import UnknownSpecError
from .record import Record

__all__ = [
    "CatalogEntry",
    "catalog",
    "catalog_entry",
    "catalog_names",
    "catalog_source",
]

_SPHERE = AmbientQuadric(1.0)
_HYPERBOLIC = AmbientQuadric(-1.0)


class CatalogEntry(Record):
    """One named example: spec, summary, expectations."""

    # expects: check name -> expected pass/fail, for checks with a definite outcome
    _fields = ("name", "spec", "summary", "expects")

    @property
    def quadric(self) -> AmbientQuadric | None:
        """The spec's declared ambient quadric, if any."""
        return self.spec.quadric


def _read_source(name: str) -> str:
    return (
        resources.files("lagkit")
        .joinpath(f"catalog_data/{name}.imm")
        .read_text(encoding="utf-8")
    )


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

# name -> the quadric its spec declares, and the summary and expects of its CatalogEntry
_ROWS = {
    "real_circle_S3": dict(
        quadric=_SPHERE,
        summary="great circle of the unit 3-sphere, horizontal and Legendrian",
        expects=dict(_LEGENDRIAN_OK, horizontal=True),
    ),
    "clifford_torus": dict(
        quadric=_SPHERE,
        summary="flat square torus exp(i t) (cos u, sin u) inside the unit 3-sphere",
        expects=dict(_LAGRANGIAN_OK),
    ),
    "real_sphere_S5": dict(
        quadric=_SPHERE,
        summary="totally real round 2-sphere inside the unit 5-sphere",
        expects=dict(_LEGENDRIAN_OK, horizontal=True),
    ),
    "product_S1xS2": dict(
        quadric=_SPHERE,
        summary="circle times round 2-sphere, Lagrangian in C^3",
        expects=dict(_LAGRANGIAN_OK),
    ),
    "minimal_legendrian_torus_S5": dict(
        quadric=_SPHERE,
        summary="minimal Legendrian torus (exp(iu), exp(iv), exp(-i(u+v)))/sqrt(3)",
        expects=dict(_LEGENDRIAN_OK, horizontal=True),
    ),
    "whitney_sphere": dict(
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
    "pseudo_legendrian_H3": dict(
        quadric=_HYPERBOLIC,
        summary="spacelike curve (cosh u, sinh u) in the anti-de-Sitter quadric of C^2_1",
        expects=dict(_LEGENDRIAN_OK),
    ),
    "pseudo_legendrian_S3_index1": dict(
        quadric=_SPHERE,
        summary="timelike curve (sinh u, cosh u) in the indefinite unit sphere of C^2_1",
        expects=dict(_LEGENDRIAN_OK, horizontal=True),
    ),
    "theorem42_example": dict(
        quadric=_SPHERE,
        summary="Lorentzian product surface exp(i t) (sinh u, cosh u) in the indefinite unit sphere",
        expects=dict(_LAGRANGIAN_OK),
    ),
    "theorem43_example": dict(
        quadric=_HYPERBOLIC,
        summary="Lorentzian product surface exp(i t) (cosh u, sinh u) in the anti-de-Sitter quadric",
        expects=dict(_LAGRANGIAN_OK),
    ),
    "control_non_lagrangian": dict(
        quadric=None,
        summary="complex line parameterized twice over: fails isotropy by a fixed margin",
        expects={"lagrangian": False},
    ),
    "control_non_horizontal": dict(
        quadric=_SPHERE,
        summary="Hopf fiber direction on the unit 3-sphere: fails horizontality by 1",
        expects={"legendrian": False, "horizontal": False},
    ),
}


@functools.cache
def _entry(name: str) -> CatalogEntry:
    row = _ROWS[name]
    spec = parse(_read_source(name)).replace(name=name, quadric=row["quadric"])
    return CatalogEntry(name, spec, row["summary"], row["expects"])


def catalog_names() -> tuple[str, ...]:
    return tuple(_ROWS)


def _known(name: str) -> str:
    if name not in _ROWS:
        known = ", ".join(catalog_names())
        raise UnknownSpecError(f"unknown catalog spec {name!r}; known: {known}")
    return name


def catalog_entry(name: str) -> CatalogEntry:
    return _entry(_known(name))


def catalog(name: str) -> ImmersionSpec:
    return catalog_entry(name).spec


def catalog_source(name: str) -> str:
    """Canonical DSL source text, from the shipped catalog_data files."""
    return _read_source(_known(name))
