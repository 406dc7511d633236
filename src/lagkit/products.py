"""AST-level constructions on immersion specs.

circle_product implements the classification-side synthesis: given a spec
with n-1 parameters (a horizontal/Legendrian immersion into a unit quadric),
prepend an angle t and multiply every component by exp(i*t).  The output is a
plain spec again, so the whole verifier applies to it unchanged.

translate and dilate are the affine companions used for equivariance checks.
"""

from __future__ import annotations

import math

from .dsl import Bin, Call, Expr, Imag, ImmersionSpec, Neg, Num, Param, Ref
from .errors import DimensionMismatchError

__all__ = ["circle_product", "translate", "dilate"]

TWO_PI = 2.0 * math.pi


def _real_literal(x: float) -> Expr:
    return Num(x) if x >= 0 else Neg(Num(-x))


def _complex_literal(c: complex) -> Expr:
    c = complex(c)
    re, im = c.real, c.imag
    if im == 0:
        return _real_literal(re)
    im_part: Expr
    if im == 1:
        im_part = Imag()
    elif im == -1:
        im_part = Neg(Imag())
    elif im >= 0:
        im_part = Bin("*", Num(im), Imag())
    else:
        im_part = Neg(Bin("*", Num(-im), Imag()))
    if re == 0:
        return im_part
    if isinstance(im_part, Neg):
        return Bin("-", _real_literal(re), im_part.arg)
    return Bin("+", _real_literal(re), im_part)


def circle_product(psi: ImmersionSpec, t_name: str = "t") -> ImmersionSpec:
    """Sweep a spec by the unit circle: components become exp(i*t) * psi_j.

    The input must have one parameter fewer than the ambient complex
    dimension (the half-dimension count of the output).  t_name must name a
    parameter as parse allows (ValueError otherwise).  The product takes
    none of the input's metadata (expected_index, quadric), only a name.
    """
    n = psi.signature.n
    if psi.num_params != n - 1:
        raise DimensionMismatchError(
            f"circle product needs n-1 = {n - 1} parameters, spec has {psi.num_params}"
        )
    phase = Call("exp", Bin("*", Imag(), Ref(t_name)))
    components = tuple(Bin("*", phase, c) for c in psi.components)
    params = (Param(t_name, 0.0, TWO_PI),) + psi.params
    return ImmersionSpec(
        params=params,
        signature=psi.signature,
        components=components,
        name=f"{psi.name}_circle_product",
        expected_index=None,
    )


def translate(spec: ImmersionSpec, offsets) -> ImmersionSpec:
    """Add a constant ambient vector: components become c_j + component.
    An offset that is not finite is a ValueError (Num holds finite literals)."""
    offs = [complex(c) for c in offsets]
    if len(offs) != spec.signature.n:
        raise DimensionMismatchError(
            f"need {spec.signature.n} offsets, got {len(offs)}"
        )
    components = tuple(
        comp if off == 0 else Bin("+", comp, _complex_literal(off))
        for comp, off in zip(spec.components, offs)
    )
    # a translated image leaves the declared quadric, which is central
    return spec.replace(components=components, name=f"{spec.name}_translated", quadric=None)


def dilate(spec: ImmersionSpec, factor: float) -> ImmersionSpec:
    """Scale all components by a nonzero finite real factor (ValueError otherwise)."""
    factor = float(factor)
    if factor == 0:
        raise ValueError("dilation factor must be nonzero")
    components = tuple(
        Bin("*", _real_literal(factor), c) for c in spec.components
    )
    # a dilated image lies on a quadric of another curvature than the declared one
    return spec.replace(components=components, name=f"{spec.name}_scaled", quadric=None)
