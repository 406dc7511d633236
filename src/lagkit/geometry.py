"""Induced geometry of an immersion: metric, connection, curvature.

A GeometryFrame bundles the derivative data of the immersion at one point,
in interleaved real coordinates, together with the induced metric, the
Christoffel symbols (and their derivatives, at third order), and the second
fundamental form of the flat ambient space.  Curvature, the classical
compatibility identities (Gauss and Codazzi equations) and the tangent field
of J L are computed from the frame alone, without evaluating the map again.

Index conventions, pinned by tests on the round-sphere factor:
  dmetric[k, i, j]      = d_k g_ij
  christoffels[k, i, j] = Gamma^k_ij
  dchristoffels[p, k, i, j] = d_p Gamma^k_ij
  riemann R[i, j, k, l] = <R(d_i, d_j) d_k, d_l>, so the Gauss identity reads
  R[i, j, k, l] = <h_il, h_jk> - <h_ik, h_jl>.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ambient import apply_j_flat, metric_diagonal
from .dsl import ImmersionSpec, evaluate_map_jets
from .errors import DegenerateMetricError, SingularEvaluationError
from .jets import Jet

__all__ = [
    "GeometryFrame",
    "build_frame",
    "riemann_tensor",
    "sectional_curvature",
    "gauss_residual",
    "codazzi_residual",
    "project",
    "tangent_field",
]

DET_THRESHOLD = 1e-10


@dataclass
class GeometryFrame:
    """Derivative and metric data of an immersion at a single point."""

    spec: ImmersionSpec
    point: tuple[float, ...]
    position: np.ndarray  # (2n,)
    first: np.ndarray  # (m, 2n)
    second: np.ndarray  # (m, m, 2n)
    third: np.ndarray | None  # (m, m, m, 2n) when requested
    eta: np.ndarray  # (2n,)
    metric: np.ndarray  # (m, m)
    metric_inv: np.ndarray
    dmetric: np.ndarray  # (m, m, m): d_k g_ij
    christoffels: np.ndarray  # (m, m, m): Gamma^k_ij
    sff: np.ndarray  # (m, m, 2n): second fundamental form vectors
    dchristoffels: np.ndarray | None = None  # (m, m, m, m) when need_third

    @property
    def num_params(self) -> int:
        return self.first.shape[0]


def _real_blocks(jets: list[Jet], order: int) -> list[np.ndarray]:
    """Position and derivative tensors in interleaved (re, im) real coordinates.

    A complex128 array is stored as (re, im) pairs, so stacking the component
    jets along a last axis and viewing that as float gives the ambient layout.
    """
    return [
        np.stack([jet.blocks[k] for jet in jets], axis=-1).view(float)
        for k in range(order + 1)
    ]


def build_frame(spec: ImmersionSpec, point, need_third: bool = False) -> GeometryFrame:
    """Evaluate the immersion at a point and assemble its geometric data.

    Raises SingularEvaluationError when the map, its derivatives or the metric
    overflow or are not finite, and DegenerateMetricError when
    |det g| < 1e-10 * (max |g_ij|)^m.
    """
    pt = tuple(float(x) for x in point)
    order = 3 if need_third else 2
    jets = evaluate_map_jets(spec, point, order)
    position, first, second, *rest = _real_blocks(jets, order)
    third = rest[0] if need_third else None
    eta = metric_diagonal(spec.signature)

    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        metric = (first * eta) @ first.T
        metric = 0.5 * (metric + metric.T)
    if not np.isfinite(metric).all():
        raise SingularEvaluationError(f"induced metric not finite at {pt}")
    # compare det(g / scale), since scale**m can overflow where det g does not
    scale = float(np.max(np.abs(metric)))
    if scale == 0.0 or abs(np.linalg.det(metric / scale)) < DET_THRESHOLD:
        det = abs(float(np.linalg.det(metric)))
        raise DegenerateMetricError(f"induced metric degenerate at {pt}: |det| = {det:.3e}")
    metric_inv = np.linalg.inv(metric)

    # d_k g_ij = <L_ik, L_j> + <L_i, L_jk>
    half = np.einsum("ika,a,ja->kij", second, eta, first)
    dmetric = half + half.transpose(0, 2, 1)

    # Gamma^k_ij = (1/2) g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    bracket = (
        np.einsum("ilj->lij", dmetric)
        + np.einsum("jli->lij", dmetric)
        - dmetric
    )
    christoffels = 0.5 * np.einsum("kl,lij->kij", metric_inv, bracket)

    sff = second - np.einsum("kij,ka->ija", christoffels, first)

    frame = GeometryFrame(
        spec=spec,
        point=pt,
        position=position,
        first=first,
        second=second,
        third=third,
        eta=eta,
        metric=metric,
        metric_inv=metric_inv,
        dmetric=dmetric,
        christoffels=christoffels,
        sff=sff,
    )
    if need_third:
        frame.dchristoffels = _christoffel_derivatives(frame)
    return frame


def _require_third(frame: GeometryFrame):
    if frame.dchristoffels is None:
        raise ValueError("frame was built without third derivatives; pass need_third=True")


def _christoffel_derivatives(frame: GeometryFrame) -> np.ndarray:
    """d_p Gamma^k_ij as array [p, k, i, j], from the third derivatives."""
    eta = frame.eta
    first, second, third = frame.first, frame.second, frame.third
    ginv, dg = frame.metric_inv, frame.dmetric

    # d_p d_q g_ij
    d2g = (
        np.einsum("pqia,a,ja->pqij", third, eta, first)
        + np.einsum("pia,a,qja->pqij", second, eta, second)
        + np.einsum("qia,a,pja->pqij", second, eta, second)
        + np.einsum("ia,a,pqja->pqij", first, eta, third)
    )
    dginv = -np.einsum("ka,pab,bl->pkl", ginv, dg, ginv)
    bracket = (
        np.einsum("ilj->lij", dg) + np.einsum("jli->lij", dg) - dg
    )
    dbracket = (
        np.einsum("pilj->plij", d2g)
        + np.einsum("pjli->plij", d2g)
        - np.einsum("plij->plij", d2g)
    )
    return 0.5 * np.einsum("pkl,lij->pkij", dginv, bracket) + 0.5 * np.einsum(
        "kl,plij->pkij", ginv, dbracket
    )


def riemann_tensor(frame: GeometryFrame) -> np.ndarray:
    """Fully lowered curvature R[i,j,k,l] = <R(d_i, d_j) d_k, d_l>."""
    _require_third(frame)
    dgamma = frame.dchristoffels
    gamma = frame.christoffels
    up = (
        np.einsum("iljk->ijkl", dgamma)
        - np.einsum("jlik->ijkl", dgamma)
        + np.einsum("mjk,lim->ijkl", gamma, gamma)
        - np.einsum("mik,ljm->ijkl", gamma, gamma)
    )
    return np.einsum("ijkm,ml->ijkl", up, frame.metric)


def sectional_curvature(frame: GeometryFrame, i: int, j: int, riemann=None) -> float:
    """Sectional curvature of the coordinate 2-plane spanned by d_i, d_j."""
    r = riemann_tensor(frame) if riemann is None else riemann
    g = frame.metric
    denom = g[i, i] * g[j, j] - g[i, j] ** 2
    if abs(denom) < 1e-14:
        raise DegenerateMetricError(f"coordinate plane ({i},{j}) is metrically degenerate")
    return float(r[i, j, j, i] / denom)


def gauss_residual(frame: GeometryFrame) -> float:
    """Max deviation in the Gauss identity R_ijkl = <h_il,h_jk> - <h_ik,h_jl>."""
    r = riemann_tensor(frame)
    h, eta = frame.sff, frame.eta
    rhs = np.einsum("ila,a,jka->ijkl", h, eta, h) - np.einsum(
        "ika,a,jla->ijkl", h, eta, h
    )
    return float(np.max(np.abs(r - rhs)))


def codazzi_residual(frame: GeometryFrame) -> float:
    """Max asymmetry of the covariant derivative of the second fundamental form.

    (nabla h)(X, Y, Z) = D_X h(Y, Z) - h(nabla_X Y, Z) - h(Y, nabla_X Z) must be
    symmetric in X, Y for an immersion into a flat ambient space.
    """
    _require_third(frame)
    gamma = frame.christoffels
    dgamma = frame.dchristoffels
    first, second, third = frame.first, frame.second, frame.third
    h, eta, ginv = frame.sff, frame.eta, frame.metric_inv

    # ambient derivative d_i h_jk, then its normal projection
    dh = (
        third
        - np.einsum("imjk,ma->ijka", dgamma, first)
        - np.einsum("mjk,ima->ijka", gamma, second)
    )
    coeff = np.einsum("ml,la,a,ijka->ijkm", ginv, first, eta, dh)
    dh_normal = dh - np.einsum("ijkm,ma->ijka", coeff, first)

    nabla_h = (
        dh_normal
        - np.einsum("mij,mka->ijka", gamma, h)
        - np.einsum("mik,jma->ijka", gamma, h)
    )
    return float(np.max(np.abs(nabla_h - nabla_h.transpose(1, 0, 2, 3))))


def project(frame: GeometryFrame, v: np.ndarray):
    """Split an ambient vector into tangential coefficients and a normal part.

    Solves g a = (dL | v) with the pseudo metric pairing; returns (a, normal).
    """
    rhs = frame.first @ (frame.eta * v)
    coeffs = frame.metric_inv @ rhs
    normal = v - coeffs @ frame.first
    return coeffs, normal


def tangent_field(frame: GeometryFrame) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient field of the tangential part of J L, with first derivatives.

    The coefficients a solve g a = r with r_k = <L_k, J L>.  Differentiating
    the solve gives d_i a = g^-1 (d_i r - d_i g a), where
    d_i r_k = <L_ik, J L> + <L_k, J L_i>, so no finite differencing and no
    further map evaluation is needed.  Returns (values (m,), gradients (m, m)
    with grad[i, k] = d_i a^k).
    """
    eta = frame.eta
    jpos = apply_j_flat(frame.position)
    values, _ = project(frame, jpos)
    drhs = np.einsum("ika,a,a->ik", frame.second, eta, jpos) + np.einsum(
        "ka,a,ia->ik", frame.first, eta, apply_j_flat(frame.first)
    )
    grads = (drhs - np.einsum("ikl,l->ik", frame.dmetric, values)) @ frame.metric_inv
    return values, grads
