"""Induced geometry of an immersion: metric, connection, curvature.

A FrameBatch bundles the derivative data of the immersion at a batch of B
points, in interleaved real coordinates, together with the induced metric, the
Christoffel symbols (and their derivatives, at third order), and the second
fundamental form of the flat ambient space.  Every array carries the point
axis first, and build_frame assembles all of them from one batched map
evaluation.  Curvature, the classical compatibility identities (Gauss and
Codazzi equations) and the tangent field of J L are computed from the batch
alone, as one array expression per quantity, without evaluating the map again.

Index conventions, pinned by tests on the round-sphere factor (b is the point):
  dmetric[b, k, i, j]      = d_k g_ij
  christoffels[b, k, i, j] = Gamma^k_ij
  dchristoffels[b, p, k, i, j] = d_p Gamma^k_ij
  riemann R[b, i, j, k, l] = <R(d_i, d_j) d_k, d_l>, so the Gauss identity reads
  R[i, j, k, l] = <h_il, h_jk> - <h_ik, h_jl>.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from .ambient import apply_j_flat, metric_diagonal
from .dsl import ImmersionSpec, evaluate_map_jets
from .errors import DegenerateMetricError, SingularEvaluationError

__all__ = [
    "FrameBatch",
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
class FrameBatch:
    """Derivative and metric data of an immersion at B points."""

    spec: ImmersionSpec
    points: np.ndarray  # (B, m)
    position: np.ndarray  # (B, 2n)
    first: np.ndarray  # (B, m, 2n)
    second: np.ndarray  # (B, m, m, 2n)
    third: np.ndarray | None  # (B, m, m, m, 2n) when requested
    eta: np.ndarray  # (2n,), shared by all points
    metric: np.ndarray  # (B, m, m)
    metric_inv: np.ndarray
    dmetric: np.ndarray  # (B, m, m, m): d_k g_ij
    christoffels: np.ndarray  # (B, m, m, m): Gamma^k_ij
    sff: np.ndarray  # (B, m, m, 2n): second fundamental form vectors
    dchristoffels: np.ndarray | None = None  # (B, m, m, m, m) when need_third

    def __len__(self) -> int:
        return len(self.points)

    def point(self, index: int) -> tuple[float, ...]:
        return tuple(self.points[index].tolist())

    @classmethod
    def concatenate(cls, batches, size: int) -> "FrameBatch":
        """One batch of `size` points holding the points of `batches`, in order.

        batches may be a generator: each batch is copied in before the next
        is built, so no two of them are alive at once.
        """
        out, start = None, 0
        for batch in batches:
            if out is None:
                arrays = [
                    f.name
                    for f in fields(cls)
                    if f.name not in ("spec", "eta") and getattr(batch, f.name) is not None
                ]
                full = {n: np.empty((size,) + getattr(batch, n).shape[1:]) for n in arrays}
                out = replace(batch, **full)
            for name in arrays:
                getattr(out, name)[start : start + len(batch)] = getattr(batch, name)
            start += len(batch)
            del batch
        return out


def point_max(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the leading point axis (0 for empty slices)."""
    return np.abs(x).reshape(len(x), -1).max(axis=1, initial=0.0)


def build_frame(spec: ImmersionSpec, points, need_third: bool = False) -> FrameBatch:
    """Evaluate the immersion at a batch of points and assemble its geometry.

    points is one point (m,) or a batch (B, m); a single point gives a batch
    of one.  Raises SingularEvaluationError when the map, its derivatives or
    the metric overflow or are not finite, and DegenerateMetricError when
    |det(g / max |g_ij|)| < 1e-10, at some point; the message names the first
    such point met by the test that fails.
    """
    pts = np.array(points, dtype=float, ndmin=2)
    order = 3 if need_third else 2
    jets = evaluate_map_jets(spec, pts, order)
    # a complex128 array is stored as (re, im) pairs, so stacking the component
    # jets along a last axis and viewing that as float gives the ambient layout
    position, first, second, *rest = (
        np.stack([jet.blocks[k] for jet in jets], axis=-1).view(float)
        for k in range(order + 1)
    )
    third = rest[0] if need_third else None
    del jets  # the stacked copies replace them; keeps the chunk's peak memory down
    eta = metric_diagonal(spec.signature)

    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        metric = (first * eta) @ np.swapaxes(first, 1, 2)
        metric = 0.5 * (metric + np.swapaxes(metric, 1, 2))
    finite = np.isfinite(metric).all(axis=(1, 2))
    if not finite.all():
        bad = tuple(pts[np.argmin(finite)].tolist())
        raise SingularEvaluationError(f"induced metric not finite at {bad}")
    # compare det(g / scale), since scale**m can overflow where det g does not
    scale = np.abs(metric).max(axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # scale 0 is degenerate
        degenerate = (scale == 0.0) | (
            np.abs(np.linalg.det(metric / scale[:, None, None])) < DET_THRESHOLD
        )
    if degenerate.any():
        i = int(np.argmax(degenerate))
        det = abs(float(np.linalg.det(metric[i])))
        bad = tuple(pts[i].tolist())
        raise DegenerateMetricError(f"induced metric degenerate at {bad}: |det| = {det:.3e}")
    metric_inv = np.linalg.inv(metric)

    # d_k g_ij = <L_ik, L_j> + <L_i, L_jk>
    half = np.einsum("bika,a,bja->bkij", second, eta, first)
    dmetric = half + half.transpose(0, 1, 3, 2)

    # Gamma^k_ij = (1/2) g^{kl} (d_i g_lj + d_j g_li - d_l g_ij)
    bracket = _bracket(dmetric)
    christoffels = 0.5 * np.einsum("bkl,blij->bkij", metric_inv, bracket)

    sff = second - np.einsum("bkij,bka->bija", christoffels, first)

    frames = FrameBatch(
        spec, pts, position, first, second, third, eta,
        metric, metric_inv, dmetric, christoffels, sff,
    )
    if need_third:
        frames.dchristoffels = _christoffel_derivatives(frames, bracket)
    return frames


def _bracket(dg: np.ndarray) -> np.ndarray:
    """d_i g_lj + d_j g_li - d_l g_ij as array [..., l, i, j]."""
    return np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg


def _require_third(frames: FrameBatch):
    if frames.dchristoffels is None:
        raise ValueError("frames were built without third derivatives; pass need_third=True")


def _christoffel_derivatives(frames: FrameBatch, bracket: np.ndarray) -> np.ndarray:
    """d_p Gamma^k_ij as array [b, p, k, i, j], from the third derivatives."""
    eta = frames.eta
    first, second, third = frames.first, frames.second, frames.third
    ginv, dg = frames.metric_inv, frames.dmetric

    # d_p d_q g_ij
    d2g = (
        np.einsum("bpqia,a,bja->bpqij", third, eta, first)
        + np.einsum("bpia,a,bqja->bpqij", second, eta, second)
        + np.einsum("bqia,a,bpja->bpqij", second, eta, second)
        + np.einsum("bia,a,bpqja->bpqij", first, eta, third)
    )
    dginv = -np.einsum("bka,bpac,bcl->bpkl", ginv, dg, ginv)
    return 0.5 * np.einsum("bpkl,blij->bpkij", dginv, bracket) + 0.5 * np.einsum(
        "bkl,bplij->bpkij", ginv, _bracket(d2g)
    )


def riemann_tensor(frames: FrameBatch) -> np.ndarray:
    """Fully lowered curvature R[b, i, j, k, l] = <R(d_i, d_j) d_k, d_l>."""
    _require_third(frames)
    dgamma = frames.dchristoffels
    gamma = frames.christoffels
    up = (
        np.einsum("biljk->bijkl", dgamma)
        - np.einsum("bjlik->bijkl", dgamma)
        + np.einsum("bmjk,blim->bijkl", gamma, gamma)
        - np.einsum("bmik,bljm->bijkl", gamma, gamma)
    )
    return np.einsum("bijkm,bml->bijkl", up, frames.metric)


def sectional_curvature(frames: FrameBatch, i: int, j: int, riemann=None) -> np.ndarray:
    """Sectional curvature of the coordinate 2-plane spanned by d_i, d_j, per point."""
    r = riemann_tensor(frames) if riemann is None else riemann
    g = frames.metric
    denom = g[:, i, i] * g[:, j, j] - g[:, i, j] ** 2
    if (np.abs(denom) < 1e-14).any():
        raise DegenerateMetricError(f"coordinate plane ({i},{j}) is metrically degenerate")
    return r[:, i, j, j, i] / denom


def gauss_residual(frames: FrameBatch) -> np.ndarray:
    """Max deviation in the Gauss identity R_ijkl = <h_il,h_jk> - <h_ik,h_jl>, per point."""
    r = riemann_tensor(frames)
    h, eta = frames.sff, frames.eta
    rhs = np.einsum("bila,a,bjka->bijkl", h, eta, h) - np.einsum(
        "bika,a,bjla->bijkl", h, eta, h
    )
    return point_max(r - rhs)


def codazzi_residual(frames: FrameBatch) -> np.ndarray:
    """Max asymmetry of the covariant derivative of the second fundamental form.

    (nabla h)(X, Y, Z) = D_X h(Y, Z) - h(nabla_X Y, Z) - h(Y, nabla_X Z) must be
    symmetric in X, Y for an immersion into a flat ambient space; one value
    per point.
    """
    _require_third(frames)
    gamma = frames.christoffels
    dgamma = frames.dchristoffels
    first, second, third = frames.first, frames.second, frames.third
    h, eta, ginv = frames.sff, frames.eta, frames.metric_inv

    # ambient derivative d_i h_jk, then its normal projection; the (B, m, m,
    # m, 2n) terms are subtracted in place, so that few of them are alive at once
    nabla_h = third - np.einsum("bimjk,bma->bijka", dgamma, first)
    nabla_h -= np.einsum("bmjk,bima->bijka", gamma, second)
    tangential = np.einsum("bijka,bma->bijkm", nabla_h, ginv @ (first * eta))
    nabla_h -= np.einsum("bijkm,bma->bijka", tangential, first)
    del tangential

    nabla_h -= np.einsum("bmij,bmka->bijka", gamma, h)
    nabla_h -= np.einsum("bmik,bjma->bijka", gamma, h)
    i, j = np.triu_indices(gamma.shape[1], 1)  # each pair of the first two slots once
    return point_max(nabla_h[:, i, j] - nabla_h[:, j, i])


def project(frames: FrameBatch, v: np.ndarray):
    """Split ambient vectors v (B, 2n) into tangential coefficients and normal parts.

    Solves g a = (dL | v) with the pseudo metric pairing at each point;
    returns (a (B, m), normal (B, 2n)).
    """
    rhs = frames.first @ (frames.eta * v)[..., None]
    coeffs = (frames.metric_inv @ rhs)[..., 0]
    normal = v - (coeffs[:, None, :] @ frames.first)[:, 0]
    return coeffs, normal


def tangent_field(frames: FrameBatch) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient field of the tangential part of J L, with first derivatives.

    The coefficients a solve g a = r with r_k = <L_k, J L>.  Differentiating
    the solve gives d_i a = g^-1 (d_i r - d_i g a), where
    d_i r_k = <L_ik, J L> + <L_k, J L_i>, so no finite differencing and no
    further map evaluation is needed.  Returns (values (B, m), gradients
    (B, m, m) with grad[b, i, k] = d_i a^k).
    """
    eta = frames.eta
    jpos = apply_j_flat(frames.position)
    values, _ = project(frames, jpos)
    drhs = np.einsum("bika,a,ba->bik", frames.second, eta, jpos) + np.einsum(
        "bka,a,bia->bik", frames.first, eta, apply_j_flat(frames.first)
    )
    slope = drhs - np.einsum("bikl,bl->bik", frames.dmetric, values)
    return values, slope @ frames.metric_inv
