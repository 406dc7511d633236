"""Induced geometry of an immersion: metric, connection, curvature.

A FrameBatch bundles the derivative data of the immersion at a batch of B
points, in interleaved real coordinates, together with the induced metric, the
Christoffel symbols (and their derivatives, at third order), and the second
fundamental form of the flat ambient space.  Every array carries the point
axis first; assemble_frame builds them from the map's derivatives, which
build_frame gets from one batched map evaluation per chunk of at most CHUNK
points before it assembles the frames of the whole batch at once.  Curvature,
the classical compatibility identities (Gauss and Codazzi equations) and the
tangent field of J L are computed from the batch alone, without evaluating
the map again.

Every contraction is one batched matmul on (B, rows, k) reshapes (contract
pairs trailing axes), with eta folded into one operand of a pairing once.  The
Christoffel symbols come from the pairings that d g is formed from,
Gamma^k_ij = g^{kl} <L_ij, L_l>, and their derivatives from two more,
d_p <L_ij, L_l> = <L_pij, L_l> + <L_ij, L_pl>.  The Codazzi residual is formed
on the part of nabla h that is skew in its first two slots, once for each pair
i < j, where the terms that cancel there are never formed.

Index conventions, pinned by tests on the round-sphere factor (b is the point):
  dmetric[b, k, i, j]      = d_k g_ij
  christoffels[b, k, i, j] = Gamma^k_ij
  dchristoffels[b, p, k, i, j] = d_p Gamma^k_ij
  riemann R[b, i, j, k, l] = <R(d_i, d_j) d_k, d_l>, so the Gauss identity reads
  R[i, j, k, l] = <h_il, h_jk> - <h_ik, h_jl>.
"""

from __future__ import annotations

import numpy as np

from .ambient import apply_j_flat, metric_diagonal
from .dsl import ImmersionSpec, evaluate_map_jets
from .errors import DegenerateMetricError, SingularEvaluationError
from .record import Record

__all__ = [
    "FrameBatch",
    "build_frame",
    "assemble_frame",
    "riemann_tensor",
    "sectional_curvature",
    "gauss_residual",
    "codazzi_residual",
    "project",
    "tangent_field",
]

DET_THRESHOLD = 1e-10

# points per map evaluation: bounds the memory of the batched jets, and takes
# the 200 sample points of a large run in one evaluation
CHUNK = 256


class FrameBatch(Record):
    """Derivative and metric data of an immersion at B points."""

    _fields = (
        "spec",
        "points",  # (B, m)
        "position",  # (B, 2n)
        "first",  # (B, m, 2n)
        "second",  # (B, m, m, 2n)
        "third",  # (B, m, m, m, 2n) when requested, else None
        "eta",  # (2n,), shared by all points
        "metric",  # (B, m, m)
        "metric_inv",
        "dmetric",  # (B, m, m, m): d_k g_ij
        "christoffels",  # (B, m, m, m): Gamma^k_ij
        "sff",  # (B, m, m, 2n): second fundamental form vectors
        "dchristoffels",  # (B, m, m, m, m) when need_third, else None
    )
    dchristoffels = None

    def __len__(self) -> int:
        return len(self.points)

    def point(self, index: int) -> tuple[float, ...]:
        return tuple(self.points[index].tolist())

    def rescaled(self, center, k: float) -> "FrameBatch":
        """The frames of (L - center) * k at the same points, in closed form:
        the derivatives and the second fundamental form scale by k, the metric
        and its derivatives by k^2 and its inverse by 1/k^2, while the
        Christoffel symbols and their derivatives stay as they are."""
        k2 = k * k
        return self.replace(
            position=(self.position - center) * k,
            first=self.first * k,
            second=self.second * k,
            third=None if self.third is None else self.third * k,
            metric=self.metric * k2,
            metric_inv=self.metric_inv / k2,
            dmetric=self.dmetric * k2,
            sff=self.sff * k,
        )


def point_max(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the leading point axis (0 for empty slices)."""
    return np.abs(x).reshape(len(x), -1).max(axis=1, initial=0.0)


def build_frame(spec: ImmersionSpec, points, need_third: bool = False) -> FrameBatch:
    """Evaluate the immersion at a batch of points and assemble its geometry.

    points is one point (m,) or a batch (B, m); a single point gives a batch
    of one.  The map is evaluated once per chunk of at most CHUNK points and
    the frames of all B points are assembled at once.  Raises what
    evaluate_map_jets and assemble_frame raise, for the first failing chunk.
    """
    pts = np.array(points, dtype=float, ndmin=2)
    order = 3 if need_third else 2
    m, n = spec.num_params, spec.signature.n
    # a complex128 array is stored as (re, im) pairs, so the component jets
    # laid along a last axis and viewed as float give the ambient layout
    blocks = [np.empty((len(pts),) + (m,) * k + (n,), dtype=complex) for k in range(order + 1)]
    for start in range(0, len(pts), CHUNK):
        chunk = slice(start, start + CHUNK)
        for block, tensor in zip(blocks, evaluate_map_jets(spec, pts[chunk], order)):
            block[chunk] = tensor
        del tensor  # the chunk's highest-order tensor, not needed by assemble_frame
    return assemble_frame(spec, pts, *(block.view(float) for block in blocks))


def assemble_frame(spec, points, position, first, second, third=None) -> FrameBatch:
    """The frames at points (B, m) of a map with these derivatives there.

    Raises SingularEvaluationError when the metric is not finite, and
    DegenerateMetricError when |det(g / max |g_ij|)| < 1e-10, at some point;
    the message names the first such point met by the test that fails.
    """
    eta = metric_diagonal(spec.signature)
    weighted = first * eta  # <x, L_j> is contract(x, weighted)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        metric = contract(weighted, first)
        metric = 0.5 * (metric + np.swapaxes(metric, 1, 2))
    finite = np.isfinite(metric).all(axis=(1, 2))
    if not finite.all():
        bad = tuple(points[np.argmin(finite)].tolist())
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
        bad = tuple(points[i].tolist())
        raise DegenerateMetricError(f"induced metric degenerate at {bad}: |det| = {det:.3e}")
    metric_inv = np.linalg.inv(metric)

    pairs = contract(second, weighted)  # [i, j, l] = <L_ij, L_l>
    # d_k g_ij = <L_ik, L_j> + <L_i, L_jk>
    half = pairs.swapaxes(1, 2)
    dmetric = half + half.swapaxes(2, 3)
    # Gamma^k_ij = g^{kl} <L_ij, L_l>, the tangent part of L_ij
    christoffels = contract(metric_inv, pairs)

    # h_ij = L_ij - Gamma^k_ij L_k
    b, m = metric.shape[:2]
    gamma_rows = christoffels.reshape(b, m, -1).swapaxes(1, 2)  # [(i, j), k]
    sff = second - (gamma_rows @ first).reshape(second.shape)

    dchristoffels = None
    if third is not None:
        # d_p Gamma^k_ij = g^{kl} (d_p <L_ij, L_l> - d_p g_lq Gamma^q_ij), since
        # d_p(g^-1) = -g^-1 d_p g g^-1, with d_p <L_ij, L_l> = <L_pij, L_l> + <L_ij, L_pl>
        lowered = contract(second * eta, second)  # [p, l, i, j] = <L_pl, L_ij>
        lowered += np.moveaxis(contract(third, weighted), 4, 2)  # <L_pij, L_l>
        lowered -= (dmetric @ christoffels.reshape(b, m, -1)[:, None]).reshape(lowered.shape)
        dchristoffels = (metric_inv[:, None] @ lowered.reshape(b, m, m, -1)).reshape(lowered.shape)
    return FrameBatch(
        spec, points, position, first, second, third, eta,
        metric, metric_inv, dmetric, christoffels, sff, dchristoffels,
    )


def contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_a x[b, I, a] y[b, J, a] as array [b, I, J], for multi-indices I and J:
    one batched matmul over the trailing axes."""
    batch, a = len(x), x.shape[-1]
    # matmul takes a C-ordered right operand by its fast path, a transposed view by a slow one
    right = np.ascontiguousarray(y.reshape(batch, -1, a).swapaxes(1, 2))
    return (x.reshape(batch, -1, a) @ right).reshape(x.shape[:-1] + y.shape[1:-1])


def _require_third(frames: FrameBatch):
    if frames.dchristoffels is None:
        raise ValueError("frames were built without third derivatives; pass need_third=True")


def riemann_tensor(frames: FrameBatch) -> np.ndarray:
    """Fully lowered curvature R[b, i, j, k, l] = <R(d_i, d_j) d_k, d_l>."""
    _require_third(frames)
    dgamma, gamma = frames.dchristoffels, frames.christoffels
    b, m = gamma.shape[:2]
    # x[i, j, k, l] = d_i Gamma^l_jk + Gamma^l_im Gamma^m_jk; R^l_ijk is x minus
    # x with i, j swapped
    prod = (gamma.reshape(b, m * m, m) @ gamma.reshape(b, m, -1)).reshape(dgamma.shape)
    x = np.moveaxis(dgamma, 2, -1) + np.moveaxis(prod, 1, -1)
    up = x - x.swapaxes(1, 2)
    return (up.reshape(b, -1, m) @ frames.metric).reshape(up.shape)


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
    h = frames.sff
    pairs = contract(h, h * frames.eta)  # [i, l, j, k] = <h_il, h_jk>
    return point_max(r - pairs.transpose(0, 1, 3, 4, 2) + pairs.transpose(0, 1, 3, 2, 4))


def codazzi_residual(frames: FrameBatch) -> np.ndarray:
    """Max asymmetry of the covariant derivative of the second fundamental form.

    (nabla h)(X, Y, Z) = D_X h(Y, Z) - h(nabla_X Y, Z) - h(Y, nabla_X Z) must be
    symmetric in X, Y for an immersion into a flat ambient space; one value
    per point.  Its part skew in i, j is, for each pair i < j,
    nor(L_ijk - L_jik - Gamma^p_jk L_ip + Gamma^p_ik L_jp) - (Gamma^p_ik h_jp -
    Gamma^p_jk h_ip): d_i Gamma^p_jk L_p is tangent, so the normal projection
    nor removes it, and Gamma^p_ij h_pk is symmetric in i, j.
    """
    _require_third(frames)
    first, third, h = frames.first, frames.third, frames.sff
    b, m = first.shape[:2]
    gamma_rows = frames.christoffels.reshape(b, m, -1).swapaxes(1, 2)[:, None]  # [(j, k), p]

    def lead(x):  # [i, j, k] = Gamma^p_jk x_ip
        return (gamma_rows @ x).reshape(third.shape)

    i, j = np.triu_indices(m, 1)  # each pair of the first two slots once
    ambient = third - lead(frames.second)
    skew = ambient[:, i, j] - ambient[:, j, i]
    del ambient
    tangential = contract(skew, frames.metric_inv @ (first * frames.eta))
    skew -= (tangential.reshape(b, -1, m) @ first).reshape(skew.shape)
    gamma_h = lead(h)
    skew -= gamma_h[:, j, i] - gamma_h[:, i, j]
    return point_max(skew)


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
    drhs = contract(frames.second, (eta * jpos)[:, None])[..., 0] + contract(
        apply_j_flat(frames.first), frames.first * eta
    )
    slope = drhs - contract(frames.dmetric, values[:, None])[..., 0]
    return values, slope @ frames.metric_inv
