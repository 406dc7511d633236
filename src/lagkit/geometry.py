"""Induced geometry of an immersion: metric, connection, curvature.

A FrameBatch holds, at B points (every array's leading axis), the map's
derivatives in interleaved real coordinates, the induced metric, the
Christoffel symbols (at third order with their derivatives) and the second
fundamental form.  build_frame evaluates the map per chunk of at most CHUNK
points and assembles the whole batch at once; curvature, the Gauss and Codazzi
residuals and the tangent field of J L come from the batch alone.

Each contraction is one matmul per point on (B, rows, k) reshapes (contract),
never one per point and index, and each elementwise step reads C-ordered
operands: an intermediate is formed in the layout its next step reads, and a
permuted read is one np.take of positions built once per m (_gathers).  So
d_p Gamma^k_ij is formed as [k, p, i, j] and R as [l, i, j, k], both viewed in
the conventions below; second and sff are read as L_ij = L_ji, third as it is.
The metric's inverse and its conditioning test come from one expansion in minors
of g / max |g_ij| (inverse), by such gathers, for every m and with no LAPACK
call: the determinant is tested against 1e-10, and the cofactors over it give g^-1.

Index conventions, pinned by tests on the round-sphere factor (b is the point):
  dmetric[b, k, i, j]      = d_k g_ij
  christoffels[b, k, i, j] = Gamma^k_ij
  dchristoffels[b, p, k, i, j] = d_p Gamma^k_ij
  riemann R[b, i, j, k, l] = <R(d_i, d_j) d_k, d_l>, so the Gauss identity reads
  R[i, j, k, l] = <h_il, h_jk> - <h_ik, h_jl>.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .ambient import apply_j_flat, metric_diagonal
from .dsl import ImmersionSpec, evaluate_map_jets
from .errors import DegenerateMetricError, LagkitError, SingularEvaluationError
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

# points per map evaluation: bounds the memory of the batched jets, and takes
# the 200 sample points of a large run in one evaluation
CHUNK = 256


class FrameBatch(Record):
    """Derivative and metric data of an immersion at B points: second, sff and christoffels
    are symmetric in i, j bit for bit, third in all its slots, and a hand-built batch keeps that."""

    __slots__ = ("_shared",)  # product key -> value (see shared), outside the fields
    _fields = (
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

    def shared(self, product, *args) -> np.ndarray:
        """product(self, *args), formed by its first call and kept with the batch:
        the products of the fields that several checks read."""
        if not hasattr(self, "_shared"):  # its first product (a copy starts afresh)
            object.__setattr__(self, "_shared", {})
        key = (product, *args)
        if key not in self._shared:
            self._shared[key] = product(self, *args)
        return self._shared[key]

    def __len__(self) -> int:
        return len(self.points)

    def point(self, index: int) -> tuple[float, ...]:
        return tuple(self.points[index].tolist())

    def rescaled(self, center, k: float) -> "FrameBatch":
        """The frames of (L - center) * k at the same points, to second order,
        in closed form: the derivatives and the second fundamental form scale by
        k, the metric and its derivatives by k^2 and its inverse by 1/k^2, while
        the Christoffel symbols stay as they are.  No check on them reads
        third-order data, so they carry none."""
        k2 = k * k
        return self.replace(
            position=(self.position - center) * k,
            first=self.first * k,
            second=self.second * k,
            metric=self.metric * k2,
            metric_inv=self.metric_inv / k2,
            dmetric=self.dmetric * k2,
            sff=self.sff * k,
            third=None,
            dchristoffels=None,
        )


def point_max(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the leading point axis (0 for empty slices)."""
    return np.maximum.reduce(np.abs(x).reshape(len(x), -1), axis=1, initial=0.0)


def j_of(frames: FrameBatch, field: str) -> np.ndarray:
    """J applied to a field of frames: frames.shared(j_of, "position") is J L."""
    return apply_j_flat(getattr(frames, field))


def build_frame(spec: ImmersionSpec, points, need_third: bool = False) -> FrameBatch:
    """Evaluate the immersion at a batch of points and assemble its geometry.

    points is one point (m,) or a batch (B, m); a single point gives a batch
    of one.  The map is evaluated once per chunk of at most CHUNK points, into
    the chunk's rows of the frames' arrays, and the frames of all B points are
    assembled at once.  Raises the first error of a point-by-point walk: what
    evaluate_map_jets (its row shifted to the batch) or assemble_frame raises
    names the first point to fail that test, and an earlier point may fail a
    later test, so the points before its row are built too.
    """
    pts = np.array(points, dtype=float, ndmin=2)
    order = 3 if need_third else 2
    m, n = spec.num_params, spec.signature.n
    # a complex128 array is stored as (re, im) pairs, so the component jets
    # laid along a last axis and viewed as float give the ambient layout; one
    # buffer for all blocks took fewer page faults than one array per block
    shapes = [(len(pts),) + (m,) * k + (n,) for k in range(order + 1)]
    ends = np.add.accumulate([math.prod(shape) for shape in shapes]).tolist()
    buffer = np.empty(ends[-1], dtype=complex)
    blocks = [buffer[end - math.prod(s) : end].reshape(s) for s, end in zip(shapes, ends)]
    try:
        for start in range(0, len(pts), CHUNK):
            chunk = slice(start, start + CHUNK)
            try:
                evaluate_map_jets(spec, pts[chunk], order, [block[chunk] for block in blocks])
            except LagkitError as exc:  # its row in the chunk, now in the batch
                exc.row += start
                raise
        return assemble_frame(spec, pts, *(block.view(float) for block in blocks))
    except LagkitError as exc:  # unbound when the handler exits: no reference cycle
        if exc.row:
            build_frame(spec, pts[: exc.row], need_third)
        raise


def assemble_frame(spec, points, position, first, second, third=None) -> FrameBatch:
    """The frames at points (B, m) of a map with these derivatives there.

    Raises SingularEvaluationError when the metric is not finite, and
    DegenerateMetricError when |det(g / max |g_ij|)| < 1e-10, at some point;
    the error names, by row too, the first such point met by the failing test.
    """
    eta = metric_diagonal(spec.signature)
    weighted = first * eta  # <x, L_j> is contract(x, weighted)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # rejected just below
        metric = contract(weighted, first)
        metric = 0.5 * (metric + np.swapaxes(metric, 1, 2))
        scale, det, metric_inv = inverse(metric)  # det(g / scale): scale**m may overflow
    finite = np.isfinite(scale)
    if not np.logical_and.reduce(finite):
        i = int(np.argmin(finite))
        bad = tuple(points[i].tolist())
        raise SingularEvaluationError(f"induced metric not finite at {bad}", row=i)
    degenerate = (scale == 0.0) | (np.abs(det) < 1e-10)
    if np.logical_or.reduce(degenerate):
        i = int(np.argmax(degenerate))
        tested = abs(det[i]) if scale[i] else 0.0
        bad = f"{tuple(points[i].tolist())}: |det(g / max|g_ij|)| = {tested:.3e}"
        raise DegenerateMetricError(f"induced metric degenerate at {bad}", row=i)

    pairs = contract(second, weighted)  # [i, j, l] = <L_ij, L_l>
    # d_k g_ij = <L_ik, L_j> + <L_i, L_jk> = <L_ki, L_j> + <L_kj, L_i>
    dmetric = pairs + pairs.swapaxes(2, 3)
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
        lowered = contract(second * eta, second)  # [l, p, i, j] = <L_lp, L_ij>
        lowered += contract(weighted, third).reshape(lowered.shape)  # <L_pij, L_l>
        slopes = dmetric.swapaxes(1, 2).reshape(b, m * m, m)  # [(l, p), q] = d_p g_lq
        lowered -= (slopes @ christoffels.reshape(b, m, -1)).reshape(lowered.shape)
        raised = metric_inv @ lowered.reshape(b, m, -1)  # [k, (p, i, j)]
        dchristoffels = raised.reshape(lowered.shape).swapaxes(1, 2)
    return FrameBatch(
        points, position, first, second, third, eta,
        metric, metric_inv, dmetric, christoffels, sff, dchristoffels,
    )


def contract(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """sum_a x[b, I, a] y[b, J, a] as array [b, I, J], for multi-indices I and J:
    one batched matmul over the trailing axes."""
    batch, a = len(x), x.shape[-1]
    # matmul takes a C-ordered right operand by its fast path, a transposed view by a slow one
    right = np.ascontiguousarray(y.reshape(batch, -1, a).swapaxes(1, 2))
    return (x.reshape(batch, -1, a) @ right).reshape(x.shape[:-1] + y.shape[1:-1])


def inverse(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """s = max |g_ij| (nan or inf where g is not finite), det(g / s) (nan where s is 0)
    and g^-1 per point.  Each k x k minor the cofactors need is formed once, along its
    last row, from those of order k - 1, by one gather of rows (minor, point) per term."""
    b, m = g.shape[:2]
    flat = np.ascontiguousarray(g.reshape(b, -1).T)
    signed = np.concatenate((flat, -flat))
    scale = np.maximum.reduce(signed, axis=0)  # max(g_ij, -g_ij), propagating nan
    signed /= scale
    *tables, adj_at, adj_sign = _gathers(m)[4:]
    below, minors = np.ones((1, b)), signed[: m * m]  # the minors of order 0 and 1
    for minor_at, entry_at in zip(tables[::2], tables[1::2]):  # orders 2 .. m
        terms = minors.take(minor_at, axis=0) * signed.take(entry_at, axis=0)
        below, minors = minors, np.add.reduce(terms, axis=0)
    inv = np.empty((b, m, m))  # written transposed, so C-ordered for the matmuls that read it
    np.divide(below.take(adj_at, axis=0) * adj_sign, minors[0] * scale, out=inv.reshape(b, -1).T)
    return scale, minors[0], inv


def _require_third(frames: FrameBatch):
    if frames.dchristoffels is None:
        raise ValueError("frames were built without third derivatives; pass need_third=True")


def riemann_tensor(frames: FrameBatch) -> np.ndarray:
    """Fully lowered curvature R[b, i, j, k, l] = <R(d_i, d_j) d_k, d_l>."""
    _require_third(frames)
    dgamma, gamma = frames.dchristoffels, frames.christoffels
    b, m = gamma.shape[:2]
    # x[l, i, j, k] = d_i Gamma^l_jk + Gamma^l_iq Gamma^q_jk; R^l_ijk is x - x[l, j, i, k]
    prod = gamma.reshape(b, m * m, m) @ gamma.reshape(b, m, -1)  # [(l, i), (j, k)]
    x = (dgamma.swapaxes(1, 2) + prod.reshape(dgamma.shape)).reshape(b, -1)
    x -= x.take(_gathers(m)[0], axis=1)
    lowered = frames.metric.swapaxes(1, 2) @ x.reshape(b, m, -1)  # [l, (i, j, k)]
    return lowered.reshape(dgamma.shape).transpose(0, 2, 3, 4, 1)


def sectional_curvature(frames: FrameBatch, i: int, j: int, riemann=None) -> np.ndarray:
    """Sectional curvature of the coordinate 2-plane spanned by d_i, d_j, per point.
    The plane is degenerate where |g_ii g_jj - g_ij^2| <= 1e-14 max(|g_ii g_jj|, g_ij^2)."""
    r = riemann_tensor(frames) if riemann is None else riemann
    g = frames.metric
    diagonal, cross = g[:, i, i] * g[:, j, j], g[:, i, j] ** 2
    degenerate = np.abs(diagonal - cross) <= 1e-14 * np.maximum(np.abs(diagonal), cross)
    if np.logical_or.reduce(degenerate):
        row = int(np.argmax(degenerate))
        bad = f"({i},{j}) is metrically degenerate at {frames.point(row)}"
        raise DegenerateMetricError(f"coordinate plane {bad}", row=row)
    return r[:, i, j, j, i] / (diagonal - cross)


def gauss_residual(frames: FrameBatch) -> np.ndarray:
    """Max deviation in the Gauss identity R_ijkl = <h_il,h_jk> - <h_ik,h_jl>, per point."""
    r = riemann_tensor(frames).transpose(0, 4, 1, 2, 3)  # [l, i, j, k], C-ordered
    pairs = contract(frames.sff, frames.sff * frames.eta)  # [l, i, j, k] = <h_li, h_jk>
    r -= pairs  # then + <h_ik, h_jl>, pairs read at [i, k, j, l]
    r += pairs.reshape(len(r), -1).take(_gathers(r.shape[1])[1], axis=1).reshape(r.shape)
    return point_max(r)


def codazzi_residual(frames: FrameBatch) -> np.ndarray:
    """Max asymmetry of the covariant derivative of the second fundamental form.

    (nabla h)(X, Y, Z) = D_X h(Y, Z) - h(nabla_X Y, Z) - h(Y, nabla_X Z) must be
    symmetric in X, Y for an immersion into a flat ambient space; one value
    per point.  Its part skew in i, j is, for each pair i < j,
    nor(L_ijk - L_jik - Gamma^p_jk L_ip + Gamma^p_ik L_jp) - (Gamma^p_ik h_jp -
    Gamma^p_jk h_ip): d_i Gamma^p_jk L_p is tangent, so the normal projection
    nor removes it, and Gamma^p_ij h_pk is symmetric in i, j.  It reads third
    as it is, second and sff as x_ip = x_pi: a batch built by hand keeps that.
    """
    _require_third(frames)
    first, third = frames.first, frames.third
    b, m, a = first.shape
    gamma_rows = frames.christoffels.reshape(b, m, -1).swapaxes(1, 2)  # [(j, k), p]
    third_rows, lead_rows = _gathers(m)[2:4]  # (2, pairs * m): rows (i, j, k), then (j, i, k)
    # Gamma^p_jk x_ip = Gamma^p_jk x_pi, formed as [j, k, i], at those rows, each when read
    leads = ((gamma_rows @ x.reshape(b, m, -1)).reshape(b, -1, a).take(lead_rows, axis=1)
             for x in (frames.second, frames.sff))
    ambient = third.reshape(b, -1, a).take(third_rows, axis=1) - next(leads)
    skew = ambient[:, 0] - ambient[:, 1]
    del ambient
    # its tangential part, by the dual frame g^{pq} L_q formed transposed
    skew -= skew @ ((first * frames.eta).swapaxes(1, 2) @ frames.metric_inv.swapaxes(1, 2)) @ first
    gamma_h = next(leads)
    skew -= gamma_h[:, 1] - gamma_h[:, 0]
    return point_max(skew)


@functools.lru_cache(maxsize=None)  # one entry per dimension m met
def _gathers(m: int) -> tuple[np.ndarray, ...]:
    """Read-only, built once per m: the flat positions of a C-ordered block's
    [l, j, i, k] and [i, k, j, l] at each [l, i, j, k]; of rows (i, j, k), then
    (j, i, k), of each slot pair i < j in [i, j, k] and in [j, k, i]; then, for
    inverse and each order k = 2..m, the positions (term, minor) of each term's
    minor of order k - 1 and of its entry of g, in g's negated copy where the
    term's sign is -; and where adj[j, i] reads C_ij, with its sign."""
    i, j = np.triu_indices(m, 1)
    cube, block = np.arange(m**3).reshape((m,) * 3), np.arange(m**4).reshape((m,) * 4)
    flat = [block.transpose(0, 2, 1, 3).ravel(), block.transpose(3, 0, 2, 1).ravel()]
    flat += [np.stack([x[i, j].ravel(), x[j, i].ravel()]) for x in (cube, cube.transpose(2, 0, 1))]
    full, drop = tuple(range(m)), lambda x, t: x[:t] + x[t + 1 :]
    # the minors [rows, cols] of each order: all m^2 of order m - 1, and those they read
    kept = {m: [(full, full)], m - 1: [(drop(full, i), drop(full, j)) for i in full for j in full]}
    for k in range(m - 1, 2, -1):
        kept[k - 1] = sorted({(rows[:-1], drop(cols, t)) for rows, cols in kept[k] for t in range(k)})
    at = {((), ()): 0} | {((r,), (c,)): r * m + c for r in full for c in full}  # 1, then g
    for k in range(2, m + 1):
        flat += [np.array([[at[rows[:-1], drop(cols, t)] for rows, cols in kept[k]] for t in range(k)]),
                 np.array([[rows[-1] * m + cols[t] + (k - 1 + t) % 2 * m * m for rows, cols in kept[k]]
                           for t in range(k)])]
        at |= {pair: n for n, pair in enumerate(kept[k])}
    flat += [np.array([at[drop(full, i), drop(full, j)] for j in full for i in full]),
             np.array([[(-1.0) ** (i + j)] for j in full for i in full])]
    for x in flat:
        x.flags.writeable = False
    return tuple(flat)


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
    jpos = frames.shared(j_of, "position")
    values, _ = project(frames, jpos)
    drhs = contract(frames.second, (eta * jpos)[:, None])[..., 0] + contract(
        frames.shared(j_of, "first"), frames.first * eta
    )
    slope = drhs - contract(frames.dmetric, values[:, None])[..., 0]
    return values, slope @ frames.metric_inv
