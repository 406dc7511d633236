"""Induced geometry of an immersion: metric, connection, curvature.

A FrameBatch holds, at B points (every array's leading axis), the map's
derivatives to second order in interleaved real coordinates, the induced
metric, the Christoffel symbols of both kinds and the second fundamental form.
build_frame evaluates the map's second-order jets per chunk of at most CHUNK
points and assembles the whole batch at once; curvature, the Gauss and Codazzi
residuals and the tangent field of J L come from that data alone.

Each contraction is one matmul per point on (B, rows, k) reshapes (contract),
never one per point and index, and each elementwise step reads C-ordered
operands: an intermediate is formed in the layout its next step reads, and a
permuted read is one np.take of positions built once per m (_gathers).  So R
is formed as [i, l, j, k] (_curvature_terms) and viewed in the conventions
below; second and sff are read as L_ij = L_ji.
The metric's inverse and its conditioning test come from one expansion in minors
of g / max |g_ij| (inverse), by such gathers, for every m and with no LAPACK
call: the determinant is tested against 1e-10, and the cofactors over it give g^-1.

Index conventions, pinned by tests on the round-sphere factor (b is the point):
  christoffels_lowered[b, i, j, l] = Gamma_ij,l = <L_ij, L_l>
  christoffels[b, k, i, j] = Gamma^k_ij
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
    """Derivative and metric data of an immersion at B points, to second order: second,
    sff and christoffels are symmetric in i, j bit for bit, and a hand-built batch keeps that."""

    __slots__ = ("_shared",)  # product key -> value (see shared), outside the fields
    _fields = (
        "points",  # (B, m)
        "position",  # (B, 2n)
        "first",  # (B, m, 2n)
        "second",  # (B, m, m, 2n)
        "eta",  # (2n,), shared by all points
        "metric",  # (B, m, m)
        "metric_inv",
        "christoffels_lowered",  # (B, m, m, m): Gamma_ij,l = <L_ij, L_l>
        "christoffels",  # (B, m, m, m): Gamma^k_ij
        "sff",  # (B, m, m, 2n): second fundamental form vectors
    )

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
        k, the metric and the lowered Christoffel symbols by k^2
        and its inverse by 1/k^2, while the Christoffel symbols stay as they are."""
        k2 = k * k
        return self.replace(
            position=(self.position - center) * k,
            first=self.first * k,
            second=self.second * k,
            metric=self.metric * k2,
            metric_inv=self.metric_inv / k2,
            christoffels_lowered=self.christoffels_lowered * k2,
            sff=self.sff * k,
        )


def point_max(x: np.ndarray) -> np.ndarray:
    """max |x| over every axis but the leading point axis (0 for empty slices)."""
    return np.maximum.reduce(np.abs(x).reshape(len(x), -1), axis=1, initial=0.0)


def j_of(frames: FrameBatch, field: str) -> np.ndarray:
    """J applied to a field of frames: frames.shared(j_of, "position") is J L."""
    return apply_j_flat(getattr(frames, field))


def build_frame(spec: ImmersionSpec, points) -> FrameBatch:
    """Evaluate the immersion at a batch of points and assemble its geometry.

    points is one point (m,) or a batch (B, m); a single point gives a batch
    of one.  The map is evaluated to second order once per chunk of at most
    CHUNK points, into the chunk's rows of the frames' arrays, and the frames
    of all B points are assembled at once.  Raises the first error of a
    point-by-point walk: what evaluate_map_jets (its row shifted to the batch)
    or assemble_frame raises names the first point to fail that test, and an
    earlier point may fail a later test, so the points before its row are
    built too.
    """
    pts = np.array(points, dtype=float, ndmin=2)
    m, n = spec.num_params, spec.signature.n
    # a complex128 array is stored as (re, im) pairs, so the component jets
    # laid along a last axis and viewed as float give the ambient layout; one
    # buffer for all blocks took fewer page faults than one array per block
    shapes = [(len(pts),) + (m,) * k + (n,) for k in range(3)]  # value, first, second
    ends = np.add.accumulate([math.prod(shape) for shape in shapes]).tolist()
    buffer = np.empty(ends[-1], dtype=complex)
    blocks = [buffer[end - math.prod(s) : end].reshape(s) for s, end in zip(shapes, ends)]
    try:
        for start in range(0, len(pts), CHUNK):
            chunk = slice(start, start + CHUNK)
            try:
                evaluate_map_jets(spec, pts[chunk], 2, [block[chunk] for block in blocks])
            except LagkitError as exc:  # its row in the chunk, now in the batch
                exc.row += start
                raise
        return assemble_frame(spec, pts, *(block.view(float) for block in blocks))
    except LagkitError as exc:  # unbound when the handler exits: no reference cycle
        if exc.row:
            build_frame(spec, pts[: exc.row])
        raise


def assemble_frame(spec, points, position, first, second) -> FrameBatch:
    """The frames at points (B, m) of a map with these derivatives there.

    Raises SingularEvaluationError when the metric is not finite, and
    DegenerateMetricError when |det(g / max |g_ij|)| < 1e-10 or g^-1 is not
    finite, at some point; the error names, by row too, the first such point
    met by the failing test.
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
    if not np.logical_and.reduce(np.isfinite(metric_inv), axis=None):  # g ~ 1e-320: 1/g overflows
        i = int(np.argmin(np.isfinite(metric_inv).reshape(len(points), -1).all(axis=1)))
        bad = f"{tuple(points[i].tolist())}: g^-1 not finite"
        raise DegenerateMetricError(f"induced metric degenerate at {bad}", row=i)

    lowered = contract(second, weighted)  # [i, j, l] = Gamma_ij,l = <L_ij, L_l>
    # Gamma^k_ij = g^{kl} <L_ij, L_l>, the tangent part of L_ij
    christoffels = contract(metric_inv, lowered)

    # h_ij = L_ij - Gamma^k_ij L_k
    b, m = metric.shape[:2]
    gamma_rows = christoffels.reshape(b, m, -1).swapaxes(1, 2)  # [(i, j), k]
    sff = second - (gamma_rows @ first).reshape(second.shape)

    return FrameBatch(
        points, position, first, second, eta,
        metric, metric_inv, lowered, christoffels, sff,
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
    *tables, adj_at, adj_sign = _gathers(m)[2:]
    below, minors = np.ones((1, b)), signed[: m * m]  # the minors of order 0 and 1
    for minor_at, entry_at in zip(tables[::2], tables[1::2]):  # orders 2 .. m
        terms = minors.take(minor_at, axis=0) * signed.take(entry_at, axis=0)
        below, minors = minors, np.add.reduce(terms, axis=0)
    inv = np.empty((b, m, m))  # written transposed, so C-ordered for the matmuls that read it
    np.divide(below.take(adj_at, axis=0) * adj_sign, minors[0] * scale, out=inv.reshape(b, -1).T)
    return scale, minors[0], inv


def _curvature_terms(frames: FrameBatch) -> tuple[np.ndarray, np.ndarray]:
    """T[b, i, l, j, k] = <L_il, L_jk> - Gamma_il,q Gamma^q_jk, which is <h_il, h_jk>,
    as (B, m^4), and the positions of its [j, l, i, k]: R_ijkl = T[i, l, j, k] - T[j, l, i, k]."""
    second, gamma = frames.second, frames.christoffels
    b, m = gamma.shape[:2]
    terms = contract(second * frames.eta, second).reshape(b, m * m, -1)
    terms -= frames.christoffels_lowered.reshape(b, m * m, m) @ gamma.reshape(b, m, -1)
    return terms.reshape(b, -1), _gathers(m)[0]


def riemann_tensor(frames: FrameBatch) -> np.ndarray:
    """Fully lowered curvature R[b, i, j, k, l] = <R(d_i, d_j) d_k, d_l>."""
    terms, mirror = _curvature_terms(frames)
    r = terms - terms.take(mirror, axis=1)  # [i, l, j, k]
    return r.reshape(frames.christoffels.shape + (-1,)).transpose(0, 1, 3, 4, 2)


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
    """Max deviation in the Gauss identity R_ijkl = <h_il,h_jk> - <h_ik,h_jl>, per point:
    D[i, l, j, k] - D[j, l, i, k] for D = T - <h_il, h_jk> (_curvature_terms)."""
    terms, mirror = _curvature_terms(frames)
    terms -= contract(frames.sff, frames.sff * frames.eta).reshape(terms.shape)
    terms -= terms.take(mirror, axis=1)
    return point_max(terms)


def codazzi_residual(frames: FrameBatch) -> np.ndarray:
    """Max asymmetry of the covariant derivative of the second fundamental form.

    (nabla h)(X, Y, Z) = D_X h(Y, Z) - h(nabla_X Y, Z) - h(Y, nabla_X Z) must be
    symmetric in X, Y for an immersion into a flat ambient space; one value
    per point.  Its part skew in i, j is, for each pair i < j, nor(L_ijk - L_jik
    + Gamma^p_ik L_jp - Gamma^p_jk L_ip) - (Gamma^p_ik h_jp - Gamma^p_jk h_ip), as
    d_i Gamma^p_jk L_p is tangent and Gamma^p_ij h_pk symmetric in i, j; L_ijk = L_jik
    drops out.  It reads second and sff as x_ip = x_pi: a batch built by hand keeps that.
    """
    first = frames.first
    b, m, a = first.shape
    gamma_rows = frames.christoffels.reshape(b, m, -1).swapaxes(1, 2)  # [(j, k), p]
    lead_rows = _gathers(m)[1]  # (2, pairs * m): rows (i, j, k), then (j, i, k)
    # Gamma^p_jk x_ip = Gamma^p_jk x_pi, formed as [j, k, i], at those rows, each when read
    leads = ((gamma_rows @ x.reshape(b, m, -1)).reshape(b, -1, a).take(lead_rows, axis=1)
             for x in (frames.second, frames.sff))
    gamma_l = next(leads)
    skew = gamma_l[:, 1] - gamma_l[:, 0]
    del gamma_l
    # its tangential part, by the dual frame g^{pq} L_q formed transposed
    skew -= skew @ ((first * frames.eta).swapaxes(1, 2) @ frames.metric_inv.swapaxes(1, 2)) @ first
    gamma_h = next(leads)
    skew -= gamma_h[:, 1] - gamma_h[:, 0]
    return point_max(skew)


@functools.lru_cache(maxsize=None)  # one entry per dimension m met
def _gathers(m: int) -> tuple[np.ndarray, ...]:
    """Read-only, built once per m: the flat positions of a C-ordered block's
    [j, l, i, k] at each [i, l, j, k]; of rows (i, j, k), then (j, i, k), of
    each slot pair i < j in [j, k, i]; then, for inverse and each order
    k = 2..m, the positions (term, minor) of each term's minor of order k - 1
    and of its entry of g, in g's negated copy where the term's sign is -; and
    where adj[j, i] reads C_ij, with its sign."""
    i, j = np.triu_indices(m, 1)
    cube = np.arange(m**3).reshape((m,) * 3).transpose(2, 0, 1)
    flat = [np.arange(m**4).reshape((m,) * 4).transpose(2, 1, 0, 3).ravel()]
    flat += [np.stack([cube[i, j].ravel(), cube[j, i].ravel()])]
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
    """The tangential part V of J L, by its coefficients, and its covariant derivative.

    The coefficients a solve g a = r with r_l = <L_l, J L>.  Differentiating
    r_l = g_lj a^j, with d_i g_lj = Gamma_il,j + Gamma_ij,l, gives
    nabla_i V^k = d_i a^k + Gamma^k_ij a^j = g^{kl} (d_i r_l - Gamma_il,j a^j), where
    d_i r_l = <L_il, J L> + <L_l, J L_i>, so no finite differencing and no
    further map evaluation is needed.  Returns (values (B, m), covariant
    derivatives (B, m, m) with nabla[b, i, k] = nabla_i V^k).
    """
    eta = frames.eta
    jpos = frames.shared(j_of, "position")
    values, _ = project(frames, jpos)
    drhs = contract(frames.second, (eta * jpos)[:, None])[..., 0] + contract(
        frames.shared(j_of, "first"), frames.first * eta
    )
    slope = drhs - contract(frames.christoffels_lowered, values[:, None])[..., 0]
    return values, slope @ frames.metric_inv
