"""Residual checks certifying the defining identities of an immersion.

sample_frames builds the frames of the immersion at the deterministic interior
sample points as one FrameBatch, with one build_frame call (which evaluates
the map in chunks of at most geometry.CHUNK points); every check is a pure
function of that batch, evaluates a named residual at all points as one array
reduction over the point axis, and reports max/mean together with the worst
offender.  run_suite builds the
frames of a spec once, rescales them onto the fitted quadric, wires the
checks together in dependency order and emits a CheckReport whose JSON form
is byte-stable for a fixed seed.

Check names are stable API: lagrangian, spherical, legendrian, horizontal,
cubic_symmetry, gauss, codazzi, structure_v_tangent, structure_v_unit,
structure_h_mixed, structure_h_vv, structure_v_parallel, product_metric,
umbilical.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .ambient import AmbientQuadric, apply_j_flat, inner_flat
from .dsl import ImmersionSpec
from .errors import DimensionMismatchError, LagkitError
from .geometry import (
    CHUNK,
    FrameBatch,
    assemble_frame,
    build_frame,
    codazzi_residual,
    contract,
    gauss_residual,
    point_max,
    project,
    tangent_field,
)
from .record import Record
from .sampling import sample_points

__all__ = [
    "SampleConfig",
    "CheckEntry",
    "SphereFit",
    "Transform",
    "CheckReport",
    "sample_frames",
    "check_lagrangian",
    "fit_hypersphere",
    "check_legendrian",
    "check_horizontal",
    "check_cubic_symmetry",
    "check_product_metric",
    "check_umbilical_relation",
    "run_suite",
]

# checks whose residuals rest on third derivatives of the immersion
_THIRD_ORDER_CHECKS = frozenset({"gauss", "codazzi"})

STRUCTURE_CHECKS = (
    "structure_v_tangent",
    "structure_v_unit",
    "structure_h_mixed",
    "structure_h_vv",
    "structure_v_parallel",
)


class SampleConfig(Record):
    """Sampling and tolerance knobs shared by all checks."""

    _fields = ("num_points", "seed", "tol", "tol_third")
    num_points = 20
    seed = 42
    tol = 1e-8
    tol_third = 1e-6

    def __post_init__(self):
        if self.num_points < 1:
            raise ValueError("num_points must be >= 1")

    def tolerance_for(self, check_name: str) -> float:
        if check_name in _THIRD_ORDER_CHECKS:
            return self.tol_third
        return self.tol


class CheckEntry(Record, frozen=False):
    """Outcome of one named residual check."""

    # a constructor of its own: a suite builds about a dozen per spec
    def __init__(self, name, max_residual, mean_residual, points_evaluated, tolerance, passed,
                 status="ok", reason=None, worst_point=None, details=None):
        self.name = name
        self.max_residual = max_residual  # float, or None without residuals
        self.mean_residual = mean_residual
        self.points_evaluated = points_evaluated
        self.tolerance = tolerance
        self.passed = passed  # bool, or None when skipped
        self.status = status  # ok | skipped | error
        self.reason = reason
        self.worst_point = worst_point  # the point's coordinates, or None
        self.details = {} if details is None else details


class SphereFit(Record, frozen=False):
    """Least-squares central quadric through the sampled image points."""

    _fields = ("center", "radius_sq_signed", "rms_residual")  # center: interleaved (2n,)


class Transform(Record, frozen=False):
    """Recenter/rescale applied before the classification-structure checks."""

    _fields = ("center", "scale")  # center: interleaved (2n,)


def _finish(name, cfg, residuals, frames, extra_details=None) -> CheckEntry:
    tol = cfg.tolerance_for(name)
    arr = np.asarray(residuals, dtype=float)
    worst = int(np.argmax(arr))  # the first NaN, if there is one
    if not math.isfinite(arr[worst]):
        return _errored(name, cfg, f"non-finite residual at {frames.point(worst)}")
    return CheckEntry(
        name=name,
        max_residual=float(arr[worst]),
        mean_residual=float(arr.mean()),
        points_evaluated=len(frames),
        tolerance=tol,
        passed=bool(arr[worst] <= tol),
        worst_point=frames.point(worst),
        details=dict(extra_details or {}),
    )


def _errored(name, cfg, reason, status="error") -> CheckEntry:
    """An entry without residuals: an error fails the report, a skip does not."""
    return CheckEntry(
        name=name,
        max_residual=None,
        mean_residual=None,
        points_evaluated=0,
        tolerance=cfg.tolerance_for(name),
        passed=False if status == "error" else None,
        status=status,
        reason=reason,
    )


def _skipped(name, cfg, reason) -> CheckEntry:
    return _errored(name, cfg, reason, status="skipped")


def sample_frames(
    spec: ImmersionSpec, cfg: SampleConfig, need_third: bool = False
) -> FrameBatch:
    """Frames of spec at the configured sample points, from one build_frame call.

    When that call raises, the error names the first failing sample point
    (see _pointwise_on_error).
    """
    points = np.array(sample_points(spec, cfg.num_points, cfg.seed))
    return _pointwise_on_error(lambda s: build_frame(spec, points[s], need_third), len(points))


def _pointwise_on_error(build, size) -> FrameBatch:
    """build(slice) on all size points.  When it raises, the CHUNK slices run
    again in order and, in the first that raises, its points one at a time,
    so the error names the first failing point, with its message, exactly as
    a point-by-point walk would (the batch error, should no point raise)."""
    try:
        return build(slice(0, size))
    except LagkitError as exc:
        error = exc
    for start in range(0, size, CHUNK):
        try:
            build(slice(start, start + CHUNK))
        except LagkitError:
            for i in range(start, min(start + CHUNK, size)):
                build(slice(i, i + 1))
            break
    raise error


def check_lagrangian(frames: FrameBatch, cfg: SampleConfig) -> CheckEntry:
    """Isotropy of the image: <J dL_i, dL_j> vanishes for all i, j.

    Requires the half-dimensional parameter count; the frames themselves
    guarantee a nondegenerate induced metric at every sampled point.
    """
    spec = frames.spec
    if spec.num_params != spec.signature.n:
        raise DimensionMismatchError(
            f"Lagrangian check needs n = {spec.signature.n} parameters, "
            f"spec has {spec.num_params} (not half-dimensional)"
        )
    return _finish("lagrangian", cfg, point_max(_omega(frames)), frames)


def _omega(frames: FrameBatch) -> np.ndarray:
    """<J dL_i, dL_j> at each point, (B, m, m)."""
    jfirst = apply_j_flat(frames.first)
    return (jfirst * frames.eta) @ np.swapaxes(frames.first, 1, 2)


def _v_pairing(frames: FrameBatch) -> np.ndarray:
    """<dL_i, J L> at each point, (B, m)."""
    jpos = apply_j_flat(frames.position)
    return (frames.first @ (frames.eta * jpos)[..., None])[..., 0]


def fit_hypersphere(frames: FrameBatch, cfg: SampleConfig):
    """Least-squares fit of <L - p, L - p> = r^2 (signed) over sampled points.

    <L, L> - 2 <L, p> = k is linear in (p, k); the signed square radius is
    k + <p, p>.  Returns (SphereFit | None, CheckEntry named "spherical").
    """
    eta = frames.eta
    dim = len(eta)
    needed = dim + 2
    if len(frames) < needed:
        return None, _errored(
            "spherical", cfg, f"need at least {needed} sample points, have {len(frames)}"
        )
    pos = frames.position
    rows = np.hstack([2.0 * pos * eta, np.ones((len(frames), 1))])
    rhs = (pos * eta * pos).sum(axis=1)
    sol, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < dim + 1:
        return None, _errored(
            "spherical", cfg, f"fit normal system is rank deficient (rank {rank})"
        )
    center = sol[:dim]
    k = float(sol[dim])
    radius_sq = k + float(inner_flat(center, center, eta))
    residuals = np.abs(rows @ sol - rhs)
    rms = float(np.sqrt(np.mean(residuals**2)))
    fit = SphereFit(center=center, radius_sq_signed=radius_sq, rms_residual=rms)
    entry = _finish(
        "spherical",
        cfg,
        residuals,
        frames,
        extra_details={"rms_residual": rms, "radius_sq_signed": radius_sq},
    )
    return fit, entry


def check_legendrian(
    frames: FrameBatch, cfg: SampleConfig, quadric: AmbientQuadric
) -> CheckEntry:
    """Legendrian conditions on a declared quadric: membership, J-position
    normal to the image, J of tangents normal to the image."""
    spec = frames.spec
    if spec.num_params != spec.signature.n - 1:
        raise DimensionMismatchError(
            f"Legendrian check needs n-1 = {spec.signature.n - 1} parameters, "
            f"spec has {spec.num_params}"
        )
    residuals = np.maximum.reduce(
        [
            _membership(frames, quadric),
            point_max(_v_pairing(frames)),
            point_max(_omega(frames)),
        ]
    )
    return _finish("legendrian", cfg, residuals, frames)


def _membership(frames: FrameBatch, quadric: AmbientQuadric) -> np.ndarray:
    """|<L, L> - 1/c| at each point."""
    pos = frames.position
    return np.abs(inner_flat(pos, pos, frames.eta) - quadric.radius_sq_signed)


def check_horizontal(frames: FrameBatch, cfg: SampleConfig) -> CheckEntry:
    """Horizontality over the circle action: tangents orthogonal to J-position."""
    return _finish("horizontal", cfg, point_max(_v_pairing(frames)), frames)


def check_cubic_symmetry(frames: FrameBatch, cfg: SampleConfig) -> CheckEntry:
    """Total symmetry of <h(X, Y), JZ> in its three slots.

    With h already symmetric it suffices to compare the cyclic rotation,
    <h_ij, J dL_k> = <h_jk, J dL_i>.
    """
    jfirst = apply_j_flat(frames.first)
    cubic = contract(frames.sff * frames.eta, jfirst)
    residuals = point_max(cubic - cubic.transpose(0, 3, 1, 2))
    return _finish("cubic_symmetry", cfg, residuals, frames)


def _structure_entries(frames_n, cfg, epsilon):
    """Classification-structure residuals on the normalized frames.

    On the immersion recentred and rescaled by the quadric fit, the
    tangential part V of J L must satisfy: V actually tangential,
    <V, V> = epsilon, h(Z, V) = JZ, h(V, V) = -position, and nabla V = 0.
    """
    fr = frames_n
    coeffs, normal = project(fr, apply_j_flat(fr.position))
    vv = (coeffs[:, None, :] @ fr.metric @ coeffs[:, :, None])[:, 0, 0]
    hv = (coeffs[:, None, None] @ fr.sff)[:, :, 0]
    hvv = (coeffs[:, None] @ hv)[:, 0]
    _, grads = tangent_field(fr)
    nabla_v = grads + contract(fr.christoffels, coeffs[:, None])[..., 0]
    res = {
        "structure_v_tangent": point_max(normal),
        "structure_v_unit": np.abs(vv - epsilon),
        "structure_h_mixed": point_max(hv - apply_j_flat(fr.first)),
        "structure_h_vv": point_max(hvv + fr.position),
        "structure_v_parallel": point_max(nabla_v),
    }
    entries = {}
    for name in STRUCTURE_CHECKS:
        extra = {"epsilon": epsilon} if name == "structure_v_unit" else None
        entries[name] = _finish(name, cfg, res[name], frames_n, extra_details=extra)
    return entries


def _structure_with_fit(frames, cfg, lag_entry, fit, fit_entry):
    """The structure bundle, run on the frames of (L - center) / scale.

    Those frames are assembled from the frames of L, which keep their spec:
    recentring moves the position only and rescaling multiplies every
    derivative by k = 1 / scale.  Scaling by the reciprocal, as
    dilate(spec, 1 / scale) does, gives the arrays of the normalized spec bit
    for bit, without evaluating it.  Returns (entries, Transform, normalized
    frames or the LagkitError that assembling them raised, the unit quadric
    AmbientQuadric(epsilon) of the normalized image), or (entries, None, None,
    None) when the bundle is skipped.
    """
    reason = None
    if not lag_entry.passed:
        reason = "requires the Lagrangian check to pass"
    elif fit is None or not fit_entry.passed:
        reason = "image is not contained in a central quadric"
    elif abs(fit.radius_sq_signed) < 1e-6:
        reason = "fitted quadric is degenerate (signed r^2 ~ 0)"
    if reason is not None:
        return {n: _skipped(n, cfg, reason) for n in STRUCTURE_CHECKS}, None, None, None
    unit = AmbientQuadric(1.0 if fit.radius_sq_signed > 0 else -1.0)  # c = epsilon
    transform = Transform(fit.center.copy(), math.sqrt(abs(fit.radius_sq_signed)))
    k = 1.0 / transform.scale
    arrays = ((frames.position - fit.center) * k, frames.first * k, frames.second * k)
    try:
        frames_n = _pointwise_on_error(
            lambda s: assemble_frame(frames.spec, frames.points[s], *(a[s] for a in arrays)),
            len(frames),
        )
    except LagkitError as exc:
        entries = {n: _errored(n, cfg, str(exc)) for n in STRUCTURE_CHECKS}
        return entries, transform, exc, unit
    return _structure_entries(frames_n, cfg, unit.c), transform, frames_n, unit


def check_product_metric(frames: FrameBatch, cfg: SampleConfig) -> CheckEntry:
    """Product block structure in adapted coordinates (first parameter = angle).

    Checks g_{t u_j} = 0, the u-block independent of t, and g_tt constant of
    modulus one; the g_tt value lands in the entry details.
    """
    g, dg = frames.metric, frames.dmetric
    gtt = g[:, 0, 0]
    residuals = np.maximum.reduce(
        [
            point_max(g[:, 0, 1:]),  # cross terms
            point_max(dg[:, 0, 1:, 1:]),  # drift of the u-block along t
            point_max(dg[:, :, 0, 0]),  # drift of g_tt
            np.abs(np.abs(gtt) - 1.0),
        ]
    )
    return _finish(
        "product_metric",
        cfg,
        residuals,
        frames,
        extra_details={"g_tt": float(np.mean(gtt))},
    )


def check_umbilical_relation(
    frames: FrameBatch, cfg: SampleConfig, quadric: AmbientQuadric
) -> CheckEntry:
    """Consistency of the flat and in-quadric second fundamental forms.

    For an immersion inside <L, L> = 1/c the in-quadric form h + c g L must be
    tangent to the quadric: <h_ij + c g_ij L, L> = 0.  Membership is verified
    first; the factor c equals the usual sign epsilon on unit quadrics.
    """
    membership = _membership(frames, quadric)
    outside = membership > 1e4 * max(cfg.tolerance_for("umbilical"), 1e-10)
    if outside.any():
        i = int(np.argmax(outside))
        return _errored(
            "umbilical",
            cfg,
            f"membership failure at {frames.point(i)}: "
            f"|<L,L> - 1/c| = {membership[i]:.3e}",
        )
    pos = frames.position
    inquadric = frames.sff + quadric.c * frames.metric[..., None] * pos[:, None, None, :]
    residuals = point_max(contract(inquadric, (frames.eta * pos)[:, None]))
    return _finish("umbilical", cfg, residuals, frames)


def check_gauss(frames: FrameBatch, cfg: SampleConfig) -> CheckEntry:
    """Gauss equation residual; the frames need third derivatives."""
    return _finish("gauss", cfg, gauss_residual(frames), frames)


def check_codazzi(frames: FrameBatch, cfg: SampleConfig) -> CheckEntry:
    """Codazzi equation residual; the frames need third derivatives."""
    return _finish("codazzi", cfg, codazzi_residual(frames), frames)


class CheckReport(Record, frozen=False):
    """All check outcomes for one spec, JSON-serializable and byte-stable."""

    _fields = ("spec_name", "checks", "sphere_fit", "transform")  # checks: name -> CheckEntry
    sphere_fit = None
    transform = None

    @property
    def passed(self) -> bool:
        return all(
            entry.passed for entry in self.checks.values() if entry.status != "skipped"
        )

    def to_dict(self) -> dict:
        checks = {}
        for name, e in self.checks.items():
            item = {
                "max": e.max_residual,
                "mean": e.mean_residual,
                "tol": e.tolerance,
                "pass": e.passed,
                "worst_point": list(e.worst_point) if e.worst_point is not None else None,
                "status": e.status,
            }
            if e.reason is not None:
                item["reason"] = e.reason
            if e.details:
                item["details"] = dict(e.details)
            checks[name] = item
        fit = None
        if self.sphere_fit is not None:
            fit = {
                "center": [float(x) for x in self.sphere_fit.center],
                "radius_sq_signed": float(self.sphere_fit.radius_sq_signed),
                "rms_residual": float(self.sphere_fit.rms_residual),
            }
        transform = None
        if self.transform is not None:
            transform = {
                "center": [float(x) for x in self.transform.center],
                "scale": float(self.transform.scale),
            }
        return {
            "spec_name": self.spec_name,
            "transform": transform,
            "checks": checks,
            "sphere_fit": fit,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


def _quadric_from_fit(fit: SphereFit) -> AmbientQuadric | None:
    center_mag = float(np.max(np.abs(fit.center)))
    if center_mag > 1e-6 or abs(fit.radius_sq_signed) < 1e-6:
        return None
    return AmbientQuadric(1.0 / fit.radius_sq_signed)


def _guard(entries, name, cfg, check, frames, *args):
    """Run check(frames, cfg, *args), turning kernel errors into an error entry.

    frames may be the LagkitError that building them raised; the entry then
    reports that error.
    """
    if isinstance(frames, LagkitError):
        entries[name] = _errored(name, cfg, str(frames))
        return
    try:
        entries[name] = check(frames, cfg, *args)
    except LagkitError as exc:
        entries[name] = _errored(name, cfg, str(exc))


def _fit_entry(frames, cfg):
    """fit_hypersphere, or no fit and an error entry when the frames failed."""
    if isinstance(frames, LagkitError):
        return None, _errored("spherical", cfg, str(frames))
    return fit_hypersphere(frames, cfg)


def run_suite(
    spec: ImmersionSpec,
    cfg: SampleConfig | None = None,
    quadric: AmbientQuadric | None = None,
) -> CheckReport:
    """All applicable checks in dependency order.

    The map is evaluated once per chunk of sample points, to third order.
    Half-dimensional specs run the Lagrangian chain (isotropy, quadric fit,
    curvature identities, cubic symmetry, then the structure bundle, product
    metric and umbilical relation on the frames recentred and rescaled by the
    fit, which are derived from the same evaluation).  Specs with one
    parameter fewer run the Legendrian chain against the declared quadric (the
    quadric argument, else spec.quadric), or against the fitted one when the
    fit lands on a central quadric.  A map that fails at a sample point makes
    each check an error entry; sampling that fails (a count no array holds)
    raises.
    """
    cfg = cfg or SampleConfig()
    quadric = spec.quadric if quadric is None else quadric
    entries: dict[str, CheckEntry] = {}
    sphere_fit = None
    transform = None
    m, n = spec.num_params, spec.signature.n
    points = np.array(sample_points(spec, cfg.num_points, cfg.seed))  # a bad count raises
    try:
        frames = _pointwise_on_error(lambda s: build_frame(spec, points[s], True), len(points))
    except LagkitError as exc:  # each check reports it
        frames = exc

    fit = None
    if m == n:
        _guard(entries, "lagrangian", cfg, check_lagrangian, frames)
        lag = entries["lagrangian"]
        fit, entries["spherical"] = _fit_entry(frames, cfg)
        sphere_fit = fit
        _guard(entries, "gauss", cfg, check_gauss, frames)
        _guard(entries, "codazzi", cfg, check_codazzi, frames)
        if lag.status == "ok" and lag.passed:
            _guard(entries, "cubic_symmetry", cfg, check_cubic_symmetry, frames)
        else:
            entries["cubic_symmetry"] = _skipped(
                "cubic_symmetry", cfg, "requires the Lagrangian check to pass"
            )
        bundle, transform, frames_n, unit = _structure_with_fit(
            frames, cfg, lag, fit, entries["spherical"]
        )
        entries.update(bundle)
        if transform is not None:
            _guard(entries, "product_metric", cfg, check_product_metric, frames_n)
            _guard(entries, "umbilical", cfg, check_umbilical_relation, frames_n, unit)
        else:
            reason = "requires the quadric fit and Lagrangian check to pass"
            entries["product_metric"] = _skipped("product_metric", cfg, reason)
            if quadric is not None:
                _guard(
                    entries, "umbilical", cfg, check_umbilical_relation, frames, quadric
                )
            else:
                entries["umbilical"] = _skipped("umbilical", cfg, reason)
    elif m == n - 1:
        q = quadric
        if quadric is not None:
            # A declared quadric is authoritative; low-dimensional images
            # rarely determine the fit anyway (real curves never do).
            entries["spherical"] = _skipped(
                "spherical", cfg, "quadric declared by the caller"
            )
        else:
            fit, entries["spherical"] = _fit_entry(frames, cfg)
            sphere_fit = fit
            if fit is not None and entries["spherical"].passed:
                q = _quadric_from_fit(fit)
        if q is not None:
            _guard(entries, "legendrian", cfg, check_legendrian, frames, q)
            if q.c > 0:
                _guard(entries, "horizontal", cfg, check_horizontal, frames)
            _guard(entries, "umbilical", cfg, check_umbilical_relation, frames, q)
        else:
            reason = "no quadric declared and the fit found none"
            for name in ("legendrian", "horizontal", "umbilical"):
                entries[name] = _skipped(name, cfg, reason)
        _guard(entries, "gauss", cfg, check_gauss, frames)
        _guard(entries, "codazzi", cfg, check_codazzi, frames)
    else:
        _guard(entries, "gauss", cfg, check_gauss, frames)
        _guard(entries, "codazzi", cfg, check_codazzi, frames)

    return CheckReport(
        spec_name=spec.name,
        checks=entries,
        sphere_fit=sphere_fit,
        transform=transform,
    )
