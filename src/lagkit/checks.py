"""Residual checks certifying the defining identities of an immersion.

sample_frames builds the frames of the immersion at the deterministic interior
sample points as one FrameBatch, with one build_frame call (which evaluates
the map in chunks of at most geometry.CHUNK points); every check is a pure
function of that batch, evaluates a named residual at all points as one array
reduction over the point axis, and reports max/mean together with the worst
offender.  The table _CHECKS names every check (its names are stable API)
and decides which checks a spec gets, in what order, from which frames and
resting on which others; run_suite walks it, building the frames of a spec
once and rescaling them onto the fitted quadric, and emits a CheckReport
whose JSON form is byte-stable for a fixed seed.
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
    build_frame,
    codazzi_residual,
    contract,
    gauss_residual,
    point_max,
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
            raise ValueError(f"num_points must be at least 1, got {self.num_points}")
        for name in ("tol", "tol_third"):  # the JSON report holds no NaN or Infinity
            tol = getattr(self, name)
            if not 0 <= tol < math.inf:
                raise ValueError(f"{name} must be finite and non-negative, got {tol!r}")

    def tolerance_for(self, check_name: str) -> float:
        return self.tol_third if check_name in _THIRD_ORDER else self.tol


class CheckEntry(Record):
    """Outcome of one named residual check."""

    _fields = (
        "name", "max_residual", "mean_residual",  # residuals: floats, or None without any
        "points_evaluated", "tolerance", "passed",  # passed: a bool, or None when skipped
        "status", "reason",  # status: ok | skipped | error
        "worst_point", "details",  # the point's coordinates, or None; a dict
    )
    status = "ok"
    reason = None
    worst_point = None
    details = None

    def __post_init__(self):
        if self.details is None:
            self.__dict__["details"] = {}  # a dict of its own for each entry


class SphereFit(Record):
    """Least-squares central quadric through the sampled image points."""

    _fields = ("center", "radius_sq_signed", "rms_residual")  # center: interleaved (2n,)


class Transform(Record):
    """Recenter/rescale applied before the classification-structure checks."""

    _fields = ("center", "scale")  # center: interleaved (2n,)


def _finish(name, cfg, residuals, frames, extra_details=None) -> CheckEntry:
    tol = cfg.tolerance_for(name)
    arr = np.asarray(residuals, dtype=float)
    worst = int(arr.argmax())  # the first NaN, if there is one
    top = float(arr[worst])
    if not math.isfinite(top):
        return _errored(name, cfg, f"non-finite residual at {frames.point(worst)}")
    mean = float(arr.sum() / len(arr))  # arr.mean()'s sum and division, without its wrapper
    return CheckEntry(  # positionally, in _fields order: Record's fast path
        name, top, mean, len(frames), tol, top <= tol,
        "ok", None, frames.point(worst), dict(extra_details or {}),
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


def sample_frames(
    spec: ImmersionSpec, cfg: SampleConfig, need_third: bool = False
) -> FrameBatch:
    """Frames of spec at the configured sample points, from one build_frame call.

    When that call raises, the error names the first failing sample point
    (see _pointwise_on_error).
    """
    points = sample_points(spec, cfg.num_points, cfg.seed)
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
    fit = SphereFit(center, radius_sq, rms)
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


_NEEDS_LAGRANGIAN = "requires the Lagrangian check to pass"
_NEEDS_FIT = "requires the quadric fit and Lagrangian check to pass"


class _Skip(Exception):
    """Raised by a check that does not run; its message is the reason."""


def _transform(entries, fit):
    """(the Transform onto the fitted quadric, None), or (None, the reason there
    is none), from the lagrangian and spherical entries and the fit."""
    if not entries["lagrangian"].passed:
        return None, _NEEDS_LAGRANGIAN
    if fit is None or not entries["spherical"].passed:
        return None, "image is not contained in a central quadric"
    if abs(fit.radius_sq_signed) < 1e-6:
        return None, "fitted quadric is degenerate (signed r^2 ~ 0)"
    return Transform(fit.center.copy(), math.sqrt(abs(fit.radius_sq_signed))), None


def _structure_with_fit(frames, cfg, entries, fit):
    """The structure bundle, run on the frames of (L - center) / scale.

    On that immersion the tangential part V of J L must satisfy: V actually
    tangential, <V, V> = epsilon, h(Z, V) = JZ, h(V, V) = -position, and
    nabla V = 0.  Its frames are those of L rescaled in closed form
    (FrameBatch.rescaled with k = 1 / scale), keeping their spec, so the
    normalized spec is neither evaluated nor assembled.  Returns (normalized
    frames, their unit quadric AmbientQuadric(epsilon), structure entries by
    name); raises _Skip without a transform.
    """
    transform, reason = _transform(entries, fit)
    if reason is not None:
        raise _Skip(reason)
    unit = AmbientQuadric(1.0 if fit.radius_sq_signed > 0 else -1.0)  # c = epsilon
    fr = frames.rescaled(fit.center, 1.0 / transform.scale)
    coeffs, grads = tangent_field(fr)
    normal = apply_j_flat(fr.position) - (coeffs[:, None, :] @ fr.first)[:, 0]  # as project forms it
    vv = (coeffs[:, None, :] @ fr.metric @ coeffs[:, :, None])[:, 0, 0]
    hv = (coeffs[:, None, None] @ fr.sff)[:, :, 0]
    hvv = (coeffs[:, None] @ hv)[:, 0]
    nabla_v = grads + contract(fr.christoffels, coeffs[:, None])[..., 0]
    res = {
        "structure_v_tangent": point_max(normal),
        "structure_v_unit": np.abs(vv - unit.c),
        "structure_h_mixed": point_max(hv - apply_j_flat(fr.first)),
        "structure_h_vv": point_max(hvv + fr.position),
        "structure_v_parallel": point_max(nabla_v),
    }
    details = {"structure_v_unit": {"epsilon": unit.c}}
    return fr, unit, {name: _finish(name, cfg, r, fr, details.get(name)) for name, r in res.items()}


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


class CheckReport(Record):
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


class _Suite:
    """What the checks of one run_suite call share."""

    def __init__(self, cfg, quadric, frames):
        self.cfg, self.quadric, self._frames = cfg, quadric, frames  # or what building raised
        self.entries: dict[str, CheckEntry] = {}
        self.fit = self._bundle = None

    def call(self, check, *args):
        """check(frames, cfg, *args): args may skip before the frames fail."""
        if isinstance(self._frames, LagkitError):
            raise self._frames
        return check(self._frames, self.cfg, *args)

    def fit_quadric(self) -> CheckEntry:
        self.fit, entry = self.call(fit_hypersphere)
        return entry

    def target(self) -> AmbientQuadric:
        """The declared quadric, else the fitted one if the fit passes on a central quadric."""
        q, fit = self.quadric, self.fit
        if q is None and self.entries["spherical"].passed:
            central = np.max(np.abs(fit.center)) <= 1e-6 and abs(fit.radius_sq_signed) >= 1e-6
            q = AmbientQuadric(1.0 / fit.radius_sq_signed) if central else None
        if q is None:
            raise _Skip("no quadric declared and the fit found none")
        return q

    def bundle(self, skipped=None):
        """_structure_with_fit, run once: a skip it raised, it raises again (as
        _Skip(skipped), when skipped is given)."""
        if self._bundle is None:
            try:
                self._bundle = _structure_with_fit(self._frames, self.cfg, self.entries, self.fit)
            except _Skip as skip:
                # its reason alone: the exception's traceback holds the frames
                # of this call, and those hold this suite, a cycle only the
                # garbage collector would free
                self._bundle = str(skip)
        if isinstance(self._bundle, str):
            raise _Skip(skipped or self._bundle)
        return self._bundle


def _legendrian_fit(s: _Suite) -> CheckEntry:
    if s.quadric is not None:
        # A declared quadric is authoritative; low-dimensional images
        # rarely determine the fit anyway (real curves never do).
        raise _Skip("quadric declared by the caller")
    return s.fit_quadric()


def _cubic_symmetry(s: _Suite) -> CheckEntry:
    if not s.entries["lagrangian"].passed:
        raise _Skip(_NEEDS_LAGRANGIAN)
    return s.call(check_cubic_symmetry)


def _lagrangian_umbilical(s: _Suite) -> CheckEntry:
    """On the normalized frames, else on those of L against a declared quadric."""
    try:
        frames_n, unit, _ = s.bundle(_NEEDS_FIT)
    except _Skip:
        if s.quadric is None:
            raise
        return s.call(check_umbilical_relation, s.quadric)
    return check_umbilical_relation(frames_n, s.cfg, unit)


_ON_FIT = ("lagrangian", "spherical")

# One row per check, in report order: its name, chain (n - m: 0 for m = n, the
# Lagrangian chain, 1 for m = n - 1, the Legendrian one, None for every spec),
# the order of the derivatives it reads, the checks it rests on, and
# run(suite) -> its entry (None for no entry), or _Skip.  A row looks its check
# up in this module's globals when it runs, so a check patched here is the one run.
_CHECKS = (
    ("lagrangian", 0, 2, (), lambda s: s.call(check_lagrangian)),
    ("spherical", 0, 2, (), lambda s: s.fit_quadric()),
    ("spherical", 1, 2, (), _legendrian_fit),
    ("legendrian", 1, 2, ("spherical",), lambda s: s.call(check_legendrian, s.target())),
    ("horizontal", 1, 2, ("spherical",),  # over the circle action: on a sphere (c > 0) only
     lambda s: s.call(check_horizontal) if s.target().c > 0 else None),
    ("umbilical", 1, 2, ("spherical",), lambda s: s.call(check_umbilical_relation, s.target())),
    ("gauss", None, 3, (), lambda s: s.call(check_gauss)),
    ("codazzi", None, 3, (), lambda s: s.call(check_codazzi)),
    ("cubic_symmetry", 0, 2, ("lagrangian",), _cubic_symmetry),
    *((name, 0, 2, _ON_FIT, lambda s, name=name: s.bundle()[2][name]) for name in STRUCTURE_CHECKS),
    ("product_metric", 0, 2, _ON_FIT,
     lambda s: check_product_metric(s.bundle(_NEEDS_FIT)[0], s.cfg)),
    ("umbilical", 0, 2, _ON_FIT, _lagrangian_umbilical),
)
_THIRD_ORDER = frozenset(row[0] for row in _CHECKS if row[2] == 3)  # they get tol_third


def run_suite(spec: ImmersionSpec, cfg: SampleConfig | None = None,
              quadric: AmbientQuadric | None = None, checks=None) -> CheckReport:
    """The checks of _CHECKS that apply to spec, in its order: all, or those
    named in checks and the checks they rest on.

    The map is evaluated once per chunk of sample points, to third order only
    when a check to run reads third derivatives.  The Legendrian chain checks
    against the declared quadric (the quadric argument, else spec.quadric), or
    the fitted one when the fit lands on a central quadric.  A report of named
    checks also carries, for each one skipped, the checks it rests on that did
    not pass; its sphere_fit and transform are the full suite's.  A map that
    fails at a sample point makes each check an error entry; sampling that
    fails (a count no array holds) raises, as does a check the spec does not get.
    """
    cfg = cfg or SampleConfig()
    m, n = spec.num_params, spec.signature.n
    rows = [row for row in _CHECKS if row[1] in (None, n - m)]
    rests_on = {name: needs for name, _, _, needs, _ in rows}
    # all that checks rest on, and what sphere_fit and transform come from
    wanted = {*(rests_on if checks is None else checks), "lagrangian", "spherical"}
    third = any(order == 3 for name, _, order, _, _ in rows if name in wanted)
    points = sample_points(spec, cfg.num_points, cfg.seed)  # a bad count raises
    try:
        frames = _pointwise_on_error(lambda s: build_frame(spec, points[s], third), len(points))
    except LagkitError as exc:  # each check reports it
        frames = exc

    suite = _Suite(cfg, spec.quadric if quadric is None else quadric, frames)
    entries = suite.entries
    for name, _, _, _, run in rows:
        if name in wanted:
            try:
                entry = run(suite)
            except _Skip as skip:
                entry = _errored(name, cfg, str(skip), status="skipped")
            except LagkitError as exc:
                entry = _errored(name, cfg, str(exc))
            if entry is not None:
                entries[name] = entry
    transform = _transform(entries, suite.fit)[0] if m == n else None
    if checks is not None:
        unknown = [name for name in checks if name not in entries]  # horizontal, off a sphere
        if unknown:
            known = ", ".join(name for name in rests_on if name not in unknown)
            raise LagkitError(f"{spec.name} gets no check {', '.join(unknown)}; it gets: {known}")
        shown = {*checks}
        for name in checks:
            if entries[name].status == "skipped":
                shown.update(need for need in rests_on[name] if not entries[need].passed)
        entries = {name: entry for name, entry in entries.items() if name in shown}
    return CheckReport(spec.name, entries, suite.fit, transform)
