"""Residual checks certifying the defining identities of an immersion.

run_suite, the one way to run a check, builds the frames of the immersion at
the deterministic interior sample points as one FrameBatch, to second order,
with one build_frame call (whose error names the first failing point).  Every check is
a pure function of that batch: a named residual row, one value per point, whose
max and mean its entry reports together with the worst offender.  The products
that several checks read (J L, J dL_i, <dL_i, J L>, the membership residual)
are formed once per batch (FrameBatch.shared).  The table _CHAINS names every
check (its names are stable API), and by n - m which checks a spec gets, in
report order, with the checks each rests on.  run_suite runs lagrangian,
spherical, gauss and codazzi, reduces their rows as one stack (_reduce), then
runs the checks that rest on them, on the frames rescaled onto the fitted
quadric where they need them, and emits a CheckReport whose JSON form is
byte-stable for a fixed seed.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .ambient import AmbientQuadric, inner_flat
from .dsl import ImmersionSpec
from .errors import LagkitError
from .geometry import (
    FrameBatch,
    build_frame,
    codazzi_residual,
    contract,
    gauss_residual,
    j_of,
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

    _fields = ("num_points", "seed", "tol")
    num_points = 20
    seed = 42
    tol = 1e-8

    def __post_init__(self):
        if self.num_points < 1:
            raise ValueError(f"num_points must be at least 1, got {self.num_points}")
        if not 0 <= self.tol < math.inf:  # the JSON report holds no NaN or Infinity
            raise ValueError(f"tol must be finite and non-negative, got {self.tol!r}")


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


def _reduce(cfg, points, rows: dict) -> list[CheckEntry]:
    """The entries of residual rows {name: (row (B,), details or None)} at points
    (B, m), reduced as one (K, B) stack: each row's max at its first worst point
    (the first NaN, if there is one: a max that is not finite makes an error
    entry), and its mean as its sum over B, the bits of the row's own .mean(),
    or, where max * B may pass the float range, as the sum of its terms over B."""
    stack = np.array([row for row, _ in rows.values()], dtype=float)
    worst = stack.argmax(axis=1)
    top = stack[np.arange(len(stack)), worst]
    divisor = len(points)
    if np.logical_or.reduce(big := top > np.finfo(float).max / (2 * divisor)):
        stack[big] /= divisor
        divisor = np.where(big, 1.0, divisor)
    means = (np.add.reduce(stack, axis=1) / divisor).tolist()
    tol, entries = cfg.tol, []
    for (name, (_, details)), t, finite, mean, point in zip(
        rows.items(), top.tolist(), np.isfinite(top).tolist(), means, points[worst].tolist()
    ):
        entries.append(CheckEntry(  # positionally, in _fields order: Record's fast path
            name, t, mean, len(points), tol, t <= tol, "ok", None, tuple(point), dict(details or {})
        ) if finite else _errored(name, cfg, f"non-finite residual at {tuple(point)}"))
    return entries


def _errored(name, cfg, reason, status="error") -> CheckEntry:
    """An entry without residuals: an error fails the report, a skip does not."""
    failed = False if status == "error" else None
    return CheckEntry(name, None, None, 0, cfg.tol, failed, status, reason, None, None)


def _isotropy(frames: FrameBatch) -> np.ndarray:
    """Isotropy of the image, max_ij |<J dL_i, dL_j>| at each point (the frames
    guarantee a nondegenerate induced metric at every sampled point)."""
    return point_max(_omega(frames))


def _omega(frames: FrameBatch) -> np.ndarray:
    """<J dL_i, dL_j> at each point, (B, m, m)."""
    return (frames.shared(j_of, "first") * frames.eta) @ frames.first.transpose(0, 2, 1)


def _horizontality(frames: FrameBatch) -> np.ndarray:
    """Horizontality over the circle action, tangents orthogonal to
    J-position: max_i |<dL_i, J L>| at each point."""
    jpos = frames.shared(j_of, "position")
    return point_max((frames.first @ (frames.eta * jpos)[..., None])[..., 0])


def _eta_position(frames: FrameBatch) -> np.ndarray:
    """eta L, (B, 2n): <x, L> is x @ it."""
    return frames.eta * frames.position


def _fit(frames: FrameBatch):
    """Least-squares fit of <L - p, L - p> = r^2 (signed) over the sampled
    points: (SphereFit, (its residual row, details)).  <L, L> - 2 <L, p> = k
    is linear in (p, k); the signed square radius is k + <p, p>."""
    eta = frames.eta
    dim = len(eta)
    needed = dim + 2
    if len(frames) < needed:
        raise LagkitError(f"need at least {needed} sample points, have {len(frames)}")
    pos, eta_pos = frames.position, frames.shared(_eta_position)
    rows = np.concatenate((2.0 * eta_pos, np.ones((len(frames), 1))), axis=1)
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        rhs = np.add.reduce(eta_pos * pos, axis=1)  # <L, L>
    if not np.logical_and.reduce(finite := np.isfinite(rhs)):
        raise LagkitError(f"<L, L> not finite at {frames.point(int(np.argmin(finite)))}")
    sol, _, rank, _ = np.linalg.lstsq(rows, rhs, rcond=None)
    if rank < dim + 1:
        raise LagkitError(f"fit normal system is rank deficient (rank {rank})")
    center = sol[:dim]
    k = float(sol[dim])
    radius_sq = k + float(inner_flat(center, center, eta))
    residuals = np.abs(rows @ sol - rhs)
    rms = float(np.sqrt(np.add.reduce(residuals**2) / len(residuals)))  # np.mean's bits
    details = {"rms_residual": rms, "radius_sq_signed": radius_sq}
    return SphereFit(center, radius_sq, rms), (residuals, details)


def _legendrian(frames: FrameBatch, quadric: AmbientQuadric) -> np.ndarray:
    """Legendrian conditions on a quadric, the worst at each point: membership,
    J-position normal to the image, J of tangents normal to the image."""
    membership, horizontality = frames.shared(_membership, quadric), frames.shared(_horizontality)
    return np.maximum.reduce([membership, horizontality, point_max(_omega(frames))])


def _membership(frames: FrameBatch, quadric: AmbientQuadric) -> np.ndarray:
    """|<L, L> - 1/c| at each point (inner_flat's product)."""
    with np.errstate(over="ignore", invalid="ignore"):  # rejected just below
        norms = (frames.shared(_eta_position)[:, None, :] @ frames.position[:, :, None])[:, 0, 0]
    if not np.logical_and.reduce(finite := np.isfinite(norms)):
        raise LagkitError(f"<L, L> not finite at {frames.point(int(np.argmin(finite)))}")
    return np.abs(norms - quadric.radius_sq_signed)


def _cubic_asymmetry(frames: FrameBatch) -> np.ndarray:
    """Total symmetry of <h(X, Y), JZ> in its three slots.  With h already
    symmetric it suffices to compare the cyclic rotation,
    <h_ij, J dL_k> = <h_jk, J dL_i>."""
    cubic = contract(frames.sff * frames.eta, frames.shared(j_of, "first"))
    return point_max(cubic - cubic.transpose(0, 3, 1, 2))


_NEEDS_LAGRANGIAN = "requires the Lagrangian check to pass"
_NEEDS_FIT = "requires the quadric fit and Lagrangian check to pass"


def _transform(entries, fit):
    """(the Transform onto the fitted quadric, None), or (None, the reason there
    is none), from the lagrangian and spherical entries and the fit, if formed."""
    if not entries["lagrangian"].passed:
        return None, _NEEDS_LAGRANGIAN
    if fit is None:  # an error, which shows nothing of the image
        return None, _NEEDS_FIT
    if not entries["spherical"].passed:
        return None, "image is not contained in a central quadric"
    if abs(fit.radius_sq_signed) < 1e-6:
        return None, "fitted quadric is degenerate (signed r^2 ~ 0)"
    return Transform(fit.center.copy(), math.sqrt(abs(fit.radius_sq_signed))), None


def _structure_with_fit(frames, fit, transform):
    """The structure bundle, run on the frames of (L - center) / scale.

    On that immersion the tangential part V of J L must satisfy: V actually
    tangential, <V, V> = epsilon, h(Z, V) = JZ, h(V, V) = -position, and
    nabla V = 0.  Its frames are those of L rescaled in closed form
    (FrameBatch.rescaled with k = 1 / scale), keeping their spec, so the
    normalized spec is neither evaluated nor assembled.  Returns (normalized
    frames, their unit quadric AmbientQuadric(epsilon), the structure checks'
    (row, details) by name).
    """
    unit = AmbientQuadric(1.0 if fit.radius_sq_signed > 0 else -1.0)  # c = epsilon
    fr = frames.rescaled(fit.center, 1.0 / transform.scale)
    coeffs, grads = tangent_field(fr)
    normal = fr.shared(j_of, "position") - (coeffs[:, None, :] @ fr.first)[:, 0]  # as in project
    vv = (coeffs[:, None, :] @ fr.metric @ coeffs[:, :, None])[:, 0, 0]
    hv = (coeffs[:, None, None] @ fr.sff)[:, :, 0]
    hvv = (coeffs[:, None] @ hv)[:, 0]
    nabla_v = grads + contract(fr.christoffels, coeffs[:, None])[..., 0]
    return fr, unit, {
        "structure_v_tangent": (point_max(normal), None),
        "structure_v_unit": (np.abs(vv - unit.c), {"epsilon": unit.c}),
        "structure_h_mixed": (point_max(hv - fr.shared(j_of, "first")), None),
        "structure_h_vv": (point_max(hvv + fr.position), None),
        "structure_v_parallel": (point_max(nabla_v), None),
    }


def _product_metric(frames: FrameBatch):
    """Product block structure in adapted coordinates (first parameter = angle):
    g_{t u_j} = 0, the u-block independent of t, and g_tt constant of modulus
    one.  (The residual row, details holding the mean g_tt.)"""
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
    return residuals, {"g_tt": float(np.add.reduce(gtt) / len(gtt))}  # np.mean's bits


def _umbilical(frames: FrameBatch, cfg: SampleConfig, quadric: AmbientQuadric) -> np.ndarray:
    """Consistency of the flat and in-quadric second fundamental forms.

    For an immersion inside <L, L> = 1/c the in-quadric form h + c g L must be
    tangent to the quadric: <h_ij + c g_ij L, L> = 0.  Membership is verified
    first; the factor c equals the usual sign epsilon on unit quadrics.
    """
    membership = frames.shared(_membership, quadric)
    outside = membership > 1e4 * max(cfg.tol, 1e-10)
    if np.logical_or.reduce(outside):
        i = int(outside.argmax())
        gap = f"|<L,L> - 1/c| = {membership[i]:.3e}"
        raise LagkitError(f"membership failure at {frames.point(i)}: {gap}")
    pos = frames.position
    inquadric = frames.sff + quadric.c * frames.metric[..., None] * pos[:, None, None, :]
    return point_max(contract(inquadric, frames.shared(_eta_position)[:, None]))


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
        # the fit and the transform by their fields: floats, the center a list
        fit, transform = (None if record is None else {
            key: [float(x) for x in value] if key == "center" else float(value)
            for key, value in vars(record).items()
        } for record in (self.sphere_fit, self.transform))
        return {
            "spec_name": self.spec_name,
            "transform": transform,
            "checks": checks,
            "sphere_fit": fit,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True, allow_nan=False)


class _Suite:
    """The entries of the wanted checks of one run_suite call, their rows reduced in stacks."""

    def __init__(self, cfg, wanted, frames):
        self.cfg, self.wanted, self.frames, self.fit = cfg, wanted, frames, None
        self.entries, self.pending = {}, {}  # name -> its CheckEntry, or (row, details)

    def run(self, name, residual, *args):
        """A wanted check: its row, residual(*args) or (row, details), pending, or its error."""
        if name not in self.wanted:
            return
        try:
            if isinstance(self.frames, str):
                raise LagkitError(self.frames)
            row = residual(*args)
        except LagkitError as exc:
            self.entries[name] = _errored(name, self.cfg, str(exc))
        else:
            self.pending[name] = row if type(row) is tuple else (row, None)

    def skip(self, reason, *names):
        for name in self.wanted.intersection(names):
            self.entries[name] = _errored(name, self.cfg, reason, status="skipped")

    def reduce(self):
        """Enter the entries of the pending rows, reduced as one stack."""
        if self.pending:
            for entry in _reduce(self.cfg, self.frames.points, self.pending):
                self.entries[entry.name] = entry
            self.pending = {}

    def fit_quadric(self, frames):
        self.fit, residuals = _fit(frames)
        return residuals


_ON_FIT = ("lagrangian", "spherical")
# The checks a spec gets by n - m, in report order, with the checks each rests
# on: 0 for m = n (the Lagrangian chain), 1 for m = n - 1 (the Legendrian one),
# None for any other.  Every spec gets those of None, the curvature identities.
_CHAINS = {
    0: {"lagrangian": (), "spherical": (), "gauss": (), "codazzi": (),
        "cubic_symmetry": ("lagrangian",),
        **dict.fromkeys((*STRUCTURE_CHECKS, "product_metric", "umbilical"), _ON_FIT)},
    1: {"spherical": (), "legendrian": ("spherical",), "horizontal": ("spherical",),
        "umbilical": ("spherical",), "gauss": (), "codazzi": ()},
    None: {"gauss": (), "codazzi": ()},
}


def run_suite(spec: ImmersionSpec, cfg: SampleConfig | None = None,
              quadric: AmbientQuadric | None = None, checks=None) -> CheckReport:
    """The checks of the spec's chain in _CHAINS, in its order: all, or those
    named in checks and the checks they rest on.

    The map is evaluated once per chunk of sample points, to second order: no
    check reads third derivatives.  The Legendrian chain checks
    against the declared quadric (the quadric argument, else spec.quadric), or
    the fitted one when the fit lands on a central quadric.  A report of named
    checks also carries, for each one skipped, the checks it rests on that did
    not pass; its sphere_fit and transform are the full suite's.  A map that
    fails at a sample point makes each check an error entry; sampling that
    fails (a count no array holds) raises, as does a check the spec does not get.
    The rows of lagrangian, spherical, gauss and codazzi are reduced as one
    stack before the checks that rest on them run, the rows of those as another.
    """
    cfg = cfg or SampleConfig()
    m, n = spec.num_params, spec.signature.n
    chain = _CHAINS.get(n - m, _CHAINS[None])
    # all that checks rest on, and what sphere_fit and transform come from
    wanted = {*(chain if checks is None else checks), *_ON_FIT}
    points = sample_points(spec, cfg.num_points, cfg.seed)  # a bad count raises
    try:
        frames = build_frame(spec, points)
    except LagkitError as exc:  # each check reports it, by its reason alone
        frames = str(exc)
    quadric = spec.quadric if quadric is None else quadric
    suite = _Suite(cfg, wanted & chain.keys(), frames)
    suite.run("lagrangian", _isotropy, frames)
    if m == n - 1 and quadric is not None:  # authoritative; a real curve never determines the fit
        suite.skip("quadric declared by the caller", "spherical")
    else:
        suite.run("spherical", suite.fit_quadric, frames)
    suite.run("gauss", gauss_residual, frames)
    suite.run("codazzi", codazzi_residual, frames)
    if not suite.pending.keys().isdisjoint(_ON_FIT):  # verdicts the checks below read
        suite.reduce()
    entries, fit, transform = suite.entries, suite.fit, None
    if m == n:
        transform, reason = _transform(entries, fit)
        if entries["lagrangian"].passed:
            suite.run("cubic_symmetry", _cubic_asymmetry, frames)
        else:
            suite.skip(_NEEDS_LAGRANGIAN, "cubic_symmetry")
        if transform is None:
            suite.skip(reason, *STRUCTURE_CHECKS)
            suite.skip(_NEEDS_FIT, "product_metric")
            if quadric is None:
                suite.skip(_NEEDS_FIT, "umbilical")
            else:  # on the frames of L, against the declared quadric
                suite.run("umbilical", _umbilical, frames, cfg, quadric)
        elif any(chain[name] == _ON_FIT for name in suite.wanted):  # a check reads the bundle
            normalized, unit, rows = _structure_with_fit(frames, fit, transform)
            suite.pending.update((name, row) for name, row in rows.items() if name in suite.wanted)
            suite.run("product_metric", _product_metric, normalized)
            suite.run("umbilical", _umbilical, normalized, cfg, unit)
    elif m == n - 1:
        if quadric is None and entries["spherical"].passed:  # the fit, on a central quadric
            if np.maximum.reduce(np.abs(fit.center)) <= 1e-6 and abs(fit.radius_sq_signed) >= 1e-6:
                quadric = AmbientQuadric(1.0 / fit.radius_sq_signed)
        if quadric is None:
            suite.skip("no quadric declared and the fit found none",
                       "legendrian", "horizontal", "umbilical")
        else:
            suite.run("legendrian", _legendrian, frames, quadric)
            if quadric.c > 0:  # horizontality over the circle action: on a sphere only
                suite.run("horizontal", FrameBatch.shared, frames, _horizontality)
            suite.run("umbilical", _umbilical, frames, cfg, quadric)
    suite.reduce()
    shown = chain
    if checks is not None:
        unknown = [name for name in checks if name not in entries]  # horizontal, off a sphere
        if unknown:
            known = ", ".join(name for name in chain if name not in unknown)
            raise LagkitError(f"{spec.name} gets no check {', '.join(unknown)}; it gets: {known}")
        shown = {*checks, *(need for name in checks for need in chain[name]  # why one is skipped
                            if entries[name].status == "skipped" and not entries[need].passed)}
    entries = {name: entries[name] for name in chain if name in entries and name in shown}
    return CheckReport(spec.name, entries, fit, transform)
