"""Residual checks certifying the defining identities of an immersion.

run_suite, the one way to run a check, builds the frames of the immersion at
the deterministic interior sample points as one FrameBatch, with one
build_frame call (whose error names the first failing point).  Every check is
a pure function of that batch: a named residual row, one value per point, whose
max and mean its entry reports together with the worst offender.  The products
that several checks read (J L, J dL_i, <dL_i, J L>, the membership residual)
are formed once per batch (FrameBatch.shared).  The table _CHECKS names every
check (its names are stable API) and decides which checks a spec gets, in what
order, from which frames and resting on which others; run_suite walks it,
rescaling the frames of a spec onto the fitted quadric.  It reduces the spec's
rows as one stack (_reduce), the rows that later checks rest on as soon as
those run, and emits a CheckReport whose JSON form is byte-stable for a fixed
seed.
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


def _reduce(cfg, points, rows: dict) -> list[CheckEntry]:
    """The entries of residual rows {name: (row (B,), details or None)} at points
    (B, m), reduced as one (K, B) stack: each row's max at its first worst point
    (the first NaN, if there is one: a max that is not finite makes an error
    entry), and its mean as its sum over B, the bits of the row's own .mean()."""
    stack = np.array([row for row, _ in rows.values()], dtype=float)
    worst = stack.argmax(axis=1)
    top = stack[np.arange(len(stack)), worst]
    means = (np.add.reduce(stack, axis=1) / len(points)).tolist()
    entries = []
    for (name, (_, details)), t, finite, mean, point in zip(
        rows.items(), top.tolist(), np.isfinite(top).tolist(), means, points[worst].tolist()
    ):
        tol = cfg.tolerance_for(name)
        entries.append(CheckEntry(  # positionally, in _fields order: Record's fast path
            name, t, mean, len(points), tol, t <= tol, "ok", None, tuple(point), dict(details or {})
        ) if finite else _errored(name, cfg, f"non-finite residual at {tuple(point)}"))
    return entries


def _errored(name, cfg, reason, status="error") -> CheckEntry:
    """An entry without residuals: an error fails the report, a skip does not."""
    tol, failed = cfg.tolerance_for(name), False if status == "error" else None
    return CheckEntry(name, None, None, 0, tol, failed, status, reason, None, None)


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
    rhs = np.add.reduce(eta_pos * pos, axis=1)
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
    norms = (frames.shared(_eta_position)[:, None, :] @ frames.position[:, :, None])[:, 0, 0]
    return np.abs(norms - quadric.radius_sq_signed)


def _cubic_asymmetry(frames: FrameBatch) -> np.ndarray:
    """Total symmetry of <h(X, Y), JZ> in its three slots.  With h already
    symmetric it suffices to compare the cyclic rotation,
    <h_ij, J dL_k> = <h_jk, J dL_i>."""
    cubic = contract(frames.sff * frames.eta, frames.shared(j_of, "first"))
    return point_max(cubic - cubic.transpose(0, 3, 1, 2))


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


def _structure_with_fit(frames, entries, fit):
    """The structure bundle, run on the frames of (L - center) / scale.

    On that immersion the tangential part V of J L must satisfy: V actually
    tangential, <V, V> = epsilon, h(Z, V) = JZ, h(V, V) = -position, and
    nabla V = 0.  Its frames are those of L rescaled in closed form
    (FrameBatch.rescaled with k = 1 / scale), keeping their spec, so the
    normalized spec is neither evaluated nor assembled.  Returns (normalized
    frames, their unit quadric AmbientQuadric(epsilon), the structure checks'
    (row, details) by name); raises _Skip without a transform.
    """
    transform, reason = _transform(entries, fit)
    if reason is not None:
        raise _Skip(reason)
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
    outside = membership > 1e4 * max(cfg.tolerance_for("umbilical"), 1e-10)
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
    """What the checks of one run_suite call share."""

    def __init__(self, cfg, quadric, frames):
        self.cfg, self.quadric, self._frames = cfg, quadric, frames  # or why building failed
        self.entries: dict[str, CheckEntry | None] = {}  # None: its row is pending
        self.pending = {}  # name -> (row, details), for the next _reduce
        self.fit = self._bundle = None

    def call(self, residual, *args):
        """residual(frames, *args): args may skip before the frames fail."""
        if isinstance(self._frames, str):
            raise LagkitError(self._frames)
        return residual(self._frames, *args)

    def reduce(self):
        """Enter the entries of the pending rows, reduced as one stack."""
        for entry in _reduce(self.cfg, self._frames.points, self.pending):
            self.entries[entry.name] = entry
        self.pending = {}

    def fit_quadric(self):
        self.fit, residuals = self.call(_fit)
        return residuals

    def target(self) -> AmbientQuadric:
        """The declared quadric, else the fitted one if the fit passes on a central quadric."""
        q, fit = self.quadric, self.fit
        if q is None and self.entries["spherical"].passed:
            off = np.maximum.reduce(np.abs(fit.center))
            central = off <= 1e-6 and abs(fit.radius_sq_signed) >= 1e-6
            q = AmbientQuadric(1.0 / fit.radius_sq_signed) if central else None
        if q is None:
            raise _Skip("no quadric declared and the fit found none")
        return q

    def bundle(self, skipped=None):
        """_structure_with_fit, run once: a skip it raised, it raises again (as
        _Skip(skipped), when skipped is given)."""
        if self._bundle is None:
            try:
                self._bundle = _structure_with_fit(self._frames, self.entries, self.fit)
            except _Skip as skip:
                # its reason alone: the exception's traceback holds the frames
                # of this call, and those hold this suite, a cycle only the
                # garbage collector would free
                self._bundle = str(skip)
        if isinstance(self._bundle, str):
            raise _Skip(skipped or self._bundle)
        return self._bundle


def _legendrian_fit(s: _Suite):
    if s.quadric is not None:
        # A declared quadric is authoritative; low-dimensional images
        # rarely determine the fit anyway (real curves never do).
        raise _Skip("quadric declared by the caller")
    return s.fit_quadric()


def _cubic_symmetry(s: _Suite) -> np.ndarray:
    if not s.entries["lagrangian"].passed:
        raise _Skip(_NEEDS_LAGRANGIAN)
    return s.call(_cubic_asymmetry)


def _lagrangian_umbilical(s: _Suite) -> np.ndarray:
    """On the normalized frames, else on those of L against a declared quadric."""
    try:
        frames_n, unit, _ = s.bundle(_NEEDS_FIT)
    except _Skip:
        if s.quadric is None:
            raise
        return s.call(_umbilical, s.cfg, s.quadric)
    return _umbilical(frames_n, s.cfg, unit)


_ON_FIT = ("lagrangian", "spherical")

# One row per check, in report order: its name, chain (n - m: 0 for m = n, the
# Lagrangian chain, 1 for m = n - 1, the Legendrian one, None for every spec),
# the order of the derivatives it reads, the checks it rests on, and
# run(suite) -> its residual row, a (row, details) pair, None for no entry, or
# _Skip, or LagkitError (an error entry).  A row looks the residual functions
# it calls (_isotropy, _fit, _legendrian, ...) up in this module's globals when
# it runs, so a function patched here is the one run.
_CHECKS = (
    ("lagrangian", 0, 2, (), lambda s: s.call(_isotropy)),
    ("spherical", 0, 2, (), lambda s: s.fit_quadric()),
    ("spherical", 1, 2, (), _legendrian_fit),
    ("legendrian", 1, 2, ("spherical",), lambda s: s.call(_legendrian, s.target())),
    ("horizontal", 1, 2, ("spherical",),  # over the circle action: on a sphere (c > 0) only
     lambda s: s.call(FrameBatch.shared, _horizontality) if s.target().c > 0 else None),
    ("umbilical", 1, 2, ("spherical",), lambda s: s.call(_umbilical, s.cfg, s.target())),
    ("gauss", None, 3, (), lambda s: s.call(gauss_residual)),
    ("codazzi", None, 3, (), lambda s: s.call(codazzi_residual)),
    ("cubic_symmetry", 0, 2, ("lagrangian",), _cubic_symmetry),
    *((name, 0, 2, _ON_FIT, lambda s, name=name: s.bundle()[2][name]) for name in STRUCTURE_CHECKS),
    ("product_metric", 0, 2, _ON_FIT, lambda s: _product_metric(s.bundle(_NEEDS_FIT)[0])),
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
    The checks' rows are reduced as one stack, those that a check to run rests
    on before it runs.
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
        frames = build_frame(spec, points, third)
    except LagkitError as exc:  # each check reports it, by its reason alone (as bundle does)
        frames = str(exc)

    suite = _Suite(cfg, spec.quadric if quadric is None else quadric, frames)
    entries = suite.entries
    for name, _, _, needs, run in rows:
        if name not in wanted:
            continue
        if not suite.pending.keys().isdisjoint(needs):  # a verdict it reads is pending
            suite.reduce()
        try:
            entry = run(suite)
        except _Skip as skip:
            entry = _errored(name, cfg, str(skip), status="skipped")
        except LagkitError as exc:
            entry = _errored(name, cfg, str(exc))
        if type(entry) is CheckEntry:
            entries[name] = entry
        elif entry is not None:  # a residual row: its entry comes from the next reduce
            entries[name] = None
            suite.pending[name] = entry if type(entry) is tuple else (entry, None)
    if suite.pending:
        suite.reduce()
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
