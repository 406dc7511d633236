"""Verification suite behavior: residuals, gating, report schema."""

import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from lagkit.ambient import AmbientQuadric, Signature
from lagkit.catalog import catalog, catalog_entry, catalog_names
from lagkit.checks import (
    STRUCTURE_CHECKS,
    CheckEntry,
    CheckReport,
    SampleConfig,
    _isotropy,
    _product_metric,
    _reduce,
    _structure_with_fit,
    run_suite,
)
from lagkit.dsl import Bin, Call, ImmersionSpec, Param, Pow, Ref, parse
from lagkit.errors import LagkitError, SingularEvaluationError
from lagkit.geometry import CHUNK, FrameBatch, build_frame
from lagkit.products import dilate, translate
from lagkit.sampling import sample_points

CFG = SampleConfig(num_points=12, seed=7)
SPHERE = AmbientQuadric(1.0)


def frames_of(name_or_spec, cfg=CFG, need_third=False):
    """The frames of a catalog entry or spec at the sample points of cfg."""
    spec = catalog(name_or_spec) if isinstance(name_or_spec, str) else name_or_spec
    return build_frame(spec, sample_points(spec, cfg.num_points, cfg.seed), need_third)


def check_of(name_or_spec, check, cfg=CFG, quadric=None):
    """The entry of one check, as run_suite(checks=[check]) reports it."""
    spec = catalog(name_or_spec) if isinstance(name_or_spec, str) else name_or_spec
    return run_suite(spec, cfg, quadric, checks=[check]).checks[check]


def fit_of(name_or_spec, cfg=CFG):
    """(sphere_fit, spherical entry) of run_suite(checks=["spherical"])."""
    spec = catalog(name_or_spec) if isinstance(name_or_spec, str) else name_or_spec
    report = run_suite(spec, cfg, checks=["spherical"])
    return report.sphere_fit, report.checks["spherical"]


def pole_spec(num_points):
    """(u + i v + 1/(u - u0), v + i u, its pole (u0, v0)): the last of the
    num_points sample points at the default seed."""
    box = "params u:[0,1], v:[0,1];\nsignature 2 0;\n"
    u0, v0 = sample_points(parse(box + "map u, v;\n"), num_points, SampleConfig.seed)[-1].tolist()
    return parse(box + f"map u + i*v + 1/(u - {u0!r}), v + i*u;\n"), (u0, v0)


def walk_first_error(spec, points, need_third):
    """(index, type, message) of the first point at which build_frame, called
    point by point, raises; None when none does."""
    for i, pt in enumerate(points):
        try:
            build_frame(spec, pt, need_third)
        except LagkitError as exc:
            return i, type(exc), str(exc)
    return None


class TestSampleConfig:
    def test_rejects_zero_points(self):
        with pytest.raises(ValueError):
            SampleConfig(num_points=0)

    @pytest.mark.parametrize("field", ["tol", "tol_third"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, -1.0, -1e-300])
    def test_rejects_a_tolerance_the_report_cannot_hold(self, field, value):
        # NaN and Infinity have no JSON form, and a negative bound fails every check
        with pytest.raises(ValueError, match=f"^{field} must be finite and non-negative"):
            SampleConfig(**{field: value})
        assert getattr(SampleConfig(**{field: 0.0}), field) == 0.0  # zero is a bound

    def test_tolerance_tiers(self):
        cfg = SampleConfig(tol=1e-9, tol_third=1e-5)
        assert cfg.tolerance_for("lagrangian") == 1e-9
        assert cfg.tolerance_for("gauss") == 1e-5
        assert cfg.tolerance_for("codazzi") == 1e-5


def test_stacked_reduction_is_each_rows_own_reduction():
    # bit for bit: the rows of one (K, B) stack reduce to each row's own max,
    # first argmax and mean, whatever K (a lone row too) and the magnitudes,
    # from 1e-20 to 1e5
    frames = frames_of("clifford_torus")
    rng = np.random.default_rng(5)
    for count in [1] * 20 + rng.integers(2, 12, size=40).tolist():
        rows = {
            f"row{k}": (rng.random(len(frames)) * 10.0 ** rng.uniform(-20, 5), None)
            for k in range(count)
        }
        entries = _reduce(CFG, frames.points, rows)
        assert [entry.name for entry in entries] == list(rows)
        for entry, (row, _) in zip(entries, rows.values()):
            assert entry.max_residual == float(row.max())
            assert entry.mean_residual == float(row.mean())
            assert entry.worst_point == frames.point(int(row.argmax()))


@pytest.mark.parametrize("residual, check", [("gauss_residual", "gauss"), ("codazzi_residual", "codazzi")])
@pytest.mark.parametrize("name", ["product_S1xS2", "real_sphere_S5"])  # one of each chain
def test_a_non_finite_row_in_the_suite_stack_errs_alone(name, residual, check, monkeypatch):
    # run_suite looks each residual function up in the module's globals: a row
    # with an inf before its first NaN makes that check an error naming the
    # first NaN point, and every other entry reduced in the same stack, and the
    # fit and transform, keep their bits
    import lagkit.checks as module

    entry, cfg = catalog_entry(name), SampleConfig(num_points=20, seed=7)
    want = run_suite(entry.spec, cfg, quadric=entry.quadric).to_dict()
    compute = getattr(module, residual)

    def poisoned(frames):
        row = compute(frames).copy()
        row[[2, 5, 9]] = [np.inf, np.nan, np.nan]
        return row

    monkeypatch.setattr(module, residual, poisoned)
    report = run_suite(entry.spec, cfg, quadric=entry.quadric)
    first_nan = tuple(sample_points(entry.spec, cfg.num_points, cfg.seed)[5].tolist())
    errored = report.checks[check]
    assert (errored.status, errored.passed) == ("error", False)
    assert errored.reason == f"non-finite residual at {first_nan}"
    got = report.to_dict()
    assert list(got["checks"]) == list(want["checks"])
    for other in want["checks"]:
        if other != check:
            assert got["checks"][other] == want["checks"][other], other
    assert (got["sphere_fit"], got["transform"]) == (want["sphere_fit"], want["transform"])


class TestLagrangian:
    def test_passes_on_clifford(self):
        entry = check_of("clifford_torus", "lagrangian")
        assert entry.passed and entry.status == "ok"
        assert entry.max_residual < 1e-14
        assert entry.points_evaluated == 12
        assert len(entry.worst_point) == 2

    def test_complex_line_fails_by_two(self):
        entry = check_of("control_non_lagrangian", "lagrangian")
        assert not entry.passed
        assert entry.max_residual == pytest.approx(2.0)
        assert entry.mean_residual == pytest.approx(2.0)

    def test_non_finite_residual_is_an_error(self):
        frames = frames_of("clifford_torus")
        frames.first[3, 0, 0] = np.nan
        (entry,) = _reduce(CFG, frames.points, {"lagrangian": (_isotropy(frames), None)})
        assert entry.status == "error" and entry.passed is False
        assert entry.reason == f"non-finite residual at {frames.point(3)}"


class TestHypersphereFit:
    def test_recovers_translated_scaled_torus(self):
        moved = translate(dilate(catalog("clifford_torus"), 2.0), (1.0 + 0.5j, -2j))
        fit, entry = fit_of(moved)
        assert entry.passed
        np.testing.assert_allclose(fit.center, [1.0, 0.5, 0.0, -2.0], atol=1e-9)
        assert fit.radius_sq_signed == pytest.approx(4.0)
        assert fit.rms_residual < 1e-12

    def test_negative_square_radius(self):
        fit, entry = fit_of("theorem43_example")
        assert entry.passed
        assert fit.radius_sq_signed == pytest.approx(-1.0)

    def test_rank_deficient_image(self):
        # a purely real curve never determines the center; the suite fits a
        # Legendrian only when no quadric is declared
        fit, entry = fit_of(catalog("real_circle_S3").replace(quadric=None))
        assert fit is None
        assert entry.status == "error" and entry.passed is False
        assert "rank" in entry.reason

    def test_not_enough_points(self):
        fit, entry = fit_of("clifford_torus", SampleConfig(num_points=3))
        assert fit is None and entry.status == "error"

    def test_whitney_is_not_spherical(self):
        fit, entry = fit_of("whitney_sphere")
        assert entry.status == "ok"
        assert not entry.passed
        assert entry.max_residual > 0.05


class TestLegendrian:
    @pytest.mark.parametrize(
        "name",
        [
            "real_circle_S3",
            "real_sphere_S5",
            "minimal_legendrian_torus_S5",
            "pseudo_legendrian_H3",
            "pseudo_legendrian_S3_index1",
        ],
    )
    def test_catalog_legendrians(self, name):
        entry = catalog_entry(name)
        result = check_of(entry.spec, "legendrian", quadric=entry.quadric)
        assert result.passed, (name, result.max_residual)

    def test_hopf_direction_fails(self):
        entry = catalog_entry("control_non_horizontal")
        result = check_of(entry.spec, "legendrian", quadric=entry.quadric)
        assert not result.passed
        assert result.max_residual == pytest.approx(1.0)


class TestHorizontal:
    def test_passes_on_real_circle(self):
        assert check_of("real_circle_S3", "horizontal").passed

    def test_fails_by_one_on_hopf_direction(self):
        entry = check_of("control_non_horizontal", "horizontal")
        assert not entry.passed
        assert entry.max_residual == pytest.approx(1.0)


def structure_bundle(spec):
    report = run_suite(spec, CFG)
    return {n: report.checks[n] for n in STRUCTURE_CHECKS}, report.transform


class TestStructureBundle:
    def test_clifford_all_pass_with_identity_transform(self):
        entries, transform = structure_bundle(catalog("clifford_torus"))
        for name, e in entries.items():
            assert e.passed, (name, e.max_residual)
        np.testing.assert_allclose(transform.center, 0.0, atol=1e-9)
        assert transform.scale == pytest.approx(1.0)

    def test_transform_found_after_moving(self):
        moved = translate(dilate(catalog("clifford_torus"), 3.0), (0.25, 0.125j))
        entries, transform = structure_bundle(moved)
        for name, e in entries.items():
            assert e.passed, (name, e.max_residual)
        np.testing.assert_allclose(transform.center, [0.25, 0, 0, 0.125], atol=1e-9)
        assert transform.scale == pytest.approx(3.0)

    def test_epsilon_is_minus_one_on_lorentzian_product(self):
        entries, _ = structure_bundle(catalog("theorem43_example"))
        assert entries["structure_v_unit"].passed
        assert entries["structure_v_unit"].details["epsilon"] == -1.0

    def test_skipped_when_not_spherical(self):
        entries, transform = structure_bundle(catalog("whitney_sphere"))
        assert transform is None
        for e in entries.values():
            assert e.status == "skipped"
            assert "quadric" in e.reason

    def test_skipped_when_not_lagrangian(self):
        entries, transform = structure_bundle(catalog("control_non_lagrangian"))
        assert transform is None
        assert all(e.status == "skipped" for e in entries.values())


class TestProductMetric:
    def test_clifford(self):
        entry = check_of("clifford_torus", "product_metric")
        assert entry.passed
        assert entry.details["g_tt"] == pytest.approx(1.0)

    def test_lorentzian_angle_block(self):
        entry = check_of("theorem43_example", "product_metric")
        assert entry.passed
        assert entry.details["g_tt"] == pytest.approx(-1.0)

    def test_whitney_is_not_a_product(self):
        # the suite skips it on an image that lies on no quadric: the row on raw frames
        frames = frames_of("whitney_sphere")
        (entry,) = _reduce(CFG, frames.points, {"product_metric": _product_metric(frames)})
        assert not entry.passed


class TestUmbilical:
    def test_passes_on_unit_quadric_members(self):
        sphere = AmbientQuadric(1.0)
        assert check_of("clifford_torus", "umbilical", quadric=sphere).passed
        ads = AmbientQuadric(-1.0)
        assert check_of("theorem43_example", "umbilical", quadric=ads).passed

    def test_membership_violation_is_an_error(self):
        # not spherical, so the suite checks L itself against the declared quadric
        sphere = AmbientQuadric(1.0)
        entry = check_of("whitney_sphere", "umbilical", quadric=sphere)
        assert entry.status == "error"
        assert "membership" in entry.reason


class TestRunSuite:
    def test_lagrangian_chain_names(self):
        report = run_suite(catalog("clifford_torus"), CFG)
        assert set(report.checks) == {
            "lagrangian",
            "spherical",
            "gauss",
            "codazzi",
            "cubic_symmetry",
            *STRUCTURE_CHECKS,
            "product_metric",
            "umbilical",
        }
        assert report.passed
        assert report.spec_name == "clifford_torus"

    def test_legendrian_chain_with_declared_quadric(self):
        entry = catalog_entry("real_circle_S3")
        report = run_suite(entry.spec, CFG, quadric=entry.quadric)
        assert report.checks["spherical"].status == "skipped"
        assert report.checks["legendrian"].passed
        assert report.checks["horizontal"].passed
        assert report.checks["umbilical"].passed
        assert report.passed

    def test_horizontal_only_on_spheres(self):
        entry = catalog_entry("pseudo_legendrian_H3")
        report = run_suite(entry.spec, CFG, quadric=entry.quadric)
        assert "horizontal" not in report.checks
        assert report.passed

    def test_legendrian_without_quadric_fits_when_possible(self):
        spec = catalog("minimal_legendrian_torus_S5").replace(quadric=None)
        report = run_suite(spec, CFG)
        assert report.checks["spherical"].status == "ok"
        assert report.sphere_fit.radius_sq_signed == pytest.approx(1.0)
        assert report.checks["legendrian"].passed

    def test_legendrian_without_any_quadric_skips(self):
        spec = catalog("real_circle_S3").replace(quadric=None)
        report = run_suite(spec, CFG)  # fit underdetermined
        assert report.checks["spherical"].status == "error"
        assert report.checks["legendrian"].status == "skipped"
        assert not report.passed

    def test_whitney_gating(self):
        report = run_suite(catalog("whitney_sphere"), CFG)
        assert report.checks["lagrangian"].passed
        assert not report.checks["spherical"].passed
        for name in STRUCTURE_CHECKS:
            assert report.checks[name].status == "skipped"
        assert report.checks["product_metric"].status == "skipped"
        assert report.checks["umbilical"].status == "skipped"
        assert not report.passed

    def test_control_skips_downstream(self):
        report = run_suite(catalog("control_non_lagrangian"), CFG)
        assert not report.checks["lagrangian"].passed
        assert report.checks["cubic_symmetry"].status == "skipped"
        assert not report.passed

    def test_single_point_config(self):
        report = run_suite(
            catalog("clifford_torus"), SampleConfig(num_points=22, seed=9)
        )
        assert report.passed
        lone = run_suite(
            catalog("pseudo_legendrian_H3"),
            SampleConfig(num_points=1, seed=3),
            quadric=AmbientQuadric(-1.0),
        )
        assert lone.checks["legendrian"].points_evaluated == 1

    def test_tol_override_can_fail_a_passing_check(self):
        cfg = SampleConfig(num_points=8, tol=1e-30)
        report = run_suite(catalog("clifford_torus"), cfg)
        assert not report.checks["lagrangian"].passed

    @pytest.mark.parametrize(
        "component",
        [Ref("w"), Pow(Ref("u"), 2.0), Call("tan", Ref("u")), Bin("%", Ref("u"), Ref("v")), "u"],
        ids=repr,
    )
    def test_malformed_tree_gives_error_entries(self, component):
        # a spec built in code, not parsed: the map's plan names the bad node
        params = (Param("u", 0.0, 1.0), Param("v", 0.0, 1.0))
        spec = ImmersionSpec(params, Signature(2, 0), (Ref("v"), component))
        report = run_suite(spec, CFG)
        assert not report.passed
        errors = [e for e in report.checks.values() if e.status == "error"]
        assert {e.name for e in errors} == {"lagrangian", "spherical", "gauss", "codazzi"}
        assert {e.reason for e in errors} == {f"invalid expression node {component!r}"}


@pytest.mark.parametrize(
    "name, num_points",
    [
        *(pytest.param(name, 20, id=name) for name in catalog_names()),
        *(pytest.param(n, 2 * CHUNK + 1, id=f"{n}-three-chunks") for n in catalog_names()),
    ],
)
def test_one_map_evaluation_per_point_per_spec(name, num_points, monkeypatch):
    import lagkit.checks as checks
    import lagkit.geometry as geometry

    calls = {"evaluate_map_jets": 0, "sample_points": 0, "build_frame": 0}

    def counted(module, fn_name):
        fn = getattr(module, fn_name)

        def wrapper(*args):
            calls[fn_name] += 1
            return fn(*args)

        monkeypatch.setattr(module, fn_name, wrapper)

    counted(geometry, "evaluate_map_jets")
    counted(checks, "sample_points")
    counted(checks, "build_frame")
    entry = catalog_entry(name)
    cfg = SampleConfig(num_points=num_points)
    run_suite(entry.spec, cfg, quadric=entry.quadric)
    assert calls["evaluate_map_jets"] == math.ceil(cfg.num_points / CHUNK)
    assert calls["sample_points"] == 1
    assert calls["build_frame"] == 1


def reference_normalized_spec(spec, transform):
    """The spec (L - center) / scale, written out as translate and dilate."""
    c = transform.center
    center = [complex(c[2 * j], c[2 * j + 1]) for j in range(spec.signature.n)]
    return dilate(translate(spec, [-z for z in center]), 1.0 / transform.scale)


@pytest.mark.parametrize("num_points", [20, 2 * CHUNK + 1])
@pytest.mark.parametrize(
    "spec",
    [
        # the Lagrangian spherical catalog entries, and one moved off the origin
        *map(catalog, ["clifford_torus", "product_S1xS2", "theorem42_example"]),
        catalog("theorem43_example"),
        translate(dilate(catalog("clifford_torus"), 3.0), (0.25, 0.125j)),
    ],
    ids=lambda spec: spec.name,
)
def test_normalized_frames_equal_those_of_the_normalized_spec(spec, num_points):
    # the rescaled frames are those of the normalized spec to rounding: each
    # field within 1e-12 of its largest entry (or of 1); they are built to
    # second order, as no check on them reads third-order data
    cfg = SampleConfig(num_points=num_points, seed=7)
    frames = frames_of(spec, cfg, need_third=True)
    report = run_suite(spec, cfg, checks=["lagrangian", "spherical"])
    derived, _, _ = _structure_with_fit(frames, report.checks, report.sphere_fit)
    reference = frames_of(reference_normalized_spec(spec, report.transform), cfg)
    assert derived.third is derived.dchristoffels is None
    for name in FrameBatch._fields:
        if name not in ("third", "dchristoffels"):
            ours, theirs = getattr(derived, name), getattr(reference, name)
            assert ours.shape == theirs.shape, name
            bound = 1e-12 * max(1.0, np.abs(theirs).max())
            assert np.abs(ours - theirs).max() <= bound, name


@pytest.mark.parametrize("name", catalog_names())
def test_one_frame_assembly_per_spec(name, monkeypatch):
    # every module that binds assemble_frame is counted: the structure bundle
    # rescales the suite's frames instead of assembling its own
    import sys

    import lagkit.geometry as geometry

    calls, assemble = [], geometry.assemble_frame

    def counted(spec, points, *arrays):
        calls.append(len(points))
        return assemble(spec, points, *arrays)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("lagkit") and getattr(module, "assemble_frame", None) is assemble:
            monkeypatch.setattr(module, "assemble_frame", counted)
    entry = catalog_entry(name)
    report = run_suite(entry.spec, CFG, quadric=entry.quadric)
    assert calls == [CFG.num_points]
    assert {k: report.checks[k].passed for k in entry.expects} == entry.expects


@pytest.mark.parametrize("name", catalog_names())
def test_frames_are_freed_when_run_suite_returns(name, monkeypatch):
    # by reference counting: a skipped structure bundle must not keep the
    # suite's frames alive in a reference cycle until the garbage collector runs
    import gc
    import weakref

    import lagkit.checks as checks

    alive, build = [], checks.build_frame

    def watched(*args):
        frames = build(*args)
        alive.append(weakref.ref(frames.first))
        return frames

    monkeypatch.setattr(checks, "build_frame", watched)
    entry = catalog_entry(name)
    gc.disable()
    try:
        run_suite(entry.spec, CFG, quadric=entry.quadric)
        assert alive and all(ref() is None for ref in alive)
    finally:
        gc.enable()


def test_failed_frames_leave_no_reference_cycle():
    # the error building the frames raised is reported by every check: the
    # suite must not keep it, whose traceback holds the frames of run_suite
    import gc

    cfg = SampleConfig(num_points=50)
    degenerate = parse("params u:[0,1], v:[0,1];\nsignature 2 0;\nmap u, u;\n")
    for spec, reason in [
        # degenerate at every point: an error about every row, raised after one build
        (degenerate, "induced metric degenerate"),
        # a pole at the last point: the points before it are built again
        (pole_spec(cfg.num_points)[0], "map cannot be evaluated"),
    ]:
        run_suite(spec, cfg)  # builds and caches the spec's plan, which leaves a cycle of its own
        gc.collect()
        gc.disable()
        try:
            report = run_suite(spec, cfg)
            assert gc.collect() == 0
        finally:
            gc.enable()
        entry = report.checks["lagrangian"]
        assert entry.status == "error" and entry.reason.startswith(f"{reason} at (")


class TestCheckSubsets:
    """run_suite(checks=...) builds the frames that the named checks read, no more."""

    def _run(self, monkeypatch, checks):
        import lagkit.checks as module

        orders, called, build = [], [], module.build_frame

        def counting(spec, points, need_third):
            orders.append(need_third)
            return build(spec, points, need_third)

        monkeypatch.setattr(module, "build_frame", counting)
        for name in ("gauss_residual", "codazzi_residual"):
            residual = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, c=residual, n=name: called.append(n) or c(*a))
        report = run_suite(catalog("product_S1xS2"), CFG, checks=checks)
        return report, orders, called

    def test_second_order_check_builds_no_third_order_frames(self, monkeypatch):
        report, orders, called = self._run(monkeypatch, ["lagrangian"])
        assert orders == [False] and called == []
        assert list(report.checks) == ["lagrangian"] and report.checks["lagrangian"].passed

    def test_gauss_builds_third_order_frames(self, monkeypatch):
        report, orders, called = self._run(monkeypatch, ["gauss"])
        assert orders == [True] and called == ["gauss_residual"]
        assert list(report.checks) == ["gauss"] and report.checks["gauss"].passed

    @pytest.mark.parametrize(
        "name, check",
        [
            # Legendrian checks on Lagrangian chain entries, and the reverse
            ("product_S1xS2", "legendrian"),
            ("clifford_torus", "legendrian"),
            ("real_circle_S3", "lagrangian"),
            ("real_circle_S3", "cubic_symmetry"),
        ],
    )
    def test_a_check_the_spec_does_not_get_raises(self, name, check):
        with pytest.raises(LagkitError, match=f"^{name} gets no check {check}; it gets: "):
            run_suite(catalog(name), CFG, checks=[check])


class TestChunks:
    """Sample sets larger than one chunk, N = 2 * CHUNK + 1 (three chunks)."""

    CFG = SampleConfig(num_points=2 * CHUNK + 1, seed=7)

    def _points(self, spec):
        cfg = self.CFG
        return sample_points(spec, cfg.num_points, cfg.seed)

    @pytest.mark.parametrize("name", catalog_names())
    def test_chunked_frames_equal_single_point_frames(self, name):
        entry = catalog_entry(name)
        chunked = frames_of(entry.spec, self.CFG, need_third=True)
        singles = [build_frame(entry.spec, pt, need_third=True) for pt in self._points(entry.spec)]
        assert len(chunked) == len(singles) == self.CFG.num_points
        for name in FrameBatch._fields:
            parts = [getattr(frame, name) for frame in singles]
            single = parts[0] if name == "eta" else np.concatenate(parts)
            np.testing.assert_allclose(getattr(chunked, name), single, rtol=1e-12, atol=1e-12)
        report = run_suite(entry.spec, self.CFG, quadric=entry.quadric)
        assert {k: report.checks[k].passed for k in entry.expects} == entry.expects

    def test_error_in_a_later_chunk_names_the_first_failing_point(self):
        box = parse("params u:[0,1];\nsignature 1 0;\nmap u;\n")
        us = np.array([pt[0] for pt in self._points(box)])
        a, b = us[CHUNK : CHUNK + 2].tolist()  # the first two points of the second chunk
        others = np.delete(us, [CHUNK, CHUNK + 1])
        assert min(abs(a - b), *np.abs(others - a), *np.abs(others - b)) > 1e-7
        # spikes of width 1e-9 that vanish (underflow) at every other point: at u = a
        # the bump exp(400 - (1e9 (u - a + 1e-9))^2) is finite with its derivatives up
        # to third order, but its slope ~2e9 e^399 squares past the float range in
        # the metric; at u = b the value of exp(1000 - (1e9 (u - b))^2) overflows
        spec = parse(
            "params u:[0,1];\nsignature 1 0;\n"
            f"map u + exp(400 - (1000000000*(u-{a - 1e-9!r}))^2)"
            f" + exp(1000 - (1000000000*(u-{b!r}))^2);\n"
        )
        walk = []
        for i, pt in enumerate(self._points(spec)):
            try:
                build_frame(spec, pt, need_third=True)
            except LagkitError as exc:
                walk.append((i, str(exc)))
        (index, first), messages = walk[0], [message for _, message in walk]
        assert CHUNK <= index < 2 * CHUNK
        # the chunk holds points whose map overflows and, before them in sample
        # order, a point whose map is finite but whose metric is not
        assert first.startswith("induced metric not finite at (")
        assert any(
            message.startswith("map cannot be evaluated at (")
            and message.endswith("): math range error")
            for message in messages
        )
        with pytest.raises(SingularEvaluationError) as info:
            build_frame(spec, self._points(spec), need_third=True)
        assert str(info.value) == first
        report = run_suite(spec, self.CFG)
        assert report.checks["lagrangian"].reason == first


class TestFallbackCost:
    """A failing batch is built again only on the points before the row of its
    error, once per test that fails: a map failing at the last point costs 2
    builds, counted at lagkit.geometry.build_frame, where the retry recurses."""

    CFG = SampleConfig(num_points=8 * CHUNK + 1, seed=7)
    BOUND = 2

    def test_map_failing_at_the_last_point(self, monkeypatch):
        import lagkit.geometry as geometry

        cfg = self.CFG
        box = parse("params u:[0,1];\nsignature 1 0;\nmap u;\n")
        c = float(sample_points(box, cfg.num_points, cfg.seed)[-1, 0])
        # exp(1000) overflows at u = c; 1000 - (1e9 (u - c))^2 is hugely
        # negative at every other sample point
        spec = parse(
            f"params u:[0,1];\nsignature 1 0;\nmap u + exp(1000 - (1000000000*(u-{c!r}))^2);\n"
        )
        walk = []
        for i, pt in enumerate(sample_points(spec, cfg.num_points, cfg.seed)):
            try:
                build_frame(spec, pt, need_third=True)
            except LagkitError as exc:
                walk.append((i, str(exc)))
        message = f"map cannot be evaluated at ({c!r},): math range error"
        assert walk == [(cfg.num_points - 1, message)]
        calls = []
        build = geometry.build_frame
        monkeypatch.setattr(geometry, "build_frame", lambda *a: calls.append(a) or build(*a))
        with pytest.raises(SingularEvaluationError) as info:
            geometry.build_frame(spec, sample_points(spec, cfg.num_points, cfg.seed), True)
        assert str(info.value) == walk[0][1] and info.value.row == cfg.num_points - 1
        assert len(calls) <= self.BOUND

    def test_a_pole_at_the_last_point_is_named_by_every_error_entry(self, monkeypatch):
        import lagkit.checks as checks
        import lagkit.geometry as geometry

        spec, (u0, v0) = pole_spec(200)
        calls, build = [], geometry.build_frame

        def counted(*args):
            calls.append(len(args[1]))
            return build(*args)

        for module in (checks, geometry):  # run_suite's call, then the retry's
            monkeypatch.setattr(module, "build_frame", counted)
        report = run_suite(spec, SampleConfig(num_points=200))
        assert len(calls) <= 2 and calls[0] == 200
        errors = {e.name: e.reason for e in report.checks.values() if e.status == "error"}
        reason = f"map cannot be evaluated at ({u0!r}, {v0!r}): division by 0j"
        assert errors == dict.fromkeys(["lagrangian", "spherical", "gauss", "codazzi"], reason)

    def test_batch_error_kept_when_no_point_fails(self, monkeypatch):
        # an error about every row (row 0) is raised after one build; one at
        # row 5 builds the 5 points before it, which pass, and is raised again
        import lagkit.geometry as geometry

        calls, evaluate = [], geometry.evaluate_map_jets

        def failing(spec, points, order, out):
            calls.append(len(points))
            if len(points) > 5:
                raise SingularEvaluationError(f"batch of {len(points)} fails", row=row)
            return evaluate(spec, points, order, out)

        monkeypatch.setattr(geometry, "evaluate_map_jets", failing)
        spec = parse("params u:[0,1];\nsignature 1 0;\nmap u;\n")
        for row, builds in [(0, [200]), (5, [200, 5])]:
            calls.clear()
            with pytest.raises(SingularEvaluationError, match="^batch of 200 fails$") as info:
                build_frame(spec, np.linspace(0.1, 0.9, 200)[:, None])
            assert info.value.row == row and calls == builds


# a term of a map u of u in [0, 1] that is singular at u = c alone, for sample
# points more than 1e-7 apart: the spike (1e9 (u - c))^2 exceeds 1e4 elsewhere
SPIKE = "(1000000000*(u-{c!r}))^2"
FAULTS = {
    "division": "1/(1 - exp(-" + SPIKE + "))",  # division by 0j
    "sqrt": "sqrt(1 - 2*exp(-" + SPIKE + "))",  # sqrt at -1.0
    "overflow": "exp(1000 - " + SPIKE + ")",  # exp(1000) overflows
    # finite jets, but the slope ~2e9 e^399 squares past the float range in the metric
    "metric": "exp(400 - (1000000000*(u-{c_left!r}))^2)",
    # the slope of u cancelled: the metric is 0
    "degenerate": "({c!r}-u)*exp(-" + SPIKE + ")",
}


class TestPlantedFaults:
    """Faults planted at sample points: build_frame on the sample points raises
    exactly the first error of a point-by-point build_frame walk."""

    @given(
        st.sampled_from([12, 40, CHUNK + 44]).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(
                    st.tuples(st.integers(0, n - 1), st.sampled_from(sorted(FAULTS))),
                    min_size=1,
                    max_size=3,
                    unique_by=lambda fault: fault[0],
                ),
            )
        ),
        st.booleans(),
    )
    # an earlier point fails a later test than the batch's error: a retry
    @example((40, [(30, "overflow"), (10, "metric")]), False)
    # the batch fails in its second chunk, a point of the first at assembly
    @example((CHUNK + 44, [(CHUNK + 20, "division"), (3, "degenerate")]), True)
    @settings(max_examples=40, deadline=None)
    def test_first_error_of_the_point_walk(self, case, need_third):
        num_points, faults = case
        cfg = SampleConfig(num_points=num_points, seed=7)
        box = parse("params u:[0,1];\nsignature 1 0;\nmap u;\n")
        us = sample_points(box, cfg.num_points, cfg.seed)[:, 0]
        assert np.diff(np.sort(us)).min() > 1e-7
        terms = [
            FAULTS[kind].format(c=float(us[i]), c_left=float(us[i]) - 1e-9) for i, kind in faults
        ]
        spec = parse(f"params u:[0,1];\nsignature 1 0;\nmap u + {' + '.join(terms)};\n")
        index, kind, message = walk_first_error(spec, us[:, None], need_third)
        assert index == min(i for i, _ in faults)
        with pytest.raises(LagkitError) as info:
            build_frame(spec, sample_points(spec, cfg.num_points, cfg.seed), need_third)
        assert (type(info.value), str(info.value)) == (kind, message)


class TestReportSerialization:
    def test_schema(self):
        report = run_suite(catalog("theorem42_example"), CFG)
        doc = report.to_dict()
        assert set(doc) == {"spec_name", "transform", "checks", "sphere_fit"}
        gauss = doc["checks"]["gauss"]
        assert set(gauss) >= {"max", "mean", "tol", "pass", "worst_point", "status"}
        assert isinstance(doc["sphere_fit"]["center"], list)
        assert doc["transform"]["scale"] == pytest.approx(1.0)
        json.dumps(doc)  # must be serializable as-is

    def test_skipped_entries_carry_reason(self):
        report = run_suite(catalog("whitney_sphere"), CFG)
        doc = report.to_dict()
        item = doc["checks"]["structure_v_unit"]
        assert item["status"] == "skipped"
        assert item["max"] is None and item["pass"] is None
        assert "quadric" in item["reason"]

    def test_byte_identical_across_runs(self):
        a = run_suite(catalog("product_S1xS2"), CFG).to_json()
        b = run_suite(catalog("product_S1xS2"), CFG).to_json()
        assert a == b

    def test_error_entry_fails_report(self):
        _, entry = fit_of(catalog("real_circle_S3").replace(quadric=None))  # rank deficient
        report = CheckReport(spec_name="probe", checks={"spherical": entry})
        assert not report.passed

    @pytest.mark.parametrize(
        "kind", ["FrameBatch", "CheckEntry", "SphereFit", "Transform", "CheckReport"]
    )
    def test_records_refuse_assignment(self, kind):
        spec = catalog("clifford_torus")
        report = run_suite(spec, CFG)
        frames = frames_of(spec, CFG, need_third=True)
        records = (frames, report.checks["lagrangian"], report.sphere_fit, report.transform, report)
        (record,) = [r for r in records if type(r).__name__ == kind]
        for field in vars(record):
            with pytest.raises(AttributeError, match=f"cannot assign to field {field!r}"):
                setattr(record, field, None)
        assert frames.dchristoffels is not None and report.passed

    def test_entries_own_their_details_and_reports_pickle(self):
        a, b = (CheckEntry("probe", None, None, 0, 1e-8, None) for _ in range(2))
        assert a.details == {} and a.details is not b.details
        report = run_suite(catalog("whitney_sphere"), CFG)  # skipped entries too
        assert pickle.loads(pickle.dumps(report)).to_json() == report.to_json()


class TestDegenerateSpecs:
    """Statuses and reasons when the induced metric is degenerate everywhere."""

    PLANE = "params u:[0,1], v:[0,1];\nsignature 2 0;\nmap u, u;\n"
    CONSTANT = "params u:[0,1];\nsignature 2 0;\nmap 1, 2;\n"
    LAG = "requires the Lagrangian check to pass"
    FIT = "requires the quadric fit and Lagrangian check to pass"
    NO_QUADRIC = "no quadric declared and the fit found none"

    def _outcomes(self, text, quadric):
        spec = parse(text)
        report = run_suite(spec, CFG, quadric=quadric)
        point = tuple(sample_points(spec, CFG.num_points, CFG.seed)[0].tolist())
        degenerate = f"induced metric degenerate at {point}: |det(g / max|g_ij|)| = 0.000e+00"
        assert not report.passed and report.transform is None
        got = [(n, e.status, e.reason) for n, e in report.checks.items()]
        return got, degenerate

    @pytest.mark.parametrize("declared", [False, True])
    def test_half_dimensional(self, declared):
        got, bad = self._outcomes(self.PLANE, SPHERE if declared else None)
        umbilical = ("error", bad) if declared else ("skipped", self.FIT)
        assert got == [
            ("lagrangian", "error", bad),
            ("spherical", "error", bad),
            ("gauss", "error", bad),
            ("codazzi", "error", bad),
            ("cubic_symmetry", "skipped", self.LAG),
            *[(n, "skipped", self.LAG) for n in STRUCTURE_CHECKS],
            ("product_metric", "skipped", self.FIT),
            ("umbilical", *umbilical),
        ]

    def test_legendrian_dimensions_without_quadric(self):
        got, bad = self._outcomes(self.CONSTANT, None)
        assert got == [
            ("spherical", "error", bad),
            ("legendrian", "skipped", self.NO_QUADRIC),
            ("horizontal", "skipped", self.NO_QUADRIC),
            ("umbilical", "skipped", self.NO_QUADRIC),
            ("gauss", "error", bad),
            ("codazzi", "error", bad),
        ]

    def test_legendrian_dimensions_with_quadric(self):
        got, bad = self._outcomes(self.CONSTANT, SPHERE)
        assert got == [
            ("spherical", "skipped", "quadric declared by the caller"),
            ("legendrian", "error", bad),
            ("horizontal", "error", bad),
            ("umbilical", "error", bad),
            ("gauss", "error", bad),
            ("codazzi", "error", bad),
        ]
