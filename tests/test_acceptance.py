"""End-to-end acceptance criteria.

Each test prints one `[acceptance] criterion N (label): PASS|FAIL` line and
then asserts, so a bare `pytest -s tests/test_acceptance.py` reads as a
checklist.  Tolerances here are contractual; do not loosen them.
"""

import numpy as np
import pytest

from lagkit.catalog import catalog, catalog_entry
from lagkit.checks import SampleConfig, run_suite
from lagkit.cli import main
from lagkit.findiff import jet_fd_deviation
from lagkit.geometry import build_frame, riemann_tensor, sectional_curvature
from lagkit.products import circle_product, dilate, translate
from lagkit.sampling import sample_points

CFG = SampleConfig(num_points=20, seed=42)

RIEMANNIAN_LEGENDRIANS = (
    "real_circle_S3",
    "real_sphere_S5",
    "minimal_legendrian_torus_S5",
)

LAGRANGIAN_ENTRIES = (
    "clifford_torus",
    "product_S1xS2",
    "whitney_sphere",
    "theorem42_example",
    "theorem43_example",
)

ALL_ENTRIES = (
    "real_circle_S3",
    "clifford_torus",
    "real_sphere_S5",
    "product_S1xS2",
    "minimal_legendrian_torus_S5",
    "whitney_sphere",
    "pseudo_legendrian_H3",
    "pseudo_legendrian_S3_index1",
    "theorem42_example",
    "theorem43_example",
    "control_non_lagrangian",
    "control_non_horizontal",
)


def criterion(number, label, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail and not ok else ""
    print(f"[acceptance] criterion {number} ({label}): {verdict}{suffix}")
    assert ok, f"criterion {number} ({label}) failed {detail}"


def metric_index(spec, point):
    eigs = np.linalg.eigvalsh(build_frame(spec, point).metric)
    return int(np.sum(eigs < 0))


def test_criterion_1_constructor_soundness():
    failures = []
    for name in RIEMANNIAN_LEGENDRIANS:
        product = circle_product(catalog(name))
        report = run_suite(product, CFG)
        if not report.passed:
            bad = {
                k: v.max_residual
                for k, v in report.checks.items()
                if v.status != "skipped" and not v.passed
            }
            failures.append((name, bad))
    criterion(1, "constructor soundness on Riemannian Legendrians", not failures,
              detail=str(failures))


def test_criterion_2_lorentzian_products():
    problems = []
    for name, want_gtt, want_r2 in (
        ("theorem42_example", 1.0, 1.0),
        ("theorem43_example", -1.0, -1.0),
    ):
        entry = catalog_entry(name)
        report = run_suite(entry.spec, CFG, quadric=entry.quadric)
        if not report.passed:
            problems.append(f"{name}: suite failed")
        gtt = report.checks["product_metric"].details.get("g_tt")
        if gtt is None or abs(gtt - want_gtt) > 1e-9:
            problems.append(f"{name}: g_tt = {gtt}")
        r2 = report.sphere_fit.radius_sq_signed
        if abs(r2 - want_r2) > 1e-9:
            problems.append(f"{name}: r^2 = {r2}")
        pt = sample_points(entry.spec, 1, seed=4)[0]
        if metric_index(entry.spec, pt) != 1:
            problems.append(f"{name}: metric index != 1")
    criterion(2, "Lorentzian circle products", not problems, detail="; ".join(problems))


def test_criterion_3_clifford_structure_bounds():
    report = run_suite(catalog("clifford_torus"), CFG)
    hvv = report.checks["structure_h_vv"].max_residual
    hmix = report.checks["structure_h_mixed"].max_residual
    ok = hvv is not None and hvv < 1e-9 and hmix is not None and hmix < 1e-9
    criterion(3, "second fundamental form along the angle field", ok,
              detail=f"h_vv {hvv}, h_mixed {hmix}")


def test_criterion_4_identity_residuals():
    problems = []
    for name in LAGRANGIAN_ENTRIES:
        report = run_suite(catalog(name), CFG)
        cubic = report.checks["cubic_symmetry"].max_residual
        gauss = report.checks["gauss"].max_residual
        codazzi = report.checks["codazzi"].max_residual
        if cubic is None or cubic >= 1e-9:
            problems.append(f"{name} cubic {cubic}")
        if gauss is None or gauss >= 1e-7:
            problems.append(f"{name} gauss {gauss}")
        if codazzi is None or codazzi >= 1e-6:
            problems.append(f"{name} codazzi {codazzi}")
    criterion(4, "cubic/Gauss/Codazzi residuals", not problems, detail="; ".join(problems))


def test_criterion_5_curvature_values():
    spec = catalog("product_S1xS2")
    worst_sec = 0.0
    for pt in sample_points(spec, 10, seed=6):
        fr = build_frame(spec, pt)
        r = riemann_tensor(fr)
        worst_sec = max(worst_sec, abs(sectional_curvature(fr, 1, 2, r) - 1.0))
    clifford = catalog("clifford_torus")
    worst_flat = 0.0
    for pt in sample_points(clifford, 10, seed=6):
        fr = build_frame(clifford, pt)
        worst_flat = max(worst_flat, float(np.max(np.abs(riemann_tensor(fr)))))
    ok = worst_sec < 1e-6 and worst_flat < 1e-8
    criterion(5, "sphere block curvature and flat torus", ok,
              detail=f"sec dev {worst_sec}, riemann {worst_flat}")


def test_criterion_6_negative_controls():
    lag = run_suite(catalog("control_non_lagrangian"), CFG).checks["lagrangian"]
    entry = catalog_entry("control_non_horizontal")
    report = run_suite(entry.spec, CFG, quadric=entry.quadric)
    leg = report.checks["legendrian"]
    hor = report.checks["horizontal"]
    ok = (
        lag.max_residual > 0.05
        and leg.max_residual > 0.05
        and hor.max_residual > 0.5
    )
    criterion(6, "negative controls are rejected with margin", ok,
              detail=f"{lag.max_residual}, {leg.max_residual}, {hor.max_residual}")


def test_criterion_7_jets_match_finite_differences():
    problems = []
    for name in ALL_ENTRIES:
        spec = catalog(name)
        for pt in sample_points(spec, 3, seed=11, extra_margin=2.1e-4):
            dev = jet_fd_deviation(spec, pt, order=2, step=1e-4)
            if dev[1] >= 1e-6 or dev[2] >= 1e-6:
                problems.append(f"{name}@{pt} low {dev}")
        for pt in sample_points(spec, 3, seed=11, extra_margin=0.0607):
            dev = jet_fd_deviation(spec, pt, order=3, step=1e-2)
            if dev[3] >= 1e-3:
                problems.append(f"{name}@{pt} third {dev}")
    criterion(7, "jet evaluator vs finite differences", not problems,
              detail="; ".join(problems))


def test_criterion_8_normalization_recovers_transform():
    moved = translate(dilate(catalog("clifford_torus"), 2.5), (0.3, 0.7j))
    report = run_suite(moved, CFG)
    fit = report.sphere_fit
    center_err = float(np.max(np.abs(fit.center - np.array([0.3, 0.0, 0.0, 0.7]))))
    r2_err = abs(fit.radius_sq_signed - 6.25)
    identities_ok = report.passed
    ok = center_err < 1e-7 and r2_err < 1e-7 and identities_ok
    criterion(8, "recentering and rescaling recovery", ok,
              detail=f"center {center_err}, r2 {r2_err}, suite {identities_ok}")


def test_criterion_9_deterministic_reports(tmp_path):
    ok = True
    detail = ""
    for name in ("clifford_torus", "theorem43_example", "whitney_sphere"):
        entry = catalog_entry(name)
        a = run_suite(entry.spec, CFG, quadric=entry.quadric).to_json()
        b = run_suite(entry.spec, CFG, quadric=entry.quadric).to_json()
        if a != b:
            ok, detail = False, f"{name} JSON differs between runs"
            break
    if ok:
        fa, fb = tmp_path / "a.json", tmp_path / "b.json"
        main(["check", "product_S1xS2", "--json", "--out", str(fa)])
        main(["check", "product_S1xS2", "--json", "--out", str(fb)])
        if fa.read_bytes() != fb.read_bytes():
            ok, detail = False, "CLI JSON output differs between runs"
    criterion(9, "byte-identical reports per seed", ok, detail=detail)
