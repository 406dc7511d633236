"""Induced-metric machinery pinned on hand-worked examples.

The flat square torus and the round 2-sphere have completely explicit frames;
every tensor below was derived by hand before the implementation existed.
"""

import itertools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagkit import sampling
from lagkit.ambient import Signature, apply_j_flat, metric_diagonal
from lagkit.catalog import catalog, catalog_entry, catalog_names
from lagkit.checks import SampleConfig, run_suite
from lagkit import jets
from lagkit.dsl import evaluate_map_jets, parse
from lagkit.errors import DegenerateMetricError, SingularEvaluationError
from lagkit.geometry import (
    CHUNK,
    _gathers,
    assemble_frame,
    build_frame,
    codazzi_residual,
    gauss_residual,
    inverse,
    project,
    riemann_tensor,
    sectional_curvature,
    tangent_field,
)
from lagkit.products import circle_product, dilate
from lagkit.sampling import sample_points


class TestFramesOnTheJetsBuffer:
    """The map's jets are interpolated straight into the frames' arrays, a
    chunk's rows at a time: no jet block is copied."""

    @pytest.mark.parametrize("batch", [1, 200, CHUNK])
    @pytest.mark.parametrize("name", ["product_S1xS2", "whitney_sphere"])
    def test_frames_share_the_jets_buffer(self, monkeypatch, name, batch):
        spec, written = catalog(name), []
        interpolate = jets._interpolate
        monkeypatch.setattr(
            jets, "_interpolate", lambda *a: written.append(interpolate(*a)) or written[-1]
        )
        fr = build_frame(spec, sample_points(spec, batch, seed=3))
        (blocks,) = written
        for got, block in zip((fr.position, fr.first, fr.second), blocks, strict=True):
            assert np.shares_memory(got, block) and got.shape == block.view(float).shape

    @pytest.mark.parametrize("name", catalog_names())
    def test_several_chunks_match_their_chunks_row_for_row(self, name):
        spec = catalog(name)
        pts = sample_points(spec, 2 * CHUNK + 1, seed=3)
        fr = build_frame(spec, pts)
        for start in range(0, len(pts), CHUNK):
            rows = slice(start, start + CHUNK)
            tensors = evaluate_map_jets(spec, pts[rows], 2)
            frames = (fr.position, fr.first, fr.second)
            for got, want in zip(frames, tensors, strict=True):
                assert got[rows].tobytes() == want.view(float).tobytes()


def clifford_position(t, u):
    return np.array(
        [
            math.cos(t) * math.cos(u),
            math.sin(t) * math.cos(u),
            math.cos(t) * math.sin(u),
            math.sin(t) * math.sin(u),
        ]
    )


CLIFFORD_PT = (0.8, 0.45)


@pytest.fixture(scope="module")
def frame():
    return build_frame(catalog("clifford_torus"), CLIFFORD_PT)


class TestCliffordFrame:
    def test_position(self, frame):
        np.testing.assert_allclose(frame.position[0], clifford_position(*CLIFFORD_PT))

    def test_metric_is_identity(self, frame):
        np.testing.assert_allclose(frame.metric[0], np.eye(2), atol=1e-14)

    def test_christoffels_vanish(self, frame):
        np.testing.assert_allclose(frame.christoffels, 0.0, atol=1e-14)

    def test_h_tt_is_minus_position(self, frame):
        np.testing.assert_allclose(frame.sff[0, 0, 0], -frame.position[0], atol=1e-14)

    def test_h_uu_is_minus_position(self, frame):
        np.testing.assert_allclose(frame.sff[0, 1, 1], -frame.position[0], atol=1e-14)

    def test_h_tu_is_j_of_u_tangent(self, frame):
        np.testing.assert_allclose(
            frame.sff[0, 0, 1], apply_j_flat(frame.first[0, 1]), atol=1e-14
        )

    def test_flat(self, frame):
        np.testing.assert_allclose(riemann_tensor(frame), 0.0, atol=1e-13)

    def test_second_fundamental_form_is_normal(self, frame):
        # <h_ij, dL_k> = 0 for all indices
        inner = np.einsum("bija,a,bka->bijk", frame.sff, frame.eta, frame.first)
        np.testing.assert_allclose(inner, 0.0, atol=1e-14)


class TestRoundSphere:
    """ psi(u, v) = (cos u cos v, cos u sin v, sin u): unit sphere in R^3 c C^3 """

    SPEC = "real_sphere_S5"

    def test_metric_closed_form(self):
        spec = catalog(self.SPEC)
        for u, v in [(0.2, 1.0), (-0.7, 4.0), (1.1, 2.5)]:
            fr = build_frame(spec, (u, v))
            np.testing.assert_allclose(
                fr.metric[0], np.diag([1.0, math.cos(u) ** 2]), atol=1e-14
            )

    def test_christoffel_closed_form(self):
        # nonzero symbols: Gamma^u_vv = sin u cos u, Gamma^v_uv = -tan u
        spec = catalog(self.SPEC)
        u, v = 0.35, 2.0
        fr = build_frame(spec, (u, v))
        want = np.zeros((2, 2, 2))
        want[0, 1, 1] = math.sin(u) * math.cos(u)
        want[1, 0, 1] = want[1, 1, 0] = -math.tan(u)
        np.testing.assert_allclose(fr.christoffels[0], want, atol=1e-13)

    def test_curvature_is_plus_one(self):
        spec = catalog(self.SPEC)
        for u, v in [(0.2, 1.0), (-0.9, 5.3)]:
            fr = build_frame(spec, (u, v))
            r = riemann_tensor(fr)
            # R_uvvu = g_uu g_vv on a unit sphere
            assert r[0, 0, 1, 1, 0] == pytest.approx(math.cos(u) ** 2, abs=1e-12)
            assert sectional_curvature(fr, 0, 1, r)[0] == pytest.approx(1.0, abs=1e-12)

    def test_independent_metric_differentiation(self):
        # the lowered Christoffels against central differences of the closed-form
        # metric: d_k g_ij = Gamma_ki,j + Gamma_kj,i
        spec = catalog(self.SPEC)
        u, v = 0.42, 1.7
        h = 1e-6

        def g(uu):
            return np.diag([1.0, math.cos(uu) ** 2])

        dg_du = (g(u + h) - g(u - h)) / (2 * h)
        lowered = build_frame(spec, (u, v)).christoffels_lowered
        dmetric = lowered + lowered.swapaxes(2, 3)
        np.testing.assert_allclose(dmetric[0, 0], dg_du, atol=1e-8)
        np.testing.assert_allclose(dmetric[0, 1], 0.0, atol=1e-13)


class TestCurvatureSymmetries:
    @pytest.mark.parametrize("name", ["product_S1xS2", "theorem43_example", "whitney_sphere"])
    def test_riemann_symmetries_and_first_bianchi(self, name):
        spec = catalog(name)
        pt = sample_points(spec, 1, seed=9)[0]
        fr = build_frame(spec, pt)
        r = riemann_tensor(fr)[0]
        np.testing.assert_allclose(r, -np.einsum("jikl->ijkl", r), atol=1e-10)
        np.testing.assert_allclose(r, -np.einsum("ijlk->ijkl", r), atol=1e-10)
        np.testing.assert_allclose(r, np.einsum("klij->ijkl", r), atol=1e-10)
        bianchi = r + np.einsum("jkil->ijkl", r) + np.einsum("kijl->ijkl", r)
        np.testing.assert_allclose(bianchi, 0.0, atol=1e-10)

    def test_gauss_and_codazzi_hold_for_arbitrary_submanifolds(self):
        # both identities are automatic in a flat ambient space
        spec = catalog("real_sphere_S5")
        for pt in sample_points(spec, 4, seed=3):
            fr = build_frame(spec, pt)
            assert gauss_residual(fr) < 1e-10
            assert codazzi_residual(fr) < 1e-10


class TestCurvatureChecksReadTheirData:
    """Gauss and Codazzi hold identically for exact frames, so each is pinned to
    the second-order data it certifies: corrupting it on a batch built by hand
    must show."""

    DELTA = 1e-3

    @pytest.fixture(scope="class")
    def frames(self):
        spec = catalog("product_S1xS2")
        return build_frame(spec, sample_points(spec, 5, seed=13))

    def test_perturbed_christoffel_symbol_fails_gauss(self, frames):
        # Gamma^1_00 += delta moves T[i, l, 0, 0] by -Gamma_il,1 delta, so
        # R_i00l for i != 0, and R_0j0l by the mirror, by delta |Gamma_il,1|
        tol = SampleConfig().tol
        assert gauss_residual(frames).max() < 1e-12
        gamma = frames.christoffels.copy()
        gamma[:, 1, 0, 0] += self.DELTA
        got = gauss_residual(frames.replace(christoffels=gamma))
        want = self.DELTA * np.abs(frames.christoffels_lowered[:, 1:, :, 1]).max(axis=(1, 2))
        np.testing.assert_allclose(got, want, rtol=1e-9)
        assert got.min() > tol

    def test_perturbed_second_fundamental_form_fails_codazzi(self, frames):
        # a unit normal direction per point (max component 1) added to h_22: the
        # skew part of nabla h moves by -Gamma^2_ik delta normal for i < 2
        tol = SampleConfig().tol
        _, normal = project(frames, frames.position)
        normal /= np.abs(normal).max(axis=1, keepdims=True)
        sff = frames.sff.copy()
        sff[:, 2, 2] += self.DELTA * normal
        assert codazzi_residual(frames).max() < 1e-12
        got = codazzi_residual(frames.replace(sff=sff))
        want = self.DELTA * np.abs(frames.christoffels[:, 2, :2]).max(axis=(1, 2))
        np.testing.assert_allclose(got, want, rtol=1e-9)
        assert got.min() > tol


class TestMetricIndex:
    # the induced metric's index on each example entry (the Whitney sphere and controls have none)
    INDEX = {
        "real_circle_S3": 0,
        "clifford_torus": 0,
        "real_sphere_S5": 0,
        "product_S1xS2": 0,
        "minimal_legendrian_torus_S5": 0,
        "pseudo_legendrian_H3": 0,
        "pseudo_legendrian_S3_index1": 1,
        "theorem42_example": 1,
        "theorem43_example": 1,
    }

    @pytest.mark.parametrize("name", INDEX)
    def test_declared_index_matches(self, name):
        spec = catalog(name)
        pt = sample_points(spec, 1, seed=21)[0]
        fr = build_frame(spec, pt)
        eigs = np.linalg.eigvalsh(fr.metric)
        assert int(np.sum(eigs < 0)) == self.INDEX[name]


class TestProjection:
    def test_j_position_is_tangent_on_clifford(self):
        spec = catalog("clifford_torus")
        fr = build_frame(spec, (1.1, 0.3))
        coeffs, normal = project(fr, apply_j_flat(fr.position))
        np.testing.assert_allclose(coeffs, [[1.0, 0.0]], atol=1e-14)
        np.testing.assert_allclose(normal, 0.0, atol=1e-14)

    def test_position_is_normal_on_clifford(self):
        spec = catalog("clifford_torus")
        fr = build_frame(spec, (1.1, 0.3))
        coeffs, normal = project(fr, fr.position)
        np.testing.assert_allclose(coeffs, 0.0, atol=1e-14)
        np.testing.assert_allclose(normal, fr.position, atol=1e-14)

    def test_tangent_field_jets_on_clifford(self):
        values, grads = tangent_field(build_frame(catalog("clifford_torus"), (0.6, 2.0)))
        np.testing.assert_allclose(values, [[1.0, 0.0]], atol=1e-13)
        np.testing.assert_allclose(grads, 0.0, atol=1e-13)

    def test_tangent_field_jets_on_lorentzian_product(self):
        # J L = dL_t for every circle product, regardless of metric signature
        spec = catalog("theorem43_example")
        values, grads = tangent_field(build_frame(spec, (0.9, 0.4)))
        np.testing.assert_allclose(values, [[1.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(grads, 0.0, atol=1e-12)

    def test_tangent_field_gradient_matches_central_differences(self):
        # the Whitney sphere's field is far from parallel: nabla_i V^k is
        # d_i a^k, by central differences, plus Gamma^k_ij a^j
        spec, pt, h = catalog("whitney_sphere"), (0.4, 1.3), 1e-5
        fr = build_frame(spec, pt)
        values, nabla = tangent_field(fr)
        gamma_a = np.einsum("bkij,bj->bik", fr.christoffels, values)
        for i in range(2):
            step = np.eye(2)[i] * h
            plus, _ = tangent_field(build_frame(spec, tuple(pt + step)))
            minus, _ = tangent_field(build_frame(spec, tuple(pt - step)))
            np.testing.assert_allclose(nabla[:, i], (plus - minus) / (2 * h) + gamma_a[:, i], atol=1e-8)


class TestDegeneracy:
    def test_constant_map_rejected(self):
        spec = parse("params u:[0,1];\nsignature 2 0;\nmap 1, 1;\n")
        with pytest.raises(DegenerateMetricError):
            build_frame(spec, (0.5,))

    def test_null_plane_sectional_curvature_rejected(self):
        spec = catalog("theorem42_example")
        fr = build_frame(spec, (0.3, 0.3))
        # g = diag(1, -1): the plane is fine, but a null direction pair is not
        with pytest.raises(DegenerateMetricError):
            sectional_curvature(fr, 0, 0)

    def test_null_plane_error_names_its_row(self):
        spec = catalog("theorem42_example")
        fr = build_frame(spec, sample_points(spec, 4, seed=5))
        with pytest.raises(DegenerateMetricError, match="plane \\(0,0\\)") as info:
            sectional_curvature(fr, 0, 0)
        assert info.value.row == 0 and str(fr.point(0)) in str(info.value)
        # the first degenerate row of a batch whose other rows are not
        spec = catalog("clifford_torus")
        fr = build_frame(spec, sample_points(spec, 6, seed=5))
        metric = fr.metric.copy()
        metric[3] = metric[4] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(DegenerateMetricError) as info:
            sectional_curvature(fr.replace(metric=metric), 0, 1)
        assert info.value.row == 3 and str(fr.point(3)) in str(info.value)

    def test_a_nearly_null_plane_of_a_conditioned_metric(self):
        # u + c v, s v with s^2 = 3e-9: det g = s^2 passes the frames' 1e-10
        # test, and the plane, degenerate to 3e-9 of |g_uu g_vv|, has curvature 0
        s = math.sqrt(3e-9)
        c = math.sqrt(1.0 - s * s)
        spec = parse(f"params u:[0,1], v:[0,1];\nsignature 2 0;\nmap u + {c!r}*v, {s!r}*v;\n")
        fr = build_frame(spec, sample_points(spec, 5, seed=3))
        np.testing.assert_array_equal(sectional_curvature(fr, 0, 1), 0.0)

    @pytest.mark.parametrize("name, plane", [("clifford_torus", (0, 1)), ("product_S1xS2", (1, 2))])
    def test_sectional_curvature_does_not_depend_on_units(self, name, plane):
        # dilating by k = 2^-20 scales the metric by k^2 (~1e-12 I on the flat
        # Clifford torus, not degenerate) and the curvature by k^-2
        k = 2.0**-20
        spec = catalog(name)
        points = sample_points(spec, 20, seed=3)
        want = sectional_curvature(build_frame(spec, points), *plane)
        got = sectional_curvature(build_frame(dilate(spec, k), points), *plane)
        np.testing.assert_allclose(got, want / k**2, rtol=1e-12, atol=1e-12 / k**2)


# -- the contractions against their einsum forms --------------------------------

# m = 3 with s > 0, which the catalog lacks
SPEC_M3_S2 = parse(
    "params x:[0.1,0.9], y:[0.1,0.9], z:[0.1,0.9];\nsignature 3 2;\n"
    "map x + i*exp(y), y*cosh(z) + i*x*z, 2*z + i*sin(x*y);\n"
)

# m = n = 5: the Whitney sphere W^5 in C^5, in hyperspherical angles
_W = "(1+i*sin(a))/(1+sin(a)^2)*cos(a)"
SPEC_W5 = parse(
    "params a:[-1.2,1.2], b:[0,6.283185307179586], c:[-1.2,1.2], d:[-1.2,1.2], e:[-1.2,1.2];\n"
    "signature 5 0;\n"
    f"map {_W}*sin(c), {_W}*cos(c)*sin(d), {_W}*cos(c)*cos(d)*sin(e), "
    f"{_W}*cos(c)*cos(d)*cos(e)*cos(b), {_W}*cos(c)*cos(d)*cos(e)*sin(b);\n"
)

BEYOND_CATALOG = ("m3_s2", "m4_circle_product", "m5_whitney")


def _metric(m, index, decades, planes, seed):
    """A symmetric m x m metric of the given index, its eigenvalue magnitudes
    spread over `decades` decades: Q diag(lambda) Q^T for a random rotation Q,
    or, when planes > 0, a permuted sum of up to `planes` hyperbolic planes
    [[0, a], [a, 0]] and diagonal entries, whose coordinate vectors in the
    planes are null, so that LU solves it only with pivoting."""
    rng = np.random.default_rng(seed)
    magnitudes = 10.0 ** rng.uniform(-decades, 0.0, m) * 10.0 ** rng.uniform(-3, 3)
    if planes:
        p = min(planes, index, m - index)
        g = np.diag(np.r_[np.zeros(2 * p), -magnitudes[: index - p], magnitudes[index - p : m - 2 * p]])
        for q in range(p):
            g[2 * q, 2 * q + 1] = g[2 * q + 1, 2 * q] = magnitudes[m - 1 - q]
        perm = rng.permutation(m)
        return g[np.ix_(perm, perm)]
    rotation, _ = np.linalg.qr(rng.normal(size=(m, m)))
    g = (rotation * np.r_[-magnitudes[:index], magnitudes[index:]]) @ rotation.T
    return 0.5 * (g + g.T)


_METRIC_BATCHES = st.integers(1, 5).flatmap(
    lambda m: st.tuples(
        st.just(m), st.integers(0, m), st.floats(0.0, 14.0), st.integers(0, 2),
        st.integers(1, 6), st.integers(0, 2**32 - 1),
    )
)


class TestInverseByMinors:
    """inverse, the expansion in minors that assemble_frame inverts the metric
    with, against numpy.linalg on symmetric metrics of every index."""

    @given(_METRIC_BATCHES)
    @settings(derandomize=True, max_examples=300, deadline=None)
    def test_matches_numpy_linalg(self, params):
        m, index, decades, planes, batch, seed = params
        g = np.stack([_metric(m, index, decades, planes, seed + row) for row in range(batch)])
        scale, det, inv = inverse(g)
        assert inv.flags.c_contiguous
        np.testing.assert_array_equal(scale, np.abs(g).max(axis=(1, 2)))
        want = np.linalg.det(g / scale[:, None, None])
        away = (np.abs(want) < 0.5e-10) | (np.abs(want) > 2e-10)  # from the threshold
        np.testing.assert_array_equal((np.abs(det) < 1e-10)[away], (np.abs(want) < 1e-10)[away])
        np.testing.assert_allclose(det, want, rtol=0, atol=1e-13)
        for got, metric, scaled_det in zip(inv, g, want):
            if abs(scaled_det) >= 1e-3:
                ref = np.linalg.inv(metric)
                np.testing.assert_allclose(got, ref, rtol=0, atol=1e-12 * np.abs(ref).max())

    @pytest.mark.parametrize(
        "g",
        [
            [[0.0, 1.0], [1.0, 0.0]],
            [[0.0, 2.0], [2.0, 0.0]],
            [[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]],
            [[0.0, 3.0, 0.0], [3.0, 0.0, 0.0], [0.0, 0.0, -1.0]],
            [[0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 4.0], [1.0, 0.0, 0.0, 0.0], [0.0, 4.0, 0.0, 0.0]],
        ],
    )
    def test_null_coordinate_vectors(self, g):
        g = np.array(g)
        _, det, inv = inverse(g[None])
        np.testing.assert_array_equal(inv[0], np.linalg.inv(g))
        assert det[0] == np.linalg.det(g / np.abs(g).max())

    def test_null_chart_frames(self):
        # u + v, u - v in C^2_1: d_u and d_v are null, g = [[0, -2], [-2, 0]]
        spec = parse("params u:[0,1], v:[0,1];\nsignature 2 1;\nmap u + v, u - v;\n")
        fr = build_frame(spec, sample_points(spec, 5, seed=1))
        np.testing.assert_array_equal(fr.metric, np.broadcast_to([[0.0, -2.0], [-2.0, 0.0]], (5, 2, 2)))
        np.testing.assert_array_equal(fr.metric_inv, np.broadcast_to([[0.0, -0.5], [-0.5, 0.0]], (5, 2, 2)))

    @pytest.mark.parametrize("units", [1e-100, 1.0, 1e100])
    @pytest.mark.parametrize("eps, degenerate", [(2e-11, True), (5e-11, True), (2e-10, False), (1e-9, False)])
    def test_conditioning_threshold_in_any_units(self, eps, degenerate, units):
        # g = units^2 diag(1, eps), so |det(g / max |g_ij|)| = eps, tested against 1e-10,
        # where det g itself under- or overflows
        spec = SimpleNamespace(signature=Signature(2, 0))
        first = units * np.array([[[1.0, 0.0, 0.0, 0.0], [0.0, 0.0, math.sqrt(eps), 0.0]]])
        args = (spec, np.zeros((1, 2)), np.zeros((1, 4)), first, np.zeros((1, 2, 2, 4)))
        if not degenerate:
            np.testing.assert_allclose(assemble_frame(*args).metric_inv[0], np.diag([1.0, 1.0 / eps]) / units**2)
            return
        with pytest.raises(DegenerateMetricError, match=f"\\|det\\(g / max\\|g_ij\\|\\)\\| = {eps:.3e}$"):
            assemble_frame(*args)

    @given(st.integers(1, 5).flatmap(
        lambda m: st.tuples(st.just(m), st.integers(0, m), st.integers(1, 8), st.integers(0, 2**32 - 1))
    ))
    @settings(derandomize=True, max_examples=200, deadline=None)
    def test_first_failing_row(self, params):
        # integer tangent vectors, so every metric is exact and a singular one has det 0;
        # some rows get a repeated or zero vector, some a non-finite entry
        m, s, batch, seed = params
        rng = np.random.default_rng(seed)
        first = rng.integers(-2, 3, size=(batch, m, 2 * m)).astype(float)
        for row, kind in enumerate(rng.integers(0, 6, batch)):
            if kind == 0:
                first[row, -1] = first[row, 0]
            elif kind == 1:
                first[row] = 0.0
            elif kind == 2:
                first[row, rng.integers(m), rng.integers(2 * m)] = rng.choice([np.inf, -np.inf, np.nan])
        spec = SimpleNamespace(signature=Signature(m, s))
        points = np.arange(batch * m, dtype=float).reshape(batch, m)
        with np.errstate(invalid="ignore"):
            metrics = np.einsum("bia,a,bja->bij", first, metric_diagonal(spec.signature), first)
        # the point-by-point reference: the first non-finite metric, else the first
        # whose |det(g / max |g_ij|)| is below 1e-10 by numpy.linalg
        finite = np.isfinite(metrics).all(axis=(1, 2))
        if not finite.all():
            failing, error = np.flatnonzero(~finite), SingularEvaluationError
        else:
            scale = np.maximum(np.abs(metrics).max(axis=(1, 2)), 1e-300)[:, None, None]
            failing = np.flatnonzero(~(np.abs(np.linalg.det(metrics / scale)) >= 1e-10))
            error = DegenerateMetricError
        args = (spec, points, np.zeros((batch, 2 * m)), first, np.zeros((batch, m, m, 2 * m)))
        if not len(failing):
            ref = np.linalg.inv(metrics)
            np.testing.assert_allclose(assemble_frame(*args).metric_inv, ref, rtol=0, atol=1e-12 * np.abs(ref).max())
            return
        with pytest.raises(error) as info:
            assemble_frame(*args)
        assert info.value.row == failing[0] and str(tuple(points[failing[0]].tolist())) in str(info.value)


def _spec(name):
    """A catalog entry, or one of the specs of BEYOND_CATALOG."""
    beyond = dict(zip(BEYOND_CATALOG, (SPEC_M3_S2, SPEC_M4, SPEC_W5)))
    return beyond[name] if name in beyond else catalog(name)


def _reference_bracket(dg):
    return np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg


def reference_geometry(fr, third):
    """The frame arrays, curvature, Gauss and Codazzi residuals and tangent
    field of fr's derivative arrays and the map's third derivatives (B, m, m,
    m, 2n) at its points, by the einsum form of every contraction."""
    eta, position, first, second = fr.eta, fr.position, fr.first, fr.second
    out = {}
    metric = np.einsum("bia,a,bja->bij", first, eta, first)
    out["metric"] = g = 0.5 * (metric + metric.transpose(0, 2, 1))
    out["metric_inv"] = ginv = np.linalg.inv(g)
    half = np.einsum("bika,a,bja->bkij", second, eta, first)
    dg = half + half.transpose(0, 1, 3, 2)
    bracket = _reference_bracket(dg)
    out["christoffels_lowered"] = 0.5 * np.einsum("blij->bijl", bracket)
    out["christoffels"] = gamma = 0.5 * np.einsum("bkl,blij->bkij", ginv, bracket)
    out["sff"] = h = second - np.einsum("bkij,bka->bija", gamma, first)

    d2g = (
        np.einsum("bpqia,a,bja->bpqij", third, eta, first)
        + np.einsum("bpia,a,bqja->bpqij", second, eta, second)
        + np.einsum("bqia,a,bpja->bpqij", second, eta, second)
        + np.einsum("bia,a,bpqja->bpqij", first, eta, third)
    )
    dginv = -np.einsum("bka,bpac,bcl->bpkl", ginv, dg, ginv)
    out["dchristoffels"] = dgamma = 0.5 * np.einsum(
        "bpkl,blij->bpkij", dginv, bracket
    ) + 0.5 * np.einsum("bkl,bplij->bpkij", ginv, _reference_bracket(d2g))

    up = (
        np.einsum("biljk->bijkl", dgamma)
        - np.einsum("bjlik->bijkl", dgamma)
        + np.einsum("bmjk,blim->bijkl", gamma, gamma)
        - np.einsum("bmik,bljm->bijkl", gamma, gamma)
    )
    out["riemann"] = r = np.einsum("bijkm,bml->bijkl", up, g)
    rhs = np.einsum("bila,a,bjka->bijkl", h, eta, h) - np.einsum("bika,a,bjla->bijkl", h, eta, h)
    out["gauss"] = np.abs(r - rhs).reshape(len(r), -1).max(axis=1)

    nabla_h = third - np.einsum("bimjk,bma->bijka", dgamma, first)
    nabla_h -= np.einsum("bmjk,bima->bijka", gamma, second)
    tangential = np.einsum("bijka,bma->bijkm", nabla_h, ginv @ (first * eta))
    nabla_h -= np.einsum("bijkm,bma->bijka", tangential, first)
    nabla_h -= np.einsum("bmij,bmka->bijka", gamma, h)
    nabla_h -= np.einsum("bmik,bjma->bijka", gamma, h)
    i, j = np.triu_indices(gamma.shape[1], 1)
    asym = nabla_h[:, i, j] - nabla_h[:, j, i]
    out["codazzi"] = np.abs(asym).reshape(len(asym), -1).max(axis=1, initial=0.0)

    jpos = apply_j_flat(position)
    values = np.einsum("bkl,blm,bm->bk", ginv, first, eta * jpos)
    drhs = np.einsum("bika,a,ba->bik", second, eta, jpos) + np.einsum(
        "bka,a,bia->bik", first, eta, apply_j_flat(first)
    )
    slope = drhs - np.einsum("bikl,bl->bik", dg, values)
    # nabla_i V^k = d_i a^k + Gamma^k_ij a^j
    out["tangent_field"] = (values, slope @ ginv + np.einsum("bkij,bj->bik", gamma, values))
    return out


def _assert_relative(got, want, scale=None):
    """got == want up to 1e-12 of the magnitude of want (or of scale)."""
    scale = np.abs(want).max(initial=0.0) if scale is None else scale
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(scale, 1.0))


class TestContractionsMatchEinsum:
    @pytest.mark.parametrize("batch", [1, CHUNK + 1])
    @pytest.mark.parametrize("name", list(catalog_names()) + list(BEYOND_CATALOG))
    def test_frames_curvature_and_residuals(self, name, batch):
        spec = _spec(name)
        points = sample_points(spec, batch, seed=17)
        fr, third = build_frame(spec, points), evaluate_map_jets(spec, points, 3)[3].view(float)
        want = reference_geometry(fr, third)
        for key in ("metric", "metric_inv", "christoffels_lowered", "christoffels", "sff"):
            _assert_relative(getattr(fr, key), want[key])
        # R from second-order data against its intrinsic form by d Gamma
        r = riemann_tensor(fr)
        _assert_relative(r, want["riemann"])
        _assert_relative(gauss_residual(fr), want["gauss"], np.abs(want["riemann"]).max())
        scale = max(np.abs(third).max(), np.abs(want["dchristoffels"]).max())
        _assert_relative(codazzi_residual(fr), want["codazzi"], scale)
        for got, ref in zip(tangent_field(fr), want["tangent_field"]):
            _assert_relative(got, ref)


class TestSymmetriesTheKernelsRead:
    """build_frame gives second and sff symmetric in i, j bit for bit, as the
    kernels read them, and christoffels too; the order-3 jets of the cross-check
    give the third derivatives symmetric in all three slots."""

    @staticmethod
    def _assert_bitwise(x, y):
        assert x.tobytes() == y.tobytes(), np.abs(x - y).max()

    @pytest.mark.parametrize("batch", [1, 50, 200, 513])
    @pytest.mark.parametrize("name", list(catalog_names()) + list(BEYOND_CATALOG))
    def test_frames_are_bitwise_symmetric(self, name, batch):
        spec = _spec(name)
        points = sample_points(spec, batch, seed=29)
        fr = build_frame(spec, points)
        self._assert_bitwise(fr.second, fr.second.swapaxes(1, 2))
        self._assert_bitwise(fr.sff, fr.sff.swapaxes(1, 2))
        self._assert_bitwise(fr.christoffels, fr.christoffels.swapaxes(2, 3))
        *_, second, third = evaluate_map_jets(spec, points, 3)
        self._assert_bitwise(second, second.swapaxes(1, 2))
        for axes in itertools.permutations((1, 2, 3)):
            self._assert_bitwise(third, third.transpose(0, *axes, 4))


# -- constants built once per dimension, and a dimension the catalog lacks -------


def _assert_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[...] = 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_curvature_gathers_are_built_once_and_read_only(m):
    gathers = _gathers(m)
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]

    def rows(at):  # the flat positions of rows (i, j, k), then (j, i, k), of each pair
        return [[at(i, j, k) for i, j in pairs for k in range(m)], [at(j, i, k) for i, j in pairs for k in range(m)]]

    mirror, lead_rows = gathers[:2]
    flat = lambda i, l, j, k: ((i * m + l) * m + j) * m + k  # noqa: E731
    assert mirror.tolist() == [flat(j, l, i, k) for i, l, j, k in itertools.product(range(m), repeat=4)]
    assert lead_rows.tolist() == rows(lambda i, j, k: (j * m + k) * m + i)  # in [j, k, i]
    assert all(again is x for again, x in zip(_gathers(m), gathers, strict=True))
    for x in gathers:
        _assert_read_only(x)


def test_metric_diagonal_and_sampling_box_are_built_once_and_read_only():
    eta = metric_diagonal(Signature(3, 1))
    assert metric_diagonal(Signature(3, 1)) is eta
    _assert_read_only(eta)
    spec = catalog("product_S1xS2")
    box = sampling._box(spec.params, 0.0)
    assert sampling._box(spec.params, 0.0) is box
    _assert_read_only(box)


# the real 3-sphere in C^4, Legendrian in S^7: its circle product is Lagrangian with m = 4
REAL_S3_IN_C4 = parse(
    "params a:[-1.2,1.2], u:[-1.2,1.2], v:[0,6.283185307179586];\nsignature 4 0;\n"
    "map cos(a)*cos(u)*cos(v), cos(a)*cos(u)*sin(v), cos(a)*sin(u), sin(a);\n"
)
SPEC_M4 = circle_product(REAL_S3_IN_C4)


def test_gauss_and_codazzi_hold_at_m_4():
    # beyond the catalog's m <= 3: (B, 4, 4, 4, 4) Gauss terms and six Codazzi
    # slot pairs, on a product S^1 x S^3 whose curvature does not vanish
    spec = circle_product(REAL_S3_IN_C4)
    assert (spec.num_params, spec.signature.n) == (4, 4)
    report = run_suite(spec, SampleConfig(num_points=50))
    for name in ("gauss", "codazzi"):
        entry = report.checks[name]
        assert entry.status == "ok" and entry.passed and entry.points_evaluated == 50, entry
    assert report.passed, {k: e.max_residual for k, e in report.checks.items()}
