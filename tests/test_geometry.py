"""Induced-metric machinery pinned on hand-worked examples.

The flat square torus and the round 2-sphere have completely explicit frames;
every tensor below was derived by hand before the implementation existed.
"""

import itertools
import math

import numpy as np
import pytest

from lagkit import sampling
from lagkit.ambient import Signature, apply_j_flat, metric_diagonal
from lagkit.catalog import catalog, catalog_entry, catalog_names
from lagkit.checks import SampleConfig, run_suite
from lagkit import jets
from lagkit.dsl import evaluate_map_jets, parse
from lagkit.errors import DegenerateMetricError
from lagkit.geometry import (
    CHUNK,
    build_frame,
    codazzi_residual,
    gauss_residual,
    project,
    riemann_tensor,
    sectional_curvature,
    slot_pairs,
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
        fr = build_frame(spec, sample_points(spec, batch, seed=3), need_third=True)
        (blocks,) = written
        for got, block in zip((fr.position, fr.first, fr.second, fr.third), blocks, strict=True):
            assert np.shares_memory(got, block) and got.shape == block.view(float).shape

    @pytest.mark.parametrize("name", catalog_names())
    def test_several_chunks_match_their_chunks_row_for_row(self, name):
        spec = catalog(name)
        pts = sample_points(spec, 2 * CHUNK + 1, seed=3)
        fr = build_frame(spec, pts, need_third=True)
        for start in range(0, len(pts), CHUNK):
            rows = slice(start, start + CHUNK)
            tensors = evaluate_map_jets(spec, pts[rows], 3)
            frames = (fr.position, fr.first, fr.second, fr.third)
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
    return build_frame(catalog("clifford_torus"), CLIFFORD_PT, need_third=True)


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
            fr = build_frame(spec, (u, v), need_third=True)
            r = riemann_tensor(fr)
            # R_uvvu = g_uu g_vv on a unit sphere
            assert r[0, 0, 1, 1, 0] == pytest.approx(math.cos(u) ** 2, abs=1e-12)
            assert sectional_curvature(fr, 0, 1, r)[0] == pytest.approx(1.0, abs=1e-12)

    def test_independent_metric_differentiation(self):
        # Christoffels from central differences of the closed-form metric
        spec = catalog(self.SPEC)
        u, v = 0.42, 1.7
        h = 1e-6

        def g(uu):
            return np.diag([1.0, math.cos(uu) ** 2])

        dg_du = (g(u + h) - g(u - h)) / (2 * h)
        fr = build_frame(spec, (u, v))
        np.testing.assert_allclose(fr.dmetric[0, 0], dg_du, atol=1e-8)
        np.testing.assert_allclose(fr.dmetric[0, 1], 0.0, atol=1e-13)


class TestCurvatureSymmetries:
    @pytest.mark.parametrize("name", ["product_S1xS2", "theorem43_example", "whitney_sphere"])
    def test_riemann_symmetries_and_first_bianchi(self, name):
        spec = catalog(name)
        pt = sample_points(spec, 1, seed=9)[0]
        fr = build_frame(spec, pt, need_third=True)
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
            fr = build_frame(spec, pt, need_third=True)
            assert gauss_residual(fr) < 1e-10
            assert codazzi_residual(fr) < 1e-10


class TestThirdOrderChecksReadTheirData:
    """Gauss and Codazzi hold identically for exact jets, so each is pinned to
    the third-order data it certifies: corrupting it must show."""

    DELTA = 1e-3

    @pytest.fixture(scope="class")
    def frames(self):
        spec = catalog("product_S1xS2")
        return build_frame(spec, sample_points(spec, 5, seed=13), need_third=True)

    def test_skew_third_derivative_is_the_codazzi_residual(self, frames):
        # a unit normal direction per point (max component 1), set into one
        # (i, j) slot of L_ijk and not into its mirror (j, i): its skew part
        _, normal = project(frames, frames.position)
        normal /= np.abs(normal).max(axis=1, keepdims=True)
        third = frames.third.copy()
        third[:, 0, 1, 2] += self.DELTA * normal
        assert codazzi_residual(frames).max() < 1e-12
        got = codazzi_residual(frames.replace(third=third))
        np.testing.assert_allclose(got, self.DELTA, rtol=1e-9)
        third[:, 1, 0, 2] += self.DELTA * normal  # the mirror too: no skew part left
        assert codazzi_residual(frames.replace(third=third)).max() < 1e-12

    def test_perturbed_christoffel_derivatives_fail_gauss(self, frames):
        tol = SampleConfig().tolerance_for("gauss")
        assert gauss_residual(frames).max() <= tol
        dgamma = frames.dchristoffels.copy()
        dgamma[:, 0, 0, 1, 1] += self.DELTA  # d_0 Gamma^0_11
        worst = gauss_residual(frames.replace(dchristoffels=dgamma)).max()
        assert worst > tol and worst > 0.1 * self.DELTA


class TestMetricIndex:
    @pytest.mark.parametrize(
        "name",
        [n for n in catalog_names() if catalog(n).expected_index is not None],
    )
    def test_declared_index_matches(self, name):
        spec = catalog(name)
        pt = sample_points(spec, 1, seed=21)[0]
        fr = build_frame(spec, pt)
        eigs = np.linalg.eigvalsh(fr.metric)
        assert int(np.sum(eigs < 0)) == spec.expected_index


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
        # the Whitney sphere's field is far from constant
        spec, pt, h = catalog("whitney_sphere"), (0.4, 1.3), 1e-5
        _, grads = tangent_field(build_frame(spec, pt))
        for i in range(2):
            step = np.eye(2)[i] * h
            plus, _ = tangent_field(build_frame(spec, tuple(pt + step)))
            minus, _ = tangent_field(build_frame(spec, tuple(pt - step)))
            np.testing.assert_allclose(grads[:, i], (plus - minus) / (2 * h), atol=1e-8)


class TestDegeneracy:
    def test_constant_map_rejected(self):
        spec = parse("params u:[0,1];\nsignature 2 0;\nmap 1, 1;\n")
        with pytest.raises(DegenerateMetricError):
            build_frame(spec, (0.5,))

    def test_riemann_needs_third_order(self):
        fr = build_frame(catalog("clifford_torus"), (0.5, 0.5))
        with pytest.raises(ValueError, match="third"):
            riemann_tensor(fr)

    def test_null_plane_sectional_curvature_rejected(self):
        spec = catalog("theorem42_example")
        fr = build_frame(spec, (0.3, 0.3), need_third=True)
        # g = diag(1, -1): the plane is fine, but a null direction pair is not
        with pytest.raises(DegenerateMetricError):
            sectional_curvature(fr, 0, 0)

    def test_null_plane_error_names_its_row(self):
        spec = catalog("theorem42_example")
        fr = build_frame(spec, sample_points(spec, 4, seed=5), need_third=True)
        with pytest.raises(DegenerateMetricError, match="plane \\(0,0\\)") as info:
            sectional_curvature(fr, 0, 0)
        assert info.value.row == 0 and str(fr.point(0)) in str(info.value)
        # the first degenerate row of a batch whose other rows are not
        spec = catalog("clifford_torus")
        fr = build_frame(spec, sample_points(spec, 6, seed=5), need_third=True)
        metric = fr.metric.copy()
        metric[3] = metric[4] = [[1.0, 1.0], [1.0, 1.0]]
        with pytest.raises(DegenerateMetricError) as info:
            sectional_curvature(fr.replace(metric=metric), 0, 1)
        assert info.value.row == 3 and str(fr.point(3)) in str(info.value)

    @pytest.mark.parametrize("name, plane", [("clifford_torus", (0, 1)), ("product_S1xS2", (1, 2))])
    def test_sectional_curvature_does_not_depend_on_units(self, name, plane):
        # dilating by k = 2^-20 scales the metric by k^2 (~1e-12 I on the flat
        # Clifford torus, not degenerate) and the curvature by k^-2
        k = 2.0**-20
        spec = catalog(name)
        points = sample_points(spec, 20, seed=3)
        want = sectional_curvature(build_frame(spec, points, need_third=True), *plane)
        got = sectional_curvature(build_frame(dilate(spec, k), points, need_third=True), *plane)
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


def _spec(name):
    """A catalog entry, or one of the specs of BEYOND_CATALOG."""
    beyond = dict(zip(BEYOND_CATALOG, (SPEC_M3_S2, SPEC_M4, SPEC_W5)))
    return beyond[name] if name in beyond else catalog(name)


def _reference_bracket(dg):
    return np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg


def reference_geometry(fr):
    """The frame arrays, curvature, Gauss and Codazzi residuals and tangent
    field of fr's derivative arrays, by the einsum form of every contraction."""
    eta, position, first, second, third = fr.eta, fr.position, fr.first, fr.second, fr.third
    out = {}
    metric = np.einsum("bia,a,bja->bij", first, eta, first)
    out["metric"] = g = 0.5 * (metric + metric.transpose(0, 2, 1))
    out["metric_inv"] = ginv = np.linalg.inv(g)
    half = np.einsum("bika,a,bja->bkij", second, eta, first)
    out["dmetric"] = dg = half + half.transpose(0, 1, 3, 2)
    bracket = _reference_bracket(dg)
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
    out["tangent_field"] = (values, slope @ ginv)
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
        fr = build_frame(spec, sample_points(spec, batch, seed=17), need_third=True)
        want = reference_geometry(fr)
        for key in ("metric", "metric_inv", "dmetric", "christoffels", "sff", "dchristoffels"):
            _assert_relative(getattr(fr, key), want[key])
        r = riemann_tensor(fr)
        _assert_relative(r, want["riemann"])
        _assert_relative(gauss_residual(fr), want["gauss"], np.abs(want["riemann"]).max())
        scale = max(np.abs(fr.third).max(), np.abs(fr.dchristoffels).max())
        _assert_relative(codazzi_residual(fr), want["codazzi"], scale)
        for got, ref in zip(tangent_field(fr), want["tangent_field"]):
            _assert_relative(got, ref)


class TestSymmetriesTheKernelsRead:
    """build_frame gives second and sff symmetric in i, j bit for bit, as the
    kernels read them, and christoffels too, and third in all three slots."""

    @staticmethod
    def _assert_bitwise(x, y):
        assert x.tobytes() == y.tobytes(), np.abs(x - y).max()

    @pytest.mark.parametrize("batch", [1, 200, 513])
    @pytest.mark.parametrize("name", list(catalog_names()) + list(BEYOND_CATALOG))
    def test_frames_are_bitwise_symmetric(self, name, batch):
        spec = _spec(name)
        fr = build_frame(spec, sample_points(spec, batch, seed=29), need_third=True)
        self._assert_bitwise(fr.second, fr.second.swapaxes(1, 2))
        self._assert_bitwise(fr.sff, fr.sff.swapaxes(1, 2))
        self._assert_bitwise(fr.christoffels, fr.christoffels.swapaxes(2, 3))
        for axes in itertools.permutations((1, 2, 3)):
            self._assert_bitwise(fr.third, fr.third.transpose(0, *axes, 4))


# -- constants built once per dimension, and a dimension the catalog lacks -------


def _assert_read_only(array):
    assert not array.flags.writeable
    with pytest.raises(ValueError):
        array[...] = 0


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
def test_codazzi_pairs_are_triu_indices_built_once_and_read_only(m):
    i, j = slot_pairs(m)
    want_i, want_j = np.triu_indices(m, 1)
    np.testing.assert_array_equal(i, want_i)
    np.testing.assert_array_equal(j, want_j)
    assert i.dtype == want_i.dtype and j.dtype == want_j.dtype
    assert slot_pairs(m)[0] is i and slot_pairs(m)[1] is j
    _assert_read_only(i)
    _assert_read_only(j)


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
