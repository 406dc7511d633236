"""Induced-metric machinery pinned on hand-worked examples.

The flat square torus and the round 2-sphere have completely explicit frames;
every tensor below was derived by hand before the implementation existed.
"""

import math

import numpy as np
import pytest

from lagkit.ambient import apply_j_flat
from lagkit.catalog import catalog, catalog_entry, catalog_names
from lagkit.checks import SampleConfig, check_gauss
from lagkit.dsl import parse
from lagkit.errors import DegenerateMetricError
from lagkit.geometry import (
    CHUNK,
    build_frame,
    codazzi_residual,
    gauss_residual,
    project,
    riemann_tensor,
    sectional_curvature,
    tangent_field,
)
from lagkit.sampling import sample_points


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
        cfg = SampleConfig()
        assert check_gauss(frames, cfg).passed
        dgamma = frames.dchristoffels.copy()
        dgamma[:, 0, 0, 1, 1] += self.DELTA  # d_0 Gamma^0_11
        entry = check_gauss(frames.replace(dchristoffels=dgamma), cfg)
        assert not entry.passed and entry.max_residual > 0.1 * self.DELTA


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


# -- the contractions against their einsum forms --------------------------------

# m = 3 with s > 0, which the catalog lacks
SPEC_M3_S2 = parse(
    "params x:[0.1,0.9], y:[0.1,0.9], z:[0.1,0.9];\nsignature 3 2;\n"
    "map x + i*exp(y), y*cosh(z) + i*x*z, 2*z + i*sin(x*y);\n"
)


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
    @pytest.mark.parametrize("name", list(catalog_names()) + ["m3_s2"])
    def test_frames_curvature_and_residuals(self, name, batch):
        spec = SPEC_M3_S2 if name == "m3_s2" else catalog(name)
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
