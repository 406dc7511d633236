"""Jet arithmetic against hand-derived expected values.

The frozen numbers in TestHandComputed were derived symbolically before the
implementation existed; do not regenerate them from the package itself.
"""

import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagkit import jets
from lagkit.errors import DimensionMismatchError, SingularEvaluationError
from lagkit.jets import Jet, ipow


def seeds_uv(u0=0.5, v0=2.0, order=3):
    return Jet.seed(0, u0, 2, order), Jet.seed(1, v0, 2, order)


class TestHandComputed:
    def test_polynomial_plus_sine(self):
        # f(u, v) = u^2 v + sin(u) at (0.5, 2.0)
        u, v = seeds_uv()
        f = u * u * v + jets.sin(u)
        s, c = math.sin(0.5), math.cos(0.5)
        assert f.value == pytest.approx(0.5 + s)
        np.testing.assert_allclose(f.gradient, [2.0 + c, 0.25])
        np.testing.assert_allclose(f.hessian, [[4.0 - s, 1.0], [1.0, 0.0]])
        expected_third = np.zeros((2, 2, 2))
        expected_third[0, 0, 0] = -c
        expected_third[0, 0, 1] = expected_third[0, 1, 0] = expected_third[1, 0, 0] = 2.0
        np.testing.assert_allclose(f.third, expected_third, atol=1e-15)

    def test_quotient(self):
        # g(u, v) = u / v at (0.5, 2.0)
        u, v = seeds_uv()
        g = u / v
        assert g.value == pytest.approx(0.25)
        np.testing.assert_allclose(g.gradient, [0.5, -0.125])
        np.testing.assert_allclose(g.hessian, [[0.0, -0.25], [-0.25, 0.125]])
        expected_third = np.zeros((2, 2, 2))
        # d3/dv3 (u/v) = -6u/v^4; mixed dd/du dv dv = 2/v^3
        expected_third[1, 1, 1] = -0.1875
        expected_third[0, 1, 1] = expected_third[1, 0, 1] = expected_third[1, 1, 0] = 0.25
        np.testing.assert_allclose(g.third, expected_third, atol=1e-15)

    def test_single_variable_transcendentals(self):
        x0 = 0.3
        x = Jet.seed(0, x0, 1, 3)
        e = jets.exp(x)
        for block, want in [
            (e.value, math.exp(x0)),
            (e.gradient[0], math.exp(x0)),
            (e.hessian[0, 0], math.exp(x0)),
            (e.third[0, 0, 0], math.exp(x0)),
        ]:
            assert block == pytest.approx(want)
        s = jets.sin(x)
        assert s.gradient[0] == pytest.approx(math.cos(x0))
        assert s.hessian[0, 0] == pytest.approx(-math.sin(x0))
        assert s.third[0, 0, 0] == pytest.approx(-math.cos(x0))
        ch = jets.cosh(x)
        assert ch.gradient[0] == pytest.approx(math.sinh(x0))
        assert ch.third[0, 0, 0] == pytest.approx(math.sinh(x0))

    def test_sqrt_derivatives(self):
        x = Jet.seed(0, 2.0, 1, 3)
        r = jets.sqrt(x)
        assert r.value == pytest.approx(math.sqrt(2))
        assert r.gradient[0] == pytest.approx(1 / (2 * math.sqrt(2)))
        assert r.hessian[0, 0] == pytest.approx(-1 / (4 * 2**1.5))
        assert r.third[0, 0, 0] == pytest.approx(3 / (8 * 2**2.5))

    def test_integer_powers(self):
        x = Jet.seed(0, 1.2, 1, 3)
        p = ipow(x, 5)
        assert p.value == pytest.approx(1.2**5)
        assert p.gradient[0] == pytest.approx(5 * 1.2**4)
        assert p.hessian[0, 0] == pytest.approx(20 * 1.2**3)
        assert p.third[0, 0, 0] == pytest.approx(60 * 1.2**2)

    def test_negative_power_via_reciprocal(self):
        x = Jet.seed(0, 2.0, 1, 3)
        p = ipow(x, -2)
        assert p.value == pytest.approx(0.25)
        assert p.gradient[0] == pytest.approx(-0.25)
        assert p.hessian[0, 0] == pytest.approx(0.375)
        assert p.third[0, 0, 0] == pytest.approx(-0.75)

    def test_zeroth_power_is_one(self):
        x = Jet.seed(0, 0.7, 1, 2)
        p = ipow(x, 0)
        assert p.value == 1.0
        np.testing.assert_array_equal(p.gradient, [0.0])


class TestStructure:
    def test_seed_blocks(self):
        u = Jet.seed(1, 3.5, 3, 2)
        assert u.value == 3.5
        np.testing.assert_array_equal(u.gradient, [0, 1, 0])
        np.testing.assert_array_equal(u.hessian, np.zeros((3, 3)))

    def test_order_zero_has_no_gradient(self):
        c = Jet.constant(2.0, 2, 0)
        assert c.gradient is None and c.hessian is None and c.third is None

    def test_incompatible_jets_rejected(self):
        a = Jet.seed(0, 1.0, 2, 2)
        b = Jet.seed(0, 1.0, 3, 2)
        with pytest.raises(DimensionMismatchError):
            a + b

    def test_scalar_mixing(self):
        u, _ = seeds_uv(order=2)
        f = 2.0 * u + 1.0 - u / 2
        assert f.value == pytest.approx(2.0 * 0.5 + 1.0 - 0.25)
        assert f.gradient[0] == pytest.approx(1.5)

    def test_rtruediv(self):
        u, _ = seeds_uv(order=2)
        f = 1.0 / u
        assert f.value == pytest.approx(2.0)
        assert f.gradient[0] == pytest.approx(-4.0)


class TestGuards:
    def test_division_by_exact_zero(self):
        z = Jet.constant(0.0, 1, 1)
        with pytest.raises(SingularEvaluationError):
            1.0 / z

    def test_division_near_zero_warns(self):
        z = Jet.constant(1e-13, 1, 1)
        with pytest.warns(RuntimeWarning):
            1.0 / z

    def test_sqrt_of_negative(self):
        x = Jet.constant(-1.0, 1, 1)
        with pytest.raises(SingularEvaluationError):
            jets.sqrt(x)

    def test_csqrt_of_nonreal(self):
        z = Jet.constant(1 + 1j, 1, 1)
        with pytest.raises(SingularEvaluationError):
            jets.sqrt(z)

    @pytest.mark.parametrize("fn", ["exp", "sin", "cos", "sinh", "cosh"])
    def test_overflow_at_one_point_raises_as_cmath_does(self, fn):
        big = 800j if fn in ("sin", "cos") else 800.0
        with pytest.raises(OverflowError, match="math range error"):
            getattr(cmath, fn)(big)
        u = Jet(1, 1, np.array([0.5, big]))
        with np.errstate(all="ignore"), pytest.raises(OverflowError, match="math range error"):
            getattr(jets, fn)(u)


class TestComplexJets:
    def test_square(self):
        u, v = seeds_uv(order=2)
        z = u + 1j * v
        w = z * z
        assert w.value == pytest.approx((0.5 + 2j) ** 2)
        np.testing.assert_allclose(w.gradient.real, [1.0, -4.0])
        np.testing.assert_allclose(w.gradient.imag, [4.0, 1.0])

    def test_division_inverts_multiplication(self):
        u, v = seeds_uv(order=3)
        z = u + 1j * v
        w = jets.sin(u) + 1j * jets.exp(v)
        q = (z * w) / w
        assert q.value == pytest.approx(z.value)
        np.testing.assert_allclose(q.gradient.real, z.gradient.real, atol=1e-12)
        np.testing.assert_allclose(q.hessian.imag, z.hessian.imag, atol=1e-12)

    def test_cexp_on_imaginary_axis(self):
        t = Jet.seed(0, 0.7, 1, 2)
        z = Jet.constant(0.0, 1, 2) + 1j * t  # i t
        w = jets.exp(z)
        assert w.value == pytest.approx(complex(math.cos(0.7), math.sin(0.7)))
        # d/dt e^{it} = i e^{it}
        assert w.gradient.real[0] == pytest.approx(-math.sin(0.7))
        assert w.gradient.imag[0] == pytest.approx(math.cos(0.7))

    def test_csqrt_of_real_square(self):
        u, _ = seeds_uv(order=2)
        z = u * u + 1.0
        r = jets.sqrt(z)
        assert r.value == pytest.approx(math.sqrt(1.25))
        assert r.value.imag == 0.0

    def test_cipow(self):
        u, v = seeds_uv(order=2)
        z = u + 1j * v
        w = ipow(z, 3)
        assert w.value == pytest.approx((0.5 + 2j) ** 3)
        np.testing.assert_allclose((z * z * z).hessian.real, w.hessian.real, atol=1e-12)


coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)


def poly_jet(c0, c1, c2, c3, order=3):
    u, v = seeds_uv(0.37, 1.21, order)
    return c0 + c1 * u + c2 * v + c3 * (u * v) + 0.5 * (u * u)


def assert_jets_close(a, b, tol=1e-9):
    assert a.value == pytest.approx(b.value, abs=tol)
    np.testing.assert_allclose(a.gradient, b.gradient, atol=tol)
    np.testing.assert_allclose(a.hessian, b.hessian, atol=tol)
    np.testing.assert_allclose(a.third, b.third, atol=tol)


class TestAlgebraicLaws:
    @given(coeff, coeff, coeff, coeff, coeff, coeff)
    @settings(max_examples=40, deadline=None)
    def test_mul_commutes_and_associates(self, a0, a1, a2, b0, b1, b2):
        a = poly_jet(a0, a1, a2, b0)
        b = poly_jet(b1, b2, a0, a1)
        c = poly_jet(b2, a2, b0, b1)
        assert_jets_close(a * b, b * a, tol=1e-12)
        assert_jets_close((a * b) * c, a * (b * c), tol=1e-8)

    @given(coeff, coeff, coeff, coeff)
    @settings(max_examples=40, deadline=None)
    def test_distributive(self, a0, a1, b0, b1):
        a = poly_jet(a0, a1, b0, b1)
        b = poly_jet(b0, b1, a0, a1)
        c = poly_jet(a1, b0, b1, a0)
        assert_jets_close(a * (b + c), a * b + a * c, tol=1e-9)

    @given(coeff, coeff)
    @settings(max_examples=30, deadline=None)
    def test_exp_is_a_homomorphism(self, a0, a1):
        a = poly_jet(a0, a1, 0.1, -0.2)
        b = poly_jet(a1, -a0, 0.3, 0.1)
        assert_jets_close(jets.exp(a + b), jets.exp(a) * jets.exp(b), tol=1e-6)

    @given(coeff, coeff)
    @settings(max_examples=30, deadline=None)
    def test_sin_sq_plus_cos_sq(self, a0, a1):
        a = poly_jet(a0, a1, -0.4, 0.2)
        one = jets.sin(a) * jets.sin(a) + jets.cos(a) * jets.cos(a)
        assert_jets_close(one, Jet.constant(1.0, 2, 3), tol=1e-9)
