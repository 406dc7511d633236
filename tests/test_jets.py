"""Jet arithmetic against hand-derived expected values.

The frozen numbers in TestHandComputed were derived symbolically before the
implementation existed; do not regenerate them from the package itself.
"""

import cmath
import math
import re
from itertools import combinations_with_replacement
from types import SimpleNamespace

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
    @pytest.mark.parametrize(
        "build, error, message",
        [
            (lambda: Jet(2, 4, 0.0), ValueError, "jet order must be in 0..3, got 4"),
            (lambda: Jet(0, 1, 0.0), ValueError, "jet needs at least one variable, got 0"),
            (lambda: Jet.seed(2, 0.0, 2, 1), DimensionMismatchError,
             "seed index 2 out of range for 2 variables"),
            (lambda: Jet.seed(-1, 0.0, 2, 1), DimensionMismatchError,
             "seed index -1 out of range for 2 variables"),
        ],
        ids=["order-4", "no-variables", "seed-index-past-the-end", "seed-index-negative"],
    )
    def test_refuses_a_jet_it_cannot_build(self, build, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            build()

    def test_seed_blocks(self):
        u = Jet.seed(1, 3.5, 3, 2)
        assert u.value == 3.5
        np.testing.assert_array_equal(u.gradient, [0, 1, 0])
        np.testing.assert_array_equal(u.hessian, np.zeros((3, 3)))

    def test_order_zero_has_no_gradient(self):
        c = Jet(2, 0, 2.0)
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
        z = Jet(1, 1, 0.0)
        with pytest.raises(SingularEvaluationError):
            1.0 / z

    def test_division_near_zero_warns(self):
        z = Jet(1, 1, 1e-13)
        with pytest.warns(RuntimeWarning):
            1.0 / z

    def test_sqrt_of_negative(self):
        x = Jet(1, 1, -1.0)
        with pytest.raises(SingularEvaluationError):
            jets.sqrt(x)

    def test_csqrt_of_nonreal(self):
        z = Jet(1, 1, 1 + 1j)
        with pytest.raises(SingularEvaluationError):
            jets.sqrt(z)

    @pytest.mark.parametrize(
        "fn, values, message, row",
        [
            (lambda u: 1.0 / u, [1.0, 2.0, 0.0, 0.0], "division by 0j", 2),
            (jets.sqrt, [1.0, -1.0, 4.0, -2.0], "sqrt at non-positive or tiny value -1.0", 1),
            (jets.sqrt, [1.0, 4.0, 1j, 2j], "sqrt of a non-real expression", 2),
        ],
        ids=["division", "sqrt-negative", "sqrt-non-real"],
    )
    def test_a_guard_raises_with_the_row_of_its_first_offending_point(
        self, fn, values, message, row
    ):
        with pytest.raises(SingularEvaluationError) as info:
            fn(Jet.seed(0, np.array(values), 1, 3))
        assert (str(info.value), info.value.row) == (message, row)

    @pytest.mark.parametrize("fn", ["exp", "sin", "cos", "sinh", "cosh"])
    def test_overflow_at_one_point_raises_as_cmath_does(self, fn):
        big = 800j if fn in ("sin", "cos") else 800.0
        with pytest.raises(OverflowError, match="math range error"):
            getattr(cmath, fn)(big)
        # one error type for every guard, with cmath's message and the row of the point
        u = Jet(1, 1, np.array([0.5, big]))
        with np.errstate(all="ignore"), pytest.raises(SingularEvaluationError) as info:
            getattr(jets, fn)(u)
        assert str(info.value) == "math range error" and info.value.row == 1


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
        z = Jet(1, 2, 0.0) + 1j * t  # i t
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
        assert_jets_close(one, Jet(2, 3, 1.0), tol=1e-9)


# -- third-order blocks against the symmetrisation by three broadcasts ----------


def _sym_hess_grad(H, g):
    """H_ij g_k + H_ik g_j + g_i H_jk, one broadcast per placement of g."""
    return (
        H[..., :, :, None] * g[..., None, None, :]
        + H[..., :, None, :] * g[..., None, :, None]
        + g[..., :, None, None] * H[..., None, :, :]
    )


def reference_product_third(a, b):
    av, bv = a.value[..., None, None, None], b.value[..., None, None, None]
    return (
        av * b.third
        + bv * a.third
        + _sym_hess_grad(a.hessian, b.gradient)
        + _sym_hess_grad(b.hessian, a.gradient)
    )


def reference_compose_third(u, f1, f2, f3):
    """Third block of f(u) from the derivatives f1, f2, f3 of f at u's values."""
    g = u.gradient
    ggg = g[..., :, None, None] * g[..., None, :, None] * g[..., None, None, :]
    f1, f2, f3 = (f[..., None, None, None] for f in (f1, f2, f3))
    return f1 * u.third + f2 * _sym_hess_grad(u.hessian, g) + f3 * ggg


def random_jet(rng, batch, m, real=False):
    """A jet of order 3 at batch points with random derivative blocks: a cubic
    in coordinates seeded at zero, each monomial with a random constant jet
    as its coefficient."""

    def draw():
        x = rng.uniform(-1.0, 1.0, batch)
        return Jet(m, 3, x if real else x + 1j * rng.uniform(-1.0, 1.0, batch))

    seeds = [Jet.seed(i, np.zeros(batch), m, 3) for i in range(m)]
    jet = draw() + (2.0 if real else 0.0)  # sqrt needs positive values
    for k in (1, 2, 3):
        for monomial in combinations_with_replacement(seeds, k):
            term = draw()
            for seed in monomial:
                term = term * seed
            jet = jet + term
    return jet


def _assert_third_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestThirdOrderBlocks:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_product(self, m):
        rng = np.random.default_rng(m)
        a, b = random_jet(rng, 65, m), random_jet(rng, 65, m)
        _assert_third_close((a * b).third, reference_product_third(a, b))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exp_and_sin(self, m):
        u = random_jet(np.random.default_rng(10 + m), 65, m)
        e, s, c = np.exp(u.value), np.sin(u.value), np.cos(u.value)
        _assert_third_close(jets.exp(u).third, reference_compose_third(u, e, e, e))
        _assert_third_close(jets.sin(u).third, reference_compose_third(u, c, -s, -c))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sqrt(self, m):
        u = random_jet(np.random.default_rng(20 + m), 65, m, real=True)
        r = np.sqrt(u.value)
        want = reference_compose_third(u, 0.5 / r, -0.25 / r**3, 0.375 / r**5)
        _assert_third_close(jets.sqrt(u).third, want)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quotient(self, m):
        rng = np.random.default_rng(30 + m)
        a, b = random_jet(rng, 65, m), random_jet(rng, 65, m)
        b = b + 3.0  # values kept away from zero
        inv = 1.0 / b.value
        recip = SimpleNamespace(
            value=inv, gradient=(1.0 / b).gradient, hessian=(1.0 / b).hessian,
            third=reference_compose_third(b, -inv * inv, 2.0 * inv**3, -6.0 * inv**4),
        )
        _assert_third_close((a / b).third, reference_product_third(a, recip))


# -- kernels against the per-degree formulas, byte for byte --------------------


# numpy rounds a complex product of one element each over unequal axes
# ((1,) x (1, 1)) without the fused multiply-add of its other loops; the kernels
# give every factor the axes of the degree slabs, and so do these references,
# with the value as a row (1, B), so that one rounding holds for every shape.


def per_degree_product(a, b):
    """Degree k of a b as a0 bk + ak b0 + sum_{0<j<k} aj b(k-j), in that order."""
    out = [a[0] * b[0]]
    for k in range(1, len(a)):
        c = a[0][None] * b[k] + a[k] * b[0][None]
        for j in range(1, k):
            c += a[j] * b[k - j]
        out.append(c)
    return out


def per_degree_compose(u, f0, f1, f2, f3):
    """f(u) from the derivatives of f at u's values, one degree at a time."""
    out, (f1, f2, f3) = [f0], (f[None] for f in (f1, f2, f3))
    if len(u) > 1:
        out.append(f1 * u[1])
    if len(u) > 2:
        u1sq = u[1] * u[1]
        out.append(f1 * u[2] + 0.5 * f2 * u1sq)
    if len(u) > 3:
        third = f1 * u[3] + f2 * (u[1] * u[2])
        third += f3 / 6.0 * (u1sq * u[1])
        out.append(third)
    return out


def _bytes(coeffs):
    return [(np.shape(c), np.asarray(c).tobytes()) for c in coeffs]


_number = st.one_of(
    st.integers(-3, 3),
    st.floats(-3, 3, allow_nan=False),
    st.complex_numbers(max_magnitude=3, allow_nan=False, allow_infinity=False),
)


class TestKernels:
    @given(
        st.integers(1, 3), st.integers(0, 3), st.sampled_from([1, 5]),
        st.integers(0, 2**32 - 1), _number, _number,
    )
    @settings(max_examples=150, deadline=None)
    def test_per_degree_formulas_and_operands_untouched(self, m, order, batch, seed, c, d):
        rng = np.random.default_rng(seed)

        def drawn(shift):
            jet = Jet(m, order, shift + rng.normal(size=batch) + 1j * rng.normal(size=batch))
            jet.high[...] = rng.normal(size=jet.high.shape) + 1j * rng.normal(size=jet.high.shape)
            return jet

        a, b = drawn(0.0), drawn(4.0)  # b's values stay away from zero
        before = _bytes([a.value, a.high, b.value, b.high])
        shifted = a + c  # shares a.high
        scaled = d * (c - b)
        assert shifted.high is a.high
        assert _bytes((shifted * b).coeffs) == _bytes(per_degree_product(shifted.coeffs, b.coeffs))
        assert _bytes((scaled * shifted).coeffs) == _bytes(
            per_degree_product(scaled.coeffs, shifted.coeffs)
        )
        e, s, k = np.exp(shifted.value), np.sin(shifted.value), np.cos(shifted.value)
        assert _bytes(jets.exp(shifted).coeffs) == _bytes(
            per_degree_compose(shifted.coeffs, e, e, e, e)
        )
        assert _bytes(jets.sin(shifted).coeffs) == _bytes(
            per_degree_compose(shifted.coeffs, s, k, -s, -k)
        )
        inv = 1.0 / b.value
        want = per_degree_compose(b.coeffs, inv, -inv * inv, 2.0 * inv**3, -6.0 * inv**4)
        assert _bytes((1 / b).coeffs) == _bytes([1 * w for w in want])
        assert _bytes((shifted / b).coeffs) == _bytes(per_degree_product(shifted.coeffs, want))
        assert _bytes([a.value, a.high, b.value, b.high]) == before
