"""Jet arithmetic against hand-derived expected values.

The frozen numbers in TestHandComputed were derived symbolically before the
implementation existed; do not regenerate them from the package itself.
They are checked through evaluate_map_jets of parsed maps; the other tests
call the kernels on (value, high) pairs directly, with jets._seeds for the
coordinates and jets._interpolate for the derivative blocks.
"""

import cmath
import math
import re
from itertools import combinations_with_replacement

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagkit import jets
from lagkit.dsl import evaluate_map_jets, parse
from lagkit.errors import SingularEvaluationError

_add, _mul, _div = (jets._OPERATORS[op, (1, 1)] for op in "+*/")


def map_jets(text, point, order=3, params="u:[0,1], v:[1,3]"):
    """The blocks (value, gradient, hessian, third) up to order of the
    one-component map text at one point."""
    spec = parse(f"params {params};\nsignature 1 0;\nmap {text};\n")
    return [t[0, ..., 0] for t in evaluate_map_jets(spec, point, order)]


def seeds(points, order=3):
    """The coordinate jets at points (B, m), as (value, high) pairs."""
    values, highs = jets._seeds(np.array(points, dtype=float, ndmin=2), order)
    return list(zip(values, highs))


def coordinate(values, order=3):
    """The one-variable jet of x at values (B,), shifted by their imaginary
    parts where they are complex."""
    values = np.atleast_1d(values)
    ((x, high),) = seeds(values.real[:, None], order)
    return (x + 1j * values.imag if np.iscomplexobj(values) else x), high


def constant(values, m, order=3):
    """The jet of m variables with the given values (B,), every derivative zero."""
    values = np.asarray(values)
    high = np.zeros((order, len(jets._directions(m, max(order, 1))), len(values)), values.dtype)
    return values[None, None], high


def blocks(u, m, order=3):
    """(value, gradient, hessian, third) up to order of the pair u over its
    B points: (B,), (B, m), (B, m, m), (B, m, m, m)."""
    return [b[..., 0] for b in jets._interpolate(m, order, np.size(u[0]), [u])]


class TestHandComputed:
    def test_polynomial_plus_sine(self):
        # f(u, v) = u^2 v + sin(u) at (0.5, 2.0)
        value, gradient, hessian, third = map_jets("u*u*v + sin(u)", (0.5, 2.0))
        s, c = math.sin(0.5), math.cos(0.5)
        assert value == pytest.approx(0.5 + s)
        np.testing.assert_allclose(gradient, [2.0 + c, 0.25])
        np.testing.assert_allclose(hessian, [[4.0 - s, 1.0], [1.0, 0.0]])
        expected_third = np.zeros((2, 2, 2))
        expected_third[0, 0, 0] = -c
        expected_third[0, 0, 1] = expected_third[0, 1, 0] = expected_third[1, 0, 0] = 2.0
        np.testing.assert_allclose(third, expected_third, atol=1e-15)

    def test_quotient(self):
        # g(u, v) = u / v at (0.5, 2.0)
        value, gradient, hessian, third = map_jets("u/v", (0.5, 2.0))
        assert value == pytest.approx(0.25)
        np.testing.assert_allclose(gradient, [0.5, -0.125])
        np.testing.assert_allclose(hessian, [[0.0, -0.25], [-0.25, 0.125]])
        expected_third = np.zeros((2, 2, 2))
        # d3/dv3 (u/v) = -6u/v^4; mixed dd/du dv dv = 2/v^3
        expected_third[1, 1, 1] = -0.1875
        expected_third[0, 1, 1] = expected_third[1, 0, 1] = expected_third[1, 1, 0] = 0.25
        np.testing.assert_allclose(third, expected_third, atol=1e-15)

    def test_single_variable_transcendentals(self):
        x0 = 0.3
        e = map_jets("exp(x)", (x0,), params="x:[0,1]")
        for block, want in [
            (e[0], math.exp(x0)),
            (e[1][0], math.exp(x0)),
            (e[2][0, 0], math.exp(x0)),
            (e[3][0, 0, 0], math.exp(x0)),
        ]:
            assert block == pytest.approx(want)
        _, gradient, hessian, third = map_jets("sin(x)", (x0,), params="x:[0,1]")
        assert gradient[0] == pytest.approx(math.cos(x0))
        assert hessian[0, 0] == pytest.approx(-math.sin(x0))
        assert third[0, 0, 0] == pytest.approx(-math.cos(x0))
        _, gradient, _, third = map_jets("cosh(x)", (x0,), params="x:[0,1]")
        assert gradient[0] == pytest.approx(math.sinh(x0))
        assert third[0, 0, 0] == pytest.approx(math.sinh(x0))

    def test_sqrt_derivatives(self):
        value, gradient, hessian, third = map_jets("sqrt(x)", (2.0,), params="x:[1,3]")
        assert value == pytest.approx(math.sqrt(2))
        assert gradient[0] == pytest.approx(1 / (2 * math.sqrt(2)))
        assert hessian[0, 0] == pytest.approx(-1 / (4 * 2**1.5))
        assert third[0, 0, 0] == pytest.approx(3 / (8 * 2**2.5))

    def test_integer_powers(self):
        value, gradient, hessian, third = map_jets("x^5", (1.2,), params="x:[1,2]")
        assert value == pytest.approx(1.2**5)
        assert gradient[0] == pytest.approx(5 * 1.2**4)
        assert hessian[0, 0] == pytest.approx(20 * 1.2**3)
        assert third[0, 0, 0] == pytest.approx(60 * 1.2**2)

    def test_negative_power_via_reciprocal(self):
        value, gradient, hessian, third = map_jets("x^-2", (2.0,), params="x:[1,3]")
        assert value == pytest.approx(0.25)
        assert gradient[0] == pytest.approx(-0.25)
        assert hessian[0, 0] == pytest.approx(0.375)
        assert third[0, 0, 0] == pytest.approx(-0.75)

    def test_zeroth_power_is_one(self):
        value, gradient, _ = map_jets("x^0", (0.7,), order=2, params="x:[0,1]")
        assert value == 1.0
        np.testing.assert_array_equal(gradient, [0.0])


class TestStructure:
    def test_refuses_an_order_past_three(self):
        spec = parse("params u:[0,1], v:[1,3];\nsignature 1 0;\nmap u;\n")
        message = "jet order must be in 0..3, got 4"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            evaluate_map_jets(spec, (0.5, 2.0), 4)

    def test_seed_blocks(self):
        u = seeds([(0.0, 3.5, 0.0)], order=2)[1]
        value, gradient, hessian = blocks(u, 3, order=2)
        assert value == 3.5
        np.testing.assert_array_equal(gradient, [[0, 1, 0]])
        np.testing.assert_array_equal(hessian, np.zeros((1, 3, 3)))

    def test_order_zero_has_no_gradient(self):
        assert len(map_jets("u", (0.5, 2.0), order=0)) == 1

    def test_scalar_mixing(self):
        value, gradient = map_jets("2*u + 1 - u/2", (0.5, 2.0), order=2)[:2]
        assert value == pytest.approx(2.0 * 0.5 + 1.0 - 0.25)
        assert gradient[0] == pytest.approx(1.5)

    def test_rtruediv(self):
        value, gradient = map_jets("1/u", (0.5, 2.0), order=2)[:2]
        assert value == pytest.approx(2.0)
        assert gradient[0] == pytest.approx(-4.0)


def _reciprocal_of(u):
    return jets._OPERATORS["/", (0, 1)](1.0, u)


class TestGuards:
    def test_division_by_exact_zero(self):
        with pytest.raises(SingularEvaluationError):
            _reciprocal_of(coordinate(0.0, 1))

    def test_division_near_zero_warns(self):
        with pytest.warns(RuntimeWarning):
            _reciprocal_of(coordinate(1e-13, 1))

    def test_sqrt_of_negative(self):
        with pytest.raises(SingularEvaluationError):
            jets._sqrt(coordinate(-1.0, 1))

    def test_csqrt_of_nonreal(self):
        with pytest.raises(SingularEvaluationError):
            jets._sqrt(coordinate(1 + 1j, 1))

    @pytest.mark.parametrize(
        "fn, values, message, row",
        [
            (_reciprocal_of, [1.0, 2.0, 0.0, 0.0], "division by 0j", 2),
            (jets._sqrt, [1.0, -1.0, 4.0, -2.0], "sqrt at non-positive or tiny value -1.0", 1),
            (jets._sqrt, [1.0, 4.0, 1j, 2j], "sqrt of a non-real expression", 2),
        ],
        ids=["division", "sqrt-negative", "sqrt-non-real"],
    )
    def test_a_guard_raises_with_the_row_of_its_first_offending_point(
        self, fn, values, message, row
    ):
        with pytest.raises(SingularEvaluationError) as info:
            fn(coordinate(np.array(values)))
        assert (str(info.value), info.value.row) == (message, row)

    @pytest.mark.parametrize("fn", ["exp", "sin", "cos", "sinh", "cosh"])
    def test_overflow_at_one_point_raises_as_cmath_does(self, fn):
        big = 800j if fn in ("sin", "cos") else 800.0
        with pytest.raises(OverflowError, match="math range error"):
            getattr(cmath, fn)(big)
        # one error type for every guard, with cmath's message and the row of the point
        u = constant(np.array([0.5, big]), 1, order=1)
        with np.errstate(all="ignore"), pytest.raises(SingularEvaluationError) as info:
            getattr(jets, f"_{fn}")(u)
        assert str(info.value) == "math range error" and info.value.row == 1


_Z = "(u + i*v)"


class TestComplexJets:
    def test_square(self):
        value, gradient = map_jets(f"{_Z}*{_Z}", (0.5, 2.0), order=2)[:2]
        assert value == pytest.approx((0.5 + 2j) ** 2)
        np.testing.assert_allclose(gradient.real, [1.0, -4.0])
        np.testing.assert_allclose(gradient.imag, [4.0, 1.0])

    def test_division_inverts_multiplication(self):
        w = "(sin(u) + i*exp(v))"
        q = map_jets(f"({_Z}*{w})/{w}", (0.5, 2.0))
        z = map_jets(_Z, (0.5, 2.0))
        assert q[0] == pytest.approx(z[0])
        np.testing.assert_allclose(q[1].real, z[1].real, atol=1e-12)
        np.testing.assert_allclose(q[2].imag, z[2].imag, atol=1e-12)

    def test_cexp_on_imaginary_axis(self):
        value, gradient = map_jets("exp(i*t)", (0.7,), order=2, params="t:[0,1]")[:2]
        assert value == pytest.approx(complex(math.cos(0.7), math.sin(0.7)))
        # d/dt e^{it} = i e^{it}
        assert gradient.real[0] == pytest.approx(-math.sin(0.7))
        assert gradient.imag[0] == pytest.approx(math.cos(0.7))

    def test_csqrt_of_real_square(self):
        value = map_jets("sqrt(u*u + 1)", (0.5, 2.0), order=2)[0]
        assert value == pytest.approx(math.sqrt(1.25))
        assert value.imag == 0.0

    def test_cipow(self):
        value, _, hessian = map_jets(f"{_Z}^3", (0.5, 2.0), order=2)
        assert value == pytest.approx((0.5 + 2j) ** 3)
        cube = map_jets(f"{_Z}*{_Z}*{_Z}", (0.5, 2.0), order=2)[2]
        np.testing.assert_allclose(cube.real, hessian.real, atol=1e-12)


coeff = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False, width=32)


def poly_jet(c0, c1, c2, c3, order=3):
    """c0 + c1 u + c2 v + c3 u v + u^2 / 2 at (0.37, 1.21)."""
    u, v = seeds([(0.37, 1.21)], order)
    out = _add(jets._scaled(c1, u), jets._scaled(c2, v))
    out = _add(out, jets._scaled(c3, _mul(u, v)))
    out = _add(out, jets._scaled(0.5, _mul(u, u)))
    return jets._OPERATORS["+", (0, 1)](c0, out)


def assert_jets_close(a, b, tol=1e-9):
    (value, *derivatives), (want, *wanted) = blocks(a, 2), blocks(b, 2)
    assert value == pytest.approx(want, abs=tol)
    for got, want in zip(derivatives, wanted):
        np.testing.assert_allclose(got, want, atol=tol)


class TestAlgebraicLaws:
    @given(coeff, coeff, coeff, coeff, coeff, coeff)
    @settings(max_examples=40, deadline=None)
    def test_mul_commutes_and_associates(self, a0, a1, a2, b0, b1, b2):
        a = poly_jet(a0, a1, a2, b0)
        b = poly_jet(b1, b2, a0, a1)
        c = poly_jet(b2, a2, b0, b1)
        assert_jets_close(_mul(a, b), _mul(b, a), tol=1e-12)
        assert_jets_close(_mul(_mul(a, b), c), _mul(a, _mul(b, c)), tol=1e-8)

    @given(coeff, coeff, coeff, coeff)
    @settings(max_examples=40, deadline=None)
    def test_distributive(self, a0, a1, b0, b1):
        a = poly_jet(a0, a1, b0, b1)
        b = poly_jet(b0, b1, a0, a1)
        c = poly_jet(a1, b0, b1, a0)
        assert_jets_close(_mul(a, _add(b, c)), _add(_mul(a, b), _mul(a, c)), tol=1e-9)

    @given(coeff, coeff)
    @settings(max_examples=30, deadline=None)
    def test_exp_is_a_homomorphism(self, a0, a1):
        a = poly_jet(a0, a1, 0.1, -0.2)
        b = poly_jet(a1, -a0, 0.3, 0.1)
        assert_jets_close(jets._exp(_add(a, b)), _mul(jets._exp(a), jets._exp(b)), tol=1e-6)

    @given(coeff, coeff)
    @settings(max_examples=30, deadline=None)
    def test_sin_sq_plus_cos_sq(self, a0, a1):
        a = poly_jet(a0, a1, -0.4, 0.2)
        s, c = jets._sin(a), jets._cos(a)
        assert_jets_close(_add(_mul(s, s), _mul(c, c)), constant([1.0], 2), tol=1e-9)


# -- third-order blocks against the symmetrisation by three broadcasts ----------


def _sym_hess_grad(H, g):
    """H_ij g_k + H_ik g_j + g_i H_jk, one broadcast per placement of g."""
    return (
        H[..., :, :, None] * g[..., None, None, :]
        + H[..., :, None, :] * g[..., None, :, None]
        + g[..., :, None, None] * H[..., None, :, :]
    )


def reference_product_third(a, b):
    """Third block of a b from the blocks of a and b."""
    (av, ag, ah, at), (bv, bg, bh, bt) = a, b
    av, bv = av[..., None, None, None], bv[..., None, None, None]
    return av * bt + bv * at + _sym_hess_grad(ah, bg) + _sym_hess_grad(bh, ag)


def reference_compose_third(u, f1, f2, f3):
    """Third block of f(u) from the blocks of u and the derivatives f1, f2, f3
    of f at u's values."""
    _, g, hessian, third = u
    ggg = g[..., :, None, None] * g[..., None, :, None] * g[..., None, None, :]
    f1, f2, f3 = (f[..., None, None, None] for f in (f1, f2, f3))
    return f1 * third + f2 * _sym_hess_grad(hessian, g) + f3 * ggg


def random_jet(rng, batch, m, real=False):
    """A jet of order 3 at batch points with random derivative blocks: a cubic
    in coordinates seeded at zero, each monomial with random values as its
    coefficient."""

    def draw():
        x = rng.uniform(-1.0, 1.0, batch)
        return x if real else x + 1j * rng.uniform(-1.0, 1.0, batch)

    coordinates = seeds(np.zeros((batch, m)))
    jet = constant(draw() + (2.0 if real else 0.0), m)  # sqrt needs positive values
    for k in (1, 2, 3):
        for monomial in combinations_with_replacement(coordinates, k):
            term = monomial[0]
            for seed in monomial[1:]:
                term = _mul(term, seed)
            jet = _add(jet, jets._scaled(draw(), term))
    return jet


def _assert_third_close(got, want):
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.abs(want).max())


class TestThirdOrderBlocks:
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_product(self, m):
        rng = np.random.default_rng(m)
        a, b = random_jet(rng, 65, m), random_jet(rng, 65, m)
        want = reference_product_third(blocks(a, m), blocks(b, m))
        _assert_third_close(blocks(_mul(a, b), m)[3], want)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_exp_and_sin(self, m):
        u = random_jet(np.random.default_rng(10 + m), 65, m)
        ub = blocks(u, m)
        e, s, c = np.exp(ub[0]), np.sin(ub[0]), np.cos(ub[0])
        _assert_third_close(blocks(jets._exp(u), m)[3], reference_compose_third(ub, e, e, e))
        _assert_third_close(blocks(jets._sin(u), m)[3], reference_compose_third(ub, c, -s, -c))

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_sqrt(self, m):
        u = random_jet(np.random.default_rng(20 + m), 65, m, real=True)
        ub = blocks(u, m)
        r = np.sqrt(ub[0])
        want = reference_compose_third(ub, 0.5 / r, -0.25 / r**3, 0.375 / r**5)
        _assert_third_close(blocks(jets._sqrt(u), m)[3], want)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_quotient(self, m):
        rng = np.random.default_rng(30 + m)
        a, b = random_jet(rng, 65, m), random_jet(rng, 65, m)
        b = jets._OPERATORS["+", (1, 0)](b, 3.0)  # values kept away from zero
        bb = blocks(b, m)
        inv = 1.0 / bb[0]
        recip = blocks(_reciprocal_of(b), m)
        recip[3] = reference_compose_third(bb, -inv * inv, 2.0 * inv**3, -6.0 * inv**4)
        want = reference_product_third(blocks(a, m), [inv, *recip[1:]])
        _assert_third_close(blocks(_div(a, b), m)[3], want)


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
        third += f3 * (1.0 / 6.0) * (u1sq * u[1])
        out.append(third)
    return out


def coeffs(u):
    """(value (B,), degree 1 (D, B), ..., degree order) of the pair u."""
    return (u[0][0, 0], *u[1])


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
            value, high = constant(
                shift + rng.normal(size=batch) + 1j * rng.normal(size=batch), m, order
            )
            high[...] = rng.normal(size=high.shape) + 1j * rng.normal(size=high.shape)
            return value, high

        a, b = drawn(0.0), drawn(4.0)  # b's values stay away from zero
        before = _bytes([*a, *b])
        shifted = jets._OPERATORS["+", (1, 0)](a, c)  # shares a's high
        scaled = jets._OPERATORS["*", (0, 1)](d, jets._OPERATORS["-", (0, 1)](c, b))
        assert shifted[1] is a[1]
        assert _bytes(coeffs(_mul(shifted, b))) == _bytes(
            per_degree_product(coeffs(shifted), coeffs(b))
        )
        assert _bytes(coeffs(_mul(scaled, shifted))) == _bytes(
            per_degree_product(coeffs(scaled), coeffs(shifted))
        )
        v = coeffs(shifted)[0]
        e, s, k = np.exp(v), np.sin(v), np.cos(v)
        assert _bytes(coeffs(jets._exp(shifted))) == _bytes(
            per_degree_compose(coeffs(shifted), e, e, e, e)
        )
        assert _bytes(coeffs(jets._sin(shifted))) == _bytes(
            per_degree_compose(coeffs(shifted), s, k, -s, -k)
        )
        inv = 1.0 / coeffs(b)[0]
        sq = inv * inv
        want = per_degree_compose(coeffs(b), inv, -sq, 2.0 * (sq * inv), -6.0 * (sq * sq))
        assert _bytes(coeffs(jets._OPERATORS["/", (0, 1)](1, b))) == _bytes([1 * w for w in want])
        assert _bytes(coeffs(_div(shifted, b))) == _bytes(per_degree_product(coeffs(shifted), want))
        assert _bytes([*a, *b]) == before
