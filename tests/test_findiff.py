"""The finite-difference oracle itself, pinned against closed forms.

These expected derivatives were worked out by hand; the oracle must hit them
before it is trusted to cross-check the jet evaluator anywhere else.
"""

import cmath
import itertools
import re

import numpy as np
import pytest

from lagkit import findiff, jets
from lagkit.catalog import catalog, catalog_names
from lagkit.dsl import parse
from lagkit.errors import DomainError, SingularEvaluationError
from lagkit.findiff import (
    eval_map_numeric,
    finite_difference_oracle,
    jet_fd_deviation,
)
from lagkit.sampling import sample_points


EXP_SPEC = parse("params u:[-3,3];\nsignature 1 0;\nmap exp(i*u);\n")
U2V_SPEC = parse("params u:[-1,1], v:[-1,1];\nsignature 1 0;\nmap u^2*v;\n")


# Reference oracle: one nested 4-point stencil per ordered index tuple, every
# stencil point evaluated on its own.  The memoized array oracle must match it
# bit for bit.
_OFFSETS = (-2.0, -1.0, 1.0, 2.0)
_WEIGHTS = (1.0, -8.0, 8.0, -1.0)
_NORM = 12.0


def _central(f, x: np.ndarray, axes: tuple[int, ...], h: float) -> np.ndarray:
    if not axes:
        return f(x)
    i, rest = axes[0], axes[1:]
    acc = None
    for off, w in zip(_OFFSETS, _WEIGHTS):
        xp = x.copy()
        xp[i] += off * h
        term = w * _central(f, xp, rest, h)
        acc = term if acc is None else acc + term
    return acc / (_NORM * h)


def nested_oracle(spec, point, order, step):
    m = spec.num_params
    x = np.asarray(point, dtype=float)

    def f(pt):
        return findiff.eval_map_numeric(spec, pt)

    out = {0: f(x)}
    for k in range(1, order + 1):
        tensors = [_central(f, x, axes, step) for axes in itertools.product(range(m), repeat=k)]
        out[k] = np.array(tensors).reshape((m,) * k + (-1,))
    return out


class TestOracleAgainstClosedForms:
    def test_exponential_derivatives(self):
        # d^k/du^k e^{iu} = i^k e^{iu}, checked at u = 0.4
        u = 0.4
        out = finite_difference_oracle(EXP_SPEC, (u,), order=3, step=1e-2)
        base = cmath.exp(1j * u)
        assert out[0][0] == pytest.approx(base, abs=1e-12)
        assert out[1][0, 0] == pytest.approx(1j * base, abs=1e-8)
        assert out[2][0, 0, 0] == pytest.approx(-base, abs=1e-8)
        assert out[3][0, 0, 0, 0] == pytest.approx(-1j * base, abs=1e-6)

    def test_polynomial_first_derivative_is_near_exact(self):
        # the 4-point stencil differentiates quartics exactly up to roundoff
        spec = parse("params u:[-2,2];\nsignature 1 0;\nmap u^4 + 2*u^2;\n")
        out = finite_difference_oracle(spec, (0.5,), order=1, step=0.1)
        assert out[1][0, 0] == pytest.approx(4 * 0.5**3 + 4 * 0.5, abs=1e-12)

    def test_mixed_partial(self):
        # f = u^2 v  =>  d2f/du dv = 2u
        out = finite_difference_oracle(U2V_SPEC, (0.3, -0.2), order=2, step=1e-3)
        assert out[2][0, 1, 0] == pytest.approx(0.6, abs=1e-9)
        assert out[2][1, 0, 0] == pytest.approx(0.6, abs=1e-9)


def test_oracle_runs_without_jet_arithmetic(monkeypatch):
    def refuse(*args):
        raise AssertionError("the finite-difference oracle multiplied jets")

    monkeypatch.setattr(jets.Jet, "__mul__", refuse)
    monkeypatch.setattr(jets.Jet, "__rmul__", refuse)
    closed_forms = TestOracleAgainstClosedForms()
    closed_forms.test_exponential_derivatives()
    closed_forms.test_polynomial_first_derivative_is_near_exact()
    closed_forms.test_mixed_partial()


def _identity_cases():
    product = catalog("product_S1xS2")
    points = sample_points(product, 2, seed=7, extra_margin=0.31)
    for step in (1e-2, 0.05):
        yield pytest.param(EXP_SPEC, (0.4,), step, id=f"exp-{step:g}")
        yield pytest.param(U2V_SPEC, (0.3, -0.2), step, id=f"u2v-{step:g}")
        for i, pt in enumerate(points):
            yield pytest.param(product, pt, step, id=f"product_S1xS2-{i}-{step:g}")


class TestStencilSharing:
    @pytest.mark.parametrize("order", [1, 2, 3])
    @pytest.mark.parametrize("spec,point,step", list(_identity_cases()))
    def test_bit_identical_to_nested_stencils(self, spec, point, step, order):
        got = finite_difference_oracle(spec, point, order, step)
        want = nested_oracle(spec, point, order, step)
        assert got.keys() == want.keys()
        for k in want:
            assert got[k].shape == want[k].shape, k
            assert got[k].dtype == want[k].dtype, k
            assert got[k].tobytes() == want[k].tobytes(), k

    def test_each_stencil_point_evaluated_once(self, monkeypatch):
        spec = catalog("product_S1xS2")
        pt = sample_points(spec, 1, seed=3, extra_margin=0.062)[0]
        seen = []

        def counting(spec, point):
            seen.append(np.asarray(point, dtype=float).tobytes())
            return eval_map_numeric(spec, point)

        monkeypatch.setattr(findiff, "eval_map_numeric", counting)
        nested_oracle(spec, pt, 3, 1e-2)
        requested, seen[:] = list(seen), []
        finite_difference_oracle(spec, pt, 3, 1e-2)
        assert len(requested) == 1885
        # each distinct point once, in the order the nested stencils first ask for it
        assert seen == list(dict.fromkeys(requested))
        assert len(seen) <= 300

    @pytest.mark.parametrize("order", [1, 2, 3])
    def test_first_failing_point_is_reported(self, order):
        spec = parse("params u:[0,1], v:[0,2];\nsignature 2 0;\nmap exp(1000*u*v), v;\n")
        message = "map cannot be evaluated at (0.715, 0.999): math range error"
        with pytest.raises(SingularEvaluationError, match=re.escape(message)):
            finite_difference_oracle(spec, (0.705, 0.999), order, 1e-2)


class TestDomainGuard:
    def test_stencil_must_fit(self):
        with pytest.raises(DomainError):
            finite_difference_oracle(EXP_SPEC, (2.999,), order=1, step=1e-2)

    def test_eval_checks_domain(self):
        with pytest.raises(DomainError):
            eval_map_numeric(EXP_SPEC, (3.5,))

    def test_bad_order_and_step(self):
        with pytest.raises(ValueError):
            finite_difference_oracle(EXP_SPEC, (0.0,), order=4, step=1e-2)
        with pytest.raises(ValueError):
            finite_difference_oracle(EXP_SPEC, (0.0,), order=1, step=0.0)


class TestJetsAgainstOracle:
    @pytest.mark.parametrize("name", catalog_names())
    def test_low_orders_everywhere(self, name):
        spec = catalog(name)
        for pt in sample_points(spec, 3, seed=11, extra_margin=2.5e-4):
            dev = jet_fd_deviation(spec, pt, order=2, step=1e-4)
            assert dev[1] < 1e-6, (name, pt, dev)
            assert dev[2] < 1e-6, (name, pt, dev)

    @pytest.mark.parametrize("name", catalog_names())
    def test_third_order(self, name):
        spec = catalog(name)
        for pt in sample_points(spec, 3, seed=5, extra_margin=0.062):
            dev = jet_fd_deviation(spec, pt, order=3, step=1e-2)
            assert dev[3] < 1e-3, (name, pt, dev)
