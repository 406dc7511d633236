"""The finite-difference oracle itself, pinned against closed forms.

These expected derivatives were worked out by hand; the oracle must hit them
before it is trusted to cross-check the jet evaluator anywhere else.
"""

import cmath

import numpy as np
import pytest

from lagkit import jets
from lagkit.catalog import catalog, catalog_names
from lagkit.dsl import parse
from lagkit.errors import DomainError
from lagkit.findiff import (
    eval_map_numeric,
    finite_difference_oracle,
    jet_fd_deviation,
)
from lagkit.sampling import sample_points


EXP_SPEC = parse("params u:[-3,3];\nsignature 1 0;\nmap exp(i*u);\n")


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
        spec = parse("params u:[-1,1], v:[-1,1];\nsignature 1 0;\nmap u^2*v;\n")
        out = finite_difference_oracle(spec, (0.3, -0.2), order=2, step=1e-3)
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

    @pytest.mark.parametrize("name", ["whitney_sphere", "theorem43_example"])
    def test_third_order(self, name):
        spec = catalog(name)
        for pt in sample_points(spec, 3, seed=5, extra_margin=0.062):
            dev = jet_fd_deviation(spec, pt, order=3, step=1e-2)
            assert dev[3] < 1e-3, (name, pt, dev)
