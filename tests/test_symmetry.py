"""Verdicts that the paper's symmetry group cannot flip.

U(s, n-s) preserves the Hermitian form of index s on C^n_s, J, omega and every
central quadric, so for a constant U in it the immersion U.L has the truth
value of L for every check, against the same declared quadric. The group
elements are drawn from pinned seeds: random U(n) for s = 0, and for s = 1 a
boost between coordinates 0 and s, of rapidity 0.7 or 4, times random phases.
"""

import numpy as np
import pytest

from lagkit.ambient import metric_diagonal
from lagkit.catalog import catalog, catalog_names
from lagkit.checks import SampleConfig, run_suite
from lagkit.dsl import Bin
from lagkit.products import _complex_literal


def transformed(spec, u):
    """U.L: component a is sum_b U_ab L_b, with U's entries as complex
    literals; the declared quadric is kept."""
    components = []
    for row in u:
        terms = [Bin("*", _complex_literal(c), comp) for c, comp in zip(row, spec.components)]
        total = terms[0]
        for term in terms[1:]:
            total = Bin("+", total, term)
        components.append(total)
    return spec.replace(components=tuple(components), name=f"{spec.name}_moved")


def random_unitary(n, seed):
    """Haar-random U(n): the QR of a complex Gaussian, with the phases of
    diag(R) divided out."""
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def boost(n, s, rapidity, seed):
    """A boost of the given rapidity between coordinates 0 and s, times
    random phases."""
    b = np.eye(n, dtype=complex)
    b[0, 0] = b[s, s] = np.cosh(rapidity)
    b[0, s] = b[s, 0] = np.sinh(rapidity)
    phases = np.exp(1j * np.random.default_rng(seed).uniform(0.0, 2 * np.pi, n))
    return b * phases


def verdicts(spec):
    report = run_suite(spec, SampleConfig())
    return {name: (e.status, e.passed) for name, e in report.checks.items()}


def _cases():
    for name in catalog_names():
        sig = catalog(name).signature
        if sig.s == 0:
            for seed in (3101, 3102, 3103):
                yield name, f"unitary-{seed}", random_unitary(sig.n, seed)
        else:
            assert sig.s == 1
            for rapidity, seed in ((0.7, 3201), (4.0, 3202)):
                yield name, f"boost-{rapidity:g}", boost(sig.n, sig.s, rapidity, seed)


CASES = list(_cases())


def test_every_entry_is_moved():
    # 8 entries with s = 0, three U(n) each; 4 with s = 1, two boosts each
    assert len(CASES) == 8 * 3 + 4 * 2


@pytest.mark.parametrize("name, label, u", CASES, ids=[f"{n}-{k}" for n, k, _ in CASES])
def test_the_group_flips_no_verdict(name, label, u):
    spec = catalog(name)
    # U preserves the Hermitian form of index s (up to rounding)
    eta = np.diag(metric_diagonal(spec.signature)[::2])
    assert np.allclose(u.conj().T @ eta @ u, eta, rtol=0, atol=1e-12 * np.abs(u).max() ** 2)
    moved = transformed(spec, u)
    assert moved.quadric == spec.quadric
    assert verdicts(moved) == verdicts(spec)
