"""Ambient-space primitives: signatures, the complex structure, forms."""

import numpy as np
import pytest

from lagkit.ambient import (
    AmbientQuadric,
    Signature,
    apply_j_flat,
    inner_flat,
    metric_diagonal,
)
from lagkit.errors import DimensionMismatchError


def flat(components) -> np.ndarray:
    """Interleaved (re, im) storage of complex components."""
    return np.asarray(components, dtype=complex).view(float)


def hermitian(z, w, eta) -> complex:
    """b(z, w) from the flat pairings: Re b = <z, w>, Im b = omega(z, w) = <Jz, w>."""
    return complex(inner_flat(z, w, eta) + 1j * inner_flat(apply_j_flat(z), w, eta))


def hermitian_by_components(z, w, sig) -> complex:
    """-sum_{j<=s} conj(z_j) w_j + sum_{j>s} conj(z_j) w_j, in complex arithmetic."""
    signs = np.ones(sig.n)
    signs[: sig.s] = -1.0
    return complex(np.sum(signs * np.conj(z.view(complex)) * w.view(complex)))


class TestSignature:
    def test_fields(self):
        sig = Signature(3, 1)
        assert sig.n == 3 and sig.s == 1 and sig.real_dim == 6

    def test_default_definite(self):
        assert Signature(2).s == 0

    @pytest.mark.parametrize("n,s", [(0, 0), (2, 3), (2, -1), (-1, 0)])
    def test_rejects_bad_index(self, n, s):
        with pytest.raises(ValueError):
            Signature(n, s)

    def test_metric_diagonal(self):
        # first s complex slots are timelike: two real slots each
        np.testing.assert_array_equal(
            metric_diagonal(Signature(3, 1)), [-1.0, -1.0, 1.0, 1.0, 1.0, 1.0]
        )


class TestComplexStructure:
    def test_apply_j_flat_rotates_each_slot(self):
        v = np.array([1.0, 2.0, 3.0, 4.0])
        np.testing.assert_array_equal(apply_j_flat(v), [-2.0, 1.0, -4.0, 3.0])

    def test_j_squared_is_minus_one(self):
        rng = np.random.default_rng(0)
        v = rng.standard_normal(8)
        np.testing.assert_allclose(apply_j_flat(apply_j_flat(v)), -v)

    def test_j_preserves_inner(self):
        rng = np.random.default_rng(1)
        eta = metric_diagonal(Signature(3, 1))
        u, v = rng.standard_normal(6), rng.standard_normal(6)
        assert inner_flat(apply_j_flat(u), apply_j_flat(v), eta) == pytest.approx(
            inner_flat(u, v, eta)
        )

    def test_apply_j_matches_multiplication_by_i(self):
        z = flat([1 + 2j, 3 - 1j])
        iz = flat([1j * (1 + 2j), 1j * (3 - 1j)])
        np.testing.assert_allclose(apply_j_flat(z), iz)


class TestHermitianForm:
    # frozen by hand: b(z, w) = -conj(z1) w1 + conj(z2) w2 for index 1
    def test_indefinite_value(self):
        eta = metric_diagonal(Signature(2, 1))
        z = flat([1 + 1j, 2j])
        w = flat([3, 1 - 1j])
        expected = -((1 - 1j) * 3) + (-2j) * (1 - 1j)
        assert hermitian(z, w, eta) == pytest.approx(expected)

    def test_conjugate_linear_first_slot(self):
        eta = metric_diagonal(Signature(2, 0))
        z = flat([1 + 2j, -1j])
        w = flat([0.5 - 1j, 2 + 1j])
        assert hermitian(apply_j_flat(z), w, eta) == pytest.approx(
            -1j * hermitian(z, w, eta)
        )
        assert hermitian(z, apply_j_flat(w), eta) == pytest.approx(
            1j * hermitian(z, w, eta)
        )

    def test_real_part_is_real_inner(self):
        sig = Signature(3, 1)
        rng = np.random.default_rng(2)
        z, w = rng.standard_normal(6), rng.standard_normal(6)
        assert hermitian_by_components(z, w, sig).real == pytest.approx(
            inner_flat(z, w, metric_diagonal(sig))
        )

    def test_hermitian_symmetry(self):
        eta = metric_diagonal(Signature(2, 1))
        z = flat([1 + 1j, 2 - 3j])
        w = flat([-2j, 0.5])
        assert hermitian(z, w, eta) == pytest.approx(hermitian(w, z, eta).conjugate())

    def test_signature_mismatch_rejected(self):
        z = flat([1, 0])
        with pytest.raises(DimensionMismatchError):
            inner_flat(z, z, metric_diagonal(Signature(3, 1)))


class TestSymplecticForm:
    def test_unit_vector_against_its_rotation(self):
        # omega(X, Y) = <JX, Y>, so omega(e1, i e1) = <i e1, i e1> = +1
        eta = metric_diagonal(Signature(2, 0))
        e1 = flat([1, 0])
        ie1 = flat([1j, 0])
        assert inner_flat(apply_j_flat(e1), ie1, eta) == pytest.approx(1.0)

    def test_antisymmetry_and_brute_force(self):
        sig = Signature(2, 1)
        eta = metric_diagonal(sig)
        rng = np.random.default_rng(3)
        for _ in range(5):
            z, w = rng.standard_normal(4), rng.standard_normal(4)
            direct = inner_flat(apply_j_flat(z), w, eta)
            assert direct == pytest.approx(-inner_flat(apply_j_flat(w), z, eta))
            # brute force through the imaginary part of the hermitian form
            assert direct == pytest.approx(hermitian_by_components(z, w, sig).imag)


class TestAmbientQuadric:
    def test_radius(self):
        q = AmbientQuadric("pseudo_sphere", 4.0)
        assert q.radius_sq_signed == pytest.approx(0.25)

    @pytest.mark.parametrize(
        "kind,c",
        [
            ("pseudo_sphere", -1.0),
            ("pseudo_hyperbolic", 2.0),
            ("sphere", 1.0),
            ("pseudo_hyperbolic", float("nan")),
            ("pseudo_sphere", float("inf")),
        ],
    )
    def test_rejects_inconsistent(self, kind, c):
        with pytest.raises(ValueError):
            AmbientQuadric(kind, c)

    def test_residual(self):
        # membership defect <z, z> - 1/c
        sphere = AmbientQuadric("pseudo_sphere", 1.0)
        eta = metric_diagonal(Signature(2, 0))
        z = flat([1, 0])
        assert inner_flat(z, z, eta) - sphere.radius_sq_signed == pytest.approx(0.0)
        w = flat([2, 0])
        assert inner_flat(w, w, eta) - sphere.radius_sq_signed == pytest.approx(3.0)
