"""Circle product constructor and the affine spec transformations."""

import math

import numpy as np
import pytest

from lagkit.catalog import catalog, catalog_source
from lagkit.dsl import parse, serialize
from lagkit.errors import DimensionMismatchError
from lagkit.findiff import eval_map_numeric
from lagkit.products import circle_product, dilate, translate
from lagkit.sampling import sample_points


def test_declared_quadric_is_not_carried_into_another_image():
    spec = catalog("real_circle_S3")
    assert spec.quadric is not None
    # a product's quadric is declared by whoever names it; a dilated or
    # translated image lies on another quadric, or on none
    assert circle_product(spec).quadric is None
    assert dilate(spec, 2.0).quadric is None
    assert translate(spec, (0.5, 0.0)).quadric is None
    assert dilate(spec, 2.0).expected_index == spec.expected_index


class TestCircleProduct:
    def test_golden_serialization_matches_catalog_file(self):
        # constructing from the base Legendrian must reproduce the shipped
        # catalog sources byte for byte
        base = catalog("real_circle_S3")
        assert serialize(circle_product(base)) == catalog_source("clifford_torus")
        assert serialize(circle_product(catalog("real_sphere_S5"))) == catalog_source(
            "product_S1xS2"
        )
        assert serialize(
            circle_product(catalog("pseudo_legendrian_S3_index1"))
        ) == catalog_source("theorem42_example")
        assert serialize(
            circle_product(catalog("pseudo_legendrian_H3"))
        ) == catalog_source("theorem43_example")

    def test_parameter_layout(self):
        prod = circle_product(catalog("real_sphere_S5"))
        assert prod.param_names == ("t", "u", "v")
        t = prod.params[0]
        assert (t.lo, t.hi) == (0.0, 2 * math.pi)
        assert prod.signature == catalog("real_sphere_S5").signature

    def test_pointwise_value_is_phase_times_base(self):
        base = catalog("minimal_legendrian_torus_S5")
        prod = circle_product(base)
        for t, u, v in [(0.5, 1.0, 2.0), (3.0, 0.1, 5.5)]:
            got = eval_map_numeric(prod, (t, u, v))
            want = np.exp(1j * t) * eval_map_numeric(base, (u, v))
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_requires_legendrian_dimensions(self):
        with pytest.raises(DimensionMismatchError):
            circle_product(catalog("clifford_torus"))  # already half-dimensional

    def test_angle_name_collision(self):
        base = catalog("real_sphere_S5")  # params u, v
        with pytest.raises(ValueError):
            circle_product(base, t_name="u")
        with pytest.raises(ValueError):
            circle_product(base, t_name="i")
        with pytest.raises(ValueError):
            circle_product(base, t_name="2t")

    def test_custom_angle_name(self):
        prod = circle_product(catalog("real_circle_S3"), t_name="phase")
        assert prod.param_names == ("phase", "u")
        got = eval_map_numeric(prod, (0.3, 1.1))
        want = np.exp(0.3j) * eval_map_numeric(catalog("real_circle_S3"), (1.1,))
        np.testing.assert_allclose(got, want, atol=1e-14)


class TestAffineTransforms:
    def test_translate_values(self):
        spec = catalog("clifford_torus")
        moved = translate(spec, (0.5 - 1j, 2.0))
        for pt in sample_points(spec, 5, seed=2):
            want = eval_map_numeric(spec, pt) + np.array([0.5 - 1j, 2.0])
            np.testing.assert_allclose(eval_map_numeric(moved, pt), want, atol=1e-14)

    def test_translate_zero_offset_is_structural_noop(self):
        spec = catalog("clifford_torus")
        assert translate(spec, (0.0, 0.0)).components == spec.components

    def test_dilate_values(self):
        spec = catalog("whitney_sphere")
        scaled = dilate(spec, -1.5)
        for pt in sample_points(spec, 5, seed=2):
            want = -1.5 * eval_map_numeric(spec, pt)
            np.testing.assert_allclose(eval_map_numeric(scaled, pt), want, atol=1e-14)

    def test_dilate_rejects_zero(self):
        with pytest.raises(ValueError):
            dilate(catalog("clifford_torus"), 0.0)

    def test_offsets_arity_checked(self):
        with pytest.raises(DimensionMismatchError):
            translate(catalog("clifford_torus"), (1.0,))

    def test_transforms_serialize_and_reparse(self):
        spec = translate(dilate(catalog("clifford_torus"), 2.5), (0.3, 0.7j))
        again = parse(serialize(spec))
        assert again.same_structure(spec)
        for pt in sample_points(spec, 3, seed=8):
            np.testing.assert_allclose(
                eval_map_numeric(again, pt), eval_map_numeric(spec, pt), atol=1e-14
            )
