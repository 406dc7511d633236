"""Circle product constructor and the affine spec transformations."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagkit.catalog import catalog, catalog_source
from lagkit.dsl import FUNCTION_NAMES, parse, serialize
from lagkit.errors import DimensionMismatchError, DslError
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

    @pytest.mark.parametrize("name", ["exp", "map", "params", "signature", "é", "2t", "i", "u"])
    def test_angle_name_follows_the_parameter_rule(self, name):
        with pytest.raises(ValueError):
            circle_product(catalog("real_circle_S3"), t_name=name)  # params u

    @given(st.sampled_from([*FUNCTION_NAMES, "i", "u", "params", "signature", "map"])
           | st.text("at_2é-", min_size=1, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_angle_name_accepted_where_parse_accepts_it(self, name):
        base = catalog("real_circle_S3")
        try:
            parse(f"params {name}:[0,1], u:[0,1];\nsignature 2 0;\nmap {name}, u;\n")
        except DslError:
            with pytest.raises(ValueError):
                circle_product(base, t_name=name)
        else:
            product = circle_product(base, t_name=name)
            assert parse(serialize(product)).same_structure(product)

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

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_factor_or_offset_is_refused(self, bad):
        # what parse would refuse in serialize(...)'s text, the records refuse
        spec = catalog("clifford_torus")
        for make in (lambda: dilate(spec, bad), lambda: translate(spec, (bad, 0.0)),
                     lambda: translate(spec, (complex(0.0, bad), 0.0))):
            with pytest.raises(ValueError, match="numeric literal is not a finite number"):
                make()

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
