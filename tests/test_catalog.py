"""Catalog integrity: the shipped sources, expectations, and suite outcomes."""

import subprocess
import sys

import pytest

from lagkit.catalog import catalog, catalog_entry, catalog_names, catalog_source
from lagkit.checks import SampleConfig, run_suite
from lagkit.dsl import parse, serialize
from lagkit.errors import UnknownSpecError

CFG = SampleConfig(num_points=14, seed=13)


def test_twelve_entries():
    assert len(catalog_names()) == 12


def test_unknown_name():
    with pytest.raises(UnknownSpecError, match="clifford_torus"):
        catalog("not_a_spec")


@pytest.mark.parametrize("name", catalog_names())
def test_shipped_source_is_canonical(name):
    src = catalog_source(name)
    assert src == serialize(catalog(name))
    assert parse(src).same_structure(catalog(name))


def test_catalog_names_parses_no_source():
    # a fresh process, so that parse is counted from before lagkit.catalog loads
    script = (
        "import lagkit.dsl as dsl\n"
        "calls = []\n"
        "parse = dsl.parse\n"
        "dsl.parse = lambda text: calls.append(text) or parse(text)\n"
        "from lagkit.catalog import catalog, catalog_names\n"
        "catalog_names()\n"
        "print(len(calls))\n"
        "catalog('clifford_torus')  # the product and its base, one parse\n"
        "print(len(calls))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


@pytest.mark.parametrize("name", catalog_names())
def test_entries_are_built_once(name):
    # the crosscheck oracle caches its compiled map per spec object
    assert catalog(name) is catalog(name)
    assert catalog_entry(name).spec is catalog(name)
    assert catalog_entry(name) is catalog_entry(name)


@pytest.mark.parametrize("name", catalog_names())
def test_declared_quadric_travels_with_the_spec(name):
    entry = catalog_entry(name)
    assert entry.spec.quadric == entry.quadric
    report = run_suite(catalog(name), CFG)  # no quadric= argument
    assert {k: report.checks[k].passed for k in entry.expects} == entry.expects


@pytest.mark.parametrize("name", catalog_names())
def test_expectations_hold(name):
    entry = catalog_entry(name)
    report = run_suite(entry.spec, CFG, quadric=entry.quadric)
    for check_name, expected in entry.expects.items():
        got = report.checks[check_name]
        assert got.status == "ok", (check_name, got.reason)
        assert got.passed is expected, (check_name, got.max_residual)


@pytest.mark.parametrize(
    "name",
    [
        "real_circle_S3",
        "clifford_torus",
        "real_sphere_S5",
        "product_S1xS2",
        "minimal_legendrian_torus_S5",
        "pseudo_legendrian_H3",
        "pseudo_legendrian_S3_index1",
        "theorem42_example",
        "theorem43_example",
    ],
)
def test_good_entries_pass_their_suite(name):
    entry = catalog_entry(name)
    report = run_suite(entry.spec, CFG, quadric=entry.quadric)
    assert report.passed, {
        k: (v.status, v.max_residual, v.reason)
        for k, v in report.checks.items()
        if v.status != "skipped" and not v.passed
    }


@pytest.mark.parametrize(
    "name", ["whitney_sphere", "control_non_lagrangian", "control_non_horizontal"]
)
def test_non_examples_fail_their_suite(name):
    entry = catalog_entry(name)
    report = run_suite(entry.spec, CFG, quadric=entry.quadric)
    assert not report.passed


def test_entry_metadata():
    assert catalog("theorem42_example").expected_index == 1
    assert catalog("theorem43_example").expected_index == 1
    assert catalog("clifford_torus").expected_index == 0
    assert catalog("whitney_sphere").expected_index is None
