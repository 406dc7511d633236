"""Catalog integrity: the shipped sources, expectations, and suite outcomes."""

import json
import subprocess
import sys

import pytest

from lagkit.catalog import catalog, catalog_entry, catalog_names, catalog_source
from lagkit.checks import SampleConfig, run_suite
from lagkit.dsl import parse, serialize
from lagkit.errors import UnknownSpecError
from lagkit.products import circle_product

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


# each product entry's base: its shipped source is the circle product of the base
PRODUCT_BASES = {
    "clifford_torus": "real_circle_S3",
    "product_S1xS2": "real_sphere_S5",
    "theorem42_example": "pseudo_legendrian_S3_index1",
    "theorem43_example": "pseudo_legendrian_H3",
}


@pytest.mark.parametrize("name", sorted(PRODUCT_BASES))
def test_product_source_is_the_circle_product_of_its_base(name):
    product = circle_product(catalog(PRODUCT_BASES[name]))
    assert serialize(product) == catalog_source(name)
    assert product.same_structure(catalog(name))


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
        "catalog('clifford_torus')  # a product, from its own source: one parse\n"
        "print(len(calls))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1"]


def test_listing_reads_each_entry():
    # `lagkit catalog` lists what each entry holds, in catalog order: the
    # parameter count and ambient of its parsed source, and its quadric and
    # summary; in a fresh process, so that it is seen to build no product
    script = (
        "import sys\n"
        "from lagkit.cli import main\n"
        "main(['catalog', '--json'])\n"
        "print('lagkit.products' in sys.modules, file=sys.stderr)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.split() == ["False"]
    rows = json.loads(proc.stdout)
    assert [row["name"] for row in rows] == list(catalog_names())
    for row in rows:
        entry = catalog_entry(row["name"])
        sig, quad = entry.spec.signature, entry.quadric
        assert row == {
            "name": entry.name,
            "params": entry.spec.num_params,
            "ambient": f"C^{sig.n}_{sig.s}",
            "quadric": "-" if quad is None else f"c={quad.c:g}",
            "summary": entry.summary,
        }


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
