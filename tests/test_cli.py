"""Command line behavior: exit codes, output formats, determinism."""

import contextlib
import gc
import importlib
import io
import json
import os
import pkgutil
import re
import resource
import subprocess
import sys
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lagkit
from lagkit.ambient import Signature
from lagkit.catalog import catalog_names, catalog_source
from lagkit.checks import STRUCTURE_CHECKS, SampleConfig
from lagkit.cli import main
from lagkit.dsl import ImmersionSpec, Param, parse, serialize
from test_checks import pole_spec
from test_dsl import _expr_strategy


def run_main(*argv):
    return main(list(argv))


def crosscheck_lines(out):
    """(deviation, tol, scale, verdict) of each `order k:` line of crosscheck."""
    pattern = r"worst \|jet - fd\| = (\S+) \(step \S+, tol (\S+) x scale (\S+)\) (pass|FAIL)"
    return [
        (float(dev), float(tol), float(scale), verdict)
        for dev, tol, scale, verdict in re.findall(pattern, out)
    ]


def reject_constant(constant):
    raise ValueError(f"non-strict JSON constant {constant}")


# maps whose values or derivatives overflow, divide by zero or turn NaN
SINGULAR = {
    "nan_hessian": "params u:[1,2];\nsignature 1 0;\nmap exp(-1e200*u*u);\n",
    "cosh_overflow": "params u:[0,800];\nsignature 2 0;\nmap cosh(u), sinh(u);\n",
    "division_by_zero": "params u:[1,2];\nsignature 1 0;\nmap u/0;\n",
    "power_overflow": "params u:[1,2];\nsignature 1 0;\nmap (1000000*u)^60;\n",
    # finite values and jets, but the difference stencil overflows to NaN
    "difference_overflow": "params u:[1,2];\nsignature 1 0;\nmap 2e307*u;\n",
    # cmath raises ValueError ("math domain error") for cos of inf
    "cmath_domain_error": "params u:[1,2];\nsignature 1 0;\nmap u + cos(1e200*1e200);\n",
}

# maps nested deeper than the parser accepts (dsl.MAX_DEPTH)
DEEP = {
    "parentheses": "params u:[0.1,1];\nsignature 1 0;\nmap " + "(" * 250 + "u" + ")" * 250 + ";\n",
    "calls": "params u:[0.1,1];\nsignature 1 0;\nmap " + "exp(" * 300 + "u" + ")" * 300 + ";\n",
}

# numeric literals the parser cannot represent: one that float() reads as
# infinite, and integers with more digits than int() converts
UNREPRESENTABLE = {
    "infinite_map": "params u:[0,1];\nsignature 2 0;\nmap 1e999*cos(u), sin(u);\n",
    "infinite_bound": "params u:[0,1e999];\nsignature 2 0;\nmap cos(u), sin(u);\n",
    "long_exponent": "params u:[0,1];\nsignature 1 0;\nmap u^" + "1" * 5000 + ";\n",
    "long_signature": "params u:[0,1];\nsignature " + "1" * 5000 + " 0;\nmap u;\n",
}


class TestCheckCommand:
    def test_pass_exit_zero(self, capsys):
        assert run_main("check", "clifford_torus") == 0
        out = capsys.readouterr().out
        assert "result: pass" in out
        assert "lagrangian" in out

    def test_fail_exit_one(self, capsys):
        assert run_main("check", "control_non_lagrangian") == 1
        assert "FAIL" in capsys.readouterr().out

    def test_unknown_spec_exit_two(self, capsys):
        assert run_main("check", "no_such_spec") == 2
        assert "catalog" in capsys.readouterr().err

    def test_usage_error_exit_two(self):
        assert run_main("check") == 2
        assert run_main("frobnicate") == 2

    def test_json_output(self, capsys):
        assert run_main("check", "theorem42_example", "--json") == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["spec_name"] == "theorem42_example"
        assert doc["checks"]["lagrangian"]["pass"] is True

    def test_json_bytes_stable(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_main("check", "product_S1xS2", "--json", "--out", str(a)) == 0
        assert run_main("check", "product_S1xS2", "--json", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_samples_and_seed_flags(self, capsys):
        assert run_main("check", "clifford_torus", "--samples", "6", "--seed", "1") == 0
        assert "(6 pts)" in capsys.readouterr().out

    def test_checks_several(self, capsys):
        # whitney fails the spherical fit, but its Lagrangian facts hold
        code = run_main(
            "check", "whitney_sphere", "--checks", "lagrangian,gauss,codazzi"
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spherical" not in out

    # the checks each check rests on; the Legendrian chain has no lagrangian entry
    RESTS_ON = {
        "legendrian": ("spherical",),
        "horizontal": ("spherical",),
        "cubic_symmetry": ("lagrangian",),
        **{
            name: ("lagrangian", "spherical")
            for name in (*STRUCTURE_CHECKS, "product_metric", "umbilical")
        },
    }

    @pytest.mark.parametrize("name", catalog_names())
    def test_checks_subset(self, name, capsys):
        # each check alone is its entry of the full report, with the failed
        # checks it rests on when it is skipped; sphere_fit and transform stay
        run_main("check", name, "--json")
        full = json.loads(capsys.readouterr().out)
        for check, entry in full["checks"].items():
            carried = [
                need
                for need in self.RESTS_ON.get(check, ())
                if entry["status"] == "skipped"
                and need in full["checks"]
                and full["checks"][need]["pass"] is not True
            ]
            expected = {**full, "checks": {k: full["checks"][k] for k in (check, *carried)}}
            passed = all(e["pass"] for e in expected["checks"].values() if e["status"] != "skipped")
            assert run_main("check", name, "--checks", check, "--json") == (0 if passed else 1)
            assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "spec, check, status",
        [("whitney_sphere", "structure_v_unit", "ok"), ("h3.imm", "horizontal", "error")],
    )
    def test_checks_subset_reports_the_failed_check_it_rests_on(
        self, spec, check, status, tmp_path, capsys
    ):
        # whitney lies on no central quadric, and the H3 curve without its
        # declared quadric cannot be fitted: the named check is skipped, and
        # the spherical entry it rests on fails the report
        if spec == "h3.imm":
            path = tmp_path / spec
            path.write_text(catalog_source("pseudo_legendrian_H3"))
            spec = str(path)
        assert run_main("check", spec, "--checks", check, "--json") == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert set(checks) == {"spherical", check}
        assert checks[check]["status"] == "skipped"
        assert checks["spherical"]["status"] == status and checks["spherical"]["pass"] is False

    @pytest.mark.parametrize(
        "spec, check",
        [
            ("clifford_torus", "legendrian"),  # a Lagrangian surface has no Legendrian check
            ("pseudo_legendrian_H3", "horizontal"),  # c < 0: no circle action to be horizontal to
            ("clifford_torus", "bogus"),
        ],
    )
    def test_checks_subset_unknown_name(self, spec, check, capsys):
        assert run_main("check", spec, "--checks", check) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("lagkit: ") and err.count("\n") == 1
        assert check in err and "Traceback" not in err

    def test_quadric_flag(self):
        assert run_main("check", "pseudo_legendrian_H3", "--quadric", "1:-1") == 0
        assert run_main("check", "pseudo_legendrian_H3", "--quadric", "0:-1") == 2
        assert run_main("check", "pseudo_legendrian_H3", "--quadric", "nope") == 2

    @pytest.mark.parametrize(
        "name, quadric", [("real_circle_S3", "0:1e-308"), ("pseudo_legendrian_H3", "1:-1e-308")]
    )
    def test_a_quadric_of_radius_1e154_prints_strict_json(self, name, quadric):
        # each residual of legendrian is 1e308, and their sum passes the float
        # range: the mean is taken term by term, so the JSON stays strict
        proc = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", "lagkit.cli", "check", name,
             "--quadric", quadric, "--json"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1 and "Traceback" not in proc.stderr, proc.stderr
        legendrian = json.loads(proc.stdout, parse_constant=reject_constant)["checks"]["legendrian"]
        assert legendrian["status"] == "ok" and legendrian["mean"] > 1e307

    def test_file_input(self, tmp_path, capsys):
        path = tmp_path / "spec.imm"
        path.write_text(
            "params t:[0,6.3], u:[0,6.3];\nsignature 2 0;\n"
            "map exp(i*t)*cos(u), exp(i*t)*sin(u);\n"
        )
        assert run_main("check", str(path)) == 0
        assert "spec: spec" in capsys.readouterr().out

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.imm"
        path.write_text("params u:[0,1;\nsignature 1 0;\nmap u;\n")
        assert run_main("check", str(path)) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_tolerance_flags(self, capsys):
        # absurdly tight tolerance turns machine noise into failures; it bounds
        # every check, gauss and codazzi too
        assert run_main("check", "clifford_torus", "--tol", "1e-30", "--json") == 1
        checks = json.loads(capsys.readouterr().out)["checks"]
        assert {entry["tol"] for entry in checks.values()} == {1e-30}

    def test_a_pole_at_a_sample_point_is_an_error_naming_it(self, tmp_path, capsys):
        spec, (u0, v0) = pole_spec(SampleConfig.num_points)  # at the last default sample point
        path = tmp_path / "pole.imm"
        path.write_text(serialize(spec))
        assert run_main("check", str(path)) == 1
        captured = capsys.readouterr()
        line = f"ERROR  (map cannot be evaluated at ({u0!r}, {v0!r}): division by 0j)"
        assert captured.out.count(line) == 4  # lagrangian, spherical, gauss, codazzi
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "text",
        [
            # cosh(u)^2 overflows the metric; the old degeneracy test overflowed too
            "params u:[0,400], v:[0,1];\nsignature 2 0;\nmap cosh(u)+i*v, sinh(u)*v;\n",
            # used to print NaN residuals
            "params u:[0,700];\nsignature 2 0;\nmap cosh(u), sinh(u);\n",
        ],
        ids=["metric_overflow", "nan_residual"],
    )
    def test_non_finite_map_gives_error_entries(self, tmp_path, capsys, text):
        path = tmp_path / "huge.imm"
        path.write_text(text)
        assert run_main("check", str(path), "--json") == 1
        captured = capsys.readouterr()

        doc = json.loads(captured.out, parse_constant=reject_constant)
        assert any(e["status"] == "error" for e in doc["checks"].values())
        assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "clifford_torus", "--samples", "0"),
        ("check", "clifford_torus", "--checks", ","),
        ("check", "clifford_torus", "--checks", ",", "--json"),
        ("check", "clifford_torus", "--tol", "nan", "--json"),
        ("check", "clifford_torus", "--tol", "inf", "--json"),
        ("check", "clifford_torus", "--tol", "-1"),
        ("construct", "pseudo_legendrian_H3", "--verify", "--samples", "0"),
        ("crosscheck", "clifford_torus", "--step", "-1"),
        ("crosscheck", "clifford_torus", "--step", "0"),
        ("crosscheck", "clifford_torus", "--points", "0"),
        ("check", "real_circle_S3", "--quadric", "0:nan"),
        ("check", "clifford_torus", "--quadric", "0:inf"),
    ],
    ids=" ".join,
)
def test_bad_flag_value_is_a_usage_error(argv, capsys):
    # exit 2 with one `lagkit:` line and nothing on stdout: no traceback, no
    # vacuous pass over zero checks or points, no report with a NaN tolerance
    assert run_main(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lagkit: ") and err.count("\n") == 1


@pytest.mark.parametrize("curvature", ["inf", "0"])
def test_quadric_curvature_is_the_records_rule(curvature, capsys):
    # --quadric builds an AmbientQuadric and reports the ValueError it raises
    assert run_main("check", "clifford_torus", "--quadric", f"0:{curvature}") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "lagkit: --quadric: quadric curvature c must be finite and nonzero, "
        f"got {float(curvature)!r}\n"
    )


@pytest.mark.parametrize(
    "argv, verb, path",
    [
        (("check", "{dir}"), "read", "{dir}"),
        (("check", "{latin1}"), "read", "{latin1}"),
        (("crosscheck", "{latin1}"), "read", "{latin1}"),
        (("check", "clifford_torus", "--out", "{dir}/no/x.json"), "write", "{dir}/no/x.json"),
        (("construct", "real_circle_S3", "--out", "{dir}/no/p.imm"), "write", "{dir}/no/p.imm"),
    ],
    ids=["directory", "check-non-utf8", "crosscheck-non-utf8", "check-out", "construct-out"],
)
def test_unusable_file_is_a_usage_error(argv, verb, path, tmp_path, capsys):
    latin1 = tmp_path / "latin1.imm"
    latin1.write_bytes(b"params u:[0,1];\nsignature 1 0;\nmap u; # caf\xe9\n")
    paths = {"dir": tmp_path, "latin1": latin1}
    assert run_main(*(arg.format(**paths) for arg in argv)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"lagkit: cannot {verb} {path.format(**paths)}: ")
    assert err.count("\n") == 1


class TestConstructCommand:
    def test_writes_parseable_product(self, tmp_path):
        out = tmp_path / "prod.imm"
        assert run_main("construct", "real_sphere_S5", "--out", str(out)) == 0
        spec = parse(out.read_text())
        assert spec.num_params == 3
        assert spec.param_names[0] == "t"

    def test_verify_flag(self, capsys):
        assert run_main("construct", "real_circle_S3", "--verify") == 0
        assert "result: pass" in capsys.readouterr().out

    def test_rejects_half_dimensional_input(self, capsys):
        assert run_main("construct", "clifford_torus") == 2
        assert "parameters" in capsys.readouterr().err

    def test_custom_angle_name(self, capsys):
        assert run_main("construct", "real_circle_S3", "--t-name", "w") == 0
        assert "params w:" in capsys.readouterr().out

    def test_reserved_angle_name_is_refused_without_a_position(self, capsys):
        # the rule is the parameter's own: no position in text the user never wrote
        assert run_main("construct", "real_circle_S3", "--t-name", "exp") == 2
        captured = capsys.readouterr()
        assert captured.err == "lagkit: 'exp' is reserved and cannot name a parameter\n"
        assert captured.out == ""


class TestCrosscheckCommand:
    def test_all_orders(self, capsys):
        assert run_main("crosscheck", "whitney_sphere", "--points", "3") == 0
        out = capsys.readouterr().out
        assert "order 1:" in out and "order 3:" in out

    def test_single_order(self, capsys):
        assert run_main("crosscheck", "clifford_torus", "--order", "2") == 0
        out = capsys.readouterr().out
        assert "order 2:" in out and "order 1:" not in out

    def test_bad_step_fails(self, capsys):
        # a coarse step breaks the tolerance contract and must exit 1
        code = run_main(
            "crosscheck", "whitney_sphere", "--order", "3", "--step", "0.1",
            "--points", "2",
        )
        assert code == 1
        # the printed deviation and scale are those of a failing point
        ((dev, tol, scale, verdict),) = crosscheck_lines(capsys.readouterr().out)
        assert verdict == "FAIL" and dev > tol * scale

    def test_infeasible_stencil_is_usage_error(self):
        # the stencil cannot fit in the domain box at this step
        code = run_main(
            "crosscheck", "whitney_sphere", "--order", "3", "--step", "0.2",
            "--points", "2",
        )
        assert code == 2

    def test_large_valued_map_judged_relative_to_scale(self, tmp_path, capsys):
        # correct jets of a map of size ~1e257: absolute deviations reach 6e248
        path = tmp_path / "large.imm"
        path.write_text(SINGULAR["cosh_overflow"])
        assert run_main("crosscheck", str(path)) == 0
        out = capsys.readouterr().out
        assert out.count(" pass") == 3 and "FAIL" not in out
        lines = crosscheck_lines(out)
        assert len(lines) == 3
        assert all(scale > 1e80 and dev <= tol * scale for dev, tol, scale, _ in lines)

    @pytest.mark.parametrize("name", sorted(SINGULAR))
    def test_singular_map_is_an_error(self, tmp_path, capsys, name):
        path = tmp_path / "singular.imm"
        path.write_text(SINGULAR[name])
        assert run_main("crosscheck", str(path), "--points", "40") == 2
        err = capsys.readouterr().err
        assert err.startswith("lagkit: ") and "Traceback" not in err


class TestUnrepresentableLiterals:
    @pytest.mark.parametrize("command", ["check", "crosscheck", "construct"])
    @pytest.mark.parametrize("name", sorted(UNREPRESENTABLE))
    def test_cannot_parse_exits_two(self, tmp_path, capsys, command, name):
        path = tmp_path / "literal.imm"
        path.write_text(UNREPRESENTABLE[name])
        assert run_main(command, str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"lagkit: cannot parse {path}: ") and err.count("\n") == 1
        assert "Traceback" not in err


class TestDeepNesting:
    @pytest.mark.parametrize("command", ["check", "crosscheck", "construct"])
    @pytest.mark.parametrize("name", sorted(DEEP))
    def test_too_deep_map_exits_two(self, tmp_path, capsys, command, name):
        path = tmp_path / "deep.imm"
        path.write_text(DEEP[name])
        assert run_main(command, str(path)) == 2
        err = capsys.readouterr().err
        assert err.startswith("lagkit: ") and err.count("\n") == 1
        assert "expression nested too deeply" in err

    def test_construct_refuses_a_product_deeper_than_parse_accepts(self, tmp_path, capsys):
        # the input parses at MAX_DEPTH levels; its circle product is one deeper
        body = "cos(" * 99 + "u" + ")" * 99
        path = tmp_path / "deep.imm"
        path.write_text(f"params u:[0,6.283185307179586];\nsignature 2 0;\nmap {body}, sin(u);\n")
        out = tmp_path / "product.imm"
        assert run_main("construct", str(path), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("lagkit: ") and "nested too deeply" in err
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("check", "clifford_torus", "--samples", str(10**20)),
        ("check", "clifford_torus", "--json", "--samples", str(10**20)),
        ("crosscheck", "clifford_torus", "--points", str(10**22)),
    ],
    ids=["check", "check-json", "crosscheck"],
)
def test_sample_count_no_array_can_hold_exits_two(capsys, argv):
    assert run_main(*argv) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("lagkit: cannot sample ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "samples, message",
    [(10**8, "cannot sample 100000000 points: "), (10**6, "out of memory: ")],
    ids=["sampling", "frames"],
)
def test_sample_count_no_memory_holds_exits_two(samples, message):
    # in a 1 GiB address space 10**8 points need 2.2 GiB of draws, and 10**6
    # points sample but their third derivatives need 1.2 GiB; with one BLAS
    # thread the space numpy's import reserves does not grow with the cores
    limit = 1 << 30
    proc = subprocess.run(
        [sys.executable, "-m", "lagkit.cli", "check", "product_S1xS2", "--json",
         "--samples", str(samples)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
    )
    assert (proc.returncode, proc.stdout) == (2, ""), proc.stderr
    assert re.fullmatch(f"lagkit: {re.escape(message)}.*\n", proc.stderr), proc.stderr


def _quiet_main(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue()


_FUZZ_PARAMS = (Param("u", -1.0, 1.0), Param("v", 0.0, 2.0))


def _fuzz_text(components) -> str:
    return serialize(ImmersionSpec(_FUZZ_PARAMS, Signature(2, 0), components))


class TestExitContract:
    """Every spec yields exit 0, 1 or 2; check prints strict JSON on 0 and 1."""

    @given(st.tuples(_expr_strategy(), _expr_strategy()).map(_fuzz_text))
    @example(SINGULAR["nan_hessian"])
    @example(SINGULAR["cosh_overflow"])
    @example(SINGULAR["division_by_zero"])
    @example(SINGULAR["power_overflow"])
    @example(SINGULAR["difference_overflow"])
    @example(SINGULAR["cmath_domain_error"])
    @example(DEEP["parentheses"])
    @example(DEEP["calls"])
    @example(UNREPRESENTABLE["infinite_map"])
    @example(UNREPRESENTABLE["long_exponent"])
    @settings(derandomize=True, max_examples=40, deadline=None)
    def test_any_spec_keeps_the_contract(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "fuzz.imm")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code, out = _quiet_main("check", path, "--json", "--samples", "5")
            assert code in (0, 1, 2)
            if code in (0, 1):
                json.loads(out, parse_constant=reject_constant)
            code, _ = _quiet_main("crosscheck", path, "--points", "2")
            assert code in (0, 1, 2)


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "real_circle_S3", "--json"],
        ["construct", "real_circle_S3"],
        ["crosscheck", "real_circle_S3", "--points", "1"],
        ["catalog", "--json"],
        ["--help"],
        ["check", "--help"],
    ],
    ids=lambda argv: " ".join(argv) if "--help" in argv else argv[0],
)
def test_closed_stdout_exits_two_without_a_traceback(argv):
    # the reader is gone before the child writes, or the disk is full: with
    # stdout unbuffered the write fails, buffered the flush at the end does
    for target in ("closed pipe", "/dev/full"):
        for unbuffered in ("1", ""):
            if target == "closed pipe":
                read, write = os.pipe()
                os.close(read)
            else:
                write = os.open(target, os.O_WRONLY)
            try:
                proc = subprocess.run(
                    [sys.executable, "-m", "lagkit.cli", *argv],
                    stdout=write, stderr=subprocess.PIPE, text=True, timeout=120,
                    env={**os.environ, "PYTHONUNBUFFERED": unbuffered},
                )
            finally:
                os.close(write)
            assert proc.returncode == 2, (target, unbuffered, proc.stderr)
            assert re.fullmatch(r"lagkit: cannot write stdout: .*\n", proc.stderr), proc.stderr


def _script_entry():
    """The function `[project.scripts]` names for the `lagkit` command."""
    with open(os.path.join(os.path.dirname(__file__), "..", "pyproject.toml")) as fh:
        return re.search(r'^lagkit = "lagkit\.cli:(\w+)"$', fh.read(), re.M).group(1)


@pytest.mark.parametrize(
    "entry",
    ["runpy.run_module('lagkit.cli', run_name='__main__')",
     f"import lagkit.cli; lagkit.cli.{_script_entry()}()"],
    ids=["module", "script"],
)
def test_process_entry_exits_with_the_import_time_objects_frozen(entry):
    # an atexit hook runs after the entry's sys.exit: the objects alive at the
    # end of the command are in the permanent generation, so exit collects none
    script = (
        "import atexit, gc, runpy, sys\n"
        "atexit.register(lambda: print(gc.get_freeze_count(), file=sys.stderr))\n"
        "sys.argv = ['lagkit', 'catalog', '--json']\n"
        f"{entry}\n"
    )
    proc = _cold("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(proc.stdout)) == 12
    assert int(proc.stderr) > 0


@pytest.mark.parametrize(
    "argv", [["catalog", "--json"], ["check", "real_circle_S3", "--json"], ["check", "--bad"]]
)
def test_main_in_process_leaves_the_collector_as_it_found_it(argv, capsys):
    before = gc.get_freeze_count()
    assert run_main(*argv) in (0, 2)
    assert gc.get_freeze_count() == before


class TestCatalogCommand:
    def test_lists_names(self, capsys):
        assert run_main("catalog") == 0
        out = capsys.readouterr().out
        assert "clifford_torus" in out and "whitney_sphere" in out

    def test_json(self, capsys):
        assert run_main("catalog", "--json") == 0
        rows = json.loads(capsys.readouterr().out)
        assert len(rows) == 12
        byname = {r["name"]: r for r in rows}
        assert byname["theorem43_example"]["ambient"] == "C^2_1"


def _cold(*argv):
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, timeout=120
    )


def test_cold_check_imports_only_what_it_runs():
    proc = _cold("-c", "import sys, lagkit; print([m for m in sys.modules if 'lagkit.' in m])")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    # -X importtime names every module the process imports; a product entry
    # is parsed from its shipped source, so it loads no constructor either
    for name in ("real_circle_S3", "clifford_torus"):
        proc = _cold("-X", "importtime", "-m", "lagkit.cli", "check", name, "--json")
        assert proc.returncode == 0, proc.stderr
        loaded = set(re.findall(r"\|\s*(lagkit\.\w+)$", proc.stderr, re.M))
        assert "lagkit.checks" in loaded
        assert not loaded & {"lagkit.findiff", "lagkit.products"}, name


def test_every_public_name_resolves():
    script = (
        "import lagkit.cli\n"  # binds submodules, lagkit.catalog among them, first
        "import lagkit\n"
        "assert lagkit.findiff.finite_difference_oracle\n"  # a submodule not loaded yet
        "from lagkit import *\n"
        "missing = [n for n in lagkit.__all__ if n not in globals()]\n"
        "assert not missing, missing\n"
        "assert catalog('clifford_torus') is lagkit.catalog_entry('clifford_torus').spec\n"
        "assert lagkit.catalog is catalog and lagkit.__version__ == '0.1.0'\n"
    )
    proc = _cold("-c", script)
    assert proc.returncode == 0, proc.stderr


def _star_names(module):
    """The names `from module import *` binds: its __all__, else its public globals."""
    return getattr(module, "__all__", [n for n in vars(module) if not n.startswith("_")])


@pytest.mark.parametrize("name", sorted(m.name for m in pkgutil.iter_modules(lagkit.__path__)))
def test_export_lists_name_only_what_exists(name):
    # a deleted function cannot linger in __all__ or in the package's export table
    module = importlib.import_module(f"lagkit.{name}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    if name in lagkit._EXPORTS:
        assert set(lagkit._EXPORTS[name]) - set(_star_names(module)) == set()


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lagkit.cli", "catalog"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "clifford_torus" in proc.stdout
