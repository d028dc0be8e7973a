import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from faberfields import clear_caches, faberkernel, polyring, suites
from faberfields.cli import main
from faberfields.polyring import CoeffPoly, c
from faberfields.reports import IdentityPair

from .test_faberkernel import cold_caches  # noqa: F401 (fixture)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestFamilies:
    def test_lambda_text(self, capsys):
        code, out, _ = run(capsys, "lambda", "--p", "3")
        assert code == 0
        assert out.strip() == ("Lambda_3 = (-6*c3 + 2*c1*c2)*u + (-5*c2 - c1^2)"
                               " - 4*c1*u^-1 - u^-2")

    def test_faber_zero_seed(self, capsys):
        code, out, _ = run(capsys, "faber", "--n", "2", "--seed", "zero")
        assert code == 0
        assert out.strip() == "F_2 = w^2"

    def test_tpoly_all(self, capsys):
        code, out, _ = run(capsys, "tpoly", "--n", "2", "--all")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "T_0 = 1"
        assert lines[1] == "T_1 = w + 3*c1"

    def test_diag_koebe(self, capsys):
        code, out, _ = run(capsys, "diag", "--p", "1", "--seed", "koebe",
                           "--rho", "1/2")
        assert code == 0
        assert out.strip() == "a_1^1 = 2"

    def test_grunsky_text(self, capsys):
        code, out, _ = run(capsys, "grunsky", "--n", "1", "--k", "1")
        assert code == 0
        assert "beta[1,1] = -c2 + c1^2" in out

    def test_afield_text(self, capsys):
        code, out, _ = run(capsys, "afield", "--p", "1", "--n", "1")
        assert code == 0
        assert "A[1]^1 = 3*c2 - 2*c1^2" in out

    def test_reverse(self, capsys):
        code, out, _ = run(capsys, "reverse", "--q", "1", "--order", "3")
        assert code == 0
        assert out.strip() == "(f^-1)^1 = z - c1*z^2 + (-c2 + 2*c1^2)*z^3"


class TestJson:
    def test_round_trip_bytes(self, capsys):
        code, out, _ = run(capsys, "faber", "--n", "3", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) == out.strip()

    def test_grunsky_json_round_trip(self, capsys):
        code, out, _ = run(capsys, "grunsky", "--n", "2", "--k", "2",
                           "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert json.dumps(parsed, indent=2, sort_keys=True) == out.strip()
        assert parsed["beta"]["1,1"]

    def test_check_json(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "recursion",
                           "--pmax", "3", "--format", "json")
        assert code == 0
        parsed = json.loads(out)
        assert parsed["ok"] is True
        assert parsed["suites"][0]["suite"] == "recursion"
        assert all(cell["ok"] for cell in parsed["suites"][0]["cells"])


class TestCheck:
    def test_thm42_pass(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "thm42",
                           "--kmax", "3", "--pmax", "4")
        assert code == 0
        assert "PASS" in out

    def test_unknown_suite(self, capsys):
        code, _, err = run(capsys, "check", "--suite", "nonsense")
        assert code == 2
        assert "unknown suite" in err

    def test_failing_check_exits_one(self, capsys, monkeypatch):
        def unequal(**sizes):
            yield IdentityPair("recursion", (("p", 1),), CoeffPoly.one(),
                               CoeffPoly.zero())

        entry = suites._SUITES["recursion"]
        monkeypatch.setitem(suites._SUITES, "recursion",
                            dataclasses.replace(entry, pairs=unequal))
        code, out, _ = run(capsys, "check", "--suite", "recursion")
        assert code == 1
        assert "FAIL" in out

    def test_all_runs_each_generator_once(self, capsys, monkeypatch):
        # The exact reports and the numeric sweep share one pass of pairs.
        runs = Counter()
        for name, entry in list(suites._SUITES.items()):
            def counted(*args, _name=name, _pairs=entry.pairs, **sizes):
                runs[_name] += 1
                yield from _pairs(*args, **sizes)

            monkeypatch.setitem(suites._SUITES, name,
                                dataclasses.replace(entry, pairs=counted))
        code, out, _ = run(capsys, "check", "--suite", "all", "--order", "2",
                           "--draws", "1", "--M", "64")
        assert code == 0
        assert "numeric-sweep" in out
        assert runs == {name: 1 for name in suites.suite_names()}

    def test_contour_suite(self, capsys):
        for rho in ("--rho=1/2", "--rho=-1/2"):
            code, out, _ = run(capsys, "check", "--suite", "contour", rho,
                               "--pmax", "2", "--M", "1024")
            assert code == 0
            assert "contour p=2: ok" in out

    @pytest.mark.parametrize("argv, code, digest", [
        ((), 0, "0849e588822a354444247c7f01efea0cebdcc70b75a3b45beae2b00a588358cc"),
        (("--M", "1"), 1,
         "83ebeaa245c655c220377a544e7291aed1dcda91dacb5a7a6a3b9744687388de"),
        (("--M", "3", "--pmax", "6"), 1,
         "292067a1156d905d46f372bea2fa20a4b67a7a8f40ad525ecdaba3da3ae06598"),
        (("--M", "1000", "--z=-0.2+0.1j", "--rho=-1/2"), 0,
         "c7a0adc94c035c8f8d91ec094332e7f7018beaf805c32a5a95bf3ef259721ad6"),
    ])
    def test_contour_json_pinned(self, capsys, argv, code, digest):
        # The whole contour output, floats included, byte for byte; with one
        # or three nodes the quadrature has not converged, so check exits 1.
        got, out, _ = run(capsys, "check", "--suite", "contour", "--format",
                          "json", *argv)
        assert got == code
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    @pytest.mark.parametrize("order, digest", [
        (2, "512100f7da4dc5f4ebc8aaeed7a99895686aea5d1d47507afcdb35470aeea5eb"),
        (4, "2afb52585a3312654d43dcf8ec38a541f896bdffdffbab357ce7d3c802e16d05"),
        (5, "ddcb97a48ad5acd334b4d6b25dc0020c64f8b35e3a1e9c3eadfb31c4f1482364"),
        (6, "ab3f7f9294eb51758fa8d6b3c8ae5d884fabab6346dfdf070ecbf56c0360fae8"),
        (8, "a2f9e624722731eb9fa7796646dc9d70bd5dbf667efe35e1b53b259f9eb32354"),
    ])
    def test_all_json_pinned(self, capsys, order, digest):
        # The whole gate output byte for byte: every exact suite's cells,
        # the numeric sweep and the contour run.  Order 3 is pinned cell by
        # cell by tests/data/check_all_order3.json.
        code, out, _ = run(capsys, "check", "--suite", "all", "--order", str(order),
                           "--format", "json")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_bytes_and_products_unchanged_after_clear_caches(self, capsys):
        a, b = c(1) * c(2) + c(3), c(1) * c(1) - c(2) * Fraction(1, 3)
        argv = ("check", "--suite", "all", "--order", "2", "--format", "json")
        code, want, _ = run(capsys, *argv)
        assert code == 0
        product = a * b
        clear_caches()
        again = a * b
        assert list(again.terms.items()) == list(product.terms.items())
        assert run(capsys, *argv) == (0, want, "")

    def test_perfbench_names_stay_empty(self, capsys):
        # perfbench reads len() of the two names; no cache stands behind them.
        assert run(capsys, "check", "--suite", "all", "--order", "3")[0] == 0
        assert polyring._MONO_MUL_CACHE == {} and polyring._MONO_INTERN == {}

    @pytest.mark.parametrize("row, entry, raised, detail", [
        ("Lambda", 0, {"routes", "thm51", "negative-action"},
         "coefficient of z^1 is c1, expected 0"),
        ("F", 1, {"routes"}, "coefficient of z^-1 is c1, expected 0"),
    ])
    def test_raising_self_check_fails_its_suite(self, capsys, monkeypatch, cold_caches,
                                                row, entry, raised, detail):
        # c1 joins one entry of row 3 of the Lambda or F family: a builder's
        # self-check raises inside each suite in ``raised``, which then fails
        # in one cell carrying the message, and the run prints its whole
        # report and exits 1.
        real = faberkernel._marker_family

        def corrupted(name, front, N):
            rows = real(name, front, N)
            if name == row and N >= 3:
                rows[3] = rows[3][:entry] + [rows[3][entry] + c(1)] + rows[3][entry + 1:]
            return rows

        monkeypatch.setattr(faberkernel, "_marker_family", corrupted)
        argv = ("check", "--suite", "all", "--order", "4")
        message = f"EliminationError: elimination failed for p=3: {detail}"
        code, text, err = run(capsys, *argv)
        assert (code, err) == (1, "")
        assert text.endswith("overall: FAIL\n") and "contour p=4" in text
        for name in suites.suite_names():
            failed_cell = f"suite {name}: FAIL (0/1 cells)\n  FAIL {message}\n"
            assert (failed_cell in text) == (name in raised), name
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (1, "")
        obj = json.loads(out)
        assert obj["ok"] is False and len(obj["contour"]) == 5
        cells = {s["suite"]: s["cells"] for s in obj["suites"]}
        assert list(cells) == suites.suite_names() + ["numeric-sweep"]
        assert {name for name, got in cells.items()
                if got == [{"ok": False, "detail": message}]} == raised

    def test_all_gate_small_order(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "all", "--order", "2",
                           "--draws", "2", "--M", "512")
        assert code == 0
        assert "overall: PASS" in out
        assert "numeric-sweep" in out


    @pytest.mark.parametrize("argv", [
        ("--suite", "recursion", "--pmax", "-1"),
        ("--suite", "thm42", "--kmax", "0"),
        ("--suite", "elimination", "--order", "-2"),
        ("--suite", "sweep", "--draws", "0"),
        ("--suite", "contour", "--M", "0", "--pmax", "1"),
    ])
    def test_empty_sizes_are_usage_errors(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2
        assert not out
        assert f"--{argv[2].lstrip('-')} {argv[3]} is below" in err

    def test_pmax_zero_still_runs(self, capsys):
        code, out, _ = run(capsys, "check", "--suite", "recursion", "--pmax", "0")
        assert code == 0
        assert "PASS (1/1 cells)" in out

    def test_suite_without_cells_is_an_error(self, capsys):
        # negative-action starts at p = 1, so --pmax 0 leaves it nothing to check.
        code, out, err = run(capsys, "check", "--suite", "negative-action",
                             "--pmax", "0")
        assert code == 2
        assert "no identity pair" in err

    def test_swept_suite_without_cells_is_an_error(self, capsys):
        # The sweep alone would drop negative-action's pairs and still pass.
        code, out, err = run(capsys, "check", "--suite", "sweep", "--pmax", "0")
        assert code == 2
        assert not out
        assert "suite negative-action: no identity pair" in err

    @pytest.mark.parametrize("flag, value", [("--seed", "random"),
                                             ("--rand-seed", "99"), ("--bound", "3.0")])
    def test_seed_flags_are_not_options(self, capsys, flag, value):
        # check always runs the generic seed (and the Koebe seed of --rho for
        # the contour), so a seed flag it would ignore is refused.
        code, out, err = run(capsys, "check", "--suite", "recursion", flag, value)
        assert code == 2
        assert not out
        assert "unrecognized arguments" in err

    def test_suite_help_lists_registry(self, capsys):
        assert main(["check", "--help"]) == 0
        assert "negative-action" in capsys.readouterr().out


class TestEval:
    def test_lambda_at_point(self, capsys):
        # Lambda_2 at u = 0.3 under the koebe(1/2) seed: -1/u - 3 c1 - a22 u.
        code, out, _ = run(capsys, "eval", "--family", "lambda", "--index", "2",
                           "--seed", "koebe", "--rho", "1/2", "--at", "0.3")
        assert code == 0
        val = complex(out.strip().replace("j", "j"))
        want = -1 / 0.3 - 3.0 - 2.0 * 0.3
        assert abs(val - want) < 1e-12

    def test_requires_numeric_seed(self, capsys):
        code, _, err = run(capsys, "eval", "--family", "lambda", "--index", "1")
        assert code == 2
        assert "numeric seed" in err

    def test_diag_eval(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "diag", "--index", "2",
                           "--seed", "koebe", "--rho", "1/2")
        assert code == 0
        assert out.strip() == "2"

    def test_diag_eval_json(self, capsys):
        code, out, _ = run(capsys, "eval", "--family", "diag", "--index", "2",
                           "--seed", "koebe", "--rho", "1/3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {"diag": "8/9"}
        code, out, _ = run(capsys, "eval", "--family", "diag", "--index", "2",
                           "--seed", "random", "--format", "json")
        assert code == 0
        value = json.loads(out)["diag"]
        assert json.dumps({"diag": value}, indent=2, sort_keys=True) == out.strip()
        assert complex(value).imag != 0

    def test_diag_has_no_marker_variable(self, capsys):
        code, out, err = run(capsys, "eval", "--family", "diag", "--index", "2",
                             "--seed", "koebe", "--at", "0.3")
        assert code == 2
        assert not out
        assert "a_2^2 has none" in err


class TestUsage:
    def test_unknown_verb(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_desk_scale_bound(self, capsys):
        code = main(["lambda", "--p", "99"])
        assert code == 2
        assert "desk-scale bound" in capsys.readouterr().err

    def test_bad_index_message(self, capsys):
        code = main(["faber", "--n", "0"])
        assert code == 2
        assert "need N >= 1" in capsys.readouterr().err

    def test_missing_required_flag(self, capsys):
        assert main(["faber"]) == 2

    def test_output_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        code = main(["faber", "--n", "2", "--format", "json",
                     "--output", str(target)])
        assert code == 0
        parsed = json.loads(target.read_text())
        assert "F" in parsed

    @pytest.mark.parametrize("argv", [
        ("faber", "--n", "2"),
        ("check", "--suite", "recursion", "--pmax", "1"),
    ])
    def test_unwritable_output_is_an_error(self, tmp_path, capsys, argv):
        target = tmp_path / "missing" / "out.txt"
        code = main([*argv, "--output", str(target)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert not target.exists()

    @pytest.mark.parametrize("argv, message", [
        (("eval", "--family", "lambda", "--index", "2", "--seed", "zero",
          "--at", "0"), "--at 0 is a pole of Lambda_2"),
        (("eval", "--family", "faber", "--index", "2", "--seed", "zero",
          "--at", "1/0"), "--at 1/0 has a zero denominator"),
        (("diag", "--p", "2", "--seed", "koebe", "--rho", "1/0"),
         "--rho 1/0 has a zero denominator"),
        (("check", "--suite", "contour", "--rho", "1/0", "--pmax", "1"),
         "--rho 1/0 has a zero denominator"),
        (("check", "--suite", "contour", "--z", "1/0", "--pmax", "1"),
         "--z 1/0 has a zero denominator"),
        (("eval", "--family", "faber", "--index", "2", "--seed", "zero",
          "--at", "1e300"), "F_2 overflows a complex float at --at 1e300"),
        (("check", "--suite", "contour", "--z", "0", "--pmax", "2"),
         "z = 0 is a pole of phi_2"),
        (("check", "--suite", "all", "--z", "0"), "z = 0 is a pole of phi_2"),
    ])
    def test_unusable_point_is_an_error(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_points_are_read_before_any_suite_runs(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("a suite ran before --z was read")

        monkeypatch.setattr(suites, "suite_pairs", unreachable)
        code, _, err = run(capsys, "check", "--suite", "all", "--z", "1/0")
        assert code == 2
        assert err == "error: --z 1/0 has a zero denominator\n"


class TestSignedValues:
    """A value starting with "-" after a space reads like the "=" form."""

    @pytest.mark.parametrize("argv, flag, value", [
        (("check", "--suite", "contour", "--pmax", "2", "--M", "1024"), "--rho", "-1/2"),
        (("diag", "--p", "2", "--seed", "koebe"), "--rho", "-1/2"),
        (("check", "--suite", "contour", "--pmax", "1", "--M", "512"), "--z", "-0.2+0.1j"),
        (("eval", "--family", "faber", "--index", "2", "--seed", "zero"), "--at", "-1/5"),
        (("eval", "--family", "faber", "--index", "2", "--seed", "zero"), "--at", "-0.2+0.1j"),
        (("eval", "--family", "lambda", "--index", "2", "--seed", "koebe",
          "--rho", "-1/2"), "--at", "-0.3"),
    ])
    def test_space_matches_equals_form(self, capsys, argv, flag, value):
        code, out, err = run(capsys, *argv, flag, value)
        want_code, want, _ = run(capsys, *argv, f"{flag}={value}")
        assert (code, err) == (0, "")
        assert want_code == 0
        assert out == want

    def test_rational_point(self, capsys):
        # F_2 = w^2 under the zero seed; -1/5 is the point -0.2.
        code, out, _ = run(capsys, "eval", "--family", "faber", "--index", "2",
                           "--seed", "zero", "--at", "-1/5")
        assert code == 0
        assert complex(out.strip()) == complex(-0.2) ** 2


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "faberfields", "check", "--suite", "recursion", "--pmax", "2"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "overall: PASS" in proc.stdout
