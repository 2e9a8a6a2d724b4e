"""Command-line behavior: formats, exit codes, manifests, round-trips."""

import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import dunham
import dunham.wkb_series as ws
from dunham.cli import (
    EXIT_NUMERIC,
    EXIT_OK,
    EXIT_USAGE,
    _build_parser,
    main,
)
from wkb_checks import series_dict

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_within_root_width(energies, before):
    """Each energy within twice the root finder's stopping width,
    bisection_rtol*(1+|E|), of where an earlier root finder put it."""
    assert len(energies) == len(before)
    for E, old in zip(energies, before):
        assert abs(E - old) <= 2 * dunham.DEFAULT_CONFIG.bisection_rtol * (1 + abs(old))


class TestTerms:
    def test_plain_first_two(self, capsys):
        code, out, _ = run(capsys, "terms", "--n-max", "1")
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "T_0 = -Q^(1/2)"
        assert lines[1] == "T_1 = -1/4 * Q' * Q^-1"

    def test_plain_matches_golden(self, capsys):
        code, out, _ = run(capsys, "terms", "--n-max", "4")
        assert code == EXIT_OK
        assert out == (GOLDEN / "terms_plain_n4.txt").read_text()

    def test_latex_matches_golden(self, capsys):
        code, out, _ = run(capsys, "terms", "--n-max", "3", "--format", "latex")
        assert code == EXIT_OK
        assert out == (GOLDEN / "terms_latex_n3.txt").read_text()

    def test_json_roundtrips_to_fresh_terms(self, capsys):
        code, out, _ = run(capsys, "terms", "--n-max", "5", "--format", "json")
        assert code == EXIT_OK
        assert json.loads(out) == series_dict(ws.gen_terms(5))

    def test_single_term_json(self, capsys):
        code, out, _ = run(capsys, "terms", "--n-max", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert doc["max_order"] == 0 and len(doc["terms"]) == 1

    def test_n20_json_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "terms", "--n-max", "20", "--format", "json")
        assert code == EXIT_OK
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "c2252e701760545be6f45efbefe956ede0631330b6363c1ca1c2f92d0261f173"

    def test_negative_n_max(self, capsys):
        code, _, err = run(capsys, "terms", "--n-max", "-1")
        assert code == EXIT_USAGE and "n-max" in err


class TestVerifyOdd:
    def test_verifies_through_n4(self, capsys):
        code, out, _ = run(capsys, "verify-odd", "--n-max", "4")
        assert code == EXIT_OK
        assert out.count("verified=True") == 4
        assert "all verified" in out

    def test_n8_payload_exact(self, capsys):
        code, out, _ = run(capsys, "verify-odd", "--n-max", "8")
        assert code == EXIT_OK
        counts = [(3, 2), (7, 5), (15, 11), (30, 22), (56, 42), (101, 77), (176, 135),
                  (297, 231)]
        want = [
            f"n={n} verified=True F_monomials={f} Phi_monomials={phi}"
            for n, (f, phi) in enumerate(counts, start=1)
        ]
        assert out == "\n".join(want + ["all verified"]) + "\n"

    def test_zero_is_usage_error(self, capsys):
        code, _, err = run(capsys, "verify-odd", "--n-max", "0")
        assert code == EXIT_USAGE

    def test_missing_flag_is_usage_error(self, capsys):
        assert main(["verify-odd"]) == EXIT_USAGE


class TestSpectrum:
    def test_harmonic_levels(self, capsys):
        code, out, _ = run(capsys, "spectrum", "x^2", "--levels", "4", "--order", "2")
        assert code == EXIT_OK
        energies = [float(line.split()[1]) for line in out.splitlines()[1:]]
        assert energies == pytest.approx([1.0, 3.0, 5.0, 7.0], abs=1e-8)

    def test_parse_error_names_token(self, capsys):
        code, _, err = run(capsys, "spectrum", "sin(x)")
        assert code == EXIT_USAGE
        assert "sin" in err

    def test_nonconfining_is_numeric_error(self, capsys):
        code, _, err = run(capsys, "spectrum", "-- -x^2")
        # argparse treats "-x^2" after -- as positional
        assert code in (EXIT_NUMERIC, EXIT_USAGE)

    @pytest.mark.parametrize("command", ["spectrum", "oracle", "compare"])
    def test_odd_degree_is_refused_by_name(self, capsys, command):
        # refused before any probe: x^3 + x^2 once walked to E = 8e59 and
        # blamed the seed, and the oracle advised "at most 0" levels
        code, out, err = run(capsys, command, "x^3 + x^2")
        assert code == EXIT_NUMERIC and out == ""
        assert "odd degree 3" in err

    @pytest.mark.parametrize("command", ["spectrum", "oracle"])
    @pytest.mark.parametrize("potential", [
        "x^2 + 1e400", "1e307*x^20", "1e-400*x^2", "1e-300*x^2",
    ])
    def test_coefficients_at_the_float_limits_exit_cleanly(self, capsys, command, potential):
        # each once ended in a traceback: OverflowError, IndexError or
        # numpy's LinAlgError
        code, out, err = run(capsys, command, potential)
        assert code in (EXIT_USAGE, EXIT_NUMERIC) and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")

    def test_coefficient_far_past_the_float_range_exits_fast(self, capsys):
        for potential, what in [
            # once 18 s in an exact decimal conversion, then a decimal.Overflow traceback
            ("1e1000000*x^2", "overflows a float"),
            # each once 8 to 10 s building 10^10000000 exactly
            ("1e10000000*x^2", "1.000e+10000000, overflows a float"),
            ("1e-10000000*x^2", "1.000e-10000000, rounds to 0 as a float"),
        ]:
            start = time.perf_counter()
            code, out, err = run(capsys, "spectrum", potential)
            assert time.perf_counter() - start < 1.0, potential
            assert code == EXIT_NUMERIC and out == ""
            assert err.startswith("error: ") and what in err

    @pytest.mark.parametrize("potential, position", [
        ("1" * 5000 + "*x^2", 0), ("x^" + "2" * 5000, 2),
    ], ids=["coefficient", "exponent"])
    def test_over_long_number_is_a_parse_error(self, capsys, potential, position):
        # once exit 3 with Python's advice to call sys.set_int_max_str_digits()
        code, out, err = run(capsys, "spectrum", potential)
        assert code == EXIT_USAGE and out == ""
        limit = sys.get_int_max_str_digits()
        assert f"number of 5000 characters, past the limit of {limit} digits" in err
        assert f"at position {position}" in err
        assert "set_int_max_str_digits" not in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("potential, message", [
        # each branch of the grammar that can fail, at the end of the text
        # and on a wrong token; "found None" once stood for the end
        ("1/", "expected number, found end at position 2"),
        ("1/x^2", "expected number, found 'x' at position 2"),
        ("1/0*x^2", "zero denominator at position 2"),
        ("x^", "expected integer exponent, found end at position 2"),
        ("x^1.5", "expected integer exponent, found '1.5' at position 2"),
        ("x^2 +", "expected coefficient or x, found end at position 5"),
        ("2*", "expected coefficient or x, found end at position 2"),
        ("x^2 + *x", "expected coefficient or x, found '*' at position 6"),
    ])
    def test_malformed_potential_is_a_parse_error_naming_its_place(
        self, capsys, potential, message
    ):
        code, out, err = run(capsys, "spectrum", potential)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("command, flag, value, message", [
        ("spectrum", "--levels", "0", "--levels must be >= 1"),
        ("spectrum", "--order", "-1", "--order must be >= 0"),
        ("compare", "--order", "-1", "orders must be >= 0"),
    ])
    def test_count_out_of_range_is_usage_error(self, capsys, command, flag, value, message):
        code, out, err = run(capsys, command, "x^4", flag, value)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("seed", ["-3", "0", "1e-300"])
    def test_seed_not_above_the_minimum_names_both(self, capsys, seed):
        code, out, err = run(capsys, "spectrum", "x^4", "--levels", "2", "--seed-bracket", seed)
        assert code == EXIT_NUMERIC and out == ""
        assert f"seed {float(seed)!r} is not above" in err and "Vmin = 0.0" in err
        assert "turning point" not in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, "spectrum", "x^2", "--levels", "2",
                           "--order", "1", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "K,E,residual,B_0,B_2,optimal_truncation_index"

    # `before`: the energies of the bracket walk and Brent's method, before
    # Newton's method moved them within the root finder's width.  Starting
    # cold quadratures at 256 nodes moved x^2+x^4 (order 4) by at most
    # 5.4e-16 relative; fourth-order root steps moved x^4 (order 2) by at
    # most 3.4e-13 and x^2+x^4 by at most 6.2e-16 relative; taking the
    # phase's E-derivatives as one sum moved x^4 (order 2, K = 1) by 1 ulp;
    # the confocal contour moved x^4 (order 2) by at most 3.4e-16 and
    # x^2+x^4 (order 4) by at most 8.8e-16 relative
    @pytest.mark.parametrize("potential, levels, order, digest, before", [
        ("x^4", "6", "2", "3d67f7dbd1e81879d0b83ac3c288ed0c4a9a20afda7a2febd6e2554f8d23f48f",
         (0.951643031492925, 3.8083772608430615, 7.455282447600405, 11.644778692674349,
          16.261828561550416, 21.23837444314955)),
        ("x^2+x^4", "4", "4", "12990460b19b6f4a29da85ea5326d81efcd2ab45062d31d62c9290cb701e2ad7",
         (1.2611880033769918, 4.6503264580976875, 8.654983170276324, 13.156806092181661)),
    ], ids=["x^4-6-2", "x^2+x^4-4-4"])
    def test_csv_bytes_pinned(self, capsys, potential, levels, order, digest, before):
        # the same bytes at 1 and 2 BLAS threads
        code, out, _ = run(capsys, "spectrum", potential, "--levels", levels,
                           "--order", order, "--format", "csv")
        assert code == EXIT_OK
        assert_within_root_width([float(line.split(",")[1]) for line in out.splitlines()[1:]],
                                 before)
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_json_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "spectrum", "x^4", "--levels", "6", "--order", "2",
                           "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "ea856c7211466329deef81dd3002b6754fadde7f8be36bb12f855c26e03208b2")

    @pytest.mark.parametrize("seed", ["1e-10", "0.05"])
    def test_seed_near_the_bottom_names_seed_and_vmin(self, capsys, seed):
        # every level used to end in "turning point near x = -0.00316228 is
        # degenerate (V' vanishes)", which names neither the seed nor Vmin
        code, out, err = run(capsys, "spectrum", "x^4", "--levels", "2",
                             "--seed-bracket", seed)
        assert code == EXIT_NUMERIC and out == ""
        for K in (0, 1):
            assert re.search(rf"K={K}: no bracket for level K={K} from the seed E={seed}: "
                             r"the phase fails at E=\S+ \(Vmin = 0\.0\) with "
                             r"DegenerateTurningPointError: ", err)

    def test_oracle_bytes_do_not_depend_on_blas_threads(self, tmp_path):
        # the dense oracle failed its gate on x^6 with 2 threads (1.51e-9)
        # and passed with 1; the banded one gives the same bytes at both
        script = (
            "import sys\n"
            "from dunham.cli import main\n"
            "out = sys.argv[1]\n"
            "for name, argv in (('oracle', ['oracle', 'x^6', '--levels', '6']),\n"
            "                   ('compare', ['compare', 'x^4', '--levels', '6',\n"
            "                                '--order', '0,1,2'])):\n"
            "    code = main(argv + ['--format', 'csv', '--output', f'{out}-{name}.csv',\n"
            "                        '--manifest-out', f'{out}-{name}.json'])\n"
            "    assert code == 0, (argv, code)\n"
        )
        src = str(Path(dunham.__file__).resolve().parents[1])
        payloads = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=os.pathsep.join(
                [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
            out = str(tmp_path / threads)
            proc = subprocess.run([sys.executable, "-c", script, out], cwd=tmp_path, env=env,
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            payloads[threads] = [Path(f"{out}-{name}.csv").read_bytes()
                                 for name in ("oracle", "compare")]
        assert payloads["1"] == payloads["2"]
        compare = payloads["1"][1].decode()
        # E_dunham at orders 0, 1 and 2 as the bracket walk and Brent's
        # method found them; the confocal contour left order 0 as it was and
        # moved orders 1 and 2 by at most 4.8e-16 relative
        before = (
            0.8671453264848213, 3.751919923550433, 7.413988252810779, 11.61152534519711,
            16.23361469270525, 21.213653359057183,
            0.9807662903102012, 3.8103299509477613, 7.455795678758569, 11.644989489759539,
            16.261936743805126, 21.238437894238672,
            0.951643031492925, 3.8083772608430615, 7.455282447600405, 11.644778692674349,
            16.261828561550416, 21.23837444314955,
        )
        assert_within_root_width(
            [float(line.split(",")[2]) for line in compare.splitlines()[1:]], before)
        assert hashlib.sha256(payloads["1"][1]).hexdigest() == (
            "2430438359555de7cb8fbc301962f75ba4eaea7d8fa228e4206d60c7feec7e86")

    def test_json_format_states_convention(self, capsys):
        code, out, _ = run(capsys, "spectrum", "x^2", "--levels", "1",
                           "--order", "0", "--format", "json")
        assert code == EXIT_OK
        doc = json.loads(out)
        assert "(K + 1/2)*pi" in doc["convention"]
        assert doc["results"][0]["E"] == pytest.approx(1.0, abs=1e-8)


    def test_solving_never_imports_scipy(self, tmp_path):
        # scipy is most of the import time and only the oracle needs it
        script = (
            "import sys\n"
            "from dunham.cli import main\n"
            "for argv in (['terms', '--n-max', '4'], ['spectrum', 'x^4', '--levels', '2']):\n"
            "    assert main(argv) == 0, argv\n"
            "print('scipy' in sys.modules)\n"
        )
        src = str(Path(dunham.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
        proc = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_include_odd_numeric_flag_is_gone(self, capsys, command):
        # odd orders are always dropped once certified; there is no other path
        code, _, err = run(capsys, command, "x^4", "--include-odd-numeric")
        assert code == EXIT_USAGE
        assert "--include-odd-numeric" in err

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    @pytest.mark.parametrize("flag", ["--margin", "--tol"])
    def test_tolerance_flags_are_gone(self, capsys, command, flag):
        # the contour margin and quadrature tolerance are fixed constants
        code, out, err = run(capsys, command, "x^4", flag, "0.7")
        assert (code, out) == (EXIT_USAGE, "")
        assert f"unrecognized arguments: {flag} 0.7" in err


class TestOracle:
    def test_harmonic(self, capsys):
        code, out, _ = run(capsys, "oracle", "x^2", "--levels", "3")
        assert code == EXIT_OK
        energies = [float(line.split()[1]) for line in out.splitlines()[1:]]
        assert energies == pytest.approx([1.0, 3.0, 5.0], abs=1e-9)

    def test_zero_count_usage(self, capsys):
        code, _, _ = run(capsys, "oracle", "x^2", "--levels", "0")
        assert code == EXIT_USAGE

    def test_level_cap_is_usage_error(self, capsys):
        # the default basis of 256 returns at most 64 levels
        code, out, err = run(capsys, "oracle", "x^4", "--levels", "65")
        assert code == EXIT_USAGE
        assert "--levels must be <= 64" in err and out == ""

    def test_unresolved_level_names_a_remedy_the_cli_offers(self, capsys):
        # no flag sets the basis size, so the refusal asks for fewer levels
        code, out, err = run(capsys, "oracle", "x^4", "--levels", "64")
        assert code == EXIT_NUMERIC and out == ""
        assert "level 56 converged only to" in err
        assert "fewer --levels (at most 56)" in err and "basis_size" not in err

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_unresolved_ground_state_offers_no_level_count(self, capsys, command):
        # level 0 of x^40 misses the gate: fewer --levels cannot help
        code, out, err = run(capsys, command, "x^40", "--levels", "1")
        assert code == EXIT_NUMERIC and out == ""
        assert "level 0 converged only to" in err
        assert "no --levels value passes at this fixed basis" in err and "at most" not in err
        code, _, _ = run(capsys, "oracle", "x^4", "--levels", "56", "--format", "csv")
        assert code == EXIT_OK

    @pytest.mark.parametrize("fmt, digest", [
        ("csv", "db432bedc54226f7960dd37503b19d32936131ba1f769f72211fe92fd64b0431"),
        ("json", "33d7d328ddf4df5bedef3d33b0f514bc00e4b0519040189d639f0fbe392bd35f"),
    ])
    def test_bytes_pinned(self, capsys, fmt, digest):
        code, out, _ = run(capsys, "oracle", "x^6", "--levels", "6", "--format", fmt)
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_csv(self, capsys):
        code, out, _ = run(capsys, "oracle", "x^4", "--levels", "2", "--format", "csv")
        assert code == EXIT_OK
        assert out.splitlines()[0] == "K,E,convergence_estimate"

    def test_mode_flag_is_gone(self, capsys):
        code, _, _ = run(capsys, "oracle", "x^2", "--mode", "finite_difference")
        assert code == EXIT_USAGE


class TestCompare:
    def test_harmonic_all_orders_tight(self, capsys):
        code, out, _ = run(capsys, "compare", "x^2", "--levels", "3",
                           "--order", "0,2", "--format", "csv")
        assert code == EXIT_OK
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert len(rows) == 6
        for row in rows:
            assert abs(float(row[4])) < 1e-8  # abs_error column

    def test_json_bytes_pinned(self, capsys):
        code, out, _ = run(capsys, "compare", "x^4", "--levels", "6", "--order", "0,1,2",
                           "--format", "json")
        assert code == EXIT_OK
        assert hashlib.sha256(out.encode()).hexdigest() == (
            "83eb14468367384bc91f4cda4890db87f3fbf3ee2cd4720192ff57b51efe6af7")

    def test_plain_output_agrees_with_csv(self, capsys):
        argv = ["compare", "x^4", "--levels", "6", "--order", "0,1,2"]
        code, plain, _ = run(capsys, *argv)
        assert code == EXIT_OK
        code, csv, _ = run(capsys, *argv, "--format", "csv")
        assert code == EXIT_OK
        header, *lines = plain.splitlines()
        assert header.split() == ["K", "order", "E_dunham", "E_oracle", "rel_error"]
        rows = [line.split(",") for line in csv.splitlines()[1:]]
        assert len(lines) == len(rows) == 18
        for line, row in zip(lines, rows):
            K, order, e_dunham, e_oracle, rel_error = line.split()
            assert (K, order) == (row[0], row[1])
            assert e_dunham == f"{float(row[2]):.12f}" and e_oracle == f"{float(row[3]):.12f}"
            assert rel_error == f"{float(row[5]):.3e}"

    def test_empty_orders_usage(self, capsys):
        code, _, err = run(capsys, "compare", "x^2", "--order", "")
        assert code == EXIT_USAGE

    @pytest.mark.parametrize("orders, entry", [("1.5", "1.5"), ("0,a", "a"), ("0, 2x", "2x")])
    def test_non_integer_order_usage(self, capsys, orders, entry):
        code, out, err = run(capsys, "compare", "x^4", "--order", orders)
        assert code == EXIT_USAGE and out == ""
        assert err == f"error: --order takes comma-separated integers, got {entry!r}\n"

    def test_zero_levels_usage(self, capsys):
        code, _, err = run(capsys, "compare", "x^4", "--levels", "0")
        assert code == EXIT_USAGE
        assert "--levels must be >= 1" in err

    def test_level_cap_is_usage_error(self, capsys):
        code, out, err = run(capsys, "compare", "x^4", "--levels", "65")
        assert code == EXIT_USAGE
        assert "--levels must be <= 64" in err and out == ""

    def test_repeated_order_usage(self, capsys):
        code, out, err = run(capsys, "compare", "x^2", "--levels", "2", "--order", "2,0,2")
        assert code == EXIT_USAGE
        assert "order 2 more than once" in err
        assert out == ""

    def test_unknown_command_usage(self):
        assert main(["frobnicate"]) == EXIT_USAGE


class TestReadme:
    """The README's command-line section and the parser name the same flags."""

    @staticmethod
    def readme_cli_section():
        text = (Path(__file__).parents[1] / "README.md").read_text()
        start = text.index("## Command line")
        return text[start:text.index("\n## ", start)]

    def test_every_flag_named_exists(self):
        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
        known = {flag for p in [parser, *subparsers.choices.values()]
                 for action in p._actions for flag in action.option_strings}
        named = set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", self.readme_cli_section()))
        assert named and named <= known, named - known

    def test_every_numeric_flag_is_documented(self):
        # the float-valued flags of spectrum and compare: the seed energy
        parser = _build_parser()
        (subparsers,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
        section = self.readme_cli_section()
        flags = {f for name in ("spectrum", "compare")
                 for a in subparsers.choices[name]._actions if a.type is float
                 for f in a.option_strings}
        assert flags == {"--seed-bracket"}
        assert all(f"`{flag}`" in section for flag in flags)


class TestManifest:
    COMMANDS = {
        "terms": ["terms", "--n-max", "3", "--format", "json"],
        "verify-odd": ["verify-odd", "--n-max", "3"],
        "spectrum": ["spectrum", "x^2", "--levels", "2", "--order", "1", "--format", "csv"],
        "oracle": ["oracle", "x^4", "--levels", "2", "--format", "csv"],
        "compare": ["compare", "x^2", "--levels", "2", "--order", "0,1", "--format", "csv"],
    }

    def test_payload_bytes_deterministic_and_manifest_carries_timestamp(self, tmp_path, capsys):
        for command, args in self.COMMANDS.items():
            out1 = tmp_path / f"{command}-a.out"
            out2 = tmp_path / f"{command}-b.out"
            assert main(args + ["--output", str(out1)]) == EXIT_OK
            assert main(args + ["--output", str(out2)]) == EXIT_OK
            assert out1.read_bytes() == out2.read_bytes(), command
            m1 = json.loads((tmp_path / f"{command}-a.out.manifest.json").read_text())
            assert m1["tool_version"]
            assert "timestamp" in m1
            assert m1["command"][0] == "dunham"
            if command == "spectrum":
                # the command's own values; the tool version identifies the
                # numeric constants, and a given seed is an argument
                assert m1["config"] == {"levels": 2, "order": 1}
                assert "seed_bracket" not in m1["arguments"]

    @pytest.mark.parametrize("command", ["spectrum", "compare"])
    def test_a_given_seed_is_recorded_as_an_argument(self, tmp_path, capsys, command):
        out = tmp_path / "out.csv"
        args = self.COMMANDS[command] + ["--seed-bracket", "2.5", "--output", str(out)]
        assert main(args) == EXIT_OK
        doc = json.loads((tmp_path / "out.csv.manifest.json").read_text())
        assert doc["arguments"]["seed_bracket"] == 2.5
        assert set(doc["config"]) == ({"levels", "order"} if command == "spectrum"
                                      else {"levels", "orders", "oracle"})

    def test_verify_odd_timings_live_in_the_manifest(self, tmp_path, capsys):
        out = tmp_path / "odd.txt"
        assert main(["verify-odd", "--n-max", "2", "--output", str(out)]) == EXIT_OK
        assert "elapsed" not in out.read_text()
        doc = json.loads((tmp_path / "odd.txt.manifest.json").read_text())
        assert set(doc["timings"]["certify_s"]) == {"1", "2"}

    def test_compare_records_its_oracle_config(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        assert main(self.COMMANDS["compare"] + ["--output", str(out)]) == EXIT_OK
        doc = json.loads((tmp_path / "cmp.csv.manifest.json").read_text())
        assert doc["config"]["oracle"] == {
            "basis_size": 256, "mode": "oscillator_basis", "convergence_tolerance": 1e-9,
        }

    def test_manifest_out_override(self, tmp_path, capsys):
        out = tmp_path / "terms.json"
        man = tmp_path / "custom_manifest.json"
        code = main(["terms", "--n-max", "2", "--format", "json",
                     "--output", str(out), "--manifest-out", str(man)])
        assert code == EXIT_OK
        assert man.exists() and not (tmp_path / "terms.json.manifest.json").exists()
        doc = json.loads(man.read_text())
        assert doc["arguments"]["n_max"] == 2
