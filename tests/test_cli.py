"""End-to-end tests of the ``pil`` command line via its in-process entry.

The JSON and CSV emitters are contractual: 17-significant-digit floats,
byte-identical output across runs, idempotent under parse/re-emit.
"""

import dataclasses
import json
import math
import os
import subprocess
import sys

import pytest

from paramint import catalog
from paramint.cli import _emit_json, run

ALL_IDS = ["gauss", "ex1", "ex2", "ex3_beta", "ex3_alpha", "ex4"]

RESULT_KEYS = [
    "alpha",
    "direct",
    "direct_err_est",
    "reconstructed",
    "closed_form",
    "disc_direct_closed",
    "disc_recon_direct",
    "pass",
]


def invoke(capsys, *args):
    code = run(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestListCommand:
    def test_text(self, capsys):
        code, out, _ = invoke(capsys, "list")
        assert code == 0
        for entry_id in ALL_IDS:
            assert entry_id in out

    def test_json(self, capsys):
        code, out, _ = invoke(capsys, "list", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [e["id"] for e in doc["entries"]] == ALL_IDS

    def test_csv_not_defined(self, capsys):
        code, _, err = invoke(capsys, "list", "--format", "csv")
        assert code == 2
        assert err


class TestEvalCommand:
    def test_json_envelope_shape(self, capsys):
        code, out, _ = invoke(capsys, "eval", "ex1", "--alpha", "1", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert list(doc) == [
            "tool_version",
            "entry_id",
            "inputs",
            "results",
            "overall_pass",
        ]
        assert doc["entry_id"] == "ex1"
        assert doc["overall_pass"] is True
        (row,) = doc["results"]
        assert list(row) == RESULT_KEYS
        assert abs(row["direct"] - math.pi) < 1e-7
        assert row["reconstructed"] is None
        assert row["disc_recon_direct"] is None
        assert row["pass"] is True

    def test_out_of_domain_exits_3(self, capsys):
        code, out, err = invoke(capsys, "eval", "ex2", "--alpha", "0.5")
        assert code == 3
        assert out == ""
        assert "0.5" in err and "ex2" in err

    def test_unknown_id_exits_2_naming_valid_ids(self, capsys):
        code, _, err = invoke(capsys, "eval", "nope", "--alpha", "1")
        assert code == 2
        for entry_id in ALL_IDS:
            assert entry_id in err

    def test_missing_alpha_exits_2(self, capsys):
        code, _, err = invoke(capsys, "eval", "ex1")
        assert code == 2
        assert "--alpha" in err

    def test_tight_tolerance_flips_to_exit_1(self, capsys):
        code, out, _ = invoke(
            capsys, "eval", "ex1", "--alpha", "1", "--tol-direct", "1e-15",
            "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["overall_pass"] is False

    @pytest.mark.parametrize("alpha", ["0.5", "0.99", "1"])
    def test_every_point_gated_at_default_tolerance(self, capsys, monkeypatch, alpha):
        # a closed form off by 1e-6 * alpha breaks the 1e-7 direct gate at
        # every ex4 point, the endpoint-singular ones included
        entry = catalog.get("ex4")
        closed = entry.parametric.solution_closed
        shifted = dataclasses.replace(
            entry,
            parametric=dataclasses.replace(
                entry.parametric, solution_closed=lambda a: closed(a) + 1e-6 * a
            ),
        )
        monkeypatch.setitem(catalog._BY_ID, "ex4", shifted)
        code, out, _ = invoke(capsys, "eval", "ex4", "--alpha", alpha, "--format", "json")
        assert code == 1
        (row,) = json.loads(out)["results"]
        assert row["pass"] is False


class TestSweepCommand:
    def test_csv_row_count_and_header(self, capsys):
        code, out, _ = invoke(
            capsys, "sweep", "ex1", "--from", "0.25", "--to", "4", "--steps", "6",
            "--format", "csv",
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "alpha,direct,closed_form,abs_diff"
        assert len(lines) == 1 + 6  # header + exactly `steps` data rows
        for line in lines[1:]:
            assert len(line.split(",")) == 4
            assert "," in line and ";" not in line  # no locale decimal comma

    def test_csv_deterministic(self, capsys):
        args = ("sweep", "ex4", "--from", "0", "--to", "0.9", "--steps", "4",
                "--format", "csv")
        _, first, _ = invoke(capsys, *args)
        _, second, _ = invoke(capsys, *args)
        assert first == second

    def test_validation(self, capsys):
        code, _, _ = invoke(capsys, "sweep", "ex1", "--from", "2", "--to", "1",
                            "--steps", "5")
        assert code == 2
        code, _, _ = invoke(capsys, "sweep", "ex1", "--from", "1", "--to", "2",
                            "--steps", "1")
        assert code == 2
        code, _, _ = invoke(capsys, "sweep", "ex1", "--from", "1", "--to", "2")
        assert code == 2

    def test_alpha_is_not_a_sweep_option(self, capsys):
        code, out, err = invoke(capsys, "sweep", "ex1", "--alpha", "7", "--from", "0.25",
                                "--to", "4", "--steps", "3")
        assert code == 2
        assert out == ""
        assert "--alpha" in err

    def test_domain_violation_mid_sweep_exits_3(self, capsys):
        code, _, err = invoke(capsys, "sweep", "ex2", "--from", "0.5", "--to", "2",
                              "--steps", "4")
        assert code == 3
        assert "0.5" in err

    @pytest.mark.parametrize("entry_id, lo, hi, steps", [
        ("ex4", "0.325", "1", 7),  # from + span * 6/6 is 1.0000000000000002
        ("ex1", "0.866", "3.881", 4),  # 3.8809999999999993
        ("ex2", "2.542", "3.892", 7),  # 3.8920000000000003
    ])
    def test_last_point_is_to_exactly(self, capsys, entry_id, lo, hi, steps):
        code, out, _ = invoke(capsys, "sweep", entry_id, "--from", lo, "--to", hi,
                              "--steps", str(steps), "--format", "json")
        assert code == 0
        alphas = [row["alpha"] for row in json.loads(out)["results"]]
        a, b = float(lo), float(hi)
        assert alphas == [a + (b - a) * i / (steps - 1) for i in range(steps - 1)] + [b]

    @pytest.mark.parametrize("entry_id, lo, hi", [
        ("gauss", "-1e308", "1e308"),  # the span itself overflows
        ("gauss", "1e-300", "1e308"),  # span * (steps - 1) overflows
    ])
    def test_overflowing_grid_is_a_usage_error(self, capsys, entry_id, lo, hi):
        code, out, err = invoke(capsys, "sweep", entry_id, "--from", lo, "--to", hi,
                                "--steps", "3", "--format", "csv")
        assert code == 2
        assert out == ""
        assert "--from" in err and "--to" in err


class TestReconstructCommand:
    def test_matches_direct(self, capsys):
        code, out, _ = invoke(
            capsys, "reconstruct", "ex4", "--alpha", "0.5", "--format", "json"
        )
        assert code == 0
        (row,) = json.loads(out)["results"]
        assert row["disc_recon_direct"] <= 1e-6
        assert row["pass"] is True

    def test_unanchored_entry_exits_2(self, capsys):
        code, _, err = invoke(capsys, "reconstruct", "gauss", "--alpha", "1")
        assert code == 2
        assert "anchor" in err


class TestVerifyCommand:
    def test_single_entry(self, capsys):
        code, out, _ = invoke(capsys, "verify", "ex3_beta", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        alphas = [r["alpha"] for r in doc["results"]]
        assert alphas == sorted(alphas)
        assert doc["overall_pass"] is True

    def test_all_exits_0(self, capsys):
        code, out, _ = invoke(capsys, "verify", "all", "--format", "json")
        assert code == 0
        doc = json.loads(out)
        assert [r["entry_id"] for r in doc["reports"]] == ALL_IDS
        assert doc["overall_pass"] is True

    def test_default_id_is_all(self, capsys):
        code, out, _ = invoke(capsys, "verify", "--format", "json")
        assert code == 0
        assert len(json.loads(out)["reports"]) == len(ALL_IDS)

    def test_byte_stability(self, capsys):
        _, first, _ = invoke(capsys, "verify", "all", "--format", "json")
        _, second, _ = invoke(capsys, "verify", "all", "--format", "json")
        assert first == second

    def test_impossible_tolerance_exits_1(self, capsys):
        code, out, _ = invoke(
            capsys, "verify", "ex1", "--tol-direct", "1e-16", "--format", "json"
        )
        assert code == 1
        assert json.loads(out)["overall_pass"] is False

    def test_ex4_reconstructs_its_edge_point_to_1e_12(self, capsys):
        # alpha = 1, where the rhs blows up, is the tightest point
        code, out, _ = invoke(
            capsys, "verify", "ex4", "--tol-recon", "1e-12", "--format", "json"
        )
        assert code == 0
        assert json.loads(out)["overall_pass"] is True

    def test_text_format(self, capsys):
        code, out, _ = invoke(capsys, "verify", "ex4")
        assert code == 0
        assert "overall: pass" in out


class TestSerialization:
    def test_json_round_trip_idempotent(self, capsys):
        for args in (
            ("verify", "all", "--format", "json"),
            ("eval", "gauss", "--alpha", "2", "--format", "json"),
            ("sweep", "ex2", "--from", "1.5", "--to", "5", "--steps", "3",
             "--format", "json"),
        ):
            _, out, _ = invoke(capsys, *args)
            text = out.strip()
            once = _emit_json(json.loads(text))
            twice = _emit_json(json.loads(once))
            assert once == text
            assert twice == once

    def test_unsupported_type_is_refused(self):
        with pytest.raises(TypeError, match="cannot serialize set"):
            _emit_json({"grid": {1.0}})

    def test_nonfinite_floats_serialize_to_null(self):
        assert _emit_json(math.nan) == "null"
        assert _emit_json(math.inf) == "null"

    def test_negative_zero_round_trips(self):
        # "-0" would re-parse as the integer 0 and re-emit as "0"
        text = _emit_json({"closed_form": -0.0, "direct": [0.0, -0.0]})
        assert text == '{"closed_form":-0.0,"direct":[0,-0.0]}'
        again = json.loads(text)
        assert math.copysign(1.0, again["closed_form"]) == -1.0
        assert _emit_json(again) == text

    def test_seventeen_significant_digits(self):
        x = 0.1 + 0.2
        assert _emit_json(x) == "0.30000000000000004"
        assert json.loads(_emit_json(math.pi)) == math.pi

    def test_out_writes_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = invoke(
            capsys, "eval", "ex1", "--alpha", "4", "--format", "json",
            "--out", str(path),
        )
        assert code == 0
        assert out == ""
        doc = json.loads(path.read_text())
        assert doc["entry_id"] == "ex1"

    def test_unwritable_out_exits_2(self, capsys, tmp_path):
        path = tmp_path / "missing" / "r.json"
        code, out, err = invoke(capsys, "verify", "ex2", "--out", str(path))
        assert code == 2
        assert out == ""
        assert err.startswith(f"pil: cannot write report to {str(path)!r}")
        assert not path.exists()


class TestArgparsePlumbing:
    def test_no_command_exits_2(self, capsys):
        assert invoke(capsys, )[0] == 2

    def test_help_exits_0(self, capsys):
        assert invoke(capsys, "--help")[0] == 0

    def test_bad_format_exits_2(self, capsys):
        assert invoke(capsys, "eval", "ex1", "--alpha", "1", "--format", "xml")[0] == 2

    @pytest.mark.parametrize("value", ["inf", "nan", "-1", "0", "1e-400", "tight"])
    @pytest.mark.parametrize("command", [
        ("eval", "gauss", "--alpha", "1", "--tol-direct"),
        ("sweep", "gauss", "--tol-direct"),
        ("reconstruct", "ex1", "--alpha", "1", "--tol-recon"),
        ("verify", "ex2", "--tol-direct"),
        ("verify", "all", "--tol-recon"),
    ], ids=" ".join)
    def test_tolerance_that_is_not_finite_and_positive_exits_2(self, capsys, command, value):
        # an infinite gate would print as null, exactly like an unset one
        code, out, err = invoke(capsys, *command, value, "--format", "json")
        assert code == 2
        assert out == ""
        assert "must be a finite positive number" in err

    @pytest.mark.parametrize("value", ["inf", "-inf", "nan", "1e400", "one"])
    @pytest.mark.parametrize("command", [
        ("eval", "gauss", "--format", "json", "--alpha"),
        ("reconstruct", "ex1", "--alpha"),
        ("sweep", "gauss", "--from", "1", "--steps", "2", "--to"),
        ("sweep", "gauss", "--to", "2", "--steps", "2", "--from"),
    ], ids=" ".join)
    def test_parameter_value_that_is_not_finite_exits_2(self, capsys, command, value):
        # eval gauss --alpha inf printed "alpha":null with exit 0; a sweep to
        # inf failed at alpha=nan, and reconstruct ex1 at inf exited 3 on an
        # internal DomainSpec message
        *head, flag = command
        code, out, err = invoke(capsys, *head, f"{flag}={value}")
        assert code == 2
        assert out == ""
        assert "must be a finite number" in err

    @pytest.mark.parametrize("value", ["-inf", "-nan", "-1e400"])
    def test_negative_value_that_is_not_finite_as_its_own_token_exits_2(self, capsys, value):
        # argparse read these as options: "expected one argument"
        code, out, err = invoke(capsys, "sweep", "gauss", "--to", "2", "--steps", "2", "--from", value)
        assert (code, out) == (2, "")
        assert "argument --from: must be a finite number" in err

    @pytest.mark.parametrize("head, flag, tail", [
        (("sweep", "ex3_beta"), "--from", ("--to", "1", "--steps", "2")),
        (("eval", "ex2"), "--alpha", ()),
        (("sweep", "ex3_beta"), "--fr", ("--to", "1", "--steps", "2")),
        (("eval", "ex2"), "--alp", ()),
    ], ids=["sweep", "eval", "sweep_abbreviated", "eval_abbreviated"])
    def test_negative_value_with_an_exponent_reads_as_a_value(self, capsys, head, flag, tail):
        # argparse took -1e-3 for an option: "expected one argument", exit 2
        exp, dec = (invoke(capsys, *head, flag, v, *tail) for v in ("-1e-3", "-0.001"))
        assert exp == dec
        assert exp[0] == 3 and "alpha=-0.001 outside the valid parameter domain" in exp[2]

    @pytest.mark.parametrize("value", ["-1e-3", "-0.001"])
    @pytest.mark.parametrize("command, prefix, message", [
        (("reconstruct", "ex1", "--alpha", "1"), "--tol",
         "ambiguous option: --tol could match --tol-direct, --tol-recon"),
        (("sweep", "gauss", "--to", "2", "--steps", "2"), "--f",
         "ambiguous option: --f could match --from, --format"),
        (("sweep", "gauss", "--from", "1", "--to", "2", "--steps", "2"), "--tol",
         "argument --tol-direct: must be a finite positive number"),
    ], ids=["ambiguous", "ambiguous_with_format", "unique_in_sweep"])
    def test_prefix_is_read_against_the_commands_own_options(
        self, capsys, command, prefix, message, value
    ):
        # --tol abbreviates both of reconstruct's tolerances but only one of
        # sweep's; --f abbreviates --from and --format alike
        code, out, err = invoke(capsys, *command, prefix, value)
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("command, missing, given", [
        (("eval", "ex2"), ["--alpha"], []),
        (("sweep", "ex2"), ["--from", "--to", "--steps"], []),
        (("sweep", "ex2", "--from", "1"), ["--to", "--steps"], ["--from"]),
        (("reconstruct", "ex2", "--tol-recon", "1e-6"), ["--alpha"], ["--tol-recon"]),
    ], ids=["eval", "sweep", "sweep_from_given", "reconstruct"])
    def test_missing_required_option_is_named_by_argparse(self, capsys, command, missing, given):
        # the parser enforces the options table's required options, and names
        # only those that are missing
        code, out, err = invoke(capsys, *command)
        assert (code, out) == (2, "")
        last = err.strip().splitlines()[-1]
        assert "the following arguments are required" in last
        assert all(flag in last for flag in missing)
        assert not any(flag in last for flag in given)

    def test_verify_all_has_no_csv(self, capsys):
        code, out, err = invoke(capsys, "verify", "all", "--format", "csv")
        assert (code, out) == (2, "")
        assert "csv format covers a single entry" in err

    def test_module_entry_point_returns_the_exit_code(self):
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (os.path.abspath(src), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "paramint.cli", "verify", "ex2", "--tol-direct", "1e-30"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert proc.returncode == 1
        assert "overall: FAIL" in proc.stdout


class TestRepeatedRuns:
    def test_in_process_calls_leak_nothing(self, capsys):
        # run builds its parser once per process; a second round of the same
        # calls, errors and exits inside argparse included, must repeat the
        # first round's output and exit codes exactly
        calls = [
            ("verify", "all", "--format", "json"),
            ("verify", "ex1", "--format", "csv"),
            ("eval", "ex2", "--alpha", "-1e-3"),
            ("eval", "ex2"),
            ("verify", "nope"),
            ("verify", "-h"),
            ("--version",),
        ]
        first, second = [[invoke(capsys, *args) for args in calls] for _ in range(2)]
        assert [code for code, _, _ in first] == [0, 0, 3, 2, 2, 0, 0]
        assert second == first
