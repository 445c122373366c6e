"""Command-line interface: parsing, output formats, exit codes."""

import json

import pytest

from lehmer import CheckResult
from lehmer.cli import main, render_json
from lehmer.verify import _FIG3_ROOTS


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


class TestEval:
    def test_single_point(self, capsys):
        rc, out, _ = run(capsys, "eval", "-x", "0.5,2.5", "-p", "1")
        assert rc == 0
        assert out == "1.5\n"

    def test_weighted(self, capsys):
        rc, out, _ = run(capsys, "eval", "-x", "0.5,2.5", "-w", "2,1", "-p", "1")
        assert rc == 0
        assert out.strip() == "1.16666667"

    def test_p_range_csv(self, capsys):
        rc, out, _ = run(capsys, "eval", "-x", "1,2,3", "--p-range", "-10:10:0.1")
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "p,mean"
        assert len(lines) == 202
        means = [float(line.split(",")[1]) for line in lines[1:]]
        assert means == sorted(means)

    def test_requires_exponent(self, capsys):
        rc, _, err = run(capsys, "eval", "-x", "1,2")
        assert rc == 1
        assert "error" in err

    def test_rejects_both_exponent_forms(self, capsys):
        rc, _, _ = run(capsys, "eval", "-x", "1,2", "-p", "1", "--p-range", "0:1:0.5")
        assert rc == 1

    def test_negative_value_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "eval", "-x", "-1,2", "-p", "1")
        assert rc == 2
        assert "error" in err

    def test_values_from_file(self, capsys, tmp_path):
        path = tmp_path / "vals.txt"
        path.write_text("0.5, 2.0\n2.5, 1.0\n# trailing comment\n")
        rc, out, _ = run(capsys, "eval", "-x", f"@{path}", "-p", "1")
        assert rc == 0
        assert out.strip() == "1.16666667"

    def test_file_weights_conflict_with_flag(self, capsys, tmp_path):
        path = tmp_path / "vals.txt"
        path.write_text("0.5, 2.0\n2.5, 1.0\n")
        rc, _, err = run(capsys, "eval", "-x", f"@{path}", "-w", "1,1", "-p", "1")
        assert rc == 1
        assert "weights" in err


class TestDeriv:
    def test_second_derivative_pair_at_one(self, capsys):
        rc, out, _ = run(capsys, "deriv", "-x", "0.5,2.5", "-p", "1", "--order", "2")
        assert rc == 0
        assert out == "0\n"

    @pytest.mark.parametrize("precision", ["auto", "extended"])
    def test_second_derivative_below_the_50_digit_floor(self, capsys, precision):
        # the 50-digit bracket cancels to noise here; L'' is a normal double
        rc, out, _ = run(capsys, "deriv", "-x", "0.5,2.5,4", "-p", "1000", "--order", "2", "--precision", precision)
        assert rc == 0
        assert float(out) == pytest.approx(-4.0219e-205, rel=1e-6, abs=0.0)

    def test_check_prints_oracle(self, capsys):
        rc, out, _ = run(capsys, "deriv", "-x", "1,2,3", "-p", "0.5", "--order", "2", "--check")
        assert rc == 0
        assert "finite difference:" in out
        value, oracle = out.split("(finite difference:")
        assert float(value) == pytest.approx(float(oracle.rstrip(")\n")), rel=1e-6)

    def test_first_order(self, capsys):
        rc, out, _ = run(capsys, "deriv", "-x", "1,2,3", "-p", "1", "--order", "1")
        assert rc == 0
        assert float(out) > 0.0

    def test_bad_order(self, capsys):
        rc, _, _ = run(capsys, "deriv", "-x", "1,2", "-p", "1", "--order", "3")
        assert rc == 1


class TestInflect:
    def test_triple_reports_root_and_side(self, capsys):
        rc, out, _ = run(capsys, "inflect", "-x", "1,2,3")
        assert rc == 0
        assert "roots       1" in out
        assert "0.707775001" in out
        assert "below_one" in out

    def test_constant_spec_is_domain_error(self, capsys):
        rc, _, err = run(capsys, "inflect", "-x", "3,3,3")
        assert rc == 2
        assert "error" in err

    def test_exhausted_range_exit_code(self, capsys):
        rc, _, err = run(capsys, "inflect", "-x", "1,1.000000001,1.000000003")
        assert rc == 3
        assert "partial scan" in err

    @pytest.mark.parametrize(
        "values, side",
        [("1e-200,1e-150,1e305", "above_one"), ("1e-160,1,1e160", "above_one"), ("1e200,2e200,3e200", "below_one")],
    )
    def test_values_whose_products_leave_the_double_range(self, capsys, values, side):
        rc, out, _ = run(capsys, "inflect", "-x", values, "--json")
        assert rc == 0
        results = json.loads(out)["results"]
        assert len(results["roots"]) == 1
        assert results["side"] == side

    def test_extended_root_of_values_past_fifty_decades(self, capsys):
        rc, out, _ = run(capsys, "inflect", "-x", "1e-200,1e-150,1e305", "--precision", "extended")
        assert rc == 0
        assert "p* = 1.00062281 " in out

    def test_json_roots(self, capsys):
        rc, out, _ = run(capsys, "inflect", "-x", "0.5,2.5", "--json")
        assert rc == 0
        record = json.loads(out)
        assert record["command"] == "inflect"
        roots = record["results"]["roots"]
        assert len(roots) == 1
        assert roots[0]["p_star"] == pytest.approx(1.0, abs=1e-9)
        assert record["results"]["parity_ok"] is True
        assert record["inputs"]["scan"] == {"precision_mode": "auto"}


class TestBound:
    def test_value(self, capsys):
        rc, out, _ = run(capsys, "bound", "3")
        assert rc == 0
        assert out.strip() == "J = 5  (from 7 terms)"

    def test_too_small(self, capsys):
        rc, _, _ = run(capsys, "bound", "1")
        assert rc == 1


class TestSearch:
    def test_pinned_values(self, capsys):
        rc, out, _ = run(
            capsys, "search", "--pin", "1.0259,1.0241,1.0244,0.96", "--min-roots", "3"
        )
        assert rc == 0
        assert "hits=1" in out
        assert "trial 0" in out

    def test_pinned_file_with_weights_is_rejected(self, capsys, tmp_path):
        # search scans unit weights; a weighted pin would report another spec's roots
        path = tmp_path / "w.txt"
        path.write_text("0.6818880749720027,10\n0.5672627948873008,1\n4.157181988810782,2\n")
        rc, out, err = run(capsys, "search", "--pin", f"@{path}", "--min-roots", "1")
        assert rc == 1 and not out
        assert "--pin" in err and "weights" in err
        path.write_text("0.6818880749720027\n0.5672627948873008\n4.157181988810782\n")
        rc, out, _ = run(capsys, "search", "--pin", f"@{path}", "--min-roots", "1")
        assert rc == 0 and "hits=1" in out

    def test_json_payload(self, capsys):
        rc, out, _ = run(
            capsys, "search", "--pin", "1.0259,1.0241,1.0244,0.96", "--min-roots", "3", "--json"
        )
        assert rc == 0
        record = json.loads(out)
        assert record["results"]["hit_count"] == 1
        assert record["results"]["best_root_count"] == 3
        assert len(record["results"]["hits"][0]["roots"]) == 3


class TestVerify:
    def test_bounds_scope_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--scope", "bounds")
        assert rc == 0
        assert "seed = 0" in out
        assert "PASS" in out
        assert "all checks passed" in out

    def test_failure_exit_code(self, capsys, monkeypatch):
        def fake(scope="all", seed=0, samples=None):
            return [CheckResult(name="broken", passed=False, samples=1, detail="nope")]

        monkeypatch.setattr("lehmer.cli.run_checks", fake)
        rc, out, _ = run(capsys, "verify")
        assert rc == 4
        assert "FAIL broken" in out

    def test_unknown_scope(self, capsys):
        rc, _, _ = run(capsys, "verify", "--scope", "bogus")
        assert rc == 1

    @pytest.mark.parametrize("samples", ["0", "-5"])
    def test_sample_count_below_one(self, capsys, samples):
        rc, out, err = run(capsys, "verify", "--scope", "parity", "--samples", samples)
        assert rc == 1
        assert out == ""
        assert "samples" in err


class TestFigureData:
    @pytest.mark.parametrize("figure, roots, tol", [(1, (1.0,), 1e-9), (3, _FIG3_ROOTS, 1e-6)], ids=["1", "3"])
    def test_curve_marks_roots(self, capsys, tmp_path, figure, roots, tol):
        rc, _, _ = run(capsys, "figure-data", str(figure), "--output-dir", str(tmp_path))
        assert rc == 0
        lines = (tmp_path / f"figure{figure}.csv").read_text().splitlines()
        assert lines[0] == "p,mean,second_derivative,is_root"
        assert len(lines) > 180
        marked = [float(line.split(",")[0]) for line in lines if line.endswith(",1")]
        assert marked == pytest.approx(list(roots), abs=tol)

    def test_triple_writes_curvature_file(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "figure-data", "2", "--output-dir", str(tmp_path))
        assert rc == 0
        assert (tmp_path / "figure2.csv").exists()
        tilde = (tmp_path / "figure2_tilde.csv").read_text().splitlines()
        assert tilde[0] == "p,scaled_curvature,scaled_curvature_minus_k,is_root"

    def test_unknown_figure(self, capsys, tmp_path):
        rc, _, _ = run(capsys, "figure-data", "9", "--output-dir", str(tmp_path))
        assert rc == 1


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ("bound", "4", "--seed", "3"),
            ("eval", "-x", "1,2", "-p", "1", "--seed", "3"),
            ("eval", "-x", "1,2", "-p", "1", "--precision", "extended"),
            ("deriv", "-x", "1,2", "-p", "1", "--seed", "3"),
            ("inflect", "-x", "1,2", "--seed", "3"),
            ("verify", "--scope", "bounds", "--precision", "extended"),
            ("figure-data", "1", "--precision", "auto"),
            ("inflect", "-x", "1,2", "--tolerance", "1e-3"),
            ("inflect", "-x", "1,2", "--max-half-width", "4"),
        ],
        ids=lambda argv: " ".join(argv),
    )
    def test_flags_a_command_does_not_read_are_rejected(self, capsys, argv):
        rc, _, err = run(capsys, *argv)
        assert rc == 1
        assert "unrecognized arguments" in err

    def test_commands_keep_the_flags_they_read(self, capsys):
        rc, out, _ = run(capsys, "deriv", "-x", "1,2,3", "-p", "0.5", "--order", "2", "--precision", "extended")
        assert rc == 0 and float(out) > 0.0
        rc, out, _ = run(capsys, "inflect", "-x", "1,2,3", "--precision", "standard", "--json")
        assert rc == 0 and json.loads(out)["inputs"]["scan"] == {"precision_mode": "standard"}
        rc, out, _ = run(capsys, "search", "-n", "3", "--trials", "4", "--seed", "7", "--min-roots", "1",
                         "--precision", "standard", "--json")
        assert rc == 0 and json.loads(out)["inputs"]["seed"] == 7
        rc, out, _ = run(capsys, "verify", "--scope", "bounds", "--seed", "5")
        assert rc == 0 and "seed = 5" in out


class TestOutputPlumbing:
    def test_json_round_trips(self, capsys):
        rc, out, _ = run(capsys, "eval", "-x", "1,2,3", "-p", "2.5", "--json")
        assert rc == 0
        record = json.loads(out)
        assert record["schema_version"] == "1"
        assert render_json(record) == out

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        rc, out, _ = run(capsys, "eval", "-x", "1,2", "-p", "1", "--json", "--output", str(target))
        assert rc == 0
        assert out == ""
        record = json.loads(target.read_text())
        assert record["results"]["value"] == 1.5

    def test_timestamp_is_opt_in(self, capsys):
        _, plain, _ = run(capsys, "eval", "-x", "1,2", "-p", "1", "--json")
        assert "timestamp" not in json.loads(plain)
        _, stamped, _ = run(capsys, "eval", "-x", "1,2", "-p", "1", "--json", "--timestamp")
        assert "timestamp" in json.loads(stamped)

    def test_byte_determinism(self, capsys):
        _, first, _ = run(capsys, "inflect", "-x", "1,2,3", "--json")
        _, second, _ = run(capsys, "inflect", "-x", "1,2,3", "--json")
        assert first == second

    def test_unknown_command(self, capsys):
        rc, _, _ = run(capsys, "frobnicate")
        assert rc == 1
