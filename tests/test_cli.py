import json

import pytest

from robustmech import Uniform, eta_rs, from_json, pi_ro_star, rs_solver
from robustmech.cli import EXIT_USAGE, build_parser, main

UNIFORM = '{"kind":"uniform"}'
TWO_POINT = '{"kind":"empirical","atoms":[[0.3,0.5],[0.7,0.5]]}'


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolveRs:
    def test_solve_rs_report(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        code, _, _ = run_cli(
            capsys, "solve-rs", "--reference", UNIFORM, "--tau", "0.2",
            "--out", str(out),
        )
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["schema"] == "1"
        assert rep["k_star"] == pytest.approx(0.56, abs=0.005)
        assert rep["tau"] == 0.2
        assert len(rep["mechanism_table"]) == 201

    def test_reference_from_file(self, capsys, tmp_path):
        ref = tmp_path / "ref.json"
        ref.write_text(TWO_POINT)
        code, stdout, _ = run_cli(
            capsys, "solve-rs", "--reference", str(ref), "--tau", "0.2"
        )
        assert code == 0
        rep = json.loads(stdout)
        assert rep["k_star"] == pytest.approx(0.49, abs=0.005)

    def test_infeasible_exit_code(self, capsys):
        code, _, err = run_cli(
            capsys, "solve-rs", "--reference", UNIFORM, "--tau", "0.3"
        )
        assert code == 2
        assert "0.25" in err  # the message names the feasibility ceiling

    def test_usage_exit_code(self, capsys):
        code, _, _ = run_cli(capsys, "solve-rs", "--reference", UNIFORM)
        assert code == 1

    def test_bad_reference_json(self, capsys):
        code, _, _ = run_cli(
            capsys, "solve-rs", "--reference", '{"kind":"nope"}', "--tau", "0.1"
        )
        assert code == 1

    def test_mistyped_reference_field(self, capsys):
        code, _, err = run_cli(
            capsys, "solve-rs", "--reference", '{"kind":"power","alpha":[1]}', "--tau", "0.1"
        )
        assert code == 1
        assert err.startswith("error: malformed distribution spec")

    @pytest.mark.parametrize(
        "spec", ['{"kind":"power","alpha":true}', '{"kind":"uniform","junk":1}']
    )
    def test_strict_reference_spec(self, capsys, spec):
        code, _, err = run_cli(capsys, "solve-rs", "--reference", spec, "--tau", "0.1")
        assert code == 1
        assert err.startswith("error: malformed distribution spec")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            run_cli(
                capsys, "solve-rs", "--reference", UNIFORM, "--tau", "0.15",
                "--out", str(path),
            )
        assert a.read_bytes() == b.read_bytes()

    def test_tolerance_overrides_accepted(self, capsys):
        # tolerances are fixed defaults; the old quadrature override is gone
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["solve-rs", "--reference", UNIFORM, "--tau", "0.2", "--tol-quad", "1e-8"]
            )
        assert exc.value.code == EXIT_USAGE

    def test_report_reference_reparses(self, capsys, tmp_path):
        out = tmp_path / "rep.json"
        run_cli(
            capsys, "solve-rs", "--reference", TWO_POINT, "--tau", "0.1",
            "--out", str(out),
        )
        rep = json.loads(out.read_text())
        dist = from_json(rep["reference"])
        assert dist.atoms == ((0.3, 0.5), (0.7, 0.5))


class TestTables:
    def test_csv_header_and_rows(self, capsys, tmp_path):
        table = tmp_path / "mech.csv"
        code, _, _ = run_cli(
            capsys, "solve-rs", "--reference", UNIFORM, "--tau", "0.2",
            "--out", str(tmp_path / "r.json"), "--table", str(table),
            "--table-points", "101",
        )
        assert code == 0
        lines = table.read_text().strip().splitlines()
        assert lines[0] == "v,q,m,surplus"
        assert len(lines) == 102

    def test_csv_rows_are_the_json_table(self, capsys, tmp_path):
        table = tmp_path / "mech.csv"
        code, stdout, _ = run_cli(
            capsys, "solve-pp", "--reference", UNIFORM, "--tau", "0.2",
            "--table", str(table), "--table-points", "11",
        )
        assert code == 0
        rows = json.loads(stdout)["mechanism_table"]
        lines = table.read_text().splitlines()[1:]
        assert lines == [",".join(map(repr, row)) for row in rows]

    @pytest.mark.parametrize("points", ["-3", "0", "1"])
    def test_fewer_than_two_points_refused_before_the_solve(
        self, capsys, tmp_path, monkeypatch, points
    ):
        def no_solve(*args, **kwargs):
            raise AssertionError("solved before the table size was checked")

        monkeypatch.setattr(rs_solver, "solve", no_solve)
        out, table = tmp_path / "r.json", tmp_path / "mech.csv"
        code, stdout, stderr = run_cli(
            capsys, "solve-rs", "--reference", UNIFORM, "--tau", "0.2",
            "--out", str(out), "--table", str(table), "--table-points", points,
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert stderr == f"error: --table-points must be an integer >= 2, got {points}\n"
        assert not out.exists() and not table.exists()

    def test_two_points_tabulate_both_ends(self, capsys, tmp_path):
        table = tmp_path / "mech.csv"
        code, stdout, _ = run_cli(
            capsys, "solve-rs", "--reference", UNIFORM, "--tau", "0.2",
            "--table", str(table), "--table-points", "2",
        )
        assert code == 0
        rows = json.loads(stdout)["mechanism_table"]
        assert [row[0] for row in rows] == [0.0, 1.0]
        assert len(table.read_text().splitlines()) == 3

    @pytest.mark.parametrize(
        "argv",
        [
            ["compare", "--tau", "0.2"],
            ["tau-equiv", "--r", "0.05"],
            ["evaluate", "--tau", "0.2", "--true", UNIFORM],
        ],
    )
    def test_table_rejected_where_no_mechanism_is_tabled(self, capsys, tmp_path, argv):
        table = tmp_path / "x.csv"
        code, _, _ = run_cli(
            capsys, *argv, "--reference", UNIFORM, "--table", str(table)
        )
        assert code == EXIT_USAGE
        assert not table.exists()


class TestSolvePP:
    def test_two_point_row(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "solve-pp", "--reference", TWO_POINT, "--tau", "0.2"
        )
        assert code == 0
        rep = json.loads(stdout)
        assert rep["k_pp"] == pytest.approx(4.0 / 3.0, abs=0.005)
        assert rep["p_pp"] == pytest.approx(0.4, abs=1e-6)


class TestSolveRo:
    def test_happy_path(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "solve-ro", "--reference", UNIFORM, "--r", "0.1"
        )
        assert code == 0
        rep = json.loads(stdout)
        assert rep["pi_ro_star"] == pytest.approx(0.1451, abs=1e-3)
        assert rep["pp_price_uniform"] is not None

    def test_radius_too_large(self, capsys):
        code, _, _ = run_cli(
            capsys, "solve-ro", "--reference", UNIFORM, "--r", "0.6"
        )
        assert code == 2


class TestTauEquiv:
    def test_zero_radius_returns_max_revenue(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "tau-equiv", "--reference", UNIFORM, "--r", "0.0"
        )
        assert code == 0
        assert json.loads(stdout)["tau_equiv"] == pytest.approx(0.25, abs=1e-9)


class TestCompare:
    def test_matched_target_report(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "compare", "--reference", UNIFORM, "--tau", "0.2",
            "--true", TWO_POINT,
        )
        assert code == 0
        rep = json.loads(stdout)
        assert rep["rs"]["k_star"] == pytest.approx(0.56, abs=0.005)
        assert rep["rs_vs_ro_crossings"]["q_changes"] == 1
        assert "out_of_sample" in rep

    def test_radius_sets_the_target(self, capsys):
        code, stdout, _ = run_cli(capsys, "compare", "--reference", UNIFORM, "--r", "0.1")
        assert code == 0
        rep = json.loads(stdout)
        assert rep["r"] == 0.1
        assert rep["tau"] == pi_ro_star(Uniform(), 0.1)

    def test_requires_exactly_one_parameter(self, capsys):
        code, _, _ = run_cli(capsys, "compare", "--reference", UNIFORM)
        assert code == 1
        code, _, _ = run_cli(
            capsys, "compare", "--reference", UNIFORM, "--tau", "0.1", "--r", "0.1"
        )
        assert code == 1


class TestEvaluate:
    def test_report_with_monte_carlo(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--reference", UNIFORM, "--tau", "0.2",
            "--true", '{"kind":"beta","alpha":2.0,"beta":5.0}',
            "--mc-n", "20000", "--seed", "9",
        )
        assert code == 0
        rep = json.loads(stdout)
        assert set(rep["reports"]) == {"rs_opt", "rs_pp", "rs_opt_mc", "rs_pp_mc"}
        mc = rep["reports"]["rs_opt_mc"]
        exact = rep["reports"]["rs_opt"]
        assert abs(mc["expected_revenue"] - exact["expected_revenue"]) <= (
            5.0 * mc["standard_error"]
        )
        assert rep["eta_rs"] > 0.0

    def test_negative_monte_carlo_size_is_a_usage_error(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "evaluate", "--reference", UNIFORM, "--tau", "0.2",
            "--true", UNIFORM, "--mc-n", "-5",
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "Monte Carlo sample size must be an integer >= 1, got -5" in stderr

    def test_ratio_matches_eta_rs(self, capsys):
        truth = '{"kind":"beta","alpha":2.0,"beta":5.0}'
        code, stdout, _ = run_cli(
            capsys, "evaluate", "--reference", UNIFORM, "--tau", "0.2", "--true", truth
        )
        assert code == 0
        rep = json.loads(stdout)
        assert rep["eta_rs"] == eta_rs(from_json(UNIFORM), 0.2, from_json(truth))
        assert rep["eta_rs"] == (
            rep["reports"]["rs_pp"]["expected_revenue"]
            / rep["reports"]["rs_opt"]["expected_revenue"]
        )


class TestSweep:
    def test_small_grid_with_csv(self, capsys, tmp_path):
        csv_path = tmp_path / "cells.csv"
        code, stdout, _ = run_cli(
            capsys, "sweep", "--reference", UNIFORM,
            "--grid", "alphas=1,2;betas=1,5;taus=0.2,0.8",
            "--csv", str(csv_path),
        )
        assert code == 0
        rep = json.loads(stdout)
        assert len(rep["cells"]) == 8
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 9
        assert lines[0].startswith("alpha,beta,tau_over_pi0")

    def test_negative_monte_carlo_size_is_a_usage_error(self, capsys):
        code, stdout, stderr = run_cli(
            capsys, "sweep", "--reference", UNIFORM, "--grid", "alphas=1;betas=1;taus=0.2",
            "--mc-n", "-5",
        )
        assert code == EXIT_USAGE
        assert stdout == ""
        assert "Monte Carlo sample size must be an integer >= 0, got -5" in stderr

    def test_empty_grid_part_is_skipped(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "sweep", "--reference", UNIFORM, "--grid", "alphas=1;;betas=1; ;taus=0.2"
        )
        assert code == 0
        assert len(json.loads(stdout)["cells"]) == 1

    def test_grid_part_without_equals_sign(self, capsys):
        code, stdout, _ = run_cli(
            capsys, "sweep", "--reference", UNIFORM, "--grid", "alphas=1;betas"
        )
        assert code == 1
        assert stdout == ""

    def test_bad_grid_key(self, capsys):
        code, _, _ = run_cli(
            capsys, "sweep", "--reference", UNIFORM, "--grid", "gamma=1,2"
        )
        assert code == 1


class TestUnknownCommand:
    def test_rejected(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 1
