import csv
import json

import numpy as np
import pytest

from cbdid import cli, estimator, propensity, simlab
from cbdid.cli import main
from cbdid.data import CsvSchema, delta, load_csv
from cbdid.errors import ConvergenceError
from cbdid.selection import sigma_hat_sq
from cbdid.simlab import DgpFamily, DgpSpec, generate


@pytest.fixture()
def sample_csv(tmp_path):
    spec = DgpSpec(family=DgpFamily.CASE_2_1, beta_star=1.0, n=300)
    ds, truth = generate(spec, np.random.default_rng(0))
    path = tmp_path / "panel.csv"
    header = "treat,x1,x2,x3,x4,ypre,ypost,ps\n"
    rows = [
        f"{int(t)},{x[0]},{x[1]},{x[2]},{x[3]},{yp},{ya},{e}\n"
        for t, x, yp, ya, e in zip(
            ds.treated, ds.covariates, ds.y_pre, ds.y_post, truth.e1_true
        )
    ]
    path.write_text(header + "".join(rows))
    return path


@pytest.fixture()
def case23_csv(tmp_path):
    """A 300-row Case 2-3 panel with six covariates and the true scores in ``e1``."""
    rng = np.random.default_rng(np.random.SeedSequence(0, spawn_key=(0,)))
    ds, truth = generate(DgpSpec(family=DgpFamily.CASE_2_3, beta_star=1.0, n=300), rng)
    table = np.column_stack([ds.treated, ds.y_pre, ds.y_post, ds.covariates, truth.e1_true])
    path = tmp_path / "case23.csv"
    np.savetxt(path, table, delimiter=",", header="treat,ypre,ypost,x1,x2,x3,x4,x5,x6,e1",
               comments="", fmt=["%d"] + ["%.10g"] * (table.shape[1] - 1))
    return path


CASE23_ARGS = ["--treat", "treat", "--ypre", "ypre", "--ypost", "ypost",
               "--covars", "x1,x2,x3,x4,x5,x6", "--ps", "known:e1", "--no-banner",
               "--format", "json"]


def run(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEstimate:
    def test_cbd_estimate_runs(self, sample_csv, capsys):
        code, out, _ = run(
            ["estimate", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2,x3,x4",
             "--ps", "cbd", "--no-banner", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["theta"]) == 5
        assert np.isfinite(payload["att"])
        assert payload["propensity"]["converged"] is True

    def test_delta_only_input_equivalent(self, sample_csv, tmp_path, capsys):
        code, out_pair, _ = run(
            ["estimate", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2",
             "--ps", "mle", "--no-banner", "--format", "json"],
            capsys,
        )
        assert code == 0
        lines = sample_csv.read_text().splitlines()
        header = lines[0].split(",")
        i_pre, i_post = header.index("ypre"), header.index("ypost")
        out_rows = [",".join(header[:5]) + ",dy"]
        for line in lines[1:]:
            cells = line.split(",")
            dy = float(cells[i_post]) - float(cells[i_pre])
            out_rows.append(",".join(cells[:5]) + f",{dy!r}")
        delta_csv = tmp_path / "delta.csv"
        delta_csv.write_text("\n".join(out_rows) + "\n")
        code, out_delta, _ = run(
            ["estimate", "--data", str(delta_csv), "--treat", "treat",
             "--delta", "dy", "--covars", "x1,x2",
             "--ps", "mle", "--no-banner", "--format", "json"],
            capsys,
        )
        assert code == 0
        a, b = json.loads(out_pair), json.loads(out_delta)
        assert a["att"] == pytest.approx(b["att"], rel=1e-10)

    def test_known_ps_out_of_range_exits_2(self, sample_csv, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        lines = sample_csv.read_text().splitlines()
        header = lines[0]
        doctored = [header]
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            if i == 0:
                cells[-1] = "1.5"
            doctored.append(",".join(cells))
        bad.write_text("\n".join(doctored) + "\n")
        code, _, err = run(
            ["estimate", "--data", str(bad), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2",
             "--ps", "known:ps", "--no-banner"],
            capsys,
        )
        assert code == 2
        assert "strictly inside" in err

    def test_known_ps_column_runs(self, sample_csv, capsys):
        code, out, _ = run(
            ["estimate", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2,x3,x4",
             "--ps", "known:ps", "--no-banner", "--format", "json"],
            capsys,
        )
        assert code == 0

    def test_known_ps_parse_error_names_the_row(self, sample_csv, tmp_path, capsys):
        lines = sample_csv.read_text().splitlines()
        cells = lines[3].split(",")
        cells[-1] = "abc"
        lines[3] = ",".join(cells)
        bad = tmp_path / "bad.csv"
        bad.write_text("\n".join(lines) + "\n")
        code, _, err = run(
            ["estimate", "--data", str(bad), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2",
             "--ps", "known:ps", "--no-banner"],
            capsys,
        )
        assert code == 2
        assert "row 3" in err and "ps" in err

    def test_cbd_estimate_fits_once(self, sample_csv, capsys, count_calls):
        cbd_calls = count_calls(propensity, "fit_cbd")
        theta_calls = count_calls(estimator, "fit_theta")
        code, _, _ = run(
            ["estimate", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2,x3,x4",
             "--ps", "cbd", "--no-banner"],
            capsys,
        )
        assert code == 0
        assert len(cbd_calls) == 1
        assert len(theta_calls) == 1

    def test_fewer_rows_than_columns_exits_3(self, case23_csv, tmp_path, capsys):
        # Four data rows against an intercept and six covariates.
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("".join(case23_csv.read_text().splitlines(keepends=True)[:5]))
        code, out, err = run(["estimate", "--data", str(tiny), *CASE23_ARGS], capsys)
        assert code == 3
        assert out == ""
        assert err.startswith("numerical failure:")
        assert "['x4', 'x5', 'x6']" in err

    def test_json_with_banner_is_valid_json(self, sample_csv, capsys):
        code, out, _ = run(
            ["estimate", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2",
             "--ps", "mle", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["title"] == "estimate"

    def test_missing_column_exits_2(self, sample_csv, capsys):
        code, _, err = run(
            ["estimate", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "nope",
             "--ps", "mle", "--no-banner"],
            capsys,
        )
        assert code == 2


class TestSelect:
    def test_blocks_and_zero_convention(self, sample_csv, capsys):
        code, out, _ = run(
            ["select", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2,x3,x4",
             "--ps", "cbd", "--criterion", "proposed", "--blocks", "3",
             "--no-banner", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["blocks"]) == 3
        for block in payload["blocks"]:
            not_selected = set(("x1", "x2", "x3", "x4")) - set(block["selected"])
            for name in not_selected:
                assert block["coefficients"][name] == 0.0

    def test_known_ps_blocks_split_alignment(self, sample_csv, capsys):
        code, out, _ = run(
            ["select", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2,x3,x4",
             "--ps", "known:ps", "--criterion", "proposed", "--blocks", "2",
             "--no-banner", "--format", "json"],
            capsys,
        )
        assert code == 0
        assert len(json.loads(out)["blocks"]) == 2

    def test_specs_wider_than_a_block_are_skipped(self, case23_csv, capsys):
        # Five-row blocks: a spec with more than five columns cannot be fit.
        code, out, _ = run(["select", "--data", str(case23_csv), "--blocks", "60",
                            *CASE23_ARGS], capsys)
        assert code == 0
        skipped = [s for block in json.loads(out)["blocks"] for s in block["skipped"]]
        assert skipped
        for entry in skipped:
            assert entry["reason"].startswith("RankError: weighted design is ill-conditioned "
                                              "(cond=inf)")

    @pytest.mark.parametrize("ps, reason", [
        ("known:e1", "RankError: no treated units: the effect on the treated is undefined"),
        ("mle", "SeparationError: no unit is treated; both groups are required"),
        ("cbd", "SeparationError: no unit is treated; both groups are required"),
    ])
    def test_block_without_a_treated_unit_is_a_failed_block(self, case23_csv, tmp_path,
                                                            capsys, ps, reason):
        # Rows 30, 90, ... make up block 31 of 60; none of them is treated.
        header, *rows = case23_csv.read_text().splitlines()
        rows = ["0" + row[1:] if j % 60 == 30 else row for j, row in enumerate(rows)]
        panel = tmp_path / "untreated-block.csv"
        panel.write_text("\n".join([header, *rows]) + "\n")
        code, out, err = run(["select", "--data", str(panel), "--blocks", "60", *CASE23_ARGS,
                              "--ps", ps], capsys)
        assert code == 3
        entries = json.loads(out)["blocks"]
        assert [e["block"] for e in entries] == list(range(1, 61))
        assert entries[30] == {"block": 31, "error": reason}
        assert f"numerical failure: block 31 of --blocks 60: {reason}" in err.splitlines()

    @pytest.mark.parametrize("blocks", ["0", "-2"])
    def test_nonpositive_blocks_exit_2(self, sample_csv, capsys, blocks):
        code, _, err = run(
            ["select", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2",
             "--ps", "mle", "--blocks", blocks, "--no-banner"],
            capsys,
        )
        assert code == 2
        assert "positive" in err

    def test_qicw_intercept_only_penalty(self, sample_csv, capsys):
        code, out, _ = run(
            ["select", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2",
             "--ps", "mle", "--criterion", "qicw", "--no-banner", "--format", "json"],
            capsys,
        )
        assert code == 0
        first = json.loads(out)["blocks"][0]["path"][0]
        assert first["added"] is None
        ds = load_csv(str(sample_csv), CsvSchema(treat_col="treat", covariate_cols=("x1",),
                                                 y_pre_col="ypre", y_post_col="ypost"))
        share = ds.treated.mean()
        expected = 2.0 * sigma_hat_sq(ds.treated, delta(ds)) * share
        assert first["penalty"] == pytest.approx(expected, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("args, first_error", [
        (("--ps", "known:e1", "--criterion", "qicw", "--blocks", "60"),
         "DegenerateGroupError: need at least two units per group for the change variance "
         "(n1=1, n0=4)"),
        (("--ps", "known:e1", "--criterion", "qicw", "--blocks", "30"),
         "DegenerateGroupError: need at least two units per group for the change variance "
         "(n1=9, n0=1)"),
        (("--ps", "mle", "--blocks", "60"), "RankError: design matrix is rank deficient"),
        (("--ps", "mle", "--blocks", "30"),
         "SeparationError: probabilities pinned at the clip bounds: classes are separable"),
    ])
    def test_a_failed_block_is_reported_beside_the_others(self, case23_csv, capsys, args,
                                                          first_error):
        blocks = int(args[-1])
        code, out, err = run(["select", "--data", str(case23_csv), *CASE23_ARGS, *args],
                             capsys)
        assert code == 3
        entries = json.loads(out)["blocks"]
        assert [e["block"] for e in entries] == list(range(1, blocks + 1))
        # Every block fails the mle fit at --blocks 60: 5 rows, 6 score columns.
        failed = [e for e in entries if "error" in e]
        assert failed
        assert failed[0]["error"] == first_error
        for entry in failed:
            assert set(entry) == {"block", "error"}
        for entry in entries:
            if "error" not in entry:
                assert set(entry) == {"block", "selected", "coefficients", "att", "path",
                                      "skipped"}
        assert err.splitlines() == [
            f"numerical failure: block {e['block']} of --blocks {blocks}: {e['error']}"
            for e in failed]

        code, out, _ = run(["select", "--data", str(case23_csv), *CASE23_ARGS, *args,
                            "--format", "csv"], capsys)
        assert code == 3
        table = list(csv.DictReader(out.splitlines()[1:]))
        assert list(table[0]) == ["block", "intercept", "x1", "x2", "x3", "x4", "x5", "x6",
                                  "criterion", "error"]
        assert [row["error"] for row in table] == [e.get("error", "") for e in entries]
        for row in table:
            assert (row["criterion"] == "") == (row["error"] != "")

    def test_qicw_without_known_column_exits_2(self, sample_csv, capsys):
        code, _, _ = run(
            ["select", "--data", str(sample_csv), "--treat", "treat",
             "--ypre", "ypre", "--ypost", "ypost", "--covars", "x1,x2",
             "--ps", "known:", "--criterion", "qicw", "--no-banner"],
            capsys,
        )
        assert code == 2


class TestInputErrors:
    @pytest.mark.parametrize("case", ["data-is-a-directory", "out-directory-missing"])
    def test_os_errors_exit_2(self, sample_csv, tmp_path, capsys, case):
        data, out = str(sample_csv), []
        if case == "data-is-a-directory":
            data = str(tmp_path)
        else:
            out = ["--out", str(tmp_path / "missing" / "o.md")]
        code, _, err = run(
            ["estimate", "--data", data, "--treat", "treat", "--ypre", "ypre",
             "--ypost", "ypost", "--covars", "x1,x2", "--ps", "mle", *out],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: cannot ") and err.count("\n") == 1

    @pytest.mark.parametrize("case", ["carriage-returns", "long-cell"])
    def test_unreadable_csv_exits_2(self, sample_csv, tmp_path, capsys, case):
        text = sample_csv.read_text()
        if case == "carriage-returns":
            text = text.replace("\n", "\r")
        else:
            lines = text.splitlines(keepends=True)
            text = "".join(lines[:3]) + "1" * 200_000 + lines[3]
        bad = tmp_path / "bad.csv"
        bad.write_text(text, newline="")
        code, out, err = run(
            ["estimate", "--data", str(bad), "--treat", "treat", "--ypre", "ypre",
             "--ypost", "ypost", "--covars", "x1,x2", "--ps", "cbd"],
            capsys,
        )
        assert code == 2
        assert out == ""
        where = "header" if case == "carriage-returns" else "row 3"
        assert err.startswith(f"error: {where}: malformed CSV record") and err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize("covars, ps, message", [
        ("x1,x1", "mle", "more than once"),
        ("x1,treat", "mle", "cannot also be a covariate"),
        ("x1,ps", "known:ps", "more than once"),
    ])
    def test_bad_column_roles_exit_2(self, sample_csv, capsys, covars, ps, message):
        code, _, err = run(
            ["estimate", "--data", str(sample_csv), "--treat", "treat", "--ypre", "ypre",
             "--ypost", "ypost", "--covars", covars, "--ps", ps],
            capsys,
        )
        assert code == 2
        assert message in err

    @pytest.mark.parametrize("outcomes, message", [
        (["--ypre", "treat", "--ypost", "ypost"], "'treat' cannot also be an outcome column"),
        (["--delta", "treat"], "'treat' cannot also be an outcome column"),
        (["--ypre", "ypre", "--ypost", "ypre"], "y_pre and y_post name the same column 'ypre'"),
    ], ids=["ypre-treat", "delta-treat", "same-outcome"])
    def test_bad_outcome_columns_exit_2(self, sample_csv, capsys, outcomes, message):
        code, out, err = run(["estimate", "--data", str(sample_csv), "--treat", "treat",
                              *outcomes, "--covars", "x1,x2", "--ps", "mle"], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and err.endswith(f"{message}\n")
        assert err.count("\n") == 1

    def test_repeated_header_column_exits_2(self, sample_csv, capsys):
        lines = sample_csv.read_text().splitlines(keepends=True)
        sample_csv.write_text(lines[0].replace(",x3,", ",x1,") + "".join(lines[1:]))
        code, out, err = run(
            ["estimate", "--data", str(sample_csv), "--treat", "treat", "--ypre", "ypre",
             "--ypost", "ypost", "--covars", "x1,x2", "--ps", "mle"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: column 'x1' appears more than once in header")


class TestSimulate:
    def test_unknown_table_exits_2(self, capsys):
        code, _, err = run(["simulate", "--table", "bogus", "--reps", "2"], capsys)
        assert code == 2
        assert "att-comparison" in err

    @pytest.mark.parametrize("flags", [["--reps", "0"], ["--reps", "-3"], ["--jobs", "0"]])
    def test_nonpositive_reps_or_jobs_exit_2(self, flags, capsys):
        code, out, err = run(["simulate", "--table", "bias-known", *flags], capsys)
        assert code == 2
        assert out == ""
        assert "at least 1" in err

    def test_small_table_runs(self, tmp_path, capsys):
        out = tmp_path / "table.csv"
        code, _, err = run(
            ["simulate", "--table", "bias-known", "--reps", "2", "--seed", "3",
             "--format", "csv", "--out", str(out), "--no-banner"],
            capsys,
        )
        assert code == 0
        text = out.read_text()
        assert "proposal" in text.splitlines()[1] or "proposal" in text.splitlines()[0]
        assert "failures=0" in err

    def test_unwritable_out_fails_before_the_run(self, tmp_path, capsys, monkeypatch):
        def must_not_run(*args, **kwargs):
            raise AssertionError("the table ran before --out was checked")

        monkeypatch.setattr(cli, "run_table", must_not_run)
        code, _, err = run(["simulate", "--table", "bias-known", "--reps", "1",
                            "--out", str(tmp_path / "missing" / "o.md")], capsys)
        assert code == 2
        assert err.startswith("error: cannot write --out")

    def test_out_check_leaves_files_as_they_were(self, tmp_path, capsys):
        kept, fresh = tmp_path / "kept.md", tmp_path / "fresh.md"
        kept.write_text("earlier result\n")
        for out in (kept, fresh):
            code, _, err = run(["simulate", "--table", "bias-known", "--reps", "0",
                                "--out", str(out)], capsys)
            assert code == 2
            assert "reps and jobs must be at least 1" in err
        assert kept.read_text() == "earlier result\n"
        assert not fresh.exists()

    def test_failed_table_is_written_before_exit_3(self, tmp_path, capsys, monkeypatch):
        def failing(*args, **kwargs):
            raise ConvergenceError("balance-moment fit did not converge")

        monkeypatch.setattr(simlab, "fit_spec", failing)
        out = tmp_path / "table.json"
        code, _, err = run(["simulate", "--table", "bias-cbd-id", "--reps", "1",
                            "--format", "json", "--out", str(out)], capsys)
        assert code == 3
        assert "exceeds 1.00%" in err
        payload = json.loads(out.read_text())
        assert payload["failure_rate"] == 1.0
        assert len(payload["cells"]) == 24
        for cell in payload["cells"]:
            assert cell["failures"] == [[0, "ConvergenceError: balance-moment fit did not converge"]]

    def test_reproducible_output(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            code, _, _ = run(
                ["simulate", "--table", "bias-known", "--reps", "2", "--seed", "9",
                 "--format", "json", "--out", str(path), "--no-banner"],
                capsys,
            )
            assert code == 0
        assert a.read_text() == b.read_text()


class TestConfigFile:
    def test_config_file_supplies_flags(self, sample_csv, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("format=json\nno-banner=true\n")
        for config_args in (["--config", str(cfg)], [f"--config={cfg}"]):
            code, out, _ = run(
                ["estimate", *config_args, "--data", str(sample_csv),
                 "--treat", "treat", "--ypre", "ypre", "--ypost", "ypost",
                 "--covars", "x1,x2", "--ps", "mle"],
                capsys,
            )
            assert code == 0
            json.loads(out)

    def test_indented_comment_lines_are_skipped(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# a comment\n  # note: seed=3\n\tformat=json\n")
        code, out, err = run(["simulate", "--table", "bias-known", "--reps", "1",
                              "--config", str(cfg)], capsys)
        assert code == 0, err
        assert json.loads(out)["config"]["seed"] == "0"

    @pytest.mark.parametrize("command, line", [
        ("estimate", "ps-intercept=false"),
        ("estimate", "no-banner=false"),
        ("simulate", "dump-raw=false"),
        ("simulate", "paper=false"),
    ])
    def test_false_value_leaves_a_flag_off(self, sample_csv, tmp_path, capsys, command, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nformat=json\n")
        if command == "simulate":
            argv = ["simulate", "--table", "bias-known", "--reps", "1"]
        else:
            argv = [command, "--data", str(sample_csv), "--treat", "treat", "--ypre", "ypre",
                    "--ypost", "ypost", "--covars", "x1,x2", "--ps", "mle"]
        code, out, err = run([*argv, "--config", str(cfg)], capsys)
        assert code == 0, err
        key = line.partition("=")[0]
        assert json.loads(out)["config"][key.replace("-", "_")] == "False"


class TestCsvOutput:
    def test_no_carriage_returns(self, sample_csv, tmp_path, capsys):
        data = ["--data", str(sample_csv), "--treat", "treat", "--ypre", "ypre",
                "--ypost", "ypost", "--covars", "x1,x2", "--ps", "mle"]
        commands = {
            "estimate": ["estimate", *data],
            "select": ["select", *data, "--blocks", "2"],
            "simulate": ["simulate", "--table", "bias-known", "--reps", "1"],
        }
        for name, argv in commands.items():
            out = tmp_path / f"{name}.csv"
            code, _, _ = run([*argv, "--format", "csv", "--out", str(out)], capsys)
            assert code == 0
            text = out.read_bytes()
            assert b"\r" not in text
            assert text.count(b"\n") >= 3
