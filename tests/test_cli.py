import json

import numpy as np
import pytest

from lpsens import cli
from lpsens.cli import CliInputError, load_csv, main
from lpsens.core import NonConvergenceError
from lpsens.report import SensitivityReport


def write_matrix(path, a, header=None):
    lines = []
    if header:
        lines.append(header)
    for row in np.atleast_2d(a):
        lines.append(",".join(repr(float(v)) for v in row))
    path.write_text("\n".join(lines) + "\n")
    return str(path)


@pytest.fixture
def toy_csv(tmp_path):
    return write_matrix(tmp_path / "toy.csv", [[1, 0], [0, 1], [1, 1]])


@pytest.fixture
def rand_csv(tmp_path):
    rng = np.random.default_rng(3)
    return write_matrix(tmp_path / "rand.csv", rng.standard_normal((60, 3)))


class TestLoadCsv:
    def test_plain_numeric(self, tmp_path):
        path = write_matrix(tmp_path / "m.csv", [[1, 2], [3, 4]])
        np.testing.assert_array_equal(load_csv(path), [[1, 2], [3, 4]])

    def test_header_skipped(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("x,y\n1,2\n3,4\n")
        np.testing.assert_array_equal(load_csv(str(p)), [[1, 2], [3, 4]])

    def test_bad_field_names_line_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(CliInputError, match="line 2.*column 2"):
            load_csv(str(p))

    def test_ragged_rows_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(CliInputError, match="expected 2 fields"):
            load_csv(str(p))

    def test_empty_and_header_only(self, tmp_path):
        p = tmp_path / "e.csv"
        p.write_text("")
        with pytest.raises(CliInputError, match="empty"):
            load_csv(str(p))
        p.write_text("a,b\n")
        with pytest.raises(CliInputError, match="no data rows"):
            load_csv(str(p))

    def test_non_finite_rejected(self, tmp_path):
        p = tmp_path / "inf.csv"
        p.write_text("1,2\n3,inf\n")
        with pytest.raises(CliInputError, match="not finite"):
            load_csv(str(p))

    def test_single_column(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1\n2\n3\n")
        assert load_csv(str(p)).shape == (3, 1)


class TestReportSerialization:
    def test_json_round_trip_lossless(self):
        rep = SensitivityReport(
            input_path="x.csv", n=3, d=2, p=1.5, method="rowwise", seed=7,
            config={"alpha": 5, "gamma": 0.2},
            per_row=[0.1, 0.30000000000000004, 2.5957010334043913],
            total=2.9957010334043916, max_value=2.5957010334043913,
            metrics={"mean_abs_log_ratio": 0.1}, timings={"estimate_s": 1.25},
        )
        assert SensitivityReport.from_json(rep.to_json()) == rep

    def test_csv_sections(self):
        rep = SensitivityReport(input_path="x", n=1, d=1, p=1, method="m", seed=0,
                                per_row=[0.5], oracle_per_row=[0.4])
        assert rep.to_csv().splitlines()[0] == "row,estimate,oracle"
        rep2 = SensitivityReport(input_path="x", n=1, d=1, p=1, method="m", seed=0,
                                 bench_table=[{"p": 1.0, "total_upper_bound": 2.0,
                                               "brute_force": 1.5, "approximation": 1.4,
                                               "brute_runtime_s": 0.1,
                                               "approx_runtime_s": 0.05}])
        lines = rep2.to_csv().splitlines()
        assert lines[0] == ("p,total_upper_bound,brute_force,approximation,"
                            "brute_runtime_s,approx_runtime_s")
        assert lines[1].startswith("1.0,2.0,1.5,1.4,")


def _stable_stdout(capsys):
    out = capsys.readouterr().out
    return [l for l in out.splitlines() if not l.startswith("time_")]


class TestSubcommands:
    def test_exact_toy_total(self, toy_csv, capsys):
        assert main(["exact", "--input", toy_csv, "--p", "1"]) == 0
        lines = _stable_stdout(capsys)
        assert "total_estimate: 1.5" in lines

    def test_total_near_rank(self, rand_csv, capsys):
        assert main(["total", "--input", rand_csv, "--p", "2", "--gamma", "0.2",
                     "--seed", "1", "--exact"]) == 0
        out = capsys.readouterr().out
        total = float(next(l for l in out.splitlines()
                           if l.startswith("total_estimate:")).split()[1])
        assert 1.5 <= total <= 6.0
        assert "oracle_total:" in out and "metrics:" in out

    def test_all_writes_json(self, rand_csv, tmp_path, capsys):
        out = tmp_path / "r.json"
        code = main(["all", "--input", rand_csv, "--p", "1", "--alpha", "6",
                     "--seed", "2", "--out", str(out),
                     "--constants", "signs_per_block=4", "--repetitions", "3"])
        assert code == 0
        rep = SensitivityReport.from_json(out.read_text())
        assert len(rep.per_row) == 60
        assert rep.config["alpha"] == 6
        assert rep.metrics is None  # oracle did not run

    def test_alpha_series_csv(self, rand_csv, tmp_path, capsys):
        out = tmp_path / "s.csv"
        code = main(["all", "--input", rand_csv, "--p", "1", "--exact",
                     "--alpha-list", "3,6", "--seed", "2", "--out", str(out),
                     "--constants", "signs_per_block=4", "--repetitions", "3"])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "alpha,mean_abs_log_ratio,max_abs_log_ratio"
        assert len(lines) == 3
        assert lines[1].split(",")[0] == "3"

    def test_max_subcommand(self, rand_csv, capsys):
        assert main(["max", "--input", rand_csv, "--p", "1", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "max_estimate:" in out
        assert "distortion_multiplier=" in out

    def test_reduce_regression_mode(self, rand_csv, capsys):
        assert main(["reduce", "--input", rand_csv, "--p", "2",
                     "--mode", "regression"]) == 0
        out = capsys.readouterr().out
        assert "values:" in out
        assert "last column used as the regression target" in out

    def test_reduce_leave_one_out(self, rand_csv, capsys):
        assert main(["reduce", "--input", rand_csv, "--p", "2",
                     "--mode", "leave-one-out"]) == 0
        out = capsys.readouterr().out
        values_line = next(l for l in out.splitlines() if l.startswith("values:"))
        assert len(values_line.split()) == 4  # "values:" + d numbers
        assert "answered by 3 sensitivity computations" in out

    def test_bench_csv_columns_and_bound(self, rand_csv, tmp_path, capsys):
        out = tmp_path / "b.csv"
        code = main(["bench", "--input", rand_csv, "--p-list", "1,3",
                     "--gamma", "0.5", "--seed", "0", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == ("p,total_upper_bound,brute_force,approximation,"
                            "brute_runtime_s,approx_runtime_s")
        row1 = lines[1].split(",")
        row3 = lines[2].split(",")
        assert float(row1[1]) == pytest.approx(3.0)        # d^max(1, 0.5)
        assert float(row3[1]) == pytest.approx(3.0 ** 1.5)  # d^1.5


_FIELDS = ("per_row", "total", "max_value", "oracle_per_row", "oracle_total",
           "oracle_max", "metrics", "alpha_series", "bench_table", "values")
_ROWWISE = ["--alpha", "6", "--repetitions", "3", "--constants", "signs_per_block=4"]


class TestReportFields:
    """Which report fields, notes and timings each run with --exact fills."""

    @pytest.mark.parametrize("argv, filled, notes", [
        (["all", "--p", "1.5"] + _ROWWISE,
         {"per_row", "total", "max_value", "oracle_per_row", "oracle_total", "oracle_max",
          "metrics"},
         ["oracle_calls", "embedded_rows"]),
        (["all", "--p", "1", "--alpha-list", "3,6"] + _ROWWISE,
         {"oracle_per_row", "oracle_total", "oracle_max", "alpha_series"},
         []),
        (["total", "--p", "1.5", "--gamma", "0.3"],
         {"total", "oracle_total", "metrics"},
         []),
        (["total", "--p", "1", "--gamma", "0.3", "--method", "recursive_l1"],
         {"total", "oracle_total", "metrics"},
         []),
        (["max", "--p", "3"],
         {"max_value", "oracle_max", "metrics"},
         ["raw_max", "distortion_multiplier", "spanner_rows"]),
    ], ids=["all", "all-alpha-list", "total", "total-recursive", "max"])
    def test_exact_run_fills_exactly(self, rand_csv, tmp_path, capsys, argv, filled, notes):
        out = tmp_path / "r.json"
        assert main(argv + ["--input", rand_csv, "--seed", "4", "--exact",
                            "--out", str(out)]) == 0
        rep = SensitivityReport.from_json(out.read_text())
        assert {f for f in _FIELDS if getattr(rep, f) is not None} == filled
        assert [note.split("=")[0] for note in rep.notes] == notes
        assert set(rep.timings) == {"estimate_s", "oracle_s"}
        if rep.metrics is not None:
            assert set(rep.metrics) == {"mean_abs_log_ratio", "max_abs_log_ratio"}


class TestDeterminism:
    def test_rowwise_run_reproduces_bit_exactly(self, rand_csv, tmp_path, capsys):
        args = ["all", "--input", rand_csv, "--p", "1", "--alpha", "6",
                "--seed", "5", "--repetitions", "3",
                "--constants", "signs_per_block=4"]
        assert main(args + ["--out", str(tmp_path / "a.json")]) == 0
        first = _stable_stdout(capsys)
        assert main(args + ["--out", str(tmp_path / "b.json")]) == 0
        second = _stable_stdout(capsys)
        assert first == second
        ja = json.loads((tmp_path / "a.json").read_text())
        jb = json.loads((tmp_path / "b.json").read_text())
        ja.pop("timings"), jb.pop("timings")
        assert ja == jb

    def test_total_and_max_reproduce(self, rand_csv, capsys):
        for args in (
            ["total", "--input", rand_csv, "--p", "1", "--seed", "9"],
            ["max", "--input", rand_csv, "--p", "3", "--seed", "9"],
        ):
            assert main(args) == 0
            first = _stable_stdout(capsys)
            assert main(args) == 0
            assert _stable_stdout(capsys) == first


class TestExitCodes:
    def test_missing_file(self, capsys):
        assert main(["exact", "--input", "nope.csv"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_conflicting_method_p(self, rand_csv, capsys):
        assert main(["total", "--input", rand_csv, "--p", "2",
                     "--method", "recursive_l1"]) == 1

    def test_unknown_flag(self, rand_csv, capsys):
        assert main(["exact", "--input", rand_csv, "--frobnicate"]) == 1

    def test_unknown_constant_key(self, rand_csv, capsys):
        assert main(["total", "--input", rand_csv, "--constants", "nope=3"]) == 1
        assert "unknown constants" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("all", "embed_constant"),
        ("max", "embed_constant"),
        *[(command, key) for command in ("total", "bench")
          for key in ("c_m", "embed_constant", "r_constant", "base_constant")],
    ])
    def test_removed_multipliers_are_unknown_constants(self, rand_csv, capsys, command, key):
        assert main([command, "--input", rand_csv, "--constants", f"{key}=2"]) == 1
        assert "unknown constants" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, field", [
        (["all", "--alpha", "5", "--repetitions", "3", "--constants", "signs_per_block=2.5"],
         "signs_per_block"),
        (["total", "--method", "recursive_l1", "--constants", "base_size=8.7,r_override=6.2"],
         "base_size"),
        (["total", "--method", "recursive_l1", "--constants", "r_override=6.2"], "r_override"),
    ])
    def test_non_integral_integer_constants_rejected(self, rand_csv, capsys, argv, field):
        assert main([*argv, "--input", rand_csv]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"error: {field} must be an integer" in captured.err
        assert "Traceback" not in captured.err

    def test_bad_out_extension(self, rand_csv, capsys, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("the oracle ran before --out was checked")

        monkeypatch.setattr(cli, "sensitivities_exact", never)
        assert main(["exact", "--input", rand_csv, "--out", "r.txt"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--out must end in .json or .csv" in captured.err

    def test_nonconvergence_exit_two(self, rand_csv, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise NonConvergenceError("stuck", residual=0.5)

        monkeypatch.setattr(cli, "total_lewis_oneshot", boom)
        assert main(["total", "--input", rand_csv, "--p", "1"]) == 2
        assert "converge" in capsys.readouterr().err

    def test_p_below_one_rejected(self, rand_csv, capsys):
        assert main(["exact", "--input", rand_csv, "--p", "0.5"]) == 1

    def test_non_finite_p_rejected(self, rand_csv, capsys):
        assert main(["exact", "--input", rand_csv, "--p", "inf"]) == 1
        assert "p must be finite" in capsys.readouterr().err

    def test_flags_the_subcommand_ignores_are_rejected(self, rand_csv, capsys):
        assert main(["exact", "--input", rand_csv, "--exact"]) == 1
        assert "unrecognized arguments: --exact" in capsys.readouterr().err
        assert main(["reduce", "--input", rand_csv, "--constants", "c_m=1"]) == 1
        assert "unrecognized arguments: --constants" in capsys.readouterr().err

    def test_rank_deficient_input_rejected(self, tmp_path, capsys):
        path = write_matrix(tmp_path / "flat.csv", [[1.0, 2.0]] * 5)
        assert main(["exact", "--input", path, "--p", "1"]) == 1
