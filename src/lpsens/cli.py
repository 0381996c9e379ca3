"""Command-line interface.

Subcommands: ``all`` (per-row estimates), ``total`` (one-shot or recursive
total), ``max`` (max-sensitivity estimate), ``exact`` (brute-force oracle),
``reduce`` (regression reductions), ``bench`` (brute vs approximate sweep).
Each run prints a summary table to stdout and optionally writes the full
report to JSON or CSV via --out.  Exit codes: 0 success, 1 input error,
2 solver non-convergence.  With a fixed seed every numeric output is
reproduced bit-exactly; lines starting with ``time_`` carry wall-clock
measurements and are the only nondeterministic output.
"""

from __future__ import annotations

import argparse
import math
import sys
import time

import numpy as np

from .core import NonConvergenceError, RandomSource, as_matrix
from .maxsens import max_sensitivity
from .reduce import leave_one_out_multiregression, regression_via_sensitivity
from .regress import sensitivities_exact
from .report import ALPHA_COLUMNS, BENCH_COLUMNS, SensitivityReport, _fmt, csv_lines, records
from .rowwise import RowwiseConfig, sensitivities_rowwise
from .total import TotalConfig, total_lewis_oneshot, total_recursive_l1


class CliInputError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliInputError(message)


def load_csv(path) -> np.ndarray:
    """Parse a comma-separated numeric file into a dense matrix.

    A first line whose first field is not numeric is treated as a header
    and skipped.  Every other field must parse as a finite number; errors
    name the offending line and column.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    lines = text.splitlines()
    data_lines = [(i, line) for i, line in enumerate(lines) if line.strip()]
    if not data_lines:
        raise CliInputError(f"{path}: empty file")
    first_field = data_lines[0][1].split(",")[0].strip()
    try:
        float(first_field)
    except ValueError:
        data_lines = data_lines[1:]
    if not data_lines:
        raise CliInputError(f"{path}: no data rows after the header")
    rows = []
    width = None
    for lineno, line in data_lines:
        fields = [f.strip() for f in line.split(",")]
        if width is None:
            width = len(fields)
        elif len(fields) != width:
            raise CliInputError(
                f"{path}: line {lineno + 1}: expected {width} fields, found {len(fields)}"
            )
        row = []
        for col, fieldtext in enumerate(fields):
            try:
                value = float(fieldtext)
            except ValueError:
                raise CliInputError(
                    f"{path}: line {lineno + 1}: column {col + 1}: "
                    f"not a number: {fieldtext!r}"
                ) from None
            if not math.isfinite(value):
                raise CliInputError(
                    f"{path}: line {lineno + 1}: column {col + 1}: not finite"
                )
            row.append(value)
        rows.append(row)
    return np.array(rows, dtype=np.float64)


def _parse_constants(text):
    out = {}
    if not text:
        return out
    for part in text.split(","):
        if "=" not in part:
            raise CliInputError(
                f"bad --constants entry {part!r}; expected key=value"
            )
        key, raw = part.split("=", 1)
        key = key.strip()
        raw = raw.strip()
        try:
            out[key] = int(raw)
        except ValueError:
            try:
                out[key] = float(raw)
            except ValueError:
                raise CliInputError(
                    f"--constants {key}: not numeric: {raw!r}"
                ) from None
    return out


def _parse_list(text, flag, kind):
    try:
        return [kind(v) for v in text.split(",") if v.strip()]
    except ValueError:
        noun = "integers" if kind is int else "numbers"
        raise CliInputError(f"{flag}: expected comma-separated {noun}, got {text!r}") from None


_TOTAL_CONSTANTS = ("embed_eps", "base_size", "r_override")
# the hidden constants each subcommand lets --constants override; no other takes the flag
_CONSTANTS = {
    "all": ("signs_per_block", "embed_eps"),
    "total": _TOTAL_CONSTANTS,
    "max": ("embed_eps",),
    "bench": _TOTAL_CONSTANTS,
}
# the subcommands whose estimates --exact scores against the brute-force oracle
_SCORED = ("all", "total", "max")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lpsens", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, summary):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--input", required=True, help="CSV matrix file")
        p.add_argument("--p", type=float, default=1.0, help="norm exponent (>= 1)")
        p.add_argument("--seed", type=int, default=0, help="random seed")
        p.add_argument("--out", default=None, help="write report to .json or .csv")
        if name in _SCORED:
            p.add_argument("--exact", action="store_true",
                           help="also run the brute-force oracle and report log-ratio metrics")
        if name in _CONSTANTS:
            p.add_argument("--constants", default="",
                           help="override hidden constants, e.g. embed_eps=0.25")
        p.set_defaults(exact=False, constants="")
        return p

    def total_options(p):
        p.add_argument("--gamma", type=float, default=0.2, help="accuracy parameter")
        p.add_argument("--method", choices=("lewis_oneshot", "recursive_l1"),
                       default="lewis_oneshot")

    p_all = command("all", "estimate every row's sensitivity")
    p_all.add_argument("--alpha", type=int, default=10, help="rows per block")
    p_all.add_argument("--repetitions", type=int, default=9, help="odd median repetitions")
    p_all.add_argument("--alpha-list", default=None,
                       help="sweep alphas and emit the log-ratio series (needs --exact)")

    total_options(command("total", "estimate the total sensitivity"))
    command("max", "estimate the maximum sensitivity")
    command("exact", "brute-force sensitivities")

    p_reduce = command("reduce", "regression via sensitivity reductions")
    p_reduce.add_argument("--mode", choices=("regression", "leave-one-out"),
                          default="regression")
    p_reduce.add_argument("--lam", type=float, default=None,
                          help="anchor scale (default: derived from the matrix)")

    p_bench = command("bench", "brute vs approximate totals over a p list")
    p_bench.add_argument("--p-list", default="1,2",
                         help="comma-separated p values to sweep")
    total_options(p_bench)
    return parser


def _log_ratio_metrics(estimates, oracle):
    est = np.asarray(estimates, dtype=np.float64)
    orc = np.asarray(oracle, dtype=np.float64)
    mask = (est > 0) & (orc > 0) & np.isfinite(est) & np.isfinite(orc)
    skipped = int(est.size - mask.sum())
    if not mask.any():
        return None, skipped
    logr = np.abs(np.log(est[mask] / orc[mask]))
    return {
        "mean_abs_log_ratio": float(logr.mean()),
        "max_abs_log_ratio": float(logr.max()),
    }, skipped


def _timed(fn, *args, **kwargs):
    """Call fn and return its result together with the wall-clock seconds it took."""
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return out, time.perf_counter() - t0


def _exact_values(a, p):
    return sensitivities_exact(a, p).values


def _estimate_total(a, p, args, consts, rng):
    """The total estimate that --method names, at exponent p."""
    cfg = TotalConfig(p=p, gamma=args.gamma, method=args.method, **consts)
    estimator = total_recursive_l1 if cfg.method == "recursive_l1" else total_lewis_oneshot
    return estimator(a, cfg, rng)


def _set_per_row(report, vals):
    report.per_row = [float(v) for v in vals]
    report.total = float(vals.sum())
    report.max_value = float(vals.max())


def _score(command, report, oracle):
    """Store the oracle beside what the run estimated and score the estimate against it."""
    if command == "all":
        report.oracle_per_row = [float(v) for v in oracle]
        report.oracle_total = float(oracle.sum())
        report.oracle_max = float(oracle.max())
        if report.per_row is None:  # an --alpha-list run: its series holds the scores
            return
        report.metrics, skipped = _log_ratio_metrics(report.per_row, oracle)
        if skipped:
            report.notes.append(f"log_ratio_rows_skipped={skipped}")
    elif command == "total":
        report.oracle_total = float(oracle.sum())
        report.metrics, _ = _log_ratio_metrics([report.total], [report.oracle_total])
    else:
        report.oracle_max = float(oracle.max())
        report.metrics, _ = _log_ratio_metrics([report.max_value], [report.oracle_max])


def _run_all(args, a, consts, oracle):
    report = _blank_report(args, a, method="rowwise")
    report.config.update({"alpha": args.alpha, "repetitions": args.repetitions, **consts})

    def rowwise(alpha, rng):
        cfg = RowwiseConfig(p=args.p, alpha=alpha, repetitions=args.repetitions, **consts)
        return sensitivities_rowwise(a, cfg, rng)

    if args.alpha_list is not None:
        if oracle is None:
            raise CliInputError("--alpha-list needs --exact for the log-ratio series")
        alphas = _parse_list(args.alpha_list, "--alpha-list", int)
        series = []
        t0 = time.perf_counter()
        for alpha in alphas:
            res = rowwise(alpha, RandomSource(args.seed).child("alpha", alpha))
            metrics, _ = _log_ratio_metrics(res.estimates.values, oracle)
            if metrics is None:
                raise CliInputError("log-ratio series undefined: no comparable rows")
            series.append({"alpha": alpha, **metrics})
        report.timings["estimate_s"] = time.perf_counter() - t0
        report.alpha_series = series
        return report

    res, report.timings["estimate_s"] = _timed(rowwise, args.alpha, RandomSource(args.seed))
    _set_per_row(report, res.estimates.values)
    report.notes.append(f"oracle_calls={res.oracle_calls}")
    report.notes.append(f"embedded_rows={res.embedded_rows}")
    return report


def _run_total(args, a, consts, oracle):
    report = _blank_report(args, a, method=args.method)
    report.config.update({"gamma": args.gamma, **consts})
    report.total, report.timings["estimate_s"] = _timed(
        _estimate_total, a, args.p, args, consts, RandomSource(args.seed)
    )
    return report


def _run_max(args, a, consts, oracle):
    report = _blank_report(args, a, method="spanner" if args.p != 2 else "exact_leverage")
    report.config.update(consts)
    res, report.timings["estimate_s"] = _timed(
        max_sensitivity, a, args.p, RandomSource(args.seed), **consts
    )
    report.max_value = res.estimate
    report.notes.append(f"raw_max={_fmt(res.raw_max)}")
    report.notes.append(f"distortion_multiplier={_fmt(res.distortion_multiplier)}")
    if res.spanner_rows:
        report.notes.append("spanner_rows=" + ",".join(str(i) for i in res.spanner_rows))
    return report


def _run_exact(args, a, consts, oracle):
    report = _blank_report(args, a, method="brute_force")
    vals, report.timings["estimate_s"] = _timed(_exact_values, a, args.p)
    _set_per_row(report, vals)
    return report


def _run_reduce(args, a, consts, oracle):
    report = _blank_report(args, a, method=args.mode)
    if args.lam is not None:
        report.config["lam"] = args.lam
    t0 = time.perf_counter()
    if args.mode == "regression":
        if a.shape[1] < 2:
            raise CliInputError(
                "regression mode reads the target from the last column; "
                "the input needs at least 2 columns"
            )
        design, target = a[:, :-1], a[:, -1]
        value = regression_via_sensitivity(design, target, args.p, lam=args.lam)
        report.values = [value]
        report.notes.append("last column used as the regression target")
    else:
        vals = leave_one_out_multiregression(a, args.p, lam=args.lam)
        report.values = [float(v) for v in vals]
        report.notes.append(
            f"{a.shape[1]} leave-one-out regressions answered by "
            f"{a.shape[1]} sensitivity computations on one augmented matrix"
        )
    report.timings["estimate_s"] = time.perf_counter() - t0
    return report


def _run_bench(args, a, consts, oracle):
    report = _blank_report(args, a, method=args.method)
    report.config.update({"gamma": args.gamma, **consts})
    p_list = _parse_list(args.p_list, "--p-list", float)
    if not p_list:
        raise CliInputError("--p-list is empty")
    table = []
    for p in p_list:
        rng = RandomSource(args.seed).child("bench", str(p))
        approx, t_approx = _timed(_estimate_total, a, p, args, consts, rng)
        brute, t_brute = _timed(_exact_values, a, p)
        table.append({
            "p": p,
            "total_upper_bound": float(a.shape[1] ** max(1.0, p / 2.0)),
            "brute_force": float(brute.sum()),
            "approximation": approx,
            "brute_runtime_s": t_brute,
            "approx_runtime_s": t_approx,
        })
    report.bench_table = table
    return report


def _blank_report(args, a, method) -> SensitivityReport:
    return SensitivityReport(
        input_path=args.input,
        n=int(a.shape[0]),
        d=int(a.shape[1]),
        p=float(args.p),
        method=method,
        seed=int(args.seed),
        config={"seed": int(args.seed)},
    )


def _print_report(report: SensitivityReport) -> None:
    print(f"input: {report.input_path} ({report.n} x {report.d})")
    print(f"method: {report.method}  p: {_fmt(report.p)}  seed: {report.seed}")
    cfg = {k: v for k, v in report.config.items() if k != "seed"}
    if cfg:
        print("config: " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(cfg.items())))
    if report.total is not None:
        print(f"total_estimate: {_fmt(report.total)}")
    if report.max_value is not None:
        print(f"max_estimate: {_fmt(report.max_value)}")
    if report.per_row is not None:
        print(f"per_row: {len(report.per_row)} values"
              + (" (use --out to save them)" if report.per_row else ""))
    if report.values is not None:
        print("values: " + " ".join(_fmt(v) for v in report.values))
    if report.oracle_total is not None:
        print(f"oracle_total: {_fmt(report.oracle_total)}")
    if report.oracle_max is not None:
        print(f"oracle_max: {_fmt(report.oracle_max)}")
    if report.metrics:
        print("metrics: " + " ".join(f"{k}={_fmt(v)}" for k, v in sorted(report.metrics.items())))
    if report.alpha_series is not None:
        print("\n".join(csv_lines(ALPHA_COLUMNS, records(report.alpha_series, ALPHA_COLUMNS))))
    if report.bench_table is not None:
        deterministic = [c for c in BENCH_COLUMNS if not c.endswith("_s")]
        for line in csv_lines(deterministic, records(report.bench_table, deterministic)):
            print("bench: " + line)
        for row in report.bench_table:
            print(f"time_bench_p={_fmt(row['p'])}: brute={_fmt(row['brute_runtime_s'])}"
                  f" approx={_fmt(row['approx_runtime_s'])}")
    for note in report.notes:
        print(f"note: {note}")
    for key in sorted(report.timings):
        print(f"time_{key}: {_fmt(report.timings[key])}")


_RUNNERS = {
    "all": _run_all,
    "total": _run_total,
    "max": _run_max,
    "exact": _run_exact,
    "reduce": _run_reduce,
    "bench": _run_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not args.p >= 1:
            raise CliInputError(f"--p must be >= 1, got {args.p}")
        constants = _parse_constants(args.constants)
        if args.out and not args.out.endswith((".json", ".csv")):
            raise CliInputError("--out must end in .json or .csv")
        a = as_matrix(load_csv(args.input))
        allowed = _CONSTANTS.get(args.command, ())
        unknown = sorted(set(constants) - set(allowed))
        if unknown:
            raise CliInputError(
                f"unknown constants {unknown}; allowed here: {sorted(allowed)}"
            )
        oracle = None
        if args.exact:
            oracle, oracle_s = _timed(_exact_values, a, args.p)
        report = _RUNNERS[args.command](args, a, constants, oracle)
        if oracle is not None:
            report.timings["oracle_s"] = oracle_s
            _score(args.command, report, oracle)
    except NonConvergenceError as exc:
        print(f"solver failed to converge: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _print_report(report)
    if args.out:
        text = report.to_json() if args.out.endswith(".json") else report.to_csv()
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
