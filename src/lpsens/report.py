"""Structured run reports: one dataclass, lossless JSON, flat CSV.

Every CLI run produces a SensitivityReport.  JSON serialization preserves
every numeric field exactly (Python float round-trips through json's repr
formatting), so reruns can be compared bit-for-bit once timings are set
aside.  CSV emission flattens whichever section the run produced: per-row
estimates, an alpha sweep, a benchmark table, or a one-line summary.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field


@dataclass
class SensitivityReport:
    input_path: str
    n: int
    d: int
    p: float
    method: str
    seed: int
    config: dict = field(default_factory=dict)
    per_row: list | None = None
    total: float | None = None
    max_value: float | None = None
    oracle_per_row: list | None = None
    oracle_total: float | None = None
    oracle_max: float | None = None
    metrics: dict | None = None
    alpha_series: list | None = None
    bench_table: list | None = None
    values: list | None = None  # reduction outputs and other small vectors
    notes: list = field(default_factory=list)
    timings: dict = field(default_factory=dict)

    def to_json(self) -> str:
        return json.dumps(asdict(self), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "SensitivityReport":
        return cls(**json.loads(text))

    def to_csv(self) -> str:
        """Flatten the most specific populated section to CSV text."""
        if self.bench_table is not None:
            lines = csv_lines(BENCH_COLUMNS, records(self.bench_table, BENCH_COLUMNS))
        elif self.alpha_series is not None:
            lines = csv_lines(ALPHA_COLUMNS, records(self.alpha_series, ALPHA_COLUMNS))
        elif self.per_row is not None and self.oracle_per_row is None:
            lines = csv_lines(("row", "estimate"), enumerate(self.per_row))
        elif self.per_row is not None:
            lines = csv_lines(("row", "estimate", "oracle"),
                              zip(range(len(self.per_row)), self.per_row, self.oracle_per_row))
        elif self.values is not None:
            lines = csv_lines(("index", "value"), enumerate(self.values))
        else:
            summary = (("total", self.total), ("max", self.max_value),
                       ("oracle_total", self.oracle_total), ("oracle_max", self.oracle_max))
            lines = csv_lines(("field", "value"), [f for f in summary if f[1] is not None])
        return "\n".join(lines) + "\n"


ALPHA_COLUMNS = ("alpha", "mean_abs_log_ratio", "max_abs_log_ratio")
BENCH_COLUMNS = ("p", "total_upper_bound", "brute_force", "approximation",
                 "brute_runtime_s", "approx_runtime_s")


def records(table, columns):
    """The given columns of each dict in a report table, in column order."""
    return ([row[c] for c in columns] for row in table)


def csv_lines(header, rows):
    """A header line, then one comma-joined line of formatted values per row."""
    return [",".join(header)] + [",".join(_fmt(v) for v in row) for row in rows]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(v)
    return str(v)
