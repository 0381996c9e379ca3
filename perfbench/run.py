#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark of lpsens.

    python3 perfbench/run.py --workload lp1-112x4 --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; lpsens is imported from ``src/``.
One process, BLAS pinned to one thread.  A run:

1. sets up (import, seeded input generation, one warm-up call per entry
   point on a tiny matrix);
2. runs a priming round, then repeats identical rounds of the workload's
   timed calls until ``--seconds`` is used up, timing a fixed reference
   computation before and after every sample.  Every round recomputes the
   same outputs from the same seed, so its digest must match the priming
   round's, and a digest file under ``.perfbench/`` makes a later run of the
   same seed fail if its outputs differ;
3. checks the outputs (see checks.py);
4. with ``--trace 0`` times the set-up again in fresh processes and reports
   every end-to-end metric of BENCHMARK.json; with ``--trace 1`` alternates
   untraced and traced rounds and reports every per-layer metric, plus the
   tracing overhead and the layer split.

Everything beyond the metrics (seconds per call, accuracy, ratios, digest,
environment, full layer table) is printed as one JSON line before the result
line, which is always the last line of standard output.
"""

from __future__ import annotations

import os
import sys
import time

T_PROCESS = time.perf_counter()
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"  # pinned before numpy loads its BLAS

import argparse
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

MIN_ROUNDS = 3  # measured rounds per run without tracing
MIN_TRACED = 2  # traced (and as many untraced) rounds per traced run
MAX_LOOP_S = 120.0  # stop starting rounds past this, whatever --seconds says
MIN_GROUP_S = 0.05  # cheap calls repeat back to back until one sample lasts this long
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60.0


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up, print 'ready' and exit (used to time set-up)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    return args


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def digest_of(kind, out) -> str:
    from workloads import output_arrays

    h = hashlib.sha256()
    for arr in output_arrays(kind, out):
        arr = np.ascontiguousarray(arr)
        h.update(f"{arr.dtype.str}{arr.shape}".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def setup(spec, seed):
    """Import, generate the inputs, warm every entry point up on a tiny matrix."""
    import lpsens  # noqa: F401  (the import is part of what set-up measures)
    from workloads import build

    plan = build(spec, seed)
    for call in build(spec, seed, tiny=True).calls:
        call.fn()
    return plan


def time_setup_in_fresh_processes(workload: str, seed: int) -> list[float]:
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - t0
                proc.communicate(timeout=PROBE_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.communicate()
                raise
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def blas_threads() -> int | None:
    """Thread count numpy's OpenBLAS reports, when it can be asked."""
    import ctypes
    import glob

    libs = glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import scipy

    return {
        "nproc": os.cpu_count(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
        "blas_threads": blas_threads(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


_REF_SMALL = np.random.default_rng(0).standard_normal((64, 4))
_REF_TALL = np.random.default_rng(1).standard_normal((3000, 16))


def reference_seconds() -> float:
    """Time of a fixed computation that never touches lpsens.

    An IRLS-like loop of small numpy operations (what the simplex and IRLS
    oracles spend their time on) plus one tall SVD (what the tall workload's
    dense layers do).  Timed right before and after every sample, it tracks
    how fast the shared host is running at that moment.
    """
    t0 = time.perf_counter()
    x = np.zeros(4)
    for _ in range(60):
        w = 1.0 / (np.abs(_REF_SMALL @ x - 1.0) + 1e-2)
        x = np.linalg.solve((_REF_SMALL * w[:, None]).T @ _REF_SMALL, _REF_SMALL.T @ w)
    np.linalg.svd(_REF_TALL, full_matrices=False)
    return time.perf_counter() - t0


class Loop:
    """Priming round, then measured rounds until the time is used up.

    In each round every call gives one sample: ``reps`` back-to-back
    executions (more than one only for calls much shorter than a round),
    bracketed by two timings of the reference computation.  Traced runs use
    one execution per call, so the per-layer numbers describe one call of
    each entry point.
    """

    def __init__(self, plan, trace: bool):
        self.plan = plan
        self.trace = trace
        self.reps = {c.label: 1 for c in plan.calls}
        self.outputs = {}  # label -> priming-round output
        self.digests = {}  # label -> priming-round digest
        self.errors = {}  # label -> first exception text
        self.nondeterministic = set()
        self.rounds = []  # measured rounds: {"traced", "seconds", "samples", "layers"}
        self.bad_executions = {}  # label -> executions that raised or changed output

    def _execute(self, call):
        t0 = time.perf_counter()
        try:
            out, err = call.fn(), None
        except Exception:  # the benchmark reports failures instead of stopping
            out, err = None, traceback.format_exc(limit=3)
        return time.perf_counter() - t0, out, err

    def prime(self):
        for call in self.plan.calls:
            dt, out, err = self._execute(call)
            if err is not None:
                self.errors[call.label] = err
                continue
            self.outputs[call.label] = out
            self.digests[call.label] = digest_of(call.kind, out)
            if not self.trace:
                self.reps[call.label] = max(1, int(MIN_GROUP_S / max(dt, 1e-6)))

    def _sample(self, call):
        """(seconds per library call, reference seconds) of one group of executions."""
        reps = self.reps[call.label]
        ref_before = reference_seconds()
        results, total = [], 0.0
        for _ in range(reps):
            dt, out, err = self._execute(call)
            total += dt
            results.append((out, err))
        ref_after = reference_seconds()
        for out, err in results:
            if err is None and digest_of(call.kind, out) == self.digests.get(call.label):
                continue
            if err is not None:
                self.errors.setdefault(call.label, err)
            elif call.label in self.digests:
                self.nondeterministic.add(call.label)
            self.bad_executions[call.label] = self.bad_executions.get(call.label, 0) + 1
        return total / (reps * call.count), 0.5 * (ref_before + ref_after)

    def measured_round(self, tracer=None):
        samples = {}
        if tracer is not None:
            tracer.reset()
            tracer.install()
        t_round = time.perf_counter()
        try:
            for call in self.plan.calls:
                samples[call.label] = self._sample(call)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.rounds.append({
            "traced": tracer is not None,
            "seconds": time.perf_counter() - t_round,
            "samples": samples,
            "layers": tracer.layer_metrics() if tracer is not None else None,
        })

    def executions(self, label) -> int:
        return len(self.rounds) * self.reps[label]

    def run(self, seconds: float):
        from tracer import Tracer

        tracer = Tracer() if self.trace else None
        t0 = time.perf_counter()
        self.prime()
        while True:
            traced = self.trace and len(self.rounds) % 2 == 1
            self.measured_round(tracer if traced else None)
            elapsed = time.perf_counter() - t0
            n_traced = sum(r["traced"] for r in self.rounds)
            n_plain = len(self.rounds) - n_traced
            enough = (n_traced >= MIN_TRACED and n_plain >= MIN_TRACED) if self.trace \
                else n_plain >= MIN_ROUNDS
            next_round = statistics.median(r["seconds"] for r in self.rounds)
            if enough and (elapsed + next_round > seconds or elapsed > MAX_LOOP_S):
                break
        return time.perf_counter() - t0


def call_timings(plan, rounds) -> dict:
    """Per call over untraced rounds: seconds (fastest, median), samples, relative time."""
    out = {}
    for call in plan.calls:
        xs = [r["samples"][call.label] for r in rounds if not r["traced"]]
        if xs:
            secs = [s for s, _ in xs]
            out[call.label] = {
                "min_s": min(secs),
                "median_s": statistics.median(secs),
                "samples": len(xs),
                "relative": statistics.median(s / ref for s, ref in xs),
            }
    return out


def metric_times(plan, timings, key) -> dict:
    """Each time metric: the sum of ``key`` over the calls it names (one per p)."""
    out = {}
    for call in plan.calls:
        if call.label in timings:
            out[call.metric] = out.get(call.metric, 0.0) + timings[call.label][key]
    return out


def check_outputs(plan, outputs) -> tuple[dict, dict, dict]:
    """Per-label window problems, per-label invariant problems, accuracy."""
    import lpsens as L

    import checks as ck
    from workloads import LEVERAGE_EPS

    mats = plan.inputs["As"]
    n, d = mats[0].shape
    window, invariant, accuracy = {}, {}, {}
    exact = {(0, c.p): outputs[c.label].values for c in plan.calls
             if c.kind == "exact" and c.label in outputs}

    def sigma(k, p):
        """Exact sensitivities of matrix k; the timed call's output for k = 0."""
        if (k, p) not in exact:
            exact[k, p] = L.sensitivities_exact(mats[k], p).values
        return exact[k, p]

    for call in plan.calls:
        if call.label not in outputs:
            continue
        out, p, lab = outputs[call.label], call.p, call.label
        w, inv = [], []
        if call.kind == "exact":
            inv = ck.check_exact(out.values, p, d) + ck.check_exact_reference(mats[0], out.values, p)
        elif call.kind == "rowwise":
            est, sig = out.estimates.values, sigma(0, p)
            w = ck.check_rowwise(est, sig, p, call.params["alpha"])
            pos = (sig > 0) & (est > 0)
            accuracy[lab] = ("rowwise_err", float(np.mean(np.abs(np.log(est[pos] / sig[pos])))))
        elif call.kind == "oneshot":
            totals = [sigma(k, p).sum() for k in range(len(out))]
            w = [msg for v, s in zip(out, totals) for msg in ck.check_oneshot(v, s)]
            accuracy[lab] = ("total_err", float(np.mean(np.abs(np.log(np.divide(out, totals))))))
        elif call.kind == "recursive":
            total = sigma(0, p).sum()
            w = ck.check_recursive(out, total)
            accuracy[lab] = ("recursive_l1_err", abs(float(np.log(out / total))))
        elif call.kind == "max":
            tops = [float(sigma(k, p).max()) for k in range(len(out))]
            w = [msg for m, top in zip(out, tops) for msg in ck.check_max(m.estimate, top, p, d)]
            accuracy[lab] = ("max_err", float(np.mean([abs(np.log(m.estimate / top))
                                                       for m, top in zip(out, tops)])))
        elif call.kind == "weights":
            wv, emb = out
            inv = ck.check_weights(wv.values, emb.source_rows, emb.scales, n, d)
        elif call.kind == "leverage_approx":
            lev = ck.qr_leverage(mats[0])
            w = ck.check_leverage_approx(out.values, lev, LEVERAGE_EPS)
            # the docstring promises (1 +- eps) per entry; report how often that holds
            accuracy[lab] = ("leverage_outside_1pm_eps", ck.leverage_outside(
                out.values, lev, 1.0 - LEVERAGE_EPS, 1.0 + LEVERAGE_EPS))
        elif call.kind == "regression":
            inv = [msg for value, m, y in zip(out, call.params["matrices"], call.params["targets"])
                   for msg in ck.check_regression(value, m, y, p)]
        elif call.kind == "leave_one_out":
            inv = [msg for vals, m in zip(out, call.params["matrices"])
                   for msg in ck.check_leave_one_out(np.asarray(vals), m, p)]
        if w:
            window[lab] = w
        if inv:
            invariant[lab] = inv
    return window, invariant, accuracy


def digest_record(workload: str, seed: int, digest: str) -> str | None:
    """Compare with (or store) the digest of an earlier run of this seed."""
    STATE.mkdir(exist_ok=True)
    path = STATE / f"{workload}-seed{seed}.sha256"
    if path.exists():
        earlier = path.read_text().strip()
        if earlier != digest:
            return f"output digest {digest[:16]} differs from an earlier run's {earlier[:16]}"
        return None
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(digest + "\n")
    os.replace(tmp, path)
    return None


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "lpsens" / "__init__.py").is_file():
        return fail(f"no lpsens sources under {SRC}; run from a full source checkout")
    bench_file = ROOT / "BENCHMARK.json"
    if not bench_file.is_file():
        return fail("BENCHMARK.json not found at the checkout root")
    bench = json.loads(bench_file.read_text())
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))

    from workloads import SPECS

    spec = SPECS.get(args.workload)
    if spec is None:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(SPECS)}")

    plan = setup(spec, args.seed)
    if args.setup_probe:
        print("ready", flush=True)
        return 0
    own_setup_s = time.perf_counter() - T_PROCESS
    load_start = os.getloadavg()

    loop = Loop(plan, trace=bool(args.trace))
    loop_s = loop.run(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    window, invariant, accuracy = check_outputs(plan, loop.outputs)
    problems = [f"{lab}: {msg}" for lab, msgs in invariant.items() for msg in msgs]
    problems += [f"{lab}: raised {err.strip().splitlines()[-1]}" for lab, err in loop.errors.items()]
    problems += [f"{lab}: output changed between rounds" for lab in sorted(loop.nondeterministic)]

    run_digest = hashlib.sha256(
        "".join(f"{lab}={dig};" for lab, dig in sorted(loop.digests.items())).encode()
    ).hexdigest()
    if not loop.errors:
        stale = digest_record(spec.name, args.seed, run_digest)
        if stale:
            problems.append(stale)

    # outputs repeat bit-identically, so a call whose output misses a check
    # fails in every execution; otherwise only executions that raised or
    # changed their output fail
    failed_labels = set(window) | set(invariant)
    attempted = failed = 0
    for call in plan.calls:
        n = loop.executions(call.label)
        bad = n if call.label in failed_labels else loop.bad_executions.get(call.label, 0)
        attempted += n * call.count
        failed += bad * call.count

    plain = [r for r in loop.rounds if not r["traced"]]
    traced = [r for r in loop.rounds if r["traced"]]
    timings = call_timings(plan, loop.rounds)
    times = metric_times(plan, timings, "relative")
    acc = {}
    for metric, value in accuracy.values():
        acc.setdefault(metric, []).append(value)
    acc = {m: float(np.mean(v)) for m, v in acc.items()}

    detail = {
        "workload": spec.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "loop_s": loop_s,
        "own_setup_s": own_setup_s,
        "rounds": {"measured": len(plain), "traced": len(traced)},
        "round_s": [r["seconds"] for r in loop.rounds],
        "reps_per_round": loop.reps,
        "calls": timings,
        "median_seconds": metric_times(plan, timings, "median_s"),
        "recursive_l1_time": times.get("recursive_l1_time"),
        "accuracy": acc,
        "ratios": {
            "rowwise_time/exact_time": times["rowwise_time"] / times["exact_time"],
            "oneshot_time/exact_time": times["oneshot_time"] / times["exact_time"],
            "base_exact_time": times["exact_time"],
        } if plain else {},
        "failed_frac": failed / max(attempted, 1),
        "window_misses": window,
        "problems": problems,
        "digest": run_digest,
        "environment": environment(),
        "loadavg": {"start": load_start, "end": os.getloadavg()},
        "reference_s": statistics.median(
            ref for r in loop.rounds for _, ref in r["samples"].values()),
    }

    metrics = {}
    if args.trace:
        layers = _layer_summary(traced)
        detail["layers"] = layers
        detail["layer_split"] = _layer_split(layers)
        detail["tracing_overhead_s"] = (
            statistics.median(r["seconds"] for r in traced)
            - statistics.median(r["seconds"] for r in plain)
        )
        for m in bench["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0), "unit": m["unit"]}
    else:
        setup_times = time_setup_in_fresh_processes(spec.name, args.seed)
        detail["setup_probe_s"] = setup_times
        values = dict(times, setup_s=statistics.median(setup_times),
                      peak_rss_mb=peak_rss_mb, **acc)
        for m in bench["end_to_end"]:
            if m["name"] not in values:  # its call raised before giving an output
                problems.append(f"{m['name']}: no value")
            metrics[m["name"]] = {"value": values.get(m["name"], 0.0), "unit": m["unit"]}

    print(json.dumps(detail, sort_keys=True, default=float))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def _layer_summary(traced) -> dict:
    """Median over traced rounds of each per-layer value (absent = 0)."""
    names = sorted({k for r in traced for k in r["layers"]})
    return {k: statistics.median(r["layers"].get(k, 0) for r in traced) for k in names}


def _layer_split(layers) -> dict:
    """Shares of the time inside the benchmark's calls that back the workloads."""
    entry = layers.get("entry.s", 0.0)

    def self_s(prefixes):
        return sum(v for k, v in layers.items()
                   if k.endswith(".self_s") and k.startswith(prefixes))

    dense = self_s(("lewis.", "core.", "leverage."))
    oracle = self_s(("regress.wrt", "regress.oracle", "simplex."))
    return {
        "entry_s": entry,
        "simplex_share": layers.get("simplex.lp.s", 0.0) / entry if entry else None,
        "irls_oracle_share": layers.get("regress.oracle.irls.s", 0.0) / entry if entry else None,
        "dense_self_s": dense,
        "oracle_self_s": oracle,
        "dense_over_oracle": dense / oracle if oracle else None,
    }


if __name__ == "__main__":
    sys.exit(main())
