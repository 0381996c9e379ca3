"""Outside-in layer tracing for lpsens.

``from .x import f`` copies ``f`` into every importing module, so a layer is
traced by replacing each binding its callers look up at call time.  The
wrappers are installed for a traced round and removed afterwards; the
library itself is never edited.

Every span records calls, total seconds and self seconds (its duration minus
the time covered by the spans it directly encloses).  Counters record work
at the same boundaries: oracle rows, simplex pivots, IRLS iterations and
exits, embedding draws.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

# scope names of the benchmark's own calls; oracle rows are attributed to the
# entry point that was active when sensitivities_wrt ran
_ENTRY_LAYERS = {
    "sensitivities_exact": "regress.exact",
    "sensitivities_rowwise": "rowwise",
    "total_lewis_oneshot": "total.oneshot",
    "total_recursive_l1": "total.recursive",
    "max_sensitivity": "maxsens",
    "regression_via_sensitivity": "reduce",
    "leave_one_out_multiregression": "reduce",
    "lewis_weights": "lewis.weights",
    "lp_embedding": "embed.lp",
    "leverage_approx": "leverage.approx",
}


class Tracer:
    def __init__(self):
        self.spans = defaultdict(lambda: [0, 0.0, 0.0])  # name -> calls, s, self_s
        self.counts = defaultdict(int)
        self._stack: list[list[float]] = []  # child seconds of each open span
        self.entry_s = 0.0  # time inside the benchmark's own (outermost) calls
        self._scope: str | None = None
        self._installed: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------------ spans
    def _wrap(self, fn, name, before=None, after=None, scope=None):
        tracer = self

        def wrapper(*args, **kwargs):
            span = name(args) if callable(name) else name
            if before is not None:
                before(tracer, args)
            outer_scope = tracer._scope
            if scope is not None and outer_scope is None:
                tracer._scope = scope
            children = [0.0]
            tracer._stack.append(children)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                tracer._stack.pop()
                tracer._scope = outer_scope
                if tracer._stack:
                    tracer._stack[-1][0] += dt
                else:
                    tracer.entry_s += dt
                rec = tracer.spans[span]
                rec[0] += 1
                rec[1] += dt
                rec[2] += dt - children[0]
            if after is not None:
                after(tracer, args, out)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, fn, count_name):
        tracer = self

        def wrapper(*args, **kwargs):
            tracer.counts[count_name] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, module_name, attr, wrapper_factory):
        module = importlib.import_module(module_name)
        original = getattr(module, attr)
        setattr(module, attr, wrapper_factory(original))
        self._installed.append((module, attr, original))

    # ---------------------------------------------------------------- install
    def install(self):
        """Wrap every traced binding; ``uninstall`` restores the originals."""
        if self._installed:
            raise RuntimeError("tracer already installed")
        span = self._patch

        def wrap(name, before=None, after=None, scope=None):
            return lambda fn: self._wrap(fn, name, before, after, scope)

        # the benchmark's entry points, looked up on the package at call time
        for attr, layer in _ENTRY_LAYERS.items():
            after = None
            if attr == "sensitivities_rowwise":
                after = _after_rowwise
            elif attr == "lp_embedding":
                after = _after_lp_embedding
            span("lpsens", attr, wrap(layer, after=after, scope=layer))

        # the oracle funnel, in every module that calls it
        for mod in ("rowwise", "total", "maxsens", "reduce", "regress"):
            span(f"lpsens.{mod}", "sensitivities_wrt", wrap("regress.wrt", before=_before_wrt))
        span("lpsens.regress", "min_lp_on_hyperplane",
             wrap(_oracle_name, after=_after_oracle))
        span("lpsens.regress", "solve_lp", wrap("simplex.lp", after=_after_solve_lp))

        # dense primitives
        span("lpsens.core", "pivoted_qr", wrap("core.qr"))
        for mod in ("regress", "total"):
            span(f"lpsens.{mod}", "pseudoinverse_gram", wrap("core.pinv_gram"))
        for mod in ("core", "leverage", "lewis", "embed", "rowwise", "total", "maxsens", "reduce"):
            span(f"lpsens.{mod}", "require_tall_full_rank", wrap("core.rank_gate"))

        # leverage, Lewis weights and embeddings inside the estimators
        span("lpsens.lewis", "leverage_exact",
             wrap("leverage.exact", before=_count("lewis.iterations")))
        span("lpsens.total", "leverage_exact",
             wrap("leverage.exact", before=_count("total.recursive.leverage_calls")))
        for mod in ("regress", "maxsens"):
            span(f"lpsens.{mod}", "leverage_exact", wrap("leverage.exact"))
        for mod in ("embed", "total"):
            span(f"lpsens.{mod}", "lewis_weights", wrap("lewis.weights"))
        for mod in ("rowwise", "total", "maxsens"):
            span(f"lpsens.{mod}", "lp_embedding", wrap("embed.lp", after=_after_lp_embedding))
        span("lpsens.maxsens", "linf_embedding", wrap("embed.linf"))
        span("lpsens.embed", "matrix_rank", lambda fn: self._counter(fn, "embed.lp.draws"))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def reset(self):
        self.spans.clear()
        self.counts.clear()
        self.entry_s = 0.0

    # ---------------------------------------------------------------- results
    def layer_metrics(self) -> dict[str, float]:
        """Flat per-layer metrics of everything recorded since ``reset``."""
        out: dict[str, float] = {}
        for name, (calls, s, self_s) in sorted(self.spans.items()):
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = s
            out[f"{name}.self_s"] = self_s
        out.update(sorted(self.counts.items()))
        out["entry.s"] = self.entry_s
        lp_calls = out.get("simplex.lp.calls", 0)
        pivots = out.get("simplex.lp.pivots", 0)
        out["simplex.lp.pivots_per_call"] = pivots / lp_calls if lp_calls else 0.0
        # LP-path oracle calls whose dual recovery failed solve a second, primal LP
        out["simplex.lp.fallbacks"] = lp_calls - out.get("regress.oracle.lp.calls", 0)
        return out


def _count(name):
    def before(tracer, args):
        tracer.counts[name] += 1
    return before


def _before_wrt(tracer, args):
    rows = len(args[0])
    tracer.counts["regress.wrt.rows"] += rows
    if tracer._scope is not None:
        tracer.counts[f"{tracer._scope}.oracle_rows"] += rows


def _oracle_name(args):
    return "regress.oracle.lp" if args[2] == 1 else "regress.oracle.irls"


def _after_oracle(tracer, args, sol):
    if args[2] == 1:
        return
    tracer.counts["regress.irls.iterations"] += sol.iterations
    tracer.counts["regress.irls.iteration_limit"] += int(sol.status == "iteration_limit")


def _after_solve_lp(tracer, args, res):
    tracer.counts["simplex.lp.pivots"] += res.pivots


def _after_rowwise(tracer, args, res):
    tracer.counts["rowwise.oracle_calls"] += res.oracle_calls
    tracer.counts["rowwise.embedded_rows"] += res.embedded_rows


def _after_lp_embedding(tracer, args, emb):
    tracer.counts["embed.lp.rows"] += len(emb)
