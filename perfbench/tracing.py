"""Outside-in layer tracing for the benchmark.

The package has no hooks of its own, so the tracer replaces public entry
points with timing wrappers: module attributes for functions (including the
copies other modules imported by name, such as `cycleclust.bnb.project`) and
class attributes for the simplex engine's solve methods. Each wrapper
records a span (name, start, end, parent, request) and bumps counters at the
same boundary. Spans stay in memory; `dump` writes them out at the end.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        # span rows: [name, start, end, parent index or -1, request]
        self.spans: list[list] = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self.request = None
        self._stack: list[int] = []
        self._saved: list = []

    # -- recording -------------------------------------------------------------

    def count(self, key: str, amount=1) -> None:
        self.counts[self.request][key] += amount

    def wrap(self, name: str, fn, after=None, raises=None):
        """Time `fn` as span `name`; `after(result)` adds counts, and an
        exception of type `raises` is counted as `<name>.raised` before it
        propagates."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            row = [name, time.perf_counter(), None, parent, self.request]
            self.spans.append(row)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if raises is not None and isinstance(exc, raises):
                    self.count(f"{name}.raised")
                raise
            finally:
                row[2] = time.perf_counter()
                self._stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, after=None, raises=None,
              adapt=None) -> None:
        """Replace `owner.attr` by a traced wrapper; `adapt(original)` may
        first put a counting layer around the original."""
        original = getattr(owner, attr)
        self._saved.append((owner, attr, original))
        inner = adapt(original) if adapt is not None else original
        setattr(owner, attr, self.wrap(name, inner, after, raises))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- analysis --------------------------------------------------------------

    def self_times(self) -> dict:
        """(request, span name) -> summed self time. Wrapped calls nest
        strictly on one thread, so the part of a span its children cover is
        the sum of their durations."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(float)
        for k, (name, start, end, _, request) in enumerate(self.spans):
            out[(request, name)] += (end - start) - child_time[k]
        return out

    def inclusive_times(self) -> dict:
        out: dict = defaultdict(float)
        for name, start, end, _, request in self.spans:
            out[(request, name)] += end - start
        return out

    def dump(self, path, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = self.spans
        doc["counts"] = {str(r): dict(c) for r, c in self.counts.items()}
        with open(path, "w") as fh:
            json.dump(doc, fh)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; `tracer.restore()` undoes it."""
    import cycleclust.bnb as bnb
    import cycleclust.cli as cli
    import cycleclust.generate as generate
    import cycleclust.io as cio
    import cycleclust.mip as mip
    from cycleclust.errors import NumericalFailureError
    from cycleclust.simplex import SimplexEngine

    p = tracer.patch
    count = tracer.count

    def hmc_steps(result):
        count("generate.hmc_steps", len(result.points))

    def model_size(result):
        count("mip.rows", result.nrows)
        count("mip.cols", result.ncols)
        count("mip.nnz", result.matrix.nnz)

    def export_size(result):
        count("mip.export_bytes", len(result.encode()))

    def nodes(result):
        count("bnb.nodes", result.nodes)
        count(f"bnb.status.{result.status}")

    def calls(key):
        return lambda result: count(key)

    def solve(kind):
        # an engine's iteration counter runs on across its solve calls, and
        # a solve that raises has still spent its iterations
        def adapt(method):
            def counted(engine, *args, **kwargs):
                start = engine.iterations
                try:
                    state = method(engine, *args, **kwargs)
                finally:
                    count(f"simplex.{kind}_solves")
                    count(f"simplex.{kind}_iterations", engine.iterations - start)
                if state == "cutoff":
                    count(f"simplex.{kind}_cutoffs")
                return state
            return counted
        return adapt

    p(generate, "hmc_with_drift", "generate.hmc", hmc_steps)
    p(generate, "select_bin_centers", "generate.binning")
    p(generate, "hmc_transition_matrix", "generate.binning")
    p(generate, "generate_repressilator_instance", "generate.repressilator")

    p(cli, "main", "cli")
    p(cio, "read_matrix", "io.read")
    for writer in ("write_solve_report", "write_clustering", "write_manifest"):
        p(cio, writer, "io.write")
    p(cli, "stationary_distribution", "markov.stationary")
    for owner in (cli, bnb):
        p(owner, "project", "markov.project", calls("markov.project_calls"))
    for owner in (cli, bnb, mip):
        p(owner, "objective", "clustering.objective",
          calls("clustering.objective_calls"))
    p(cli, "build_mip", "mip.build", model_size)
    p(cli, "export_model", "mip.export", export_size)
    p(bnb, "solution_values", "mip.solution_values")
    p(bnb, "clustering_from_solution", "mip.extract")
    p(bnb, "StandardLp", "simplex.standard_form")
    p(cli, "branch_and_bound", "bnb", nodes)
    p(bnb, "greedy_heuristic", "heuristics.greedy")
    p(bnb, "exchange_improvement", "heuristics.exchange",
      calls("heuristics.exchange_calls"))
    p(bnb, "rounding_heuristic", "heuristics.rounding",
      calls("heuristics.rounding_calls"))
    p(SimplexEngine, "solve_from_basis", "simplex.crash",
      raises=NumericalFailureError, adapt=solve("crash"))
    p(SimplexEngine, "solve_dual", "simplex.dual",
      raises=NumericalFailureError, adapt=solve("dual"))
    p(SimplexEngine, "solve_cold", "simplex.cold",
      raises=NumericalFailureError, adapt=solve("cold"))
    p(SimplexEngine, "verify_optimal", "simplex.verify", None,
      NumericalFailureError)


# Counters that must repeat exactly for one seed (the determinism check).
DETERMINISTIC_COUNTS = (
    "bnb.nodes", "simplex.crash_iterations", "simplex.dual_iterations",
    "simplex.cold_iterations", "simplex.crash_solves", "simplex.dual_solves",
    "simplex.cold_solves", "mip.rows", "mip.cols", "mip.nnz", "mip.export_bytes",
)

_SPAN_OF = {
    "io.read_s": "io.read", "io.write_s": "io.write", "cli.self_s": "cli",
    "markov.stationary_s": "markov.stationary",
    "markov.project_s": "markov.project",
    "clustering.objective_s": "clustering.objective",
    "mip.build_s": "mip.build", "mip.export_s": "mip.export",
    "mip.solution_values_s": "mip.solution_values",
    "mip.extract_s": "mip.extract",
    "simplex.standard_form_s": "simplex.standard_form",
    "simplex.crash_s": "simplex.crash", "simplex.dual_s": "simplex.dual",
    "simplex.cold_s": "simplex.cold",
    "simplex.verify_s": "simplex.verify", "bnb.self_s": "bnb",
    "heuristics.greedy_s": "heuristics.greedy",
    "heuristics.exchange_s": "heuristics.exchange",
    "heuristics.rounding_s": "heuristics.rounding",
}

_SETUP_SPAN_OF = {
    "generate.hmc_s": "generate.hmc",
    "generate.binning_s": "generate.binning",
    "generate.repressilator_s": "generate.repressilator",
}

_REQUEST_COUNTS = (
    "markov.project_calls", "clustering.objective_calls", "mip.rows", "mip.cols",
    "mip.nnz", "mip.export_bytes", "simplex.crash_iterations",
    "simplex.dual_solves", "simplex.dual_iterations", "simplex.cold_solves",
    "simplex.cold_iterations", "bnb.nodes", "heuristics.exchange_calls",
    "heuristics.rounding_calls",
)


def layer_metrics(tracer: Tracer, setup_keys: list, request_keys: list,
                  overhead_s: float) -> dict:
    """Per-layer values: self times and counts per traced request (per set-up
    repetition for the generate layer); ratios over all traced requests."""
    selft = tracer.self_times()
    incl = tracer.inclusive_times()
    counts = tracer.counts
    nreq = max(len(request_keys), 1)
    nset = max(len(setup_keys), 1)

    def total(table, keys, name):
        return sum(table.get((k, name), 0.0) for k in keys)

    def ctotal(keys, name):
        return sum(counts[k].get(name, 0) for k in keys if k in counts)

    out = {}
    for metric, span in _SETUP_SPAN_OF.items():
        out[metric] = total(selft, setup_keys, span) / nset
    out["generate.hmc_steps"] = ctotal(setup_keys, "generate.hmc_steps") / nset
    for metric, span in _SPAN_OF.items():
        out[metric] = total(selft, request_keys, span) / nreq
    for metric in _REQUEST_COUNTS:
        out[metric] = ctotal(request_keys, metric) / nreq
    failures = sum(ctotal(request_keys, f"simplex.{kind}.raised")
                   for kind in ("crash", "dual", "cold", "verify"))
    out["simplex.numerical_failures"] = failures / nreq
    crash_s = total(incl, request_keys, "simplex.crash")
    crash_it = ctotal(request_keys, "simplex.crash_iterations")
    out["simplex.crash_us_per_iter"] = 1e6 * crash_s / crash_it if crash_it else 0.0
    dual_s = total(incl, request_keys, "simplex.dual")
    dual_it = ctotal(request_keys, "simplex.dual_iterations")
    out["simplex.dual_us_per_iter"] = 1e6 * dual_s / dual_it if dual_it else 0.0
    dual_n = ctotal(request_keys, "simplex.dual_solves")
    cutoffs = ctotal(request_keys, "simplex.dual_cutoffs")
    out["simplex.dual_cutoff_fraction"] = cutoffs / dual_n if dual_n else 0.0
    bnb_s = total(incl, request_keys, "bnb")
    nodes = ctotal(request_keys, "bnb.nodes")
    out["bnb.nodes_per_s"] = nodes / bnb_s if bnb_s else 0.0
    out["bnb.time_limited_fraction"] = (
        ctotal(request_keys, "bnb.status.time-limit") / nreq)
    out["trace.request_s"] = total(incl, request_keys, "cli") / nreq
    out["trace.overhead_s"] = overhead_s
    return out


def request_counts(tracer: Tracer, key) -> dict:
    return {name: tracer.counts[key].get(name, 0) for name in DETERMINISTIC_COUNTS}
