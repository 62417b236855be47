"""Layer spans recorded from outside the program.

Each traced function is replaced, at every module attribute of the ``icsel``
package that is bound to it, by a wrapper that records a span (name, start,
end, parent). Functions called hundreds of thousands of times per fit
(``penalty_value``, ``univariate_solve``) are folded instead: each keeps a
call count and total time per parent span, which is all a self time needs
and keeps memory flat. Spans and counts stay in memory until ``dump``.

A span whose functions are all missing from the package (a later refactor
removed or renamed them) is reported as absent and never fails the run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import defaultdict

import numpy as np

# (span name, defining module, attribute); "Class.method" wraps a method
SPANS = [
    ("cli.parse", "icsel.cli", "read_dataset_csv"),
    ("cli.write", "icsel.cli", "write_model_json"),
    ("cli.write", "icsel.cli", "write_path_csv"),
    ("cli.write", "icsel.cli", "_write_campaign_files"),
    ("campaign.replicate", "icsel.cli", "_replicate_worker"),
    ("data.validate", "icsel.data", "validate"),
    ("data.standardize", "icsel.data", "standardize"),
    ("support.build", "icsel.support", "maximal_intersections"),
    ("support.build", "icsel.support", "maximal_intersections_truncated"),
    ("em.workspace", "icsel.em", "EMWorkspace.__init__"),
    ("em.baseline_fit", "icsel.em", "baseline_lambda_fit"),
    ("em.estep", "icsel.em", "estep"),
    ("em.surrogate", "icsel.em", "surrogate"),
    ("em.mstep", "icsel.em", "mstep_lambda"),
    ("em.cd_pass", "icsel.em", "coordinate_descent_pass"),
    ("em.objective", "icsel.em", "penalty_total"),
    ("likelihood.loglik", "icsel.likelihood", "loglik"),
    ("likelihood.loglik", "icsel.likelihood", "loglik_truncated"),
    ("path.null_linearization", "icsel.path", "null_linearization"),
    ("path.run", "icsel.path", "run_path"),
    ("path.run", "icsel.path", "adaptive_lasso_pipeline"),
    ("simulate.replicate", "icsel.simulate", "make_replicate"),
    ("metrics.score", "icsel.metrics", "score"),
    ("metrics.score", "icsel.metrics", "aggregate"),
    ("metrics.score", "icsel.metrics", "hazard_sup_distance"),
]
FOLDED = [
    ("penalties.solve", "icsel.penalties", "univariate_solve"),
    ("penalties.value", "icsel.penalties", "penalty_value"),
]


class Tracer:
    """Spans, folded calls and counters of one traced command."""

    def __init__(self):
        self.names: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.stack = [-1]
        # (name, parent span) -> [calls, total seconds]
        self.folded: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0])
        self.counts: dict[str, float] = defaultdict(float)
        self.installed: set[str] = set()  # span names with at least one function wrapped
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers -----------------------------------------------------------

    def _span(self, name, fn, after=None):
        names, start, end, parent, stack = self.names, self.start, self.end, self.parent, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = len(names)
            names.append(name)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    def _fold(self, name, fn):
        folded, stack, clock = self.folded, self.stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                entry = folded[(name, stack[-1])]
                entry[0] += 1
                entry[1] += clock() - t

        return wrapper

    # -- counters taken from arguments and results --------------------------

    def _after(self, attr):
        counts = self.counts

        def support(args, kwargs, out):
            counts["support.builds"] += 1
            counts["support.cells_total"] += out.m

        def cd_pass(args, kwargs, out):
            beta = args[2] if len(args) > 2 else kwargs.get("beta")
            counts["em.cd_coords_moved"] += int(np.count_nonzero(np.asarray(out) != beta))

        def run_path(args, kwargs, out):
            counts["path.paths"] += 1
            counts["em.iterations"] += int(np.sum(out.iterations))

        return {
            "maximal_intersections": support,
            "maximal_intersections_truncated": support,
            "coordinate_descent_pass": cd_pass,
            "run_path": run_path,
        }.get(attr)

    # -- installation -------------------------------------------------------

    def install(self):
        """Wrap every traced function at every icsel binding that holds it."""
        modules = [m for k, m in list(sys.modules.items()) if k == "icsel" or k.startswith("icsel.")]
        for name, modname, attr in SPANS + FOLDED:
            folded = (name, modname, attr) in FOLDED
            try:
                owner = importlib.import_module(modname)
                if "." in attr:
                    cls_name, meth = attr.split(".")
                    cls = getattr(owner, cls_name)
                    self._set(cls, meth, self._span(name, cls.__dict__[meth]))
                    self.installed.add(name)
                    continue
                original = getattr(owner, attr)
            except (ImportError, AttributeError, KeyError):
                continue
            wrapper = self._fold(name, original) if folded else self._span(name, original, self._after(attr))
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapper)
            self.installed.add(name)

    def _set(self, obj, key, value):
        self._restore.append((obj, key, getattr(obj, key)))
        setattr(obj, key, value)

    def uninstall(self):
        for obj, key, value in reversed(self._restore):
            setattr(obj, key, value)
        self._restore.clear()

    # -- results ------------------------------------------------------------

    def totals(self) -> tuple[dict, dict, dict]:
        """(inclusive seconds, self seconds, calls) per span name, folded names included.

        A span inside another span of the same name (``loglik_truncated``
        calling ``loglik``, ``adaptive_lasso_pipeline`` calling ``run_path``)
        adds to self time but not again to inclusive time or calls.
        """
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=int)
        child_time = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child_time, parent[has_parent], dur[has_parent])
        inclusive, self_time, calls = defaultdict(float), defaultdict(float), defaultdict(int)
        for (name, sid), (n_calls, total) in self.folded.items():
            inclusive[name] += total
            self_time[name] += total
            calls[name] += n_calls
            if sid >= 0:
                child_time[sid] += total
        names, parents = self.names, self.parent
        for sid, name in enumerate(names):
            self_time[name] += dur[sid] - child_time[sid]
            up = parents[sid]
            while up >= 0 and names[up] != name:
                up = parents[up]
            if up < 0:
                inclusive[name] += dur[sid]
                calls[name] += 1
        return inclusive, self_time, calls

    def dump(self, path, **extra) -> None:
        """Write spans, folded calls, counts, per-name totals and ``extra`` as JSON."""
        inclusive, self_time, calls = self.totals()
        doc = {
            **extra,
            "totals": {
                name: {"inclusive_s": inclusive[name], "self_s": self_time[name], "calls": calls[name]}
                for name in calls
            },
            "counts": dict(self.counts),
            "absent": sorted({name for name, _, _ in SPANS + FOLDED} - self.installed),
            "spans": [list(s) for s in zip(self.names, self.start, self.end, self.parent)],
            "folded": [[name, sid, n, t] for (name, sid), (n, t) in self.folded.items()],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))
