"""Span tracing of gpselect's public functions from outside the package.

Each named function is replaced, at every ``gpselect.*`` module attribute
bound to the same object, by a wrapper that records a span (name, start, end,
parent span, op id, whether it raised). Spans stay in memory until the run
ends. A few wrappers also read the return value (jitter applied, partition
failures, optimizer iterations). ``uninstall`` puts the original objects back.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

MODULES = ("cli", "criteria", "gaussian", "harness", "kernels", "optimize", "regression")

TRACED = {
    "kernels": ("kernel_matrix", "noisy_kernel_matrix"),
    "gaussian": ("chol_spd", "from_moments", "log_product_integral", "maxent_linear_map_posterior"),
    "regression": ("log_evidence", "loo_cv_objective", "predict", "msll"),
    "criteria": ("sample_partitions", "average_log_eta"),
    "optimize": ("optimize", "lbfgs_minimize", "finite_diff_gradient", "evaluate_criterion"),
    "harness": (
        "run_ranking",
        "rank_students",
        "sample_synthetic",
        "load_csv_dataset",
        "write_report",
        "write_rank_csv",
    ),
    "cli": ("main",),
}
ROOT = "cli.main"
NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)


def _chol_jittered(args, kwargs, result):
    # chol_spd only ever adds to the diagonal, which symmetrizing leaves unchanged
    mat = np.asarray(args[0] if args else kwargs["mat"], dtype=float)
    return ("jittered", float(not np.array_equal(np.diag(result[1]), np.diag(mat))))


_OBSERVERS = {
    "gaussian.chol_spd": lambda a, k, res: [_chol_jittered(a, k, res)],
    "criteria.average_log_eta": lambda a, k, res: [("n_failed", res.n_failed), ("n_partitions", res.n_partitions)],
    "optimize.lbfgs_minimize": lambda a, k, res: [("iters", res.n_iter), ("converged", float(res.converged))],
}


class Tracer:
    def __init__(self):
        # span i: [name, start, end, parent index or -1, op id, raised]
        self.spans: list[list] = []
        self.values: dict[tuple[str, str], list[float]] = defaultdict(list)
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn):
        spans, stack, values = self.spans, self._stack, self.values
        observe = _OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, False]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
            if observe is not None:
                for key, value in observe(args, kwargs, result):
                    values[(name, key)].append(value)
            return result

        return traced

    def install(self) -> None:
        pkg = importlib.import_module("gpselect")
        mods = [pkg] + [importlib.import_module(f"gpselect.{m}") for m in MODULES]
        for short, funcs in TRACED.items():
            home = sys.modules[f"gpselect.{short}"]
            for func in funcs:
                name = f"{short}.{func}"
                if func == "from_moments":
                    cls = home.GaussianDist
                    original = cls.__dict__[func]
                    self._patch(cls, func, classmethod(self._wrap(name, original.__func__)), original)
                    continue
                original = getattr(home, func)
                wrapped = self._wrap(name, original)
                for mod in mods:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, attr, wrapped, original)

    def _patch(self, owner, attr, new, old) -> None:
        setattr(owner, attr, new)
        self._patches.append((owner, attr, old))

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    def self_times(self) -> list[float]:
        """Per span: duration minus the union of its children's intervals."""
        children = defaultdict(list)
        for i, (_, start, end, parent, _, _) in enumerate(self.spans):
            if parent >= 0:
                children[parent].append((start, end))
        out = []
        for i, (_, start, end, _, _, _) in enumerate(self.spans):
            covered, reach = 0.0, start
            for c_start, c_end in sorted(children.get(i, ())):
                lo, hi = max(c_start, reach), min(c_end, end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out.append((end - start) - covered)
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index,name,start,end,parent,op,raised\n")
            for i, (name, start, end, parent, op, raised) in enumerate(self.spans):
                fh.write(f"{i},{name},{start!r},{end!r},{parent},{op},{int(raised)}\n")

    def layer_metrics(self, n_ops: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics over the traced ops: name -> (value, unit)."""
        selfs = self.self_times()
        calls = defaultdict(int)
        self_s = defaultdict(float)
        raised = defaultdict(int)
        under_opt = [False] * len(self.spans)
        fit_evals = fit_grads = fits = 0
        for i, (name, _, _, parent, _, err) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += selfs[i]
            raised[name] += err
            if parent >= 0:
                under_opt[i] = under_opt[parent] or self.spans[parent][0] == "optimize.optimize"
            fits += name == "optimize.optimize"
            fit_evals += under_opt[i] and name == "optimize.evaluate_criterion"
            fit_grads += under_opt[i] and name == "optimize.finite_diff_gradient"
        out: dict[str, tuple[float, str]] = {}
        for name in NAMES:
            out[f"{name}.calls"] = (calls[name] / n_ops, "count")
            out[f"{name}.self_s"] = (self_s[name] / n_ops, "s")
            out[f"{name}.raised"] = (float(raised[name]), "count")
        v = self.values
        out["gaussian.chol_spd.jittered"] = (sum(v[("gaussian.chol_spd", "jittered")]) / n_ops, "count")
        n_parts = sum(v[("criteria.average_log_eta", "n_partitions")])
        n_failed = sum(v[("criteria.average_log_eta", "n_failed")])
        out["criteria.average_log_eta.partition_fail_frac"] = (n_failed / n_parts if n_parts else 0.0, "ratio")
        out["optimize.optimize.evals_per_fit"] = (fit_evals / fits if fits else 0.0, "count")
        out["optimize.optimize.grads_per_fit"] = (fit_grads / fits if fits else 0.0, "count")
        iters = v[("optimize.lbfgs_minimize", "iters")]
        conv = v[("optimize.lbfgs_minimize", "converged")]
        out["optimize.lbfgs_minimize.iters"] = (float(np.mean(iters)) if iters else 0.0, "count")
        out["optimize.lbfgs_minimize.converged_frac"] = (float(np.mean(conv)) if conv else 0.0, "ratio")
        return out

    def root_spans(self) -> dict[int, float]:
        """Op id -> duration of that op's root ``cli.main`` span."""
        return {op: end - start for name, start, end, parent, op, _ in self.spans if parent < 0 and name == ROOT}
