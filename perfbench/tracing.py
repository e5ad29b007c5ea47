"""Spans around the calls into each pathscape module, recorded from outside.

`Tracer.install` replaces module attributes with timing wrappers, in the
traced process only; pathscape itself carries no tracing code.  A span
records its name, an optional label (such as ``L16``), start, end, the
span that called it and the job it belongs to.  Spans stay in memory and
are written out once, after the round.

A span's self time is its duration minus the durations of its child
spans (one thread, so children never overlap).  Per-layer metrics sum
self time and work over all spans of one name and label.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from dataclasses import dataclass
from typing import Callable

# Work done by one call, from its bound arguments `a` and its result `r`.


def _one(a, r):
    return 1


def _cube_edges(a, r):
    L = a["land"].dim
    return L * 2 ** (L - 1)


def _sweep_point_levels(a, r):
    """(grid + 1) * (levels - 1) of a tree_gf or existence_prob sweep."""
    return (a["grid_n"] + 1) * (a["L"] - 1)


@dataclass(frozen=True)
class Wrap:
    """One wrapped callable: where it lives and what it reports."""

    module: str  # pathscape submodule whose attribute is replaced
    attr: str
    span: str  # span name, "<layer>.<function>"
    label: Callable | None = None  # bound args -> label such as "L12"
    work: Callable | None = None  # (bound args, result) -> work units
    rate: str | None = None  # metric name of work / self time
    rate_unit: str = "1/s"
    value: Callable | None = None  # result -> number kept for a counter


#: Every wrapped callable.  rng functions are wrapped under each name that
#: a Monte Carlo module imports them by, because that is the name called.
WRAPS = (
    Wrap("mc", "tree_theta_batch", "mc.tree_theta_batch"),
    Wrap("mc", "tree_theta_k_batch", "mc.tree_theta_k_batch"),
    Wrap("mc", "hypercube_theta_batch", "mc.hypercube_theta_batch"),
    Wrap("mc", "hypercube_theta_k_batch", "mc.hypercube_theta_k_batch"),
    Wrap("mc", "map_replicas", "parallel.map_replicas"),
    Wrap("mc", "derive_seed", "rng.derive_seed"),
    Wrap("tree", "derive_seed", "rng.derive_seed"),
    Wrap("hypercube", "philox_stream", "rng.philox_stream"),
    Wrap("cascade", "philox_stream", "rng.philox_stream"),
    Wrap(
        "tree",
        "sample_theta_tree",
        "tree.sample_theta_tree",
        label=lambda a: f"L{a['params'].dim}",
        work=_one,
        rate="replicas_per_s",
        value=int,
    ),
    Wrap("tree", "theta_k_tree", "tree.theta_k_tree", work=_one, rate="replicas_per_s"),
    Wrap(
        "tree",
        "tree_existence_mc",
        "tree.tree_existence_mc",
        work=lambda a, r: a["samples"],
        rate="replicas_per_s",
        value=lambda r: r.budget_hits,
    ),
    Wrap(
        "hypercube",
        "generate_hypercube",
        "hypercube.generate_hypercube",
        work=lambda a, r: 8 * 2 ** a["L"] / 1e6,
        rate="mb_per_s",
        rate_unit="MB/s",
    ),
    Wrap(
        "hypercube",
        "count_open_paths",
        "hypercube.count_open_paths",
        label=lambda a: f"L{a['land'].dim}",
        work=_cube_edges,
        rate="edges_per_s",
    ),
    Wrap("hypercube", "theta_k_hypercube", "hypercube.theta_k_hypercube"),
    Wrap("hypercube", "path_exists", "hypercube.path_exists", work=_one, rate="replicas_per_s"),
    Wrap("cascade", "cascade_limit_check", "cascade.cascade_limit_check"),
    Wrap("cascade", "sample_cascade_batch", "cascade.sample_cascade_batch"),
    Wrap(
        "cascade",
        "sample_cascade",
        "cascade.sample_cascade",
        work=lambda a, r: r.atoms_visited,
        rate="atoms_per_s",
    ),
    Wrap("stats", "prodexp_cdf", "stats.prodexp_cdf", work=_one, rate="points_per_s"),
    Wrap("stats", "ks_statistic", "stats.ks_statistic"),
    Wrap("stats", "moment_summary", "stats.moment_summary"),
    Wrap(
        "recursion",
        "tree_gf",
        "recursion.tree_gf",
        label=lambda a: f"L{a['L']}",
        work=_sweep_point_levels,
        rate="point_levels_per_s",
    ),
    Wrap(
        "recursion",
        "existence_prob",
        "recursion.existence_prob",
        work=_sweep_point_levels,
        rate="point_levels_per_s",
    ),
    Wrap("recursion", "p_star", "recursion.p_star"),
    Wrap(
        "recursion",
        "fk_iterate",
        "recursion.fk_iterate",
        work=lambda a, r: (a["grid_n"] + 1) * a["k"],
        rate="point_levels_per_s",
    ),
    Wrap("recursion", "delta_bound_check", "recursion.delta_bound_check"),
    Wrap("moments", "var_hypercube", "moments.var_hypercube", label=lambda a: f"L{a['L']}"),
    Wrap("moments", "var_star_tree", "moments.var_star_tree"),
    Wrap("moments", "cond_var_tree", "moments.cond_var_tree"),
    Wrap("moments", "a_bound_check", "moments.a_bound_check"),
)

#: Labels each labelled span takes in the workloads (all are reported,
#: with zeros where a workload does not make the call).
LABELS = {
    "tree.sample_theta_tree": ("L8", "L12"),
    "hypercube.count_open_paths": ("L12", "L16", "L20"),
    "recursion.tree_gf": ("L2000", "L500"),
    "moments.var_hypercube": ("L16", "L64", "L128", "L256"),
}

#: Spans whose call count is reported.
COUNTED = {
    "tree.sample_theta_tree",
    "tree.theta_k_tree",
    "tree.tree_existence_mc",
    "rng.philox_stream",
    "rng.derive_seed",
    "cascade.sample_cascade",
    "stats.prodexp_cdf",
}


class Tracer:
    """Records spans in memory.  A span is the list
    [id, name, label, start, end, parent, job, work, value, error]."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.job: str | None = None
        self.budget_error: type = RuntimeError

    def _open(self, name, label) -> list:
        parent = self._stack[-1] if self._stack else None
        rec = [len(self.spans), name, label, 0.0, 0.0, parent, self.job, 0, 0, None]
        self.spans.append(rec)
        self._stack.append(rec[0])
        rec[3] = time.perf_counter()
        return rec

    def _close(self, rec) -> None:
        rec[4] = time.perf_counter()
        self._stack.pop()

    def wrap(self, fn: Callable, spec: Wrap) -> Callable:
        sig = inspect.signature(fn)
        needs_args = spec.label is not None or spec.work is not None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            bound = sig.bind(*args, **kwargs).arguments if needs_args else None
            rec = self._open(spec.span, spec.label(bound) if spec.label else None)
            try:
                result = fn(*args, **kwargs)
            except self.budget_error:
                rec[9] = "budget"
                raise
            finally:
                self._close(rec)
            if spec.work is not None:
                rec[7] = spec.work(bound, result)
            if spec.value is not None:
                rec[8] = spec.value(result)
            return result

        return traced

    def install(self, package) -> Callable[[], None]:
        """Wrap every WRAPS entry in `package`; returns the undo function."""
        self.budget_error = package.tree.BudgetExceededError
        saved = []
        for spec in WRAPS:
            module = getattr(package, spec.module)
            original = getattr(module, spec.attr)
            saved.append((module, spec.attr, original))
            setattr(module, spec.attr, self.wrap(original, spec))

        def undo():
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

        return undo

    def job_span(self, name: str) -> Callable[[], None]:
        """Open the root span of one job; call the returned function to close it."""
        self.job = name
        rec = self._open("job", name)

        def close():
            self._close(rec)
            self.job = None

        return close

    def write(self, path) -> None:
        keys = ("id", "name", "label", "start", "end", "parent", "job", "work", "value", "error")
        with open(path, "w") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")


def self_times(spans) -> list:
    """Self time of each span: its duration minus its children's durations."""
    own = [rec[4] - rec[3] for rec in spans]
    for rec in spans:
        if rec[5] is not None:
            own[rec[5]] -= rec[4] - rec[3]
    return own


def job_coverage(spans) -> dict:
    """Per job: the time covered by the layer spans the job called directly."""
    covered: dict = {}
    for rec in spans:
        if rec[5] is not None and spans[rec[5]][1] == "job":
            covered[rec[6]] = covered.get(rec[6], 0.0) + rec[4] - rec[3]
    return covered


def _key(span, label):
    return f"{span}.{label}" if label else span


#: Counters summed over spans: name -> (span, field to sum).
COUNTERS = {
    "tree.paths_counted": ("tree.sample_theta_tree", "value"),
    "cascade.atoms": ("cascade.sample_cascade", "work"),
}


def per_layer_specs() -> list:
    """(name, unit, better) of every per-layer metric the trace reports."""
    out = []
    seen = set()
    for spec in WRAPS:
        if spec.span in seen:
            continue
        seen.add(spec.span)
        for label in LABELS.get(spec.span, (None,)):
            key = _key(spec.span, label)
            if spec.span in COUNTED:
                out.append((f"{key}.calls", "count", "lower"))
            out.append((f"{key}.self_s", "s", "lower"))
            if spec.rate:
                out.append((f"{key}.{spec.rate}", spec.rate_unit, "higher"))
    return out + [
        ("tree.paths_counted", "count", "higher"),
        ("tree.budget_hits", "count", "lower"),
        ("cascade.atoms", "count", "lower"),
        ("cascade.budget_hits", "count", "lower"),
    ]


def layer_metrics(spans) -> dict:
    """Per-layer metric values of one traced round (zeros where unused)."""
    agg: dict = {}  # span name or "name.label" -> [calls, self_s, work, value]
    budget_hits = {"tree": 0, "cascade": 0}
    for rec, self_s in zip(spans, self_times(spans)):
        if rec[1] == "job":
            continue
        for key in {rec[1], _key(rec[1], rec[2])}:
            a = agg.setdefault(key, [0, 0.0, 0, 0])
            a[0] += 1
            a[1] += self_s
            a[2] += rec[7]
            a[3] += rec[8]
        layer = rec[1].split(".")[0]
        if rec[9] == "budget" and layer in budget_hits:
            budget_hits[layer] += 1
    # tree_existence_mc catches its own budget errors and returns the count
    budget_hits["tree"] += agg.get("tree.tree_existence_mc", [0] * 4)[3]
    out = {}
    for metric, _, _ in per_layer_specs():
        layer, field = metric.split(".")[0], metric.rsplit(".", 1)[1]
        if metric in COUNTERS:
            span, kind = COUNTERS[metric]
            out[metric] = agg.get(span, [0] * 4)[2 if kind == "work" else 3]
        elif field == "budget_hits":
            out[metric] = budget_hits[layer]
        else:
            calls, self_s, work, _ = agg.get(metric.rsplit(".", 1)[0], (0, 0.0, 0, 0))
            if field == "calls":
                out[metric] = calls
            elif field == "self_s":
                out[metric] = self_s
            else:
                out[metric] = work / self_s if self_s > 0 else 0.0
    return out
