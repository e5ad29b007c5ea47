"""The benchmark's tracer can still wrap, run and restore the package.

`perfbench/tracing.py` wraps package functions by module attribute name,
so a refactor that drops or renames a wrapped name breaks every traced
benchmark round.  This runs the tiny version of every workload under the
tracer, reading `perfbench/` and changing nothing there.
"""

import sys
from pathlib import Path

import pytest

import pathscape

BENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench_modules(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import jobs
    import tracing

    yield jobs, tracing
    for name in ("jobs", "tracing"):
        sys.modules.pop(name, None)


def test_tracer_runs_every_tiny_job_and_restores(bench_modules):
    jobs, tracing = bench_modules
    originals = {
        (spec.module, spec.attr): getattr(getattr(pathscape, spec.module), spec.attr)
        for spec in tracing.WRAPS
    }
    tracer = tracing.Tracer()
    undo = tracer.install(pathscape)
    try:
        for workload in ("tree-mc", "cube-cascade-mc", "recursion-moments"):
            outs = {}
            for job in jobs.workload_jobs(workload, tiny=True):
                close = tracer.job_span(job.name)
                try:
                    outs[job.name] = job.run(1, outs)
                finally:
                    close()
    finally:
        undo()
    for (module, attr), fn in originals.items():
        assert getattr(getattr(pathscape, module), attr) is fn, f"{module}.{attr}"
    untraced = {spec.span for spec in tracing.WRAPS} - {rec[1] for rec in tracer.spans}
    # the one-seed tree calls are wrapped, but no workload makes them
    assert untraced <= {"tree.sample_theta_tree", "tree.theta_k_tree"}
