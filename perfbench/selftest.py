"""Self-test of the benchmark itself, at tiny sizes (about a minute).

    python3 perfbench/selftest.py

Checks that every workload runs and emits every metric BENCHMARK.json
names, with its unit; that a corrupted output trips the correctness gate;
that self time is computed correctly on synthetic nested spans; and that
a directory holding only the benchmark (no pathscape sources) makes the
command exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def test_every_metric_emitted():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
            proc = bench(["--workload", workload, "--tiny", "--seconds", "1", "--trace", str(trace)])
            assert proc.returncode == 0, (workload, trace, proc.stdout[-2000:], proc.stderr[-2000:])
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == {m["name"]: m["unit"] for m in declared}, (workload, trace)
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)), name
                if trace == 0:
                    assert m["value"] > 0, (workload, name)
            print(f"ok  {workload} trace {trace}: {len(got)} metrics")


def test_per_layer_list_matches_benchmark_json():
    names = [n for n, _, _ in tracing.per_layer_specs()] + [f"{g}_s" for g in ("wall",) + run.GROUPS]
    names += ["failed_ratio", "trace.overhead_s", "trace.max_gap_s", "trace.uncovered_s"]
    assert names == [m["name"] for m in SPEC["per_layer"]]
    print("ok  per-layer metric list")


def test_corrupted_output_trips_gate():
    import worker  # imports pathscape
    import jobs

    golden = json.loads(run.GOLDEN.read_text())
    job = next(j for j in jobs.workload_jobs("tree-mc") if j.name == "tree_theta_L8")
    out = job.run(golden["seed"], {})

    def record(out):
        digests, values = worker.split_outputs(out)
        return {"name": job.name, "group": job.group, "seeded": True, "seconds": 1.0,
                "error": None, "digests": digests, "values": values,
                "problems": job.check(golden["seed"], out, {job.name: out})}

    def judged(*records):
        # all round 0, as a plain round and its traced twin: same inputs
        rounds = [{"seed": golden["seed"], "round": 0, "jobs": [r]} for r in records]
        golden_one = {**golden, "workloads": {"tree-mc": {job.name: golden["workloads"]["tree-mc"][job.name]}}}
        return run.judge(rounds, golden_one, "tree-mc", tiny=False)

    good = record(out)
    assert good["problems"] == [] and judged(good)[:2] == (1, 0)

    flipped = dict(out, thetas=out["thetas"].copy())
    flipped["thetas"][0] += 1
    bad = record(flipped)
    assert any("enumeration" in msg for msg in bad["problems"]), bad["problems"]
    attempted, failed, problems = judged(bad)
    assert (attempted, failed) == (1, 1) and any("digest" in p for p in problems), problems
    # a traced round whose outputs differ from its plain twin fails too
    assert judged(good, bad)[:2] == (2, 1)
    # an outlier far outside the closed-form band fails at any seed
    outlier = dict(out, thetas=out["thetas"].copy())
    outlier["thetas"][0] = 40320  # every path of the L = 8 tree open
    outlier.update(jobs._summary(outlier["thetas"]))
    assert job.check(golden["seed"], outlier, {}) != []
    print("ok  corrupted output trips the gate")


def test_self_time_on_synthetic_spans():
    # [id, name, label, start, end, parent, job, work, value, error]
    spans = [
        [0, "job", "j", 0.0, 10.0, None, "j", 0, 0, None],
        [1, "mc.tree_theta_batch", None, 1.0, 9.0, 0, "j", 0, 0, None],
        [2, "parallel.map_replicas", None, 1.5, 8.5, 1, "j", 0, 0, None],
        [3, "tree.sample_theta_tree", "L8", 2.0, 4.0, 2, "j", 1, 5, None],
        [4, "tree.sample_theta_tree", "L8", 5.0, 8.0, 2, "j", 1, 7, None],
        [5, "rng.derive_seed", None, 4.0, 4.5, 2, "j", 0, 0, None],
    ]
    assert tracing.self_times(spans) == [2.0, 1.0, 1.5, 2.0, 3.0, 0.5]
    assert tracing.job_coverage(spans) == {"j": 8.0}
    m = tracing.layer_metrics(spans)
    assert m["tree.sample_theta_tree.L8.calls"] == 2
    assert m["tree.sample_theta_tree.L8.self_s"] == 5.0
    assert m["tree.sample_theta_tree.L8.replicas_per_s"] == 2 / 5.0
    assert m["tree.sample_theta_tree.L12.calls"] == 0
    assert m["parallel.map_replicas.self_s"] == 1.5
    assert m["mc.tree_theta_batch.self_s"] == 1.0
    assert m["tree.paths_counted"] == 12
    assert m["hypercube.path_exists.self_s"] == 0.0
    print("ok  self time on synthetic nested spans")


def test_tracer_wraps_and_restores():
    import pathscape
    from pathscape import mc, tree

    original = tree.sample_theta_tree
    tracer = tracing.Tracer()
    undo = tracer.install(pathscape)
    try:
        close = tracer.job_span("j")
        thetas = mc.tree_theta_batch(6, 0.1, 1, 3, threads=1)
        close()
    finally:
        undo()
    assert tree.sample_theta_tree is original
    by_name = {}
    for rec in tracer.spans:
        by_name.setdefault(rec[1], []).append(rec)
    assert [r[8] for r in by_name["tree.sample_theta_tree"]] == list(thetas)
    batch = by_name["mc.tree_theta_batch"][0]
    assert batch[5] == 0 and by_name["parallel.map_replicas"][0][5] == batch[0]
    print("ok  tracer wraps module attributes and restores them")


def test_bare_directory_fails():
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in BENCH.iterdir():
        if f.is_file():
            shutil.copy(f, bare / "perfbench")
    proc = bench(["--workload", "tree-mc", "--seed", "1", "--seconds", "20", "--trace", "0"], cwd=bare)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and proc.stdout == "", proc
    print("ok  bare directory exits non-zero without a result")


if __name__ == "__main__":
    test_per_layer_list_matches_benchmark_json()
    test_self_time_on_synthetic_spans()
    test_tracer_wraps_and_restores()
    test_corrupted_output_trips_gate()
    test_bare_directory_fails()
    test_every_metric_emitted()
    print("self-test passed")
