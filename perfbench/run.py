"""pathscape benchmark: one command, one workload per call.

    python3 perfbench/run.py --workload tree-mc [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout.  Each round runs every job of the
workload once, in a fresh interpreter (perfbench/worker.py) with one
thread, on inputs from its own seed (--seed plus a stride per round).
Rounds repeat until --seconds is used up (at least one).  Timings are
medians over rounds.  With --trace 0 the run prints the end-to-end
metrics; setup_s, the time from a fresh interpreter to the end of
``import pathscape``, is the median over three bare interpreters and
every round.  With --trace 1 it runs plain rounds for half of --seconds,
then traced rounds on the same seeds, and prints the per-layer metrics.

Every output is checked (see jobs.py): exact identities and closed-form
bands at any seed, the digests in golden.json at the default seed, and
each traced round against the plain round with its seed.  Human-readable
lines come first; the last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.  Exit code: 0 when every
output is correct, 1 when a check failed, 2 when the checkout holds no
pathscape sources to benchmark.

    python3 perfbench/run.py --record-golden   # rewrite golden.json
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import tracing

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
GOLDEN = BENCH / "golden.json"

WORKLOADS = ("tree-mc", "cube-cascade-mc", "recursion-moments")
#: Group metrics, in print order; a group is absent from some workloads.
GROUPS = ("count", "count_large", "exists", "cascade", "ks", "sweep_window", "sweep_full", "moments")
SETUP_PROBES = 3
#: A run must end well inside three minutes; rounds stop being started
#: once the next one would cross this, and a running one is killed here.
DEADLINE_S = 170.0
#: Tolerance on recorded values, |got - golden| <= RTOL |golden| + ATOL
#: (digests are compared exactly).
RTOL = 1e-6
ATOL = 1e-12

# One thread everywhere: the replica driver, and BLAS inside numpy.
CHILD_ENV = {
    **os.environ,
    "PATHSCAPE_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def environment() -> dict:
    env = {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0))}
    try:
        with open("/proc/cpuinfo") as fh:
            env["cpu_model"] = next(
                (ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None
            )
    except OSError:
        env["cpu_model"] = None
    for level in (2, 3):
        try:
            size = Path(f"/sys/devices/system/cpu/cpu0/cache/index{level}/size").read_text()
            env[f"l{level}_cache"] = size.strip()
        except OSError:
            env[f"l{level}_cache"] = None
    env["git_sha"] = git_sha()
    return env


def git_sha() -> str | None:
    """HEAD of the checkout, read from .git without running git (a checkout
    without .git has no SHA; git itself would search the parent dirs)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_setup() -> float:
    """Fresh interpreter to the end of ``import pathscape`` (the same
    statements that open worker.py)."""
    code = (
        "import os, sys; sys.path.insert(0, os.path.join(os.getcwd(), 'src')); import pathscape; "
        "import time; print(time.monotonic())"
    )
    t0 = time.monotonic()
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=CHILD_ENV, check=True, timeout=60,
        stdout=subprocess.PIPE, text=True,
    )
    return float(proc.stdout) - t0


class Runner:
    def __init__(self, args):
        self.args = args
        self.t_start = time.perf_counter()

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.t_start)

    def round(self, number: int, trace: bool, spans_out: Path | None = None) -> dict | None:
        a = self.args
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", a.workload]
        cmd += ["--round", str(number)]
        if a.seed is not None:
            cmd += ["--seed", str(a.seed)]
        if a.tiny:
            cmd.append("--tiny")
        if trace:
            cmd.append("--trace")
            if spans_out:
                cmd += ["--spans-out", str(spans_out)]
        load = [os.getloadavg()[0]]
        spawned_at = time.monotonic()
        try:
            proc = subprocess.run(
                cmd, cwd=ROOT, env=CHILD_ENV, stdout=subprocess.PIPE, text=True,
                timeout=max(self.remaining(), 1.0),
            )
        except subprocess.TimeoutExpired:
            print(f"round killed after {time.monotonic() - spawned_at:.1f} s", file=sys.stderr)
            return None
        load.append(os.getloadavg()[0])
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"round exited with code {proc.returncode}", file=sys.stderr)
            return None
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        res["load1"] = load
        res["round_s"] = time.monotonic() - spawned_at
        res["setup_s"] = res.pop("imported_at") - spawned_at
        return res

    def rounds(self, budget: float, trace: bool, count=None, spans_out=None) -> list:
        """Rounds 0, 1, ... until `budget` seconds are spent, or `count`
        rounds when given (at least one, none that would run past the
        deadline)."""
        out = []
        t0 = time.perf_counter()
        while True:
            res = self.round(len(out), trace, spans_out)
            out.append(res)
            spent = time.perf_counter() - t0
            done = len(out) >= count if count else spent >= budget
            if res is None or done or spent / len(out) > self.remaining():
                return out


def judge(rounds: list, golden: dict, workload: str, tiny: bool) -> tuple:
    """(attempted, failed, problems): one attempt per job per round."""
    expected = golden["workloads"][workload]
    attempted = failed = 0
    problems = []
    ref: dict = {}
    for i, res in enumerate(rounds):
        if res is None:
            attempted += len(expected)
            failed += len(expected)
            problems.append(f"round {i}: worker failed")
            continue
        for job in res["jobs"]:
            attempted += 1
            name = job["name"]
            p = list(job["problems"])
            if job["error"] is None:
                # a traced round must reproduce the plain round of its number
                first_round, first = ref.setdefault((name, res["round"]), (i, job))
                if (first["digests"], first["values"]) != (job["digests"], job["values"]):
                    p.append(f"outputs differ from round {first_round} (same inputs)")
                gold = expected.get(name)
                at_golden_seed = res["seed"] == golden["seed"] and res["round"] == 0
                use_gold = not tiny and (not job["seeded"] or at_golden_seed)
                if use_gold and gold is None:
                    p.append("no golden record")
                elif use_gold:
                    p += compare_golden(job, gold)
            if p:
                failed += 1
                problems += [f"round {i} {name}: {msg}" for msg in p]
    return attempted, failed, problems


def compare_golden(job: dict, gold: dict) -> list:
    p = []
    for key, d in gold["digests"].items():
        if job["digests"].get(key) != d:
            p.append(f"{key} digest {job['digests'].get(key)} != golden {d}")
    for key, v in gold["values"].items():
        got = job["values"].get(key)
        if isinstance(v, bool) or isinstance(got, bool):
            ok = got == v
        else:
            ok = got is not None and abs(got - v) <= RTOL * abs(v) + ATOL
        if not ok:
            p.append(f"{key} = {got!r}, golden {v!r}")
    return p


def med(xs):
    return statistics.median(xs) if xs else 0.0


def timings(rounds: list) -> dict:
    """Median over rounds of the jobs' total CPU and wall seconds, and of
    the wall seconds of each group."""
    ok = [r for r in rounds if r is not None]
    out = {
        "cpu_s": med([sum(j["cpu_seconds"] for j in r["jobs"]) for r in ok]),
        "wall_s": med([jobs_seconds(r) for r in ok]),
    }
    for g in GROUPS:
        per = [sum(j["seconds"] for j in r["jobs"] if j["group"] == g) for r in ok]
        if any(per):
            out[f"{g}_s"] = med(per)
    return out


def report(name, value, unit):
    print(f"  {name:<48} {value:>14.6g} {unit}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=None, help="default: pathscape.verify.DEFAULT_SEED")
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="cut sample counts and grids (self-test)")
    ap.add_argument("--record-golden", action="store_true")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "pathscape" / "__init__.py").is_file():
        print(f"no pathscape sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.record_golden:
        return record_golden(args)
    if args.workload is None:
        ap.error("--workload is required")
    OUT.mkdir(exist_ok=True)
    golden = json.loads(GOLDEN.read_text())
    env = environment()
    env["load1_start"] = os.getloadavg()[0]
    runner = Runner(args)

    if args.trace == 0:
        setup = [time_setup() for _ in range(SETUP_PROBES)]
        rounds = runner.rounds(args.seconds, trace=False)
        setup += [r["setup_s"] for r in rounds if r is not None]
        traced = []
    else:
        setup = []
        rounds = runner.rounds(args.seconds / 2, trace=False)
        spans = OUT / f"spans-{args.workload}.jsonl"
        traced = runner.rounds(0, trace=True, count=len(rounds), spans_out=spans) if rounds[-1] else []
    env["load1_end"] = os.getloadavg()[0]
    done = [r for r in rounds + traced if r is not None]
    if done:
        env["versions"] = done[0]["versions"]
        env["seed"] = done[0]["seed"]
    attempted, failed, problems = judge(rounds + traced, golden, args.workload, args.tiny)

    print(f"pathscape benchmark: workload {args.workload}, trace {args.trace}")
    print("env " + json.dumps(env))
    for i, r in enumerate(rounds + traced):
        if r is not None:
            kind = "traced" if r.get("layers") is not None else "plain"
            print(f"round {r['round']} ({kind}): jobs {jobs_seconds(r):.3f} s, process {r['round_s']:.3f} s, "
                  f"rss {r['rss_mb']:.1f} MB, load1 {r['load1'][0]:.2f} -> {r['load1'][1]:.2f}")
    for msg in problems:
        print("FAIL " + msg)

    plain = timings(rounds)
    ok_rounds = [r for r in rounds if r is not None]
    e2e = {
        "cpu_s": (plain["cpu_s"], "s"),
        "setup_s": (med(setup), "s"),
        "peak_rss_mb": (med([r["rss_mb"] for r in ok_rounds]), "MB"),
    }
    groups = {"wall_s": (plain["wall_s"], "s")}
    groups.update({f"{g}_s": (plain.get(f"{g}_s", 0.0), "s") for g in GROUPS})
    groups["failed_ratio"] = (failed / attempted, "ratio")
    print(f"end-to-end metrics (median of {len(ok_rounds)} rounds):")
    for k, (v, u) in e2e.items():
        if k != "setup_s" or setup:
            report(k, v, u)
    for k, (v, u) in groups.items():
        if k in plain or k == "failed_ratio":
            report(k, v, u)

    if args.trace == 0:
        metrics = e2e
    else:
        metrics = per_layer(rounds, traced, groups)
        print(f"per-layer metrics (median of {len(traced)} traced rounds):")
        for k, (v, u) in metrics.items():
            report(k, v, u)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record = {"env": env, "setup_s": setup, "rounds": rounds, "traced": traced, "problems": problems, **result}
    stem = f"{args.workload}{'-tiny' if args.tiny else ''}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def per_layer(rounds: list, traced: list, groups: dict) -> dict:
    """Per-layer metrics: medians over traced rounds, plus the group timings
    of the plain rounds and the tracing overhead.  Traced round i ran on
    the inputs of plain round i, so the two are compared pair by pair."""
    pairs = [(p, t) for p, t in zip(rounds, traced) if p is not None and t is not None]
    out = {}
    for name, unit, _ in tracing.per_layer_specs():
        # counts are exact for the seed of round 0; times are medians
        value = pairs[0][1]["layers"][name] if unit == "count" else med([t["layers"][name] for _, t in pairs])
        out[name] = (value, unit)
    out.update(groups)
    out["trace.overhead_s"] = (med([jobs_seconds(t) - jobs_seconds(p) for p, t in pairs]), "s")
    # how far the spans of each job are from the job's untraced time
    gaps = [
        max(abs(t["covered"].get(j["name"], 0.0) - j["seconds"]) for j in p["jobs"])
        for p, t in pairs
    ]
    out["trace.max_gap_s"] = (med(gaps), "s")
    # time inside the traced jobs that no layer span covers (benchmark glue)
    uncovered = [max(j["seconds"] - t["covered"].get(j["name"], 0.0) for j in t["jobs"]) for _, t in pairs]
    out["trace.uncovered_s"] = (med(uncovered), "s")
    return out


def jobs_seconds(res: dict) -> float:
    return sum(j["seconds"] for j in res["jobs"])


def record_golden(args) -> int:
    """One plain round per workload at the default seed; refuses to write
    when any check fails."""
    if args.seed is not None or args.tiny:
        print("--record-golden takes neither --seed nor --tiny", file=sys.stderr)
        return 2
    golden = {"seed": None, "workloads": {}}
    for w in WORKLOADS:
        args.workload = w
        res = Runner(args).round(0, trace=False)
        if res is None:
            return 1
        bad = [(j["name"], j["problems"]) for j in res["jobs"] if j["problems"]]
        if bad:
            print(f"{w}: not recording, checks failed: {bad}", file=sys.stderr)
            return 1
        golden["seed"] = res["seed"]
        golden["workloads"][w] = {
            j["name"]: {"digests": j["digests"], "values": j["values"]} for j in res["jobs"]
        }
        print(f"{w}: recorded {len(res['jobs'])} jobs")
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
