"""One round of one workload, in a fresh interpreter.

Started by run.py with the checkout root as working directory.  Imports
pathscape from ``src/``, runs the workload's jobs in order with each job
timed, then (outside the timed region) checks every output, and prints
one JSON line: job times, output digests and values, problems found,
peak RSS and, when traced, the per-layer metrics and the job coverage.

    python3 perfbench/worker.py --workload tree-mc [--seed N] [--round R] [--trace] [--tiny]

Round R runs on seed N + ROUND_STRIDE * R, so the rounds of one run
average over different inputs, and a traced round sees the same inputs
as the plain round of the same number.  Right after ``import pathscape``
the worker reads the monotonic clock, which on Linux is one clock for
all processes: run.py subtracts its own reading from before the start
of the process to get the set-up time of this round.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import pathscape  # noqa: E402

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402
from pathscape import verify  # noqa: E402

import jobs as jobs_mod  # noqa: E402
import tracing  # noqa: E402

ROUND_STRIDE = 1_000_003


def digest(a: np.ndarray) -> str:
    """Content hash of an output array, over its dtype, shape and bytes."""
    a = np.ascontiguousarray(a)
    h = hashlib.sha256(f"{a.dtype.str}{a.shape}".encode())
    h.update(a.tobytes())
    return h.hexdigest()[:32]


def cpu_time() -> float:
    """CPU seconds used so far by this process and its waited-for children.

    Unlike wall time it leaves out the time the machine spends on other
    tenants (steal), which on a shared host is several percent of a run
    and varies from minute to minute.  Children count, so moving work into
    a worker pool cannot make it look cheaper."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def split_outputs(out: dict) -> tuple:
    """Arrays go to digests, everything else to plain JSON values."""
    digests, values = {}, {}
    for key, v in out.items():
        if isinstance(v, np.ndarray):
            digests[key] = digest(v)
        elif isinstance(v, (bool, np.bool_)):
            values[key] = bool(v)
        elif isinstance(v, (int, np.integer)):
            values[key] = int(v)
        else:
            values[key] = float(v)
    return digests, values


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=verify.DEFAULT_SEED)
    ap.add_argument("--round", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    ap.add_argument("--spans-out", type=Path)
    args = ap.parse_args(argv)

    seed = args.seed + ROUND_STRIDE * args.round
    job_list = jobs_mod.workload_jobs(args.workload, tiny=args.tiny)
    tracer = tracing.Tracer() if args.trace else None
    undo = tracer.install(pathscape) if tracer else None

    outs, records = {}, []
    for job in job_list:
        close = tracer.job_span(job.name) if tracer else None
        t0, c0 = time.perf_counter(), cpu_time()
        try:
            out, error = job.run(seed, outs), None
        except Exception as exc:  # a failed job is reported, not fatal
            out, error = None, f"{type(exc).__name__}: {exc}"
        seconds, cpu_seconds = time.perf_counter() - t0, cpu_time() - c0
        if close:
            close()
        outs[job.name] = out
        records.append({"name": job.name, "group": job.group, "seeded": job.seeded,
                        "seconds": seconds, "cpu_seconds": cpu_seconds, "error": error})

    result = {
        "seed": args.seed,
        "round": args.round,
        "imported_at": IMPORTED_AT,
        # peak of the jobs alone: the checks below allocate landscapes too
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer:
        undo()
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["covered"] = tracing.job_coverage(tracer.spans)
        if args.spans_out:
            tracer.write(args.spans_out)

    for job, rec in zip(job_list, records):
        out = outs[job.name]
        if out is None:
            rec["problems"] = [rec["error"]]
            continue
        rec["digests"], rec["values"] = split_outputs(out)
        try:
            rec["problems"] = job.check(seed, out, outs)
        except Exception as exc:
            rec["problems"] = [f"check raised {type(exc).__name__}: {exc}"]

    result["jobs"] = records
    result["versions"] = {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "pathscape": pathscape.__version__,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
