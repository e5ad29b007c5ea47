"""Command-line entry point.

Every invocation emits one JSON record per result line on stdout
(`--csv PATH` mirrors the same records to a CSV file).  Records carry
the full parameter set, master seed, and RNG stream construction tag,
so any stochastic line can be reproduced bit-exactly from the record
alone; only the wall-time field varies between identical reruns.

Exit codes: 0 success, 1 failed verification checks, 2 parameter
errors, 3 budget exhaustion.  Errors are mirrored as JSON on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import time
from dataclasses import asdict, dataclass

from . import __version__, cascade, hypercube, mc, moments, recursion, stats, tree, verify
from .parallel import resolve_threads
from .rng import PHILOX_TAG, SPLITMIX_TAG

DEFAULT_SEED = verify.DEFAULT_SEED

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_PARAMS = 2
EXIT_BUDGET = 3


@dataclass(frozen=True)
class ExperimentRecord:
    """One emitted result row."""

    command: str
    params: dict
    seed: int | None
    rng: str | None
    stats: dict
    wall_time_s: float
    version: str = __version__

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, allow_nan=False)


class _Parser(argparse.ArgumentParser):
    """argparse with machine-readable errors and exit code 2."""

    def error(self, message):
        print(json.dumps({"error": "parameters", "message": message}), file=sys.stderr)
        raise SystemExit(EXIT_PARAMS)


def _flatten(prefix: str, obj, out: dict) -> None:
    if isinstance(obj, dict):
        for k, v in obj.items():
            _flatten(f"{prefix}.{k}" if prefix else str(k), v, out)
    elif isinstance(obj, (list, tuple)):
        out[prefix] = json.dumps(obj)
    else:
        out[prefix] = obj


def _write_csv(path: str, records: list[ExperimentRecord]) -> None:
    rows = []
    columns: list[str] = []
    for rec in records:
        flat: dict = {}
        _flatten("", asdict(rec), flat)
        for key in flat:
            if key not in columns:
                columns.append(key)
        rows.append(flat)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)


# --- root-value regime flags -----------------------------------------------


def _add_x_flags(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--x", type=float, default=None, help="origin/root value in [0, 1]")
    g.add_argument(
        "--X-scaled", dest="x_scaled", type=float, default=None,
        help="X with x = X/dim",
    )
    g.add_argument(
        "--logscaled", type=float, default=None,
        help="X with x = (ln dim + X)/dim",
    )


def _resolve_x(args) -> float:
    # X scales with dim; at dim < 1 the kernel's own dim check reports the error
    if args.x_scaled is not None and args.dim >= 1:
        return args.x_scaled / args.dim
    if args.logscaled is not None and args.dim >= 1:
        return (math.log(args.dim) + args.logscaled) / args.dim
    return args.x if args.x is not None else 0.0


def _sample_stats(values, key: str) -> dict:
    """{key: value} for one replica, the moment summary for more."""
    if len(values) == 1:
        return {key: values[0].item()}
    return asdict(stats.moment_summary(stats.Sample.from_values(values)))


# --- parameter errors -------------------------------------------------------

# the kernels own every check, and each message starts with the parameter it
# names; this maps that name to the flag that sets it
_FLAGS = {
    "dim": "--dim", "L": "--dim", "k": "--k", "generations": "--k", "p": "--p", "q": "--q",
    "n": "--n", "delta": "--delta", "samples": "--samples", "node_budget": "--budget",
    "scale": "--scale", "threads": "--threads",
}
# `recursion` kernels take the paper's names: there L is the level count
_RECURSION_FLAGS = _FLAGS | {
    "L": "--levels", "lam": "--mu", "grid_n": "--grid", "z_max": "--zmax", "k_max": "--k",
}


def _flag_message(args, message: str) -> str:
    """`message` with its leading kernel parameter replaced by the flag that
    set it; x names whichever of --x, --X-scaled and --logscaled was given."""
    name, _, rest = message.partition(" ")
    # only a flag of this group: a check inside a `verify` battery names none
    if name == "x" and hasattr(args, "x"):
        for flag, value in (("--X-scaled", args.x_scaled), ("--logscaled", args.logscaled)):
            if value is not None:
                return f"x from {flag} {rest}"
        return f"--x {rest}"
    flag = (_RECURSION_FLAGS if args.group == "recursion" else _FLAGS).get(name)
    return f"{flag} {rest}" if flag and hasattr(args, flag[2:]) else message


# --- subcommand handlers; each returns its stats dict ------------------------

# the stream that builds a group's records; deterministic groups have none
_RNG_TAGS = {
    "hypercube": PHILOX_TAG,
    "tree": SPLITMIX_TAG,
    "cascade": PHILOX_TAG,
    "verify": PHILOX_TAG,
}


def _cmd_hypercube(args):
    x = _resolve_x(args)
    if args.action == "count":
        thetas = mc.hypercube_theta_batch(
            args.dim, x, args.seed, args.samples, threads=args.threads
        )
        return _sample_stats(thetas, "theta")
    if args.action == "exists":
        hits = mc.hypercube_exists_batch(
            args.dim, x, args.seed, args.samples, threads=args.threads
        )
        if args.samples == 1:
            return {"exists": bool(hits[0])}
        p = int(hits.sum()) / args.samples
        # not tree_existence_mc's `** 0.5`: the two round apart on some (hits, n)
        se = math.sqrt(p * (1.0 - p) / args.samples)
        return {"estimate": p, "stderr": se, "n": args.samples}
    # thetak
    vals = mc.hypercube_theta_k_batch(
        args.dim, x, args.k, args.seed, args.samples, threads=args.threads
    )
    return _sample_stats(vals, "theta_k") | {"k": args.k}


def _cmd_tree(args):
    x = _resolve_x(args)
    if args.action == "sample":
        thetas = mc.tree_theta_batch(
            args.dim, x, args.seed, args.samples, budget=args.budget, threads=args.threads
        )
        return _sample_stats(thetas, "theta")
    if args.action == "thetak":
        vals = mc.tree_theta_k_batch(
            args.dim, x, args.k, args.seed, args.samples,
            budget=args.budget, threads=args.threads,
        )
        return _sample_stats(vals, "theta_k") | {"k": args.k}
    # exists
    est = tree.tree_existence_mc(
        args.dim, x, args.samples, args.seed, args.budget, threads=args.threads
    )
    return asdict(est)


def _cmd_moments(args):
    a = args.action
    if a != "bn" and args.dim is None:
        raise ValueError(f"moments {a} requires --dim")
    if a == "first":
        x = _resolve_x(args)
        return {"mean": moments.expected_paths(args.dim, x)}
    if a == "second":
        x = _resolve_x(args)
        return {"second_moment": moments.second_moment_tree(args.dim, x)}
    if a == "var-star":
        v = moments.var_star_tree(args.dim)
        return {"var_star": v, "var_star_over_L": v / args.dim}
    if a == "cond-var":
        x = _resolve_x(args)
        v = moments.cond_var_tree(args.dim, x, args.k)
        return {"cond_var": v, "cond_var_over_L2": v / args.dim**2, "k": args.k}
    if a == "limits":
        if args.logscaled is not None:
            sm = moments.scaled_limits(args.dim, args.logscaled, moments.REGIME_LOG_OVER_L)
        elif args.x_scaled is not None:
            sm = moments.scaled_limits(args.dim, args.x_scaled, moments.REGIME_X_OVER_L)
        else:
            raise ValueError("limits requires --X-scaled or --logscaled")
        return asdict(sm)
    if a == "a-coeff":
        return {
            "q": args.q,
            "a": moments.a_coeff(args.dim, args.q),
            "log_a": moments.log_a_coeff(args.dim, args.q),
        }
    if a == "q0":
        return {"q0": moments.q0(args.dim)}
    if a == "pair-tree":
        x = _resolve_x(args)
        return {
            "q": args.q,
            "pair_count": moments.tree_pair_count(args.dim, args.q),
            "open_prob": moments.pair_open_prob_tree(args.dim, args.q, x),
        }
    if a == "pair-cube":
        x = _resolve_x(args)
        return {
            "p": args.p,
            "q": args.q,
            "open_prob": moments.pair_open_prob_hypercube(args.dim, args.p, args.q, x),
        }
    if a == "bn":
        return {"n": args.n, "B": moments.indecomposable_count(args.n)}
    # pstar-bound
    return {"bound": moments.pstar_upper_bound(args.dim)}


def _at(gf: recursion.GridFunction, at: float) -> float:
    # np.interp would clamp a point off the grid to the end value
    if not gf.a <= at <= gf.b:
        raise ValueError(f"--at {at} is outside the grid [{gf.a}, {gf.b}]")
    return float(gf(at))


def _cmd_recursion(args):
    a = args.action
    if a == "gf":
        gf = recursion.tree_gf(args.mu, args.levels, args.grid)
        return {"G": _at(gf, args.at), "at": args.at}
    if a == "pexist":
        gf = recursion.existence_prob(args.levels, args.grid)
        return {
            "p": _at(gf, args.at),
            "at": args.at,
            "p_star": gf.integral(),
        }
    if a == "fk":
        gf = recursion.fk_iterate(args.k, args.zmax, args.grid)
        return {
            "F_k": _at(gf, args.at),
            "at": args.at,
            "sup_gap_to_limit": recursion.fk_limit_gap(gf),
        }
    # delta-check
    report = recursion.delta_bound_check(args.k, args.zmax, args.grid)
    return asdict(report) | {"ok": report.ok}


def _cmd_cascade(args):
    if args.action == "sample":
        params = cascade.CascadeParams(args.k, args.delta, args.seed, samples=args.samples)
        batch = cascade.sample_cascade_batch(params, threads=args.threads)
        return _sample_stats(batch.ys, "y") | {
            "mean_bias": batch.mean_bias,
            "mean_atoms": batch.mean_atoms,
            "budget_hits": batch.budget_hits,
        }
    # ks
    report = cascade.cascade_limit_check(
        args.k, args.delta, args.samples, args.seed, threads=args.threads
    )
    return asdict(report)


def _cmd_verify(args, records: list[ExperimentRecord]) -> int:
    results = verify.run_battery(
        args.battery, seed=args.seed, scale=args.scale, threads=args.threads
    )
    all_passed = True
    for res, seconds in results:
        all_passed = all_passed and res.passed
        print(res.line(), file=sys.stderr)
        records.append(
            ExperimentRecord(
                command=f"verify.{args.battery}",
                params={"battery": args.battery, "scale": args.scale},
                seed=args.seed,
                rng=_RNG_TAGS[args.group],
                stats=asdict(res),
                wall_time_s=seconds,
            )
        )
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


# --- parser ------------------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="pathscape", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="group", required=True)

    common = _Parser(add_help=False)
    common.add_argument("--csv", default=None, help="mirror records to this CSV file")
    common.add_argument(
        "--threads", type=int, default=None,
        help="worker processes (default 1)",
    )
    common.add_argument("--seed", type=int, default=DEFAULT_SEED)

    hc = sub.add_parser("hypercube", parents=[common])
    hc.add_argument("action", choices=["count", "exists", "thetak"])
    hc.add_argument("--dim", type=int, required=True)
    _add_x_flags(hc)
    hc.add_argument("--k", type=int, default=1)
    hc.add_argument("--samples", type=int, default=1)
    hc.set_defaults(handler=_cmd_hypercube)

    tr = sub.add_parser("tree", parents=[common])
    tr.add_argument("action", choices=["sample", "thetak", "exists"])
    tr.add_argument("--dim", type=int, required=True)
    _add_x_flags(tr)
    tr.add_argument("--k", type=int, default=1)
    tr.add_argument("--samples", type=int, default=1)
    tr.add_argument("--budget", type=int, default=tree.DEFAULT_NODE_BUDGET)
    tr.set_defaults(handler=_cmd_tree)

    mo = sub.add_parser("moments", parents=[common])
    mo.add_argument(
        "action",
        choices=[
            "first", "second", "var-star", "cond-var", "limits", "a-coeff",
            "q0", "pair-tree", "pair-cube", "bn", "pstar-bound",
        ],
    )
    mo.add_argument("--dim", type=int, default=None)
    _add_x_flags(mo)
    mo.add_argument("--k", type=int, default=1)
    mo.add_argument("--q", type=int, default=0)
    mo.add_argument("--p", type=int, default=0)
    mo.add_argument("--n", type=int, default=1)
    mo.set_defaults(handler=_cmd_moments)

    re_ = sub.add_parser("recursion", parents=[common])
    re_.add_argument("action", choices=["gf", "pexist", "fk", "delta-check"])
    re_.add_argument("--grid", type=int, default=2**13)
    re_.add_argument("--zmax", type=float, default=10.0)
    re_.add_argument("--mu", type=float, default=1.0)
    re_.add_argument("--levels", type=int, default=100)
    re_.add_argument("--k", type=int, default=1)
    re_.add_argument("--at", type=float, default=0.0, help="evaluation point (x or z)")
    re_.set_defaults(handler=_cmd_recursion)

    ca = sub.add_parser("cascade", parents=[common])
    ca.add_argument("action", choices=["sample", "ks"])
    ca.add_argument("--k", type=int, required=True, help="generations")
    ca.add_argument("--delta", type=float, default=1e-6)
    ca.add_argument("--samples", type=int, default=1)
    ca.set_defaults(handler=_cmd_cascade)

    ve = sub.add_parser("verify", parents=[common])
    ve.add_argument("battery", choices=sorted(verify.BATTERIES))
    ve.add_argument(
        "--scale", type=float, default=1.0,
        help="multiplier on Monte Carlo sample counts",
    )
    ve.set_defaults(handler=None)

    return parser


def _record_params(args) -> dict:
    skip = {"group", "action", "handler", "csv", "seed"}
    return {k: v for k, v in vars(args).items() if k not in skip and v is not None}


def run(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    records: list[ExperimentRecord] = []

    try:
        resolve_threads(args.threads)  # a bad --threads exits 2
        # streams key on the seed's 64 bits: a wider seed would alias another
        if not 0 <= args.seed < 2**64:
            raise ValueError(f"--seed must be in [0, 2^64), got {args.seed}")
        if args.group == "verify":
            code = _cmd_verify(args, records)
        else:
            result = args.handler(args)
            records.append(
                ExperimentRecord(
                    command=f"{args.group}.{args.action}",
                    params=_record_params(args),
                    seed=args.seed,
                    rng=_RNG_TAGS.get(args.group),
                    stats=result,
                    wall_time_s=time.perf_counter() - t0,
                )
            )
            code = EXIT_OK
        # strict JSON: a non-finite value is refused here, never printed; exact
        # integers print in full, past CPython's int -> str digit cap (3.10.7+)
        cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if cap:
            sys.set_int_max_str_digits(0)
        try:
            lines = [rec.to_json() for rec in records]
            if args.csv:
                try:
                    _write_csv(args.csv, records)
                except OSError as exc:
                    raise ValueError(f"cannot write --csv: {exc}") from exc
        finally:
            if cap:
                sys.set_int_max_str_digits(cap)
    # an allocation the parameters make too large is a parameter error too
    except (ValueError, KeyError, MemoryError, hypercube.PathCountOverflowError) as exc:
        message = _flag_message(args, str(exc))
        print(json.dumps({"error": "parameters", "message": message}), file=sys.stderr)
        return EXIT_PARAMS
    except tree.BudgetExceededError as exc:
        print(json.dumps({"error": "budget", "message": str(exc)}), file=sys.stderr)
        return EXIT_BUDGET

    for line in lines:
        print(line)
    return code


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
