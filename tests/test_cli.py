"""Command-line contract: records, exit codes, CSV mirroring, rerun identity."""

import argparse
import concurrent.futures
import contextlib
import csv
import io
import json
import math
import os
import re
import shlex
import sys
import time
import warnings
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from pathscape import cascade, cli, hypercube, mc, moments, parallel, tree, verify
from pathscape.parallel import resolve_threads


def _refuse_constant(name):
    raise ValueError(f"non-strict JSON constant {name} on stdout")


def _run(capsys, *argv):
    """Exit code, strictly parsed stdout records and stderr of one run."""
    try:
        code = cli.run(list(argv))
    except SystemExit as exc:  # argparse errors
        code = exc.code
    captured = capsys.readouterr()
    records = [
        json.loads(line, parse_constant=_refuse_constant) for line in captured.out.splitlines()
    ]
    return code, records, captured.err


def test_moments_first_trivial(capsys):
    code, records, _ = _run(capsys, "moments", "first", "--dim", "4", "--x", "0")
    assert code == 0
    assert len(records) == 1
    assert records[0]["stats"] == {"mean": 4.0}
    assert records[0]["command"] == "moments.first"


def test_moments_bn(capsys):
    code, records, _ = _run(capsys, "moments", "bn", "--n", "5")
    assert code == 0
    assert records[0]["stats"]["B"] == 71


def test_scaled_flag_resolution(capsys):
    _, records, _ = _run(
        capsys, "moments", "first", "--dim", "10", "--X-scaled", "1"
    )
    assert records[0]["stats"]["mean"] == pytest.approx(10 * 0.9**9, rel=1e-12)
    _, records, _ = _run(
        capsys, "moments", "first", "--dim", "100", "--logscaled", "0"
    )
    x = math.log(100) / 100
    assert records[0]["stats"]["mean"] == pytest.approx(
        100 * (1 - x) ** 99, rel=1e-12
    )


def test_unknown_flag_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["moments", "first", "--bogus", "1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert json.loads(err.splitlines()[-1])["error"] == "parameters"


def test_bad_value_exits_2(capsys):
    code, records, err = _run(capsys, "moments", "first", "--dim", "0", "--x", "0")
    assert code == 2
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "parameters"


def test_budget_exhaustion_exits_3(capsys):
    code, records, err = _run(
        capsys, "tree", "sample", "--dim", "14", "--x", "0", "--budget", "10"
    )
    assert code == 3
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "budget"


def test_tree_exists_all_over_budget_exits_3(capsys):
    code, records, err = _run(
        capsys, "tree", "exists", "--dim", "12", "--x", "0", "--samples", "5", "--budget", "10"
    )
    assert code == 3
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "budget"


def test_tree_exists_partial_budget_hit_exits_3(capsys):
    # realizations 11 and 13 of the 37 have no open path and a cut beam, and
    # their full walks exceed 1000 visits; every other one is decided within it
    code, records, err = _run(
        capsys, "tree", "exists", "--dim", "9", "--x", "0", "--samples", "37", "--budget", "1000"
    )
    assert code == 3
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "budget"


@pytest.mark.parametrize("action", ["sample", "ks"])
def test_cascade_all_over_budget_exits_3(capsys, action):
    # at delta = 1e-300 every realization passes the atom budget
    code, records, err = _run(
        capsys, "cascade", action, "--k", "4", "--delta", "1e-300", "--samples", "2"
    )
    assert code == 3
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "budget"


@pytest.mark.parametrize(
    ("argv", "names"),
    [
        (["moments", "first", "--x", "0.1"], "--dim"),
        (["moments", "limits", "--X-scaled", "1"], "--dim"),
        (["moments", "limits", "--dim", "50"], "--X-scaled or --logscaled"),
        (["recursion", "delta-check", "--k", "-1"], "--k must be"),
        (["hypercube", "count", "--x", "0.1"], "--dim"),
        (["hypercube", "exists", "--dim", "6", "--samples", "0"], "--samples"),
        (["tree", "thetak", "--dim", "6", "--samples", "0"], "--samples"),
        (["recursion", "delta-check", "--zmax", "0.1", "--grid", "128"], "--zmax = 0.1"),
        (["recursion", "gf", "--mu", "1", "--levels", "3", "--grid", "128", "--at", "2"], "--at"),
        (
            ["recursion", "gf", "--at", "2", "--levels", "10", "--grid", "64"],
            "--at 2.0 is outside the grid [0.0, 1.0]",
        ),
        (["recursion", "pexist", "--levels", "3", "--grid", "128", "--at", "-1"], "--at"),
        (["cascade", "sample", "--k", "-1"], "--k must be"),
        (["cascade", "ks", "--k", "2", "--delta", "0", "--samples", "10"], "--delta must be"),
        (["tree", "sample", "--dim", "0"], "--dim must be"),
        (["tree", "exists", "--dim", "6", "--x", "2", "--samples", "3"], "--x must be"),
        (["hypercube", "thetak", "--dim", "6", "--k", "3"], "--k must be"),
        (["recursion", "fk", "--k", "-1", "--grid", "128"], "--k must be"),
        (["verify", "moments", "--scale", "0"], "--scale must be"),
        (["verify", "moments", "--scale", "inf"], "--scale must be"),
        (["moments", "second", "--dim", "5", "--x", "1.5"], "--x must be"),
        (["moments", "cond-var", "--dim", "10", "--x", "2", "--k", "2"], "--x must be"),
        (["moments", "pair-tree", "--dim", "6", "--q", "1", "--x", "-1"], "--x must be"),
        (
            ["moments", "pair-cube", "--dim", "6", "--p", "1", "--q", "1", "--x", "3"],
            "--x must be",
        ),
        (["recursion", "gf", "--mu", "nan", "--levels", "3", "--grid", "128"], "--mu must be"),
        (["recursion", "gf", "--mu", "inf", "--levels", "3", "--grid", "128"], "--mu must be"),
        (["recursion", "fk", "--zmax", "inf", "--grid", "128"], "--zmax must be"),
        (["recursion", "delta-check", "--zmax", "nan", "--grid", "128"], "--zmax must be"),
        (["recursion", "gf", "--levels", "0", "--grid", "128"], "--levels must be"),
        (["recursion", "pexist", "--levels", "3", "--grid", "10"], "--grid must be"),
        (["tree", "sample", "--dim", "5", "--X-scaled", "10"], "x from --X-scaled must be"),
        (["hypercube", "count", "--dim", "5", "--logscaled", "10"], "x from --logscaled"),
        (["tree", "sample", "--dim", "0", "--X-scaled", "1"], "--dim must be"),
        (["hypercube", "count", "--dim", "0", "--logscaled", "1"], "--dim must be"),
        (["moments", "limits", "--dim", "1000", "--X-scaled", "-800"], "x from --X-scaled must be"),
        (["moments", "limits", "--dim", "1000", "--logscaled", "-800"], "x from --logscaled must be"),
        (["tree", "sample", "--dim", "5", "--budget", "0"], "--budget must be"),
        (["hypercube", "count", "--dim", "3", "--threads", "0"], "--threads must be"),
        (["moments", "a-coeff", "--dim", "5", "--q", "9"], "--q must be"),
        (["moments", "pair-cube", "--dim", "6", "--p", "4", "--q", "1"], "--p must be"),
        (["moments", "bn", "--n", "0"], "--n must be"),
        (["moments", "bn", "--n", "50000"], "--n = 50000 needs more word-size primes"),
        (["moments", "pair-tree", "--dim", "1"], "--dim must be >= 2"),
        (["moments", "second", "--dim", "1"], "--dim must be >= 2"),
        (["moments", "var-star", "--dim", "1"], "--dim must be >= 2"),
        (["moments", "limits", "--dim", "2", "--X-scaled", "1"], "--dim must be >= 3"),
        (["moments", "pstar-bound", "--dim", "1"], "--dim must be >= 2"),
        (["recursion", "pexist", "--levels", "0"], "--levels must be >= 1"),
        (["recursion", "fk", "--grid", "32"], "--grid must be >= 64"),
        (["tree", "exists", "--dim", "0"], "--dim must be >= 1"),
        (
            ["recursion", "delta-check", "--grid", "64", "--zmax", "1e300", "--k", "0"],
            "--zmax = 1e+300",
        ),
        (["recursion", "pexist", "--levels", "3", "--mu", "nan"], "--mu must be finite"),
        (["recursion", "delta-check", "--grid", "64", "--k", "1024"], "--k = 1024"),
    ],
    ids=["no-dim", "limits-no-dim", "limits-no-regime", "negative-k", "missing-required",
         "zero-samples", "tree-zero-samples", "zmax-below-zmin", "gf-at-above-grid",
         "gf-at-above-grid-message",
         "pexist-at-below-grid", "cascade-negative-k", "ks-zero-delta", "tree-zero-dim",
         "exists-x-above-one", "thetak-2k-ge-dim", "fk-negative-k", "verify-zero-scale",
         "verify-inf-scale", "second-x-above-one", "cond-var-x-above-one",
         "pair-tree-x-below-zero", "pair-cube-x-above-one", "gf-nan-mu", "gf-inf-mu",
         "fk-inf-zmax", "delta-check-nan-zmax", "gf-zero-levels", "pexist-small-grid",
         "x-scaled-above-dim", "logscaled-above-one", "x-scaled-zero-dim", "logscaled-zero-dim",
         "limits-x-scaled-overflow", "limits-logscaled-overflow",
         "zero-budget", "zero-threads", "a-coeff-q-above-dim", "pair-cube-p-plus-q-above-dim",
         "bn-zero-n", "bn-past-the-primes", "pair-tree-dim-one", "second-dim-one",
         "var-star-dim-one", "limits-dim-two", "pstar-bound-dim-one", "pexist-zero-levels",
         "fk-small-grid", "exists-zero-dim", "delta-check-overflowing-zmax",
         "pexist-unused-nan-mu", "delta-check-k-past-the-doubles"],
)
def test_bad_invocation_exits_2_with_json_error(capsys, argv, names):
    code, records, err = _run(capsys, *argv)
    assert code == 2
    assert records == []
    error = json.loads(err.splitlines()[-1])
    assert error["error"] == "parameters"
    # the flag (or the words) the message must name
    assert names in error["message"]


# Edge values per argument type; sizes stay small, so every accepted run is cheap
_EDGE_VALUES = {
    float: [math.nan, math.inf, -math.inf, -0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 0.1, 0.5,
            1.0, 2.0],
    int: [-(2**63), -1, 0, 1, 2, 3, 6],
    None: [os.path.join(os.devnull, "out.csv")],  # the one string flag, --csv: unwritable
}
_EDGE_BY_DEST = {
    "seed": [0, 2**64 - 1, -1, 2**64],
    "threads": [-1, 0, 1],  # a pool per example costs too much
    "grid": [-1, 0, 63, 64, 100],
}


def _cli_grammar() -> dict:
    """Per group of cli.build_parser() but `verify`: its positional choices,
    and each optional flag with whether it is required and its values."""
    parser = cli.build_parser()
    groups = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    grammar = {}
    for name, sub in groups.choices.items():
        if name == "verify":  # the batteries cost too much per example
            continue
        flags = [
            (a.option_strings[0], a.required, _EDGE_BY_DEST.get(a.dest, _EDGE_VALUES[a.type]))
            for a in sub._actions
            if a.option_strings and a.nargs != 0
        ]
        exclusive = [
            [a.option_strings[0] for a in g._group_actions] for g in sub._mutually_exclusive_groups
        ]
        positional = [a.choices for a in sub._actions if not a.option_strings]
        grammar[name] = (positional, flags, exclusive)
    return grammar


_GRAMMAR = _cli_grammar()


@st.composite
def _cli_argv(draw) -> list:
    """A command line of the grammar, every flag given as --flag=value."""
    group = draw(st.sampled_from(sorted(_GRAMMAR)))
    positional, flags, exclusive = _GRAMMAR[group]
    argv = [group, *(draw(st.sampled_from(choices)) for choices in positional)]
    # at most one flag of each mutually exclusive group
    given = {draw(st.sampled_from([None, *g])) for g in exclusive}
    left_out = {f for g in exclusive for f in g} - given
    for flag, required, values in flags:
        # an optional flag one time in four, so that some runs are accepted
        if flag not in left_out and (required or draw(st.integers(0, 3)) == 0):
            # --flag=value: argparse would read a value such as -inf as a flag
            argv.append(f"{flag}={draw(st.sampled_from(values))}")
    return argv


@given(argv=_cli_argv())
@settings(max_examples=300, deadline=None, derandomize=True)
def test_cli_contract_holds_for_edge_values(argv):
    out, err = io.StringIO(), io.StringIO()
    # a warning is an error: pytest would otherwise catch it before stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)  # any exception, SystemExit included, fails the test
    assert code in (0, 1, 2, 3)
    event(f"{argv[0]} exit {code}")
    for line in out.getvalue().splitlines():
        json.loads(line, parse_constant=_refuse_constant)
    errors = [json.loads(line) for line in err.getvalue().splitlines()]
    if code == 2:
        flags = tuple(flag for flag, _, _ in _GRAMMAR[argv[0]][1])
        assert [e["error"] for e in errors] == ["parameters"]
        assert errors[0]["message"].startswith((*flags, "x from")), errors[0]["message"]


def _int_digit_cap():
    """CPython's int -> str digit cap; 0 (none) before 3.10.7."""
    return sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0


@pytest.fixture
def int_digit_cap():
    """The digit cap at its default of 4300 for one test, where there is one."""
    if not hasattr(sys, "get_int_max_str_digits"):
        yield 0
        return
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    yield 4300
    sys.set_int_max_str_digits(before)


def test_exact_integers_print_in_full_past_the_digit_cap(
    capsys, tmp_path, monkeypatch, int_digit_cap
):
    # B(1559) has 4303 digits and the pair count 4305; each is evaluated once,
    # by the CLI, and kept here
    returned = []

    def keep(kernel):
        def call(*args):
            returned.append(kernel(*args))
            return returned[-1]

        return call

    for name in ("indecomposable_count", "tree_pair_count"):
        monkeypatch.setattr(moments, name, keep(getattr(moments, name)))
    out_csv = tmp_path / "out.csv"
    printed = []
    for argv in (["moments", "bn", "--n", "1559"], ["moments", "pair-tree", "--dim", "860"]):
        assert cli.run([*argv, "--csv", str(out_csv)]) == 0
        assert _int_digit_cap() == int_digit_cap
        printed.append((capsys.readouterr().out, out_csv.read_text()))
    # the cap comes back on the error path too
    assert cli.run(["moments", "pair-tree", "--dim", "860", "--csv", str(tmp_path / "no/x.csv")]) == 2
    assert "--csv" in capsys.readouterr().err
    assert _int_digit_cap() == int_digit_cap
    if int_digit_cap:
        sys.set_int_max_str_digits(0)
    digits = [str(value) for value in returned[:2]]
    assert [len(d) for d in digits] == [4303, 4305]
    # as text: under the cap json.loads refuses these integers
    for key, (out, csv_text), d in zip(("B", "pair_count"), printed, digits):
        assert f'"{key}": {d},' in out
        assert f",{d}," in csv_text


@pytest.mark.parametrize(
    "argv",
    [
        ["hypercube", "count", "--dim", "6", "--seed", "-1"],
        ["tree", "sample", "--dim", "6", "--seed", str(2**64)],
        ["verify", "moments", "--seed", str(2**64 + 5)],
    ],
)
def test_seed_outside_64_bits_exits_2(capsys, argv):
    # streams use the seed's low 64 bits, so a wider seed would alias another
    code, records, err = _run(capsys, *argv)
    assert code == 2
    assert records == []
    assert "--seed" in json.loads(err.splitlines()[-1])["message"]


def test_seed_range_ends_are_accepted(capsys):
    for seed in (0, 2**64 - 1):
        code, records, _ = _run(capsys, "tree", "sample", "--dim", "5", "--seed", str(seed))
        assert code == 0
        assert records[0]["seed"] == seed


def test_verify_check_with_every_realization_over_budget_exits_3(capsys, monkeypatch):
    def exhausted(seed, scale, threads):
        est = tree.tree_existence_mc(12, 0.0, 5, seed, budget=10)
        return [verify.CheckResult("exhausted", True, {"p": est.estimate}, {})]

    monkeypatch.setitem(verify.BATTERIES, "moments", [exhausted])
    code, records, err = _run(capsys, "verify", "moments")
    assert code == 3
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "budget"


@pytest.mark.parametrize(
    ("kernel", "message"),
    [
        (lambda: moments.cond_var_tree(10, 0.2, 9), "k must be in [1, 8], got 9"),
        (lambda: moments.expected_paths(3, 2.0), "x must be in [0, 1], got 2.0"),
    ],
    ids=["k", "x"],
)
def test_kernel_error_inside_a_battery_names_no_flag(capsys, monkeypatch, kernel, message):
    # verify has neither --k nor --x, so the kernel's own words stand
    def bad(seed, scale, threads):
        kernel()

    monkeypatch.setitem(verify.BATTERIES, "moments", [bad])
    code, records, err = _run(capsys, "verify", "moments")
    assert code == 2
    assert json.loads(err.splitlines()[-1]) == {"error": "parameters", "message": message}


def test_path_count_overflow_exits_2(capsys, monkeypatch):
    # seeded landscapes cannot reach a count above 2^63, so fake the raise
    # in the batched DP that counts cubes this small
    def overflow(*args, **kwargs):
        raise hypercube.PathCountOverflowError("path count overflow at level 21")

    monkeypatch.setattr(hypercube, "_level_dp", overflow)
    code, records, err = _run(capsys, "hypercube", "count", "--dim", "4", "--threads", "1")
    assert code == 2
    assert records == []
    error = json.loads(err.splitlines()[-1])
    assert error == {"error": "parameters", "message": "path count overflow at level 21"}


def test_key_error_from_a_kernel_escapes(monkeypatch):
    # every parameter check raises ValueError: a KeyError is a bug, not exit 2
    def missing_row(*args, **kwargs):
        raise KeyError(3)

    monkeypatch.setattr(hypercube, "_level_dp", missing_row)
    with pytest.raises(KeyError):
        cli.run(["hypercube", "count", "--dim", "4", "--threads", "1"])


def test_allocation_failure_exits_2(capsys, monkeypatch):
    # a sample count too large to allocate, faked so that the test allocates nothing
    def too_large(*args, **kwargs):
        raise MemoryError("Unable to allocate an array of 10^13 counts")

    monkeypatch.setattr(mc, "hypercube_theta_batch", too_large)
    code, records, err = _run(
        capsys, "hypercube", "count", "--dim", "2", "--samples", "10000000000000"
    )
    assert code == 2
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "parameters"


def test_hypercube_exists_one_sample_reports_the_landscape(capsys):
    for seed in range(4):
        code, records, _ = _run(
            capsys, "hypercube", "exists", "--dim", "8", "--x", "0.3", "--seed", str(seed)
        )
        assert code == 0
        land = hypercube.generate_hypercube(8, 0.3, seed)
        assert records[0]["stats"] == {"exists": hypercube.path_exists(land)}


def test_moments_limits_x_scaled(capsys):
    code, records, _ = _run(capsys, "moments", "limits", "--dim", "50", "--X-scaled", "1")
    assert code == 0
    expect = moments.scaled_limits(50, 1.0, moments.REGIME_X_OVER_L)
    assert records[0]["stats"] == asdict(expect)


def test_hypercube_exists_independent_of_threads(capsys):
    argv = ["hypercube", "exists", "--dim", "8", "--x", "0.05", "--samples", "20"]
    _, one, _ = _run(capsys, *argv, "--threads", "1")
    _, two, _ = _run(capsys, *argv, "--threads", "2")
    assert one[0]["stats"] == two[0]["stats"]
    assert one[0]["stats"]["n"] == 20


@pytest.mark.parametrize(
    "argv",
    [
        ["tree", "exists", "--dim", "9", "--x", "0", "--samples", "37"],
        ["cascade", "sample", "--k", "3", "--delta", "1e-4", "--samples", "21"],
        ["cascade", "ks", "--k", "3", "--delta", "1e-4", "--samples", "21"],
    ],
)
def test_tree_and_cascade_records_independent_of_threads(capsys, argv):
    _, one, _ = _run(capsys, *argv, "--threads", "1")
    _, two, _ = _run(capsys, *argv, "--threads", "2")
    assert one[0]["stats"] == two[0]["stats"]


def test_records_refuse_non_finite_values():
    rec = cli.ExperimentRecord("c", {}, None, None, {"estimate": math.nan}, 0.0)
    with pytest.raises(ValueError):
        rec.to_json()


def test_bad_thread_flag_exits_2(capsys):
    code, records, err = _run(capsys, "tree", "sample", "--dim", "4", "--threads", "0")
    assert code == 2
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "parameters"


def test_thread_env_var_is_ignored(capsys, monkeypatch):
    argv = ["tree", "sample", "--dim", "7", "--x", "0.1", "--samples", "30"]
    code, plain, _ = _run(capsys, *argv)
    monkeypatch.setenv("PATHSCAPE_THREADS", "abc")
    code_env, with_env, _ = _run(capsys, *argv)
    assert code == code_env == 0
    for rec in plain + with_env:
        rec.pop("wall_time_s")
    assert with_env == plain


@pytest.mark.parametrize("threads", [0, -2])
def test_resolve_threads_rejects_bad_counts(threads):
    with pytest.raises(ValueError):
        resolve_threads(threads)


def test_resolve_threads_defaults():
    assert resolve_threads(None) == 1
    assert resolve_threads(3) == 3


def test_map_replicas_caps_pool_at_cpu_count(monkeypatch):
    # a stand-in pool runs the chunks in this process, so no process starts
    seen = []

    class InProcessPool:
        def __init__(self, max_workers):
            seen.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *its):
            return [fn(*args) for args in zip(*its)]

    spans = []

    def worker(a, b):
        spans.append((a, b))
        return np.arange(a, b)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    for threads, workers in [(8, 3), (2, 2)]:
        spans.clear()
        out = parallel.map_replicas(worker, 40, threads)
        assert seen.pop() == workers
        step = 40 // threads
        assert spans == [(a, a + step) for a in range(0, 40, step)]
        assert out.tolist() == list(range(40))


@pytest.mark.parametrize("samples", [0, -3])
def test_every_batch_rejects_samples_below_one(samples):
    # parallel.map_replicas owns the rule; CascadeParams checks its own field
    batches = [
        lambda: mc.hypercube_theta_batch(4, 0.1, 1, samples),
        lambda: mc.hypercube_theta_k_batch(4, 0.1, 1, 1, samples),
        lambda: mc.hypercube_exists_batch(4, 0.1, 1, samples),
        lambda: mc.tree_theta_batch(6, 0.1, 1, samples),
        lambda: mc.tree_theta_k_batch(6, 0.1, 2, 1, samples),
        lambda: tree.tree_existence_mc(6, 0.1, samples, 1),
        lambda: cascade.sample_cascade_batch(cascade.CascadeParams(2, 1e-3, 1, samples)),
    ]
    for batch in batches:
        with pytest.raises(ValueError, match=f"^samples must be >= 1, got {samples}$"):
            batch()


def test_deterministic_rerun_is_byte_identical(capsys):
    argv = ["hypercube", "count", "--dim", "6", "--x", "0.2", "--seed", "11"]
    cli.run(argv)
    first = capsys.readouterr().out
    cli.run(argv)
    second = capsys.readouterr().out
    rec1, rec2 = json.loads(first), json.loads(second)
    # wall time is the only field allowed to differ between identical reruns
    assert rec1.pop("wall_time_s") != "missing"
    rec2.pop("wall_time_s")
    assert json.dumps(rec1, sort_keys=True) == json.dumps(rec2, sort_keys=True)


def test_stochastic_record_is_self_describing(capsys):
    code, records, _ = _run(
        capsys,
        "tree", "sample", "--dim", "6", "--x", "0.1", "--samples", "50",
        "--seed", "3",
    )
    assert code == 0
    rec = records[0]
    assert rec["seed"] == 3
    assert rec["rng"].startswith("splitmix64")
    assert rec["params"]["samples"] == 50
    assert rec["stats"]["n"] == 50


def test_csv_mirror(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, records, _ = _run(
        capsys,
        "moments", "a-coeff", "--dim", "12", "--q", "3", "--csv", str(path),
    )
    assert code == 0
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["command"] == "moments.a-coeff"
    assert float(rows[0]["stats.a"]) == records[0]["stats"]["a"]
    assert "wall_time_s" in rows[0]


def test_csv_flattens_list_stats_to_json(capsys, tmp_path):
    path = tmp_path / "out.csv"
    code, _, _ = _run(capsys, "verify", "moments", "--scale", "0.01", "--csv", str(path))
    assert code == 0
    with open(path, newline="") as fh:
        cells = [row["stats.observed.B(1..5)"] for row in csv.DictReader(fh)]
    assert [c for c in cells if c] == ["[1, 1, 3, 13, 71]"]


@pytest.mark.parametrize("target", ["directory", "missing-directory"])
def test_unwritable_csv_exits_2_before_stdout(capsys, tmp_path, target):
    path = tmp_path if target == "directory" else tmp_path / "missing" / "out.csv"
    code, records, err = _run(capsys, "moments", "q0", "--dim", "12", "--csv", str(path))
    assert code == 2
    assert records == []
    assert json.loads(err.splitlines()[-1])["error"] == "parameters"


def _readme_commands() -> list:
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, flags=re.S | re.M)
    return [
        shlex.split(line)[1:]
        for block in blocks
        for line in block.splitlines()
        if line.startswith("pathscape ")
    ]


def test_readme_examples_parse():
    # parse only: a documented flag that the parser lacks exits 2
    commands = _readme_commands()
    assert len(commands) >= 10
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_recursion_commands(capsys):
    code, records, _ = _run(
        capsys,
        "recursion", "gf", "--mu", "0.5", "--levels", "20", "--grid", "512",
        "--at", "0.3",
    )
    assert code == 0
    assert 0.0 <= records[0]["stats"]["G"] <= 1.0

    code, records, _ = _run(
        capsys, "recursion", "pexist", "--levels", "30", "--grid", "512"
    )
    assert code == 0
    assert 0.0 <= records[0]["stats"]["p_star"] <= 1.0

    code, records, _ = _run(
        capsys, "recursion", "fk", "--k", "8", "--zmax", "6", "--grid", "1024",
        "--at", "1.0",
    )
    assert code == 0
    assert records[0]["stats"]["F_k"] == pytest.approx(0.5, abs=0.05)


def test_unknown_battery_is_refused():
    with pytest.raises(ValueError, match="unknown battery 'thm9'"):
        verify.run_battery("thm9")


def test_verify_battery_emits_per_criterion_records(capsys):
    code, records, err = _run(
        capsys, "verify", "moments", "--scale", "0.01", "--seed", "5"
    )
    assert code == 0
    assert len(records) >= 3
    assert all(r["stats"]["passed"] for r in records)
    assert all(r["command"] == "verify.moments" for r in records)
    # one human-readable pass/fail line per check on stderr
    assert err.count("[PASS]") == len(records)


def test_verify_records_carry_per_check_time(capsys, monkeypatch):
    # two results from a check that sleeps, then one from a check that
    # does not: each record carries the time of its own check
    def slow(seed, scale, threads):
        time.sleep(0.05)
        return [verify.CheckResult(f"slow-{i}", True, {}, {}) for i in range(2)]

    def fast(seed, scale, threads):
        return [verify.CheckResult("fast", True, {}, {})]

    monkeypatch.setitem(verify.BATTERIES, "moments", [slow, fast])
    t0 = time.perf_counter()
    code, records, _ = _run(capsys, "verify", "moments")
    wall = time.perf_counter() - t0
    assert code == 0
    slow_s, again_s, fast_s = (r["wall_time_s"] for r in records)
    assert slow_s == again_s >= 0.05
    assert 0.0 <= fast_s < 0.05
    assert slow_s + fast_s <= wall


def test_verify_rerun_reproduces_statistics(capsys):
    # stochastic battery rerun with the same master seed: every statistic
    # must match bit-exactly (wall time excluded)
    def snap():
        cli.run(["verify", "prop1", "--scale", "0.002", "--seed", "7"])
        out = capsys.readouterr().out
        recs = [json.loads(line) for line in out.splitlines()]
        for r in recs:
            r.pop("wall_time_s")
        return json.dumps(recs, sort_keys=True)

    assert snap() == snap()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["--version"])
    assert exc.value.code == 0
