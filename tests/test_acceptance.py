"""Acceptance gate: the thirteen headline checks at full strength.

Each criterion is one test; the check's pass/fail line is printed and
attached to the assertion message, so `pytest -v` reads as a scorecard.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from pathscape import cli, verify

import oracle_criteria

SEED = verify.DEFAULT_SEED
# the Monte Carlo checks split their replicas into two chunks; records do
# not depend on the thread count, and the pool never exceeds the cores
THREADS = 2

# sha256 of a check's results, as `asdict` with sorted keys, at SEED and
# full strength: the records of batteries thm1, thm2 and thm3 and of
# criteria 5 and 6 in battery moments stay bit-exact
RECORD_DIGESTS = {
    "check_closed_form_limits": "64d764758249a763e99a9073f2309abd5b59c680d9dcd6e801cc6902bb403eab",
    "check_a_coeff_facts": "e0d2e5e91a9f234b0261feeb7a7c43ca27b5a520152858714a30d3fec70f1888",
    "check_tree_gf_limit": "02923e1a39ce732437008d4be3e3b49c0f6a31d7a988c17c82a7e51c54d3a918",
    "check_existence": "9449f20b82408670a4a4c77786dc2c9165609901d1121d4332e5d90c90117e1e",
    "check_hypercube_limit_law": "e97e8767eef8321065c752e2073e0434484495a160aed82b38c26d31370fb925",
}


def _assert_all(results, digest=None):
    for res in results:
        print(res.line())
    failed = [res.line() for res in results if not res.passed]
    assert not failed, "\n".join(failed)
    if digest is not None:
        dump = json.dumps([asdict(res) for res in results], sort_keys=True)
        assert hashlib.sha256(dump.encode()).hexdigest() == digest


@pytest.fixture(scope="module")
def tree_moment_results():
    # one shared Monte Carlo batch serves criteria 3 (tree) and 4
    return verify.check_tree_moments(seed=SEED, threads=THREADS)


def test_criterion_01_hypercube_oracle():
    _assert_all(oracle_criteria.check_hypercube_oracle(seed=SEED))


def test_criterion_02_tree_oracle():
    _assert_all(oracle_criteria.check_tree_oracle(seed=SEED))


def test_criterion_03_first_moments(tree_moment_results):
    first = [r for r in tree_moment_results if r.criterion.startswith("3-")]
    _assert_all(first + verify.check_hypercube_first_moment(seed=SEED, threads=THREADS))


def test_criterion_04_tree_second_moment(tree_moment_results):
    _assert_all([r for r in tree_moment_results if r.criterion.startswith("4-")])


def test_criterion_05_closed_form_limits():
    results = verify.check_closed_form_limits(seed=SEED)
    _assert_all(results, RECORD_DIGESTS["check_closed_form_limits"])


def test_criterion_06_a_coefficient_facts():
    _assert_all(verify.check_a_coeff_facts(seed=SEED), RECORD_DIGESTS["check_a_coeff_facts"])


def test_criterion_07_indecomposable_pairs():
    _assert_all(verify.check_indecomposable(seed=SEED))


def test_criterion_08_generating_function_limit():
    _assert_all(verify.check_tree_gf_limit(seed=SEED), RECORD_DIGESTS["check_tree_gf_limit"])


def test_criterion_09_existence_probability():
    results = verify.check_existence(seed=SEED, threads=THREADS)
    _assert_all(results, RECORD_DIGESTS["check_existence"])


def test_criterion_10_cascade_fixed_point():
    _assert_all(verify.check_fk(seed=SEED))


def test_criterion_11_cascade_limit():
    _assert_all(verify.check_cascade(seed=SEED, threads=THREADS))


def test_criterion_12_hypercube_limit_law():
    results = verify.check_hypercube_limit_law(seed=SEED, threads=THREADS)
    _assert_all(results, RECORD_DIGESTS["check_hypercube_limit_law"])


def test_criterion_13_reproducibility(capsys):
    # same master seed => bit-identical statistics on a stochastic battery
    def snap():
        code = cli.run(["verify", "prop1", "--scale", "0.005", "--seed", str(SEED)])
        out = capsys.readouterr().out
        records = [json.loads(line) for line in out.splitlines()]
        for rec in records:
            rec.pop("wall_time_s")
        return code, json.dumps(records, sort_keys=True)

    first = snap()
    second = snap()
    line = (
        "[PASS] 13-reproducibility: rerun with identical seed is bit-exact"
        if first == second
        else "[FAIL] 13-reproducibility: reruns differ"
    )
    print(line)
    assert first == second, line
