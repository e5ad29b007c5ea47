"""Acceptance gate: the thirteen headline checks at full strength.

Each criterion is one test; the check's pass/fail line is printed and
attached to the assertion message, so `pytest -v` reads as a scorecard.
"""

import hashlib
import json
from dataclasses import asdict

import pytest

from pathscape import cli, moments, verify

import oracle_criteria

SEED = verify.DEFAULT_SEED
# the Monte Carlo checks split their replicas into two chunks; records do
# not depend on the thread count, and the pool never exceeds the cores
THREADS = 2

# sha256 of a check's results, as `asdict` with sorted keys, at SEED and
# full strength: the records of every `verify` battery stay bit-exact
RECORD_DIGESTS = {
    "check_tree_moments": "0829432a241d4d01e257d2063b2dbe650b82da5b6401ff7b0577485eda2ec63e",
    "check_hypercube_first_moment": "b47e7e19e95a3c776482d0a11372d1b6b301f52b372ab29159beb0103d9220c6",
    "check_closed_form_limits": "64d764758249a763e99a9073f2309abd5b59c680d9dcd6e801cc6902bb403eab",
    "check_a_coeff_facts": "e0d2e5e91a9f234b0261feeb7a7c43ca27b5a520152858714a30d3fec70f1888",
    "check_indecomposable": "66f32b88baa930d2e9f30fbfb6bde7c21ec49582422f9e49116e3ce3c6ffc1e7",
    "check_tree_gf_limit": "02923e1a39ce732437008d4be3e3b49c0f6a31d7a988c17c82a7e51c54d3a918",
    "check_existence": "9449f20b82408670a4a4c77786dc2c9165609901d1121d4332e5d90c90117e1e",
    "check_fk": "eab322fe6d4ee6fc9fdb3a9560e1a49b49763df2a2dd36c10539e04b47236f01",
    "check_cascade": "9486330ba6e72cf7704fa9a7b7eff51e3ce38ee8d7a30035ef88573d65019e00",
    "check_hypercube_limit_law": "e97e8767eef8321065c752e2073e0434484495a160aed82b38c26d31370fb925",
}


def _digest(results):
    dump = json.dumps([asdict(res) for res in results], sort_keys=True)
    return hashlib.sha256(dump.encode()).hexdigest()


def _assert_all(results, digest=None):
    for res in results:
        print(res.line())
    failed = [res.line() for res in results if not res.passed]
    assert not failed, "\n".join(failed)
    if digest is not None:
        assert _digest(results) == digest


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
    hypercube = verify.check_hypercube_first_moment(seed=SEED, threads=THREADS)
    _assert_all(first + hypercube)
    assert _digest(hypercube) == RECORD_DIGESTS["check_hypercube_first_moment"]


def test_criterion_04_tree_second_moment(tree_moment_results):
    _assert_all([r for r in tree_moment_results if r.criterion.startswith("4-")])
    # one digest over the shared batch pins criterion 3's tree half too
    assert _digest(tree_moment_results) == RECORD_DIGESTS["check_tree_moments"]


def test_criterion_05_closed_form_limits():
    results = verify.check_closed_form_limits(seed=SEED)
    _assert_all(results, RECORD_DIGESTS["check_closed_form_limits"])


def test_criterion_06_a_coefficient_facts():
    _assert_all(verify.check_a_coeff_facts(seed=SEED), RECORD_DIGESTS["check_a_coeff_facts"])


def test_criterion_07_indecomposable_pairs():
    results = verify.check_indecomposable(seed=SEED)
    _assert_all(results, RECORD_DIGESTS["check_indecomposable"])


def test_criterion_07_fails_on_wrong_counts(monkeypatch):
    # B(n) off by one: both the values and the class sizes must fail
    real = moments.indecomposable_count
    monkeypatch.setattr(moments, "indecomposable_count", lambda n: real(n) + 1)
    values, classes = verify.check_indecomposable(seed=SEED)
    assert not values.passed and values.observed == {"B(1..5)": [2, 2, 4, 14, 72]}
    assert not classes.passed and "MISMATCH" in classes.details


def test_criterion_08_generating_function_limit():
    _assert_all(verify.check_tree_gf_limit(seed=SEED), RECORD_DIGESTS["check_tree_gf_limit"])


def test_criterion_09_existence_probability():
    results = verify.check_existence(seed=SEED, threads=THREADS)
    _assert_all(results, RECORD_DIGESTS["check_existence"])


def test_criterion_10_cascade_fixed_point():
    _assert_all(verify.check_fk(seed=SEED), RECORD_DIGESTS["check_fk"])


def test_criterion_11_cascade_limit():
    results = verify.check_cascade(seed=SEED, threads=THREADS)
    _assert_all(results, RECORD_DIGESTS["check_cascade"])


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
