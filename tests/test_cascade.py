"""Truncated multiplicative cascade sampling and its bias accounting."""

import math

import numpy as np
import pytest

from pathscape import stats
from pathscape.cascade import (
    CascadeParams,
    cascade_limit_check,
    sample_cascade,
    sample_cascade_batch,
)
from pathscape.rng import philox_stream
from pathscape.tree import BudgetExceededError

SEED = 777


def test_params_validation():
    with pytest.raises(ValueError):
        CascadeParams(-1, 1e-6, SEED)
    with pytest.raises(ValueError):
        CascadeParams(2, 0.0, SEED)
    with pytest.raises(ValueError):
        CascadeParams(2, 1.5, SEED)
    with pytest.raises(ValueError):
        CascadeParams(2, 1e-6, SEED, samples=0)


def test_unit_poisson_atoms():
    # one generation from position 1: Poisson(ln 1/delta) atoms in [delta, 1]
    rng = philox_stream(SEED)
    delta = 1e-3
    params = CascadeParams(1, delta, SEED)
    counts = []
    for _ in range(2000):
        s = sample_cascade(params, rng)
        counts.append(s.atoms_visited)
        assert s.bias_bound == delta
        assert delta * (1 - 1e-12) * s.atoms_visited <= s.y <= s.atoms_visited
    lam = math.log(1.0 / delta)
    mean = float(np.mean(counts))
    se = math.sqrt(lam / len(counts))
    assert abs(mean - lam) <= 4 * se


def test_generation_zero_is_unit_mass():
    s = sample_cascade(CascadeParams(0, 1e-6, SEED), philox_stream(SEED))
    assert s.y == 1.0
    assert s.atoms_visited == 0
    assert s.bias_bound == 0.0


def test_determinism():
    params = CascadeParams(3, 1e-6, SEED, samples=50)
    a = sample_cascade_batch(params)
    b = sample_cascade_batch(params)
    assert np.array_equal(a.ys, b.ys)


def test_batch_matches_replica_loop_and_thread_count():
    # budget hits on some replicas, and two workers with unequal spans
    params = CascadeParams(3, 1e-4, SEED, samples=41, atom_budget=150)
    one = sample_cascade_batch(params, threads=1)
    two = sample_cascade_batch(params, threads=2)
    assert 0 < one.budget_hits < params.samples
    assert np.array_equal(one.ys, two.ys)
    assert (one.mean_bias, one.mean_atoms, one.budget_hits) == (
        two.mean_bias,
        two.mean_atoms,
        two.budget_hits,
    )
    ys, bias, atoms = [], 0.0, 0
    for r in range(params.samples):
        try:
            s = sample_cascade(params, philox_stream(SEED, r))
        except BudgetExceededError:
            continue
        ys.append(s.y)
        bias += s.bias_bound
        atoms += s.atoms_visited
    assert one.ys.tolist() == ys
    assert one.mean_bias == bias / len(ys)
    assert one.mean_atoms == atoms / len(ys)
    assert one.budget_hits == params.samples - len(ys)


def test_batch_with_every_realization_over_budget_raises():
    params = CascadeParams(4, 1e-9, SEED, samples=3, atom_budget=10)
    with pytest.raises(BudgetExceededError, match="all cascade realizations"):
        sample_cascade_batch(params)


def test_limit_check_independent_of_threads():
    assert cascade_limit_check(3, 1e-5, 30, SEED, threads=1) == cascade_limit_check(
        3, 1e-5, 30, SEED, threads=2
    )


def test_expected_sum_conservation():
    # E[Y_k] + E[bias_bound] = 1 exactly; check the CLT band
    params = CascadeParams(3, 1e-6, SEED, samples=3000)
    batch = sample_cascade_batch(params)
    assert batch.budget_hits == 0
    summ = stats.moment_summary(stats.Sample.from_values(batch.ys))
    assert abs(summ.mean + batch.mean_bias - 1.0) <= 4 * summ.mean_stderr


def test_pruning_soundness():
    coarse = sample_cascade_batch(CascadeParams(3, 1e-4, SEED, samples=3000))
    fine = sample_cascade_batch(CascadeParams(3, 1e-6, SEED, samples=3000))
    sc = stats.moment_summary(stats.Sample.from_values(coarse.ys))
    sf = stats.moment_summary(stats.Sample.from_values(fine.ys))
    band = 4 * math.hypot(sc.mean_stderr, sf.mean_stderr)
    assert abs(sc.mean - sf.mean) <= coarse.mean_bias + band


def test_atom_cost_envelope():
    # expected atoms at generation j ~ ln(1/delta)^j / j!
    delta, k = 1e-6, 3
    lam = math.log(1.0 / delta)
    envelope = sum(lam**j / math.factorial(j) for j in range(1, k + 1))
    batch = sample_cascade_batch(CascadeParams(k, delta, SEED, samples=500))
    assert batch.mean_atoms < 2.0 * envelope
    assert batch.mean_atoms > envelope / 2.0


def test_budget_is_an_error():
    with pytest.raises(BudgetExceededError):
        sample_cascade(
            CascadeParams(4, 1e-9, SEED, atom_budget=10), philox_stream(SEED)
        )


def test_point_mass_ks_at_k_zero():
    # Y_0 = 1 always; against Exp(1) the lower excursion just left of the
    # jump dominates: KS = F(1) - 0 = 1 - e^-1
    report = cascade_limit_check(0, 1e-6, 200, SEED)
    assert report.ks == pytest.approx(-math.expm1(-1.0), abs=1e-12)


def test_ks_improves_with_k():
    r2 = cascade_limit_check(2, 1e-6, 2000, SEED)
    r6 = cascade_limit_check(6, 1e-6, 2000, SEED)
    assert r6.ks < r2.ks
    assert r6.finite_k_gap_bound < r2.finite_k_gap_bound
    assert r6.budget_hits == 0
