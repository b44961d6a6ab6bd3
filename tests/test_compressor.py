"""Compressor properties: unbiasedness, variance certificate, determinism."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sgdlab.compressor import (
    DRAW_BUFFER_BYTES,
    BernoulliScale,
    Compressor,
    Identity,
    RandK,
)
from sgdlab.harness import STREAM_CHUNK


def test_identity_passthrough():
    x = np.array([1.0, 2.0, 3.0])
    rng = np.random.default_rng(0)
    np.testing.assert_array_equal(Identity().apply(x[None, :], Identity().draw(rng, (1,), 3))[0], x)
    mean, mse = Identity().exact_moments(x)
    np.testing.assert_array_equal(mean, x)
    assert mse == 0.0


def test_randk_three_outcome_enumeration():
    # k=1, d=3, x=(3,0,4): outcomes (9,0,0), (0,0,0), (0,0,12) each w.p. 1/3;
    # mean is x and mse = (52 + 25 + 73)/3 = 50 = omega * ||x||^2 with omega = 2
    x = np.array([3.0, 0.0, 4.0])
    comp = RandK(k=1)
    mean, mse = comp.exact_moments(x)
    np.testing.assert_allclose(mean, x, rtol=1e-15)
    assert mse == pytest.approx(50.0, rel=1e-15)
    assert comp.omega(3) == 2.0
    rng = np.random.default_rng(5)
    outcomes = {tuple(row) for row in comp.apply(np.tile(x, (200, 1)), comp.draw(rng, (200,), 3))}
    assert outcomes == {(9.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 12.0)}


def test_bernoulli_keep_all_is_degenerate():
    x = np.array([1.5, -2.0, 0.25])
    comp = BernoulliScale(q=1.0)
    rng = np.random.default_rng(1)
    for row in comp.apply(np.tile(x, (20, 1)), comp.draw(rng, (20,), 3)):
        np.testing.assert_array_equal(row, x)


def test_bernoulli_two_outcome_enumeration():
    # q=0.5, d=1, x=(2): outcomes (4) and (0) each w.p. 1/2
    comp = BernoulliScale(q=0.5)
    mean, mse = comp.exact_moments(np.array([2.0]))
    assert mean[0] == pytest.approx(2.0, rel=1e-15)
    assert mse == pytest.approx(4.0, rel=1e-15)
    assert mse <= comp.omega(1) * 4.0 * (1 + 1e-12)


@pytest.mark.parametrize(
    "comp,d",
    [(RandK(k=1), 4), (RandK(k=2), 5), (RandK(k=3), 6), (BernoulliScale(q=0.3), 6), (Identity(), 5)],
    ids=["randk1", "randk2", "randk3", "bernoulli", "identity"],
)
def test_exact_unbiasedness_and_variance_certificate(comp, d):
    rng = np.random.default_rng(13)
    for _ in range(5):
        x = rng.standard_normal(d)
        mean, mse = comp.exact_moments(x)
        np.testing.assert_allclose(mean, x, rtol=1e-12, atol=1e-12 * np.abs(x).max())
        bound = comp.omega(d) * float(x @ x)
        assert mse <= bound * (1 + 1e-12)
        if isinstance(comp, RandK):
            assert mse == pytest.approx(bound, rel=1e-12)


@pytest.mark.parametrize("comp", [RandK(k=2), BernoulliScale(q=0.4)], ids=["randk", "bernoulli"])
def test_statistical_unbiasedness(comp):
    d, samples = 5, 10**5
    rng = np.random.default_rng(99)
    x = np.array([1.0, -2.0, 0.0, 3.0, 0.5])
    draws = comp.apply(np.tile(x, (samples, 1)), comp.draw(rng, (samples,), d))
    assert draws.shape == (samples, d)
    se = draws.std(axis=0, ddof=1) / np.sqrt(samples)
    dev = np.abs(draws.mean(axis=0) - x)
    assert np.all(dev <= 4.0 * se + 1e-12)


def test_determinism():
    x = np.arange(6, dtype=float)
    for comp in (RandK(k=2), BernoulliScale(q=0.7), Identity()):
        a = comp.apply(x[None, :], comp.draw(np.random.default_rng(123), (1,), 6))
        b = comp.apply(x[None, :], comp.draw(np.random.default_rng(123), (1,), 6))
        np.testing.assert_array_equal(a, b)


def test_batch_rows_match_compressor_distribution():
    # batched API compresses each row independently with the same algorithm
    comp = RandK(k=1)
    X = np.tile(np.array([3.0, 0.0, 4.0]), (1000, 1))
    out = comp.apply(X, comp.draw(np.random.default_rng(7), X.shape[:-1], X.shape[-1]))
    valid = {(9.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.0, 0.0, 12.0)}
    assert {tuple(row) for row in out} == valid


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 20),
    m=st.integers(1, 12),
    n=st.integers(1, 4),
    k=st.integers(1, 20),
    kind=st.sampled_from(["identity", "rand_k", "bernoulli"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_apply_broadcasts_a_shared_vector(d, m, n, k, kind, seed):
    comp = {"identity": Identity(), "rand_k": RandK(k=min(k, d)), "bernoulli": BernoulliScale(q=0.3)}[kind]
    rng = np.random.default_rng(seed)
    x, V = rng.standard_normal(d), rng.standard_normal((1, n, d))
    draws = comp.draw(rng, (m,), d)
    np.testing.assert_array_equal(comp.apply(x, draws), comp.apply(np.tile(x, (m, 1)), draws))
    draws = comp.draw(rng, (m, n), d)
    np.testing.assert_array_equal(comp.apply(V, draws), comp.apply(np.tile(V, (m, 1, 1)), draws))
    # one draw per row shared by a stack of n vectors, as verify_compressor compresses its probes
    draws = comp.draw(rng, (m, 1), d)
    expected = comp.apply(np.tile(V, (m, 1, 1)), np.repeat(draws, n, axis=1))
    np.testing.assert_array_equal(comp.apply(V[0], draws), expected)


def _block_rows(d):
    return DRAW_BUFFER_BYTES // (8 * d)


@pytest.mark.parametrize(
    "shape,d",
    [
        ((), 7),
        ((0, 3), 5),
        ((_block_rows(20),), 20),
        ((_block_rows(20) + 1,), 20),
        ((3 * _block_rows(7) - 2, 1), 7),
        ((_block_rows(1) + 5,), 1),
        ((STREAM_CHUNK, 10), 20),
        ((STREAM_CHUNK, 3), 50),
    ],
)
def test_bernoulli_draw_fills_blocks_on_the_one_shot_stream(shape, d):
    comp = BernoulliScale(q=0.25)
    blocked, one_shot = np.random.default_rng([9, d]), np.random.default_rng([9, d])
    np.testing.assert_array_equal(comp.draw(blocked, shape, d), one_shot.random(shape + (d,)) < comp.q)
    assert blocked.random() == one_shot.random()  # both streams stop at the same place


def _randk_one_table(k, rng, shape, d):
    """The rand_k draw as one (m, d) index table shuffled in place, the reference for the blocked draw."""
    m = math.prod(shape)
    idx = np.tile(np.arange(d), (m, 1))
    rows = np.arange(m)
    for j in range(k):
        r = rng.integers(j, d, size=shape).reshape(m)
        idx[rows, j], idx[rows, r] = idx[rows, r], idx[rows, j]
    return idx[:, :k].reshape(shape + (k,))


@pytest.mark.parametrize(
    "shape,d,k",
    [
        ((), 7, 3),
        ((0, 3), 5, 2),
        ((_block_rows(20),), 20, 20),
        ((_block_rows(20) + 1,), 20, 4),
        ((3 * _block_rows(7) - 2, 1), 7, 7),
        ((_block_rows(1) + 5,), 1, 1),
        ((STREAM_CHUNK, 10), 20, 1),
        ((2, 3), 2 * DRAW_BUFFER_BYTES // 8, 2),
    ],
)
def test_randk_draw_in_blocks_keeps_the_one_table_indices(shape, d, k):
    comp = RandK(k=k)
    blocked, one_table = np.random.default_rng([9, d]), np.random.default_rng([9, d])
    np.testing.assert_array_equal(comp.draw(blocked, shape, d), _randk_one_table(k, one_table, shape, d))
    assert blocked.random() == one_table.random()  # both streams stop at the same place


def test_randk_draw_holds_little_beyond_its_output():
    """10^5 draws of 5 of 30 coordinates hold the (m, k) indices, one swap array and one block table."""
    tracemalloc.start()
    try:
        out = RandK(k=5).draw(np.random.default_rng(0), (10**5,), 30)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.3 * out.nbytes, f"peak {peak / 2**20:.1f} MiB for {out.nbytes / 2**20:.1f} MiB of output"


def test_configuration_errors():
    with pytest.raises(ValueError, match="1 <= k <= d"):
        RandK(k=4).draw(np.random.default_rng(0), (1,), 3)
    with pytest.raises(ValueError, match="keep probability"):
        BernoulliScale(q=0.0)
    with pytest.raises(ValueError, match="keep probability"):
        BernoulliScale(q=1.5)


def _reference_moments(comp, x):
    """(E[Q(x)], E||Q(x) - x||^2) by a Python loop over every outcome, one vector at a time."""
    d = x.size
    if isinstance(comp, RandK):
        subsets = list(itertools.combinations(range(d), comp.k))
        outcomes = [(list(sub), 1.0 / len(subsets), d / comp.k) for sub in subsets]
    else:
        outcomes = []
        for bits in range(2**d):
            sub = [j for j in range(d) if (bits >> j) & 1]
            outcomes.append((sub, comp.q ** len(sub) * (1.0 - comp.q) ** (d - len(sub)), 1.0 / comp.q))
    mean, mse = np.zeros(d), 0.0
    for sub, prob, scale in outcomes:
        out = np.zeros(d)
        out[sub] = x[sub] * scale
        mean += prob * out
        mse += prob * float(np.sum((out - x) ** 2))
    return mean, mse


@st.composite
def _compressor_and_vectors(draw):
    d = draw(st.integers(1, 10))
    if draw(st.booleans()):
        comp = RandK(k=draw(st.integers(1, d)))
    else:
        comp = BernoulliScale(q=draw(st.floats(1e-3, 1.0, exclude_min=True)))
    # zeros and magnitudes from 1e-6 to 1e6
    sign = st.sampled_from([-1.0, 1.0])
    magnitude = st.builds(lambda s, m, e: s * m * 10.0**e, sign, st.floats(1.0, 10.0), st.integers(-6, 5))
    coord = st.one_of(st.just(0.0), magnitude)
    rows = draw(st.integers(1, 3))
    X = np.array(draw(st.lists(st.lists(coord, min_size=d, max_size=d), min_size=rows, max_size=rows)))
    return comp, X


@settings(max_examples=80, deadline=None)
@given(_compressor_and_vectors())
# q -> 1: 1 + p (s-1)^2 - p cancels about 5 of the 16 digits of the (1-q)/q ~ 1e-5 result
@example((BernoulliScale(q=0.99999), np.array([[-1.0]])))
def test_exact_moments_match_a_per_outcome_loop(case):
    comp, X = case
    means, mses = comp.exact_moments(X)
    assert means.shape == X.shape and mses.shape == X.shape[:1]
    for i, x in enumerate(X):
        ref_mean, ref_mse = _reference_moments(comp, x)
        np.testing.assert_allclose(means[i], ref_mean, rtol=1e-12, atol=0)
        assert mses[i] == pytest.approx(ref_mse, rel=1e-12, abs=0)
        mean, mse = comp.exact_moments(x)  # row i of the stacked call, bit for bit
        np.testing.assert_array_equal(mean, means[i])
        assert mse == mses[i]


def test_bernoulli_oracle_answers_above_the_sampling_policy():
    """Above sampled_above the verifier samples, but the oracle still answers: 2^17 keep-masks at d = 17."""
    comp = BernoulliScale(q=0.3)
    x = np.random.default_rng(17).standard_normal(17)
    assert x.size > comp.sampled_above
    mean, mse = comp.exact_moments(x)
    ref_mean, ref_mse = _reference_moments(comp, x)
    # the reference adds 2^17 terms one at a time, so its own round-off reaches about 2^17 u = 1.5e-11
    np.testing.assert_allclose(mean, ref_mean, rtol=1e-10, atol=0)
    assert mse == pytest.approx(ref_mse, rel=1e-10, abs=0)


def test_exact_moments_memory_is_linear_in_d():
    """C(5000, 1) subsets: per-coordinate moments hold O(d), never a table of outcomes."""
    comp, x = RandK(k=1), np.ones(5000)
    comp.exact_moments(x)  # warm up
    tracemalloc.start()
    try:
        _, mse = comp.exact_moments(x)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert mse == pytest.approx(comp.omega(5000) * 5000, rel=1e-12, abs=0)


def test_exact_oracles_never_compress(monkeypatch):
    """The oracles judge draw/apply, so they must not call them."""
    from sgdlab.estimator import CDGD, DIANA
    from sgdlab.problem import compute_constants, random_quadratic

    def refuse(*args, **kwargs):
        raise AssertionError("an exact oracle called the compression kernel")

    for method in ("draw", "apply"):
        for cls in (Compressor, Identity, RandK, BernoulliScale):
            monkeypatch.setattr(cls, method, refuse)
    problem = random_quadratic(4, 6, seed=3)
    constants = compute_constants(problem)
    x = constants.x_star + 0.5
    for comp in (Identity(), RandK(k=2), BernoulliScale(q=0.3)):
        mean, mse = comp.exact_moments(np.ones((2, 6)))
        np.testing.assert_allclose(mean, 1.0, rtol=1e-12)
        assert mse == pytest.approx(comp.omega(6) * 6.0, rel=1e-12)
        for est in (CDGD(compressor=comp), DIANA(compressor=comp)):
            state = est.init_state(problem, constants, x)
            mean, second, sigma_next = est.exact_moments(problem, constants, state, x)
            np.testing.assert_allclose(mean, problem.eval_full_grad(x), rtol=1e-10, atol=1e-12)
            assert math.isfinite(second)
        assert math.isfinite(sigma_next)  # DIANA's, the last of the pair
