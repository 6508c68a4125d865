"""Entropy measures, lag-specific transfer entropy, and lag selection."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lagte import (
    InvalidArgumentError,
    PipelineConfig,
    best_lag,
    effective_transfer_entropy,
    shannon_entropy,
    transfer_entropy,
)
from lagte.entropy import _as_codes, _scan_lags, _te_from_counts, best_lags
from conftest import fast_config


def te_oracle(source, target, u):
    """Brute-force triple enumeration, independent of the library code.

    Counts every (target[t], target[t-1], source[t-u]) triple with a
    Counter and sums p * log2(p(i1 | i0, j) / p(i1 | i0)) directly.
    """
    src = list(source)
    tgt = list(target)
    triples = []
    for t in range(len(tgt)):
        if t - 1 >= 0 and t - u >= 0:
            triples.append((tgt[t], tgt[t - 1], src[t - u]))
    n = len(triples)
    c_ijk = Counter(triples)
    c_jk = Counter((i0, j) for _, i0, j in triples)
    c_ij = Counter((i1, i0) for i1, i0, _ in triples)
    c_j = Counter(i0 for _, i0, _ in triples)
    total = 0.0
    for (i1, i0, j), n_ijk in c_ijk.items():
        p = n_ijk / n
        cond_full = n_ijk / c_jk[(i0, j)]
        cond_marg = c_ij[(i1, i0)] / c_j[i0]
        total += p * math.log2(cond_full / cond_marg)
    return total


class _IdentityRng:
    """Stub rng whose permutation is the identity."""

    def permuted(self, x, axis=None, out=None):
        if out is None:
            return np.array(x, copy=True)
        out[...] = x
        return out


def scan_reference(src, tgt, lags, shuffles, rng):
    """Per-lag, per-surrogate loop over the layout the fused scan replaces.

    Each lag counts its own ``(shuffles + 1, L - u)`` rows, every surrogate
    drawn by one ``rng.permutation`` call, and evaluates them separately.
    """
    n_t = int(tgt.max()) + 1
    n_s = int(src.max()) + 1
    out = []
    for u in lags:
        n = tgt.size - u
        rows = [src[:n]] + [rng.permutation(src)[:n] for _ in range(shuffles)]
        pair = tgt[u:] * n_t + tgt[u - 1 : -1]
        counts = [np.bincount(pair * n_s + j, minlength=n_t * n_t * n_s) for j in rows]
        counts = np.array(counts).reshape(-1, n_t, n_t, n_s)
        out.append(_te_from_counts(counts, np.full(len(rows), float(n))))
    return np.array(out)


class TestShannonEntropy:
    def test_fair_coin(self):
        assert shannon_entropy([0.5, 0.5]) == 1.0

    def test_deterministic(self):
        assert shannon_entropy([1.0]) == 0.0

    def test_uniform_four(self):
        assert shannon_entropy([0.25, 0.25, 0.25, 0.25]) == 2.0

    def test_zero_probability_contributes_nothing(self):
        assert shannon_entropy([0.5, 0.5, 0.0]) == 1.0

    def test_rejects_non_distribution(self):
        with pytest.raises(InvalidArgumentError):
            shannon_entropy([0.7, 0.7])
        with pytest.raises(InvalidArgumentError):
            shannon_entropy([-0.5, 1.5])


class TestTransferEntropy:
    def test_constant_target_is_zero(self):
        rng = np.random.default_rng(0)
        source = rng.integers(1, 3, 100)
        assert transfer_entropy(source, np.ones(100, dtype=int), 1) == 0.0

    def test_copy_target_approaches_one_bit(self):
        rng = np.random.default_rng(1)
        source = rng.integers(0, 2, 5000)
        target = np.roll(source, 1)
        assert transfer_entropy(source, target, 1) > 0.9

    def test_matches_oracle_on_random_instances(self):
        rng = np.random.default_rng(7)
        for _ in range(60):
            length = int(rng.integers(10, 200))
            n = int(rng.integers(2, 5))
            u = int(rng.integers(1, 6))
            if u > length - 2:
                continue
            source = rng.integers(1, n + 1, length)
            target = rng.integers(1, n + 1, length)
            got = transfer_entropy(source, target, u)
            want = te_oracle(source, target, u)
            assert got == pytest.approx(want, abs=1e-12)

    @given(
        data=st.data(),
        length=st.integers(min_value=8, max_value=60),
        u=st.integers(min_value=1, max_value=5),
    )
    @settings(max_examples=150, deadline=None)
    def test_nonnegative(self, data, length, u):
        if u > length - 2:
            return
        source = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=3),
                min_size=length,
                max_size=length,
            )
        )
        target = data.draw(
            st.lists(
                st.integers(min_value=1, max_value=3),
                min_size=length,
                max_size=length,
            )
        )
        assert transfer_entropy(source, target, u) >= 0.0

    def test_symbol_relabeling_invariance(self):
        rng = np.random.default_rng(3)
        source = rng.integers(1, 4, 150)
        target = rng.integers(1, 4, 150)
        relabel = {1: 3, 2: 1, 3: 2}
        src2 = np.array([relabel[s] for s in source])
        tgt2 = np.array([relabel[s] for s in target])
        a = transfer_entropy(source, target, 2)
        b = transfer_entropy(src2, tgt2, 2)
        assert a == pytest.approx(b, abs=1e-12)

    def test_rejects_bad_lag(self):
        source = np.ones(10, dtype=int)
        with pytest.raises(InvalidArgumentError):
            transfer_entropy(source, source, 0)
        with pytest.raises(InvalidArgumentError):
            transfer_entropy(source, source, 9)

    def test_rejects_length_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            transfer_entropy(np.ones(10, dtype=int), np.ones(11, dtype=int), 1)


class TestEffectiveTransferEntropy:
    def test_identity_permutation_gives_exact_zero(self):
        rng = np.random.default_rng(2)
        source = rng.integers(1, 4, 80)
        target = rng.integers(1, 4, 80)
        ete, te, shuffle_mean = effective_transfer_entropy(
            source, target, 2, shuffles=1, rng=_IdentityRng()
        )
        assert ete == 0.0
        assert te == shuffle_mean

    def test_independent_series_near_zero(self):
        rng = np.random.default_rng(4)
        source = rng.integers(1, 3, 500)
        target = rng.integers(1, 3, 500)
        ete, _, _ = effective_transfer_entropy(
            source, target, 1, shuffles=50, rng=np.random.default_rng(5)
        )
        assert abs(ete) <= 0.02

    def test_copy_pair_keeps_most_of_te(self):
        rng = np.random.default_rng(6)
        source = rng.integers(0, 2, 2000)
        target = np.roll(source, 3)
        ete, te, _ = effective_transfer_entropy(
            source, target, 3, shuffles=20, rng=np.random.default_rng(8)
        )
        assert te > 0.9
        assert ete > 0.8 * te

    def test_decomposition_identity(self):
        rng = np.random.default_rng(9)
        source = rng.integers(1, 3, 120)
        target = rng.integers(1, 3, 120)
        ete, te, shuffle_mean = effective_transfer_entropy(
            source, target, 1, shuffles=5, rng=np.random.default_rng(10)
        )
        assert ete == te - shuffle_mean

    def test_requires_rng_and_shuffles(self):
        source = np.ones(10, dtype=int)
        with pytest.raises(InvalidArgumentError):
            effective_transfer_entropy(source, source, 1, shuffles=0, rng=_IdentityRng())
        with pytest.raises(InvalidArgumentError):
            effective_transfer_entropy(source, source, 1, shuffles=1, rng=None)


class TestScanLags:
    @given(
        data=st.data(),
        length=st.integers(min_value=4, max_value=60),
        n_src=st.integers(min_value=1, max_value=4),
        n_tgt=st.integers(min_value=1, max_value=4),
        shuffles=st.integers(min_value=0, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_lag_reference(self, data, length, n_src, n_tgt, shuffles, seed):
        symbols = lambda n: st.lists(
            st.integers(min_value=0, max_value=n - 1), min_size=length, max_size=length
        )
        src = _as_codes(data.draw(symbols(n_src)), "source")
        tgt = _as_codes(data.draw(symbols(n_tgt)), "target")
        lag_max = data.draw(st.integers(min_value=1, max_value=length - 2))
        lag_min = data.draw(st.integers(min_value=1, max_value=lag_max))
        lags = np.arange(lag_min, lag_max + 1)
        rng_fused = np.random.default_rng(seed)
        rng_loop = np.random.default_rng(seed)
        got = _scan_lags(src, tgt, lags, shuffles, rng_fused)
        want = scan_reference(src, tgt, lags, shuffles, rng_loop)
        assert got.tobytes() == want.tobytes()
        # both consumed the same stream
        assert rng_fused.random() == rng_loop.random()
        for row, u in zip(got, lags):
            assert row[0] == pytest.approx(te_oracle(src, tgt, int(u)), abs=1e-12)


class TestBestLags:
    @given(
        data=st.data(),
        length=st.integers(min_value=4, max_value=60),
        n_targets=st.integers(min_value=1, max_value=4),
        shuffles=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_per_target_best_lag(self, data, length, n_targets, shuffles, seed):
        symbols = st.lists(
            st.integers(min_value=1, max_value=4), min_size=length, max_size=length
        )
        source = data.draw(symbols)
        targets = [data.draw(symbols) for _ in range(n_targets)]
        lag_max = data.draw(st.integers(min_value=1, max_value=length - 2))
        lag_min = data.draw(st.integers(min_value=1, max_value=lag_max))
        config = PipelineConfig(
            lag_min=lag_min, lag_max=lag_max, shuffle_reps=shuffles
        )
        rng_shared = np.random.default_rng(seed)
        picks = best_lags(source, targets, config, rng_shared)
        assert len(picks) == n_targets
        for target, (got_lag, got) in zip(targets, picks):
            rng_own = np.random.default_rng(seed)
            want_lag, want = best_lag(source, target, config, rng_own)
            assert got_lag == want_lag
            for field in ("lags", "te", "ete", "shuffle_mean"):
                got_bytes = np.array(getattr(got, field)).tobytes()
                assert got_bytes == np.array(getattr(want, field)).tobytes()
            # the shared scan drew exactly what one best_lag call draws
            assert rng_shared.bit_generator.state == rng_own.bit_generator.state

    def test_rejects_bad_targets(self):
        source = np.ones(20, dtype=int)
        config = fast_config(lag_max=5)
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgumentError, match="at least one"):
            best_lags(source, [], config, rng)
        with pytest.raises(InvalidArgumentError, match="lengths differ"):
            best_lags(source, [source, np.ones(19, dtype=int)], config, rng)


class TestBestLag:
    def test_recovers_constructed_delay(self):
        rng = np.random.default_rng(12)
        source = rng.integers(0, 2, 1000)
        target = np.roll(source, 7)
        config = fast_config(lag_max=15, shuffle_reps=10)
        u_hat, profile = best_lag(
            source, target, config, np.random.default_rng(13)
        )
        assert u_hat == 7
        assert len(profile.lags) == 15
        assert profile.lags[int(np.argmax(profile.ete))] == 7

    def test_constant_target_ties_to_lag_min(self):
        rng = np.random.default_rng(14)
        source = rng.integers(1, 4, 200)
        target = np.ones(200, dtype=int)
        config = fast_config()
        u_hat, profile = best_lag(source, target, config, np.random.default_rng(15))
        assert u_hat == config.lag_min
        assert np.all(np.asarray(profile.te) == 0.0)
        assert np.all(np.asarray(profile.ete) == 0.0)

    def test_profile_is_consistent(self):
        rng = np.random.default_rng(16)
        source = rng.integers(1, 3, 300)
        target = np.roll(source, 10)
        config = fast_config(lag_max=12, shuffle_reps=8)
        u_hat, profile = best_lag(source, target, config, np.random.default_rng(17))
        assert u_hat == 10
        ete = np.asarray(profile.ete)
        te = np.asarray(profile.te)
        sm = np.asarray(profile.shuffle_mean)
        assert np.allclose(ete, te - sm)
        assert list(profile.lags) == list(range(1, 13))
