"""Entropy measures, lag-specific transfer entropy, and lag selection."""

import math
import sys
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

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
from lagte import entropy
from lagte.entropy import (
    _as_codes,
    _scan_block,
    _scan_draw,
    _te_from_counts,
)
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


class _IdentityRng(np.random.Generator):
    """Stub rng whose permutation is the identity."""

    def __init__(self):
        super().__init__(np.random.PCG64(0))

    def permuted(self, x, axis=None, out=None):
        if out is None:
            return np.array(x, copy=True)
        out[...] = x
        return out


def te_from_counts_masked(counts, totals):
    """The masked TE pass ``_te_from_counts`` replaced, frozen as its
    byte-level reference: a masked divide and a masked ``log2`` leave 0.0
    in every empty cell, and the products broadcast the marginals."""
    c = np.ascontiguousarray(counts, dtype=float)
    d_ab = c.sum(axis=3)
    m_bc = c.sum(axis=1)
    e_b = m_bc.sum(axis=2)
    mask = c > 0.0
    terms = np.multiply(c, e_b[:, None, :, None])
    den = np.multiply(m_bc[:, None, :, :], d_ab[:, :, :, None])
    np.divide(terms, den, out=terms, where=mask)
    np.log2(terms, out=terms, where=mask)
    terms *= c
    return np.maximum(terms.sum(axis=(1, 2, 3)) / totals, 0.0)


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
        out.append(te_from_counts_masked(counts, np.full(len(rows), float(n))))
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
        ((got,),) = _scan_draw([(src, [tgt], lags)], shuffles, rng_fused)
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
        shuffles=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_equals_per_lag_reference(self, data, length, shuffles, seed):
        symbols = st.lists(
            st.integers(min_value=1, max_value=4), min_size=length, max_size=length
        )
        source, target = data.draw(symbols), data.draw(symbols)
        lag_max = data.draw(st.integers(min_value=1, max_value=length - 2))
        lag_min = data.draw(st.integers(min_value=1, max_value=lag_max))
        config = PipelineConfig(
            lag_min=lag_min, lag_max=lag_max, shuffle_reps=shuffles
        )
        rng_lag, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
        u_hat, profile = best_lag(source, target, config, rng_lag)
        lags = np.arange(lag_min, lag_max + 1)
        src, tgt = _as_codes(source, "source"), _as_codes(target, "target")
        want = scan_reference(src, tgt, lags, shuffles, rng_ref)
        te, shuffle_mean = want[:, 0], want[:, 1:].mean(axis=1)
        assert profile.lags == tuple(lags.tolist())
        assert np.array(profile.te).tobytes() == te.tobytes()
        assert np.array(profile.shuffle_mean).tobytes() == shuffle_mean.tobytes()
        assert np.array(profile.ete).tobytes() == (te - shuffle_mean).tobytes()
        assert u_hat == lags[np.argmax(te - shuffle_mean)]
        # best_lag drew exactly what the per-lag loop draws
        assert rng_lag.bit_generator.state == rng_ref.bit_generator.state

    @given(
        data=st.data(),
        length=st.integers(min_value=4, max_value=60),
        side=st.sampled_from(["source", "target"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_invariant_to_relabeling_either_series(self, data, length, side, seed):
        symbols = st.lists(
            st.integers(min_value=1, max_value=4), min_size=length, max_size=length
        )
        series = {"source": np.array(data.draw(symbols))}
        series["target"] = np.array(data.draw(symbols))
        lag_max = data.draw(st.integers(min_value=1, max_value=length - 2))
        config = PipelineConfig(lag_max=lag_max, shuffle_reps=3)
        alphabet = [1, 2, 3, 4]
        labels = st.sets(st.integers(-50, 50), min_size=4, max_size=4)
        monotone = sorted(data.draw(labels))
        bijection = data.draw(st.permutations(alphabet))

        def scan(relabel):
            relabeled = dict(series)
            relabeled[side] = np.array([relabel[s - 1] for s in series[side]])
            rng = np.random.default_rng(seed)
            return best_lag(relabeled["source"], relabeled["target"], config, rng)

        want_lag, want = scan(alphabet)
        # an order-preserving relabeling gives the same codes, hence the same bytes
        got_lag, got = scan(monotone)
        assert got_lag == want_lag
        for field in ("lags", "te", "ete", "shuffle_mean"):
            got_bytes = np.array(getattr(got, field)).tobytes()
            assert got_bytes == np.array(getattr(want, field)).tobytes()
        # any bijection permutes the count cells, so only the rounding may move
        _, got = scan(bijection)
        assert np.allclose(got.ete, want.ete, rtol=0.0, atol=1e-12)

    def test_rejects_bad_targets(self):
        source = np.ones(20, dtype=int)
        config = fast_config(lag_max=5)
        rng = np.random.default_rng(0)
        with pytest.raises(InvalidArgumentError, match="lengths differ: 20 != 19"):
            best_lag(source, np.ones(19, dtype=int), config, rng)


def _shared_draw_items(data, length, n_items, shuffles, max_targets=3):
    """``(source, targets, config)`` scans of one lag count: random
    alphabets of 1 to 4 symbols, 1 to ``max_targets`` targets each, lag
    ranges starting anywhere."""
    n_lags = data.draw(st.integers(min_value=1, max_value=length - 2))

    def series():
        n = data.draw(st.integers(min_value=1, max_value=4))
        return data.draw(
            st.lists(
                st.integers(min_value=0, max_value=n - 1),
                min_size=length,
                max_size=length,
            )
        )

    items = []
    for _ in range(n_items):
        lag_min = data.draw(st.integers(min_value=1, max_value=length - 1 - n_lags))
        config = PipelineConfig(
            lag_min=lag_min, lag_max=lag_min + n_lags - 1, shuffle_reps=shuffles
        )
        n_targets = data.draw(st.integers(min_value=1, max_value=max_targets))
        items.append((series(), [series() for _ in range(n_targets)], config))
    return items


class TestSharedDraw:
    """Scans of one lag count that share a shuffle draw get the bytes each
    would get alone."""

    @given(
        data=st.data(),
        length=st.integers(min_value=4, max_value=40),
        n_items=st.integers(min_value=1, max_value=4),
        shuffles=st.integers(min_value=0, max_value=5),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=100, deadline=None)
    def test_scan_equals_each_scan_alone(self, data, length, n_items, shuffles, seed):
        items = _shared_draw_items(data, length, n_items, max(shuffles, 1))
        scans = [
            (
                _as_codes(source, "source"),
                [_as_codes(t, "target") for t in targets],
                np.arange(config.lag_min, config.lag_max + 1),
            )
            for source, targets, config in items
        ]
        rng_shared = np.random.default_rng(seed)
        got = _scan_draw(scans, shuffles, rng_shared)
        for (src, tgts, lags), per_target in zip(scans, got):
            for tgt, scan in zip(tgts, per_target):
                rng_own = np.random.default_rng(seed)
                ((want,),) = _scan_draw([(src, [tgt], lags)], shuffles, rng_own)
                assert scan.tobytes() == want.tobytes()
                assert rng_shared.bit_generator.state == rng_own.bit_generator.state


def scan_block_reference(items, seeds):
    """Per item and target, ``(lags, best ETE)`` of every replicate, from one
    ``best_lag`` call per target and replicate on its rows of the blocks,
    each with a fresh generator of the replicate's seed."""
    out = [[([], []) for _ in targets] for _, targets, _ in items]
    for (src, tgts, config), per_item in zip(items, out):
        for tgt, (lags, best) in zip(tgts, per_item):
            for r, seed in enumerate(seeds):
                rng = np.random.default_rng(seed)
                u_hat, profile = best_lag(src[r], tgt[r], config, rng)
                lags.append(u_hat)
                best.append(max(profile.ete))
    return out


def assert_block_equals_reference(items, seeds):
    got = _scan_block(items, [np.random.default_rng(seed) for seed in seeds])
    want = scan_block_reference(items, seeds)
    assert len(got) == len(want)
    for got_item, want_item in zip(got, want):
        assert len(got_item) == len(want_item)
        for (lags, best), (want_lags, want_best) in zip(got_item, want_item):
            assert lags.tolist() == want_lags
            assert best.tobytes() == np.array(want_best).tobytes()


class TestScanBlock:
    """A block scan gives every replicate and target what ``best_lag`` of
    its rows gives it from the replicate's own generator."""

    @given(
        data=st.data(),
        reps=st.integers(min_value=1, max_value=7),
        length=st.sampled_from([6, 9, 14]),
        n_items=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=2**32 - 8),
    )
    @settings(max_examples=60, deadline=None)
    def test_equals_per_replicate_best_lags(self, data, reps, length, n_items, seed):
        # symbols 1-4 at random, so rows lack middle symbols, and lag and
        # shuffle counts at random, so items often need several draws
        def block():
            rows = st.lists(
                st.integers(min_value=1, max_value=4), min_size=length, max_size=length
            )
            return np.array([data.draw(rows) for _ in range(reps)])

        items = []
        for _ in range(n_items):
            lag_max = data.draw(st.integers(min_value=1, max_value=length - 2))
            lag_min = data.draw(st.integers(min_value=1, max_value=lag_max))
            shuffles = data.draw(st.integers(min_value=1, max_value=3))
            config = PipelineConfig(
                lag_min=lag_min, lag_max=lag_max, shuffle_reps=shuffles
            )
            n_targets = data.draw(st.integers(min_value=1, max_value=3))
            items.append((block(), [block() for _ in range(n_targets)], config))
        assert_block_equals_reference(items, range(seed, seed + reps))

    # 400 cells take one replicate per chunk, the full budget all six
    @pytest.mark.parametrize("budget", [400, entropy._COUNT_CELLS])
    def test_missing_middle_symbol_and_two_draw_shapes(self, monkeypatch, budget):
        monkeypatch.setattr(entropy, "_COUNT_CELLS", budget)
        rng = np.random.default_rng(5)
        src, tgt = rng.integers(1, 4, (2, 6, 30))
        tgt[2][tgt[2] == 2] = 3  # replicate 2's target codes to 2 symbols
        assert _as_codes(tgt[2], "target").max() == 1
        config = PipelineConfig(lag_max=6, shuffle_reps=3)
        items = [
            (src, [tgt, src[::-1]], config),
            (tgt, [src], config.with_overrides(lag_min=3, lag_max=8)),
            (src, [tgt], config.with_overrides(shuffle_reps=4)),  # another draw
        ]
        assert_block_equals_reference(items, range(6))

    def test_rejects_blocks_that_are_not_integer(self):
        config = PipelineConfig(lag_max=2, shuffle_reps=1)
        block = np.ones((2, 8))
        with pytest.raises(InvalidArgumentError, match="integer blocks"):
            _scan_block([(block, [block], config)], [np.random.default_rng(0)] * 2)


class TestProductCounts:
    """Every draw counts by matrix products, a block of lags at a time, and
    gives every target the bytes of the per-lag reference loop."""

    @given(
        data=st.data(),
        length=st.integers(min_value=4, max_value=40),
        n_items=st.integers(min_value=1, max_value=3),
        shuffles=st.integers(min_value=0, max_value=6),
        cap=st.sampled_from([1, 40, 300, entropy._COUNT_CELLS]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_each_target_alone(self, data, length, n_items, shuffles, cap, seed):
        items = _shared_draw_items(data, length, n_items, 1, max_targets=4)
        scans = [
            (
                _as_codes(source, "source"),
                [_as_codes(t, "target") for t in targets],
                np.arange(config.lag_min, config.lag_max + 1),
            )
            for source, targets, config in items
        ]
        rng_shared = np.random.default_rng(seed)
        with pytest.MonkeyPatch.context() as mp:
            # a small cap splits the lags into several blocks and passes
            mp.setattr(entropy, "_COUNT_CELLS", cap)
            got = _scan_draw(scans, shuffles, rng_shared)
        for (src, tgts, lags), per_target in zip(scans, got):
            assert len(per_target) == len(tgts)
            for tgt, scan in zip(tgts, per_target):
                rng_ref = np.random.default_rng(seed)
                want = scan_reference(src, tgt, lags, shuffles, rng_ref)
                assert scan.tobytes() == want.tobytes()
                assert rng_shared.bit_generator.state == rng_ref.bit_generator.state

    def test_symbols_split_into_groups_on_long_series(self):
        # 12-bit counts (L - 1 = 2048) leave room for 4 symbols per float,
        # so a 5-symbol source packs its digits into two groups
        rng = np.random.default_rng(3)
        length, lags, shuffles = 2049, np.arange(1, 4), 2
        src = _as_codes(rng.integers(0, 5, length), "source")
        tgts = [_as_codes(rng.integers(0, n, length), "target") for n in (3, 2, 3)]
        assert (length - 1).bit_length() * 5 > entropy._EXACT_BITS
        (got,) = _scan_draw([(src, tgts, lags)], shuffles, np.random.default_rng(8))
        for tgt, scan in zip(tgts, got):
            want = scan_reference(src, tgt, lags, shuffles, np.random.default_rng(8))
            assert scan.tobytes() == want.tobytes()

    def test_corridor_scan_holds_a_few_blocks(self):
        # 30 lags, 50 shuffles: a corridor scan of 6 targets (L=180), and a
        # default one-target scan (L=120); a (lags, 51, L) array of either
        # would take 1.5-2.2 MB on its own
        for length, n_targets in [(180, 6), (120, 1)]:
            rng = np.random.default_rng(0)
            src = _as_codes(rng.integers(0, 3, length), "source")
            tgts = [
                _as_codes(rng.integers(0, 3, length), "target")
                for _ in range(n_targets)
            ]
            scans = [(src, tgts, np.arange(1, 31))]
            tracemalloc.start()
            try:
                _scan_draw(scans, 50, np.random.default_rng(1))
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 8 * entropy._COUNT_CELLS * 8, (length, n_targets)


class TestMaskFreePass:
    """``_te_from_counts`` gives the bytes of the masked pass it replaced."""

    @given(
        n_t=st.integers(min_value=1, max_value=5),
        n_s=st.integers(min_value=1, max_value=5),
        batch=st.integers(min_value=1, max_value=400),
        top=st.sampled_from([1, 3, 40, 1000]),
        fill=st.sampled_from([0.05, 0.3, 1.0]),
        emptied=st.sampled_from([None, "i_{t-1}", "j_{t-u}"]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=200, deadline=None)
    def test_equals_the_masked_pass(self, n_t, n_s, batch, top, fill, emptied, seed):
        rng = np.random.default_rng(seed)
        shape = (batch, n_t, n_t, n_s)
        counts = rng.integers(0, top + 1, shape) * (rng.random(shape) < fill)
        if emptied == "i_{t-1}":
            counts[:, :, rng.integers(n_t)] = 0
        elif emptied == "j_{t-u}":
            counts[..., rng.integers(n_s)] = 0
        counts = counts.astype(float)
        totals = np.maximum(counts.sum(axis=(1, 2, 3)), 1.0)
        with np.errstate(all="raise"):
            got = _te_from_counts(counts, totals)
        want = te_from_counts_masked(counts, totals)
        assert got.tobytes() == want.tobytes()
        assert not np.signbit(got).any()


class TestWorkspace:
    """A scan's block arrays are views of its thread's workspace, reused
    from scan to scan; nothing a scan returns is one."""

    @staticmethod
    def _scans(length, alphabets, seed, n_scans=1):
        """``n_scans`` scans of 12 lags, one target per target alphabet size."""
        rng = np.random.default_rng(seed)
        return [
            (
                _as_codes(rng.integers(0, 4, length), "source"),
                [_as_codes(rng.integers(0, n, length), "target") for n in alphabets],
                np.arange(1, 13),
            )
            for _ in range(n_scans)
        ]

    @staticmethod
    def _in_new_thread(fn, *args):
        with ThreadPoolExecutor(1) as thread:
            return thread.submit(fn, *args).result(timeout=120)

    def test_results_do_not_alias_it(self):
        first = _scan_draw(self._scans(120, [4], 0), 20, np.random.default_rng(1))
        kept = [[scan.copy() for scan in per_target] for per_target in first]
        # two scans of mixed target alphabets: every slot is written again,
        # the pass's copy slot too, and the larger shape grows some slots
        _scan_draw(self._scans(180, [2, 3, 3], 2, 2), 50, np.random.default_rng(3))
        slots = list(entropy._WORKSPACE.__dict__.values())
        assert "batch" in entropy._WORKSPACE.__dict__
        for per_target, per_kept in zip(first, kept):
            for scan, want in zip(per_target, per_kept):
                assert scan.tobytes() == want.tobytes()
                assert not any(np.shares_memory(scan, slot) for slot in slots)

    def test_a_repeated_scan_reuses_it(self):
        def slots_after_two_scans():
            scans = self._scans(120, [3, 4], 0)
            _scan_draw(scans, 50, np.random.default_rng(1))
            first = dict(entropy._WORKSPACE.__dict__)
            _scan_draw(scans, 50, np.random.default_rng(2))
            return first, dict(entropy._WORKSPACE.__dict__)

        first, second = self._in_new_thread(slots_after_two_scans)
        assert first.keys() == second.keys()
        assert all(second[name] is buf for name, buf in first.items())

    def test_keeps_nothing_above_the_budget(self, monkeypatch):
        # at 40 cells one lag alone outgrows every block: each array is
        # fresh, and no slot holds more than the budget
        monkeypatch.setattr(entropy, "_COUNT_CELLS", 40)
        scans = self._scans(60, [3], 0)

        def slot_sizes():
            got = _scan_draw(scans, 5, np.random.default_rng(1))
            return got, {n: b.nbytes for n, b in entropy._WORKSPACE.__dict__.items()}

        got, sizes = self._in_new_thread(slot_sizes)
        assert all(size <= 8 * 40 for size in sizes.values())
        monkeypatch.undo()
        want = _scan_draw(scans, 5, np.random.default_rng(1))
        assert [a.tobytes() for a in got[0]] == [a.tobytes() for a in want[0]]

    def test_threads_scanning_at_once_get_serial_bytes(self):
        shapes = [self._scans(120, [4], 0), self._scans(180, [2, 3, 3], 1, 2)]

        def scan(k):
            return [
                _scan_draw(shapes[k % 2], 50, np.random.default_rng(k))
                for _ in range(3)
            ]

        def as_bytes(runs):
            return [[a.tobytes() for per in run for a in per] for run in runs]

        want = [as_bytes(scan(k)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(4) as threads:
                got = list(threads.map(scan, range(8), timeout=300))
        finally:
            sys.setswitchinterval(interval)
        assert [as_bytes(runs) for runs in got] == want


class TestArgumentChecks:
    """Bad arguments raise ``InvalidArgumentError``, not a raw numpy or
    Python error, and a bool is no integer."""

    SERIES = np.array([1, 2, 1, 3, 2, 1, 2, 3, 1, 2])

    @pytest.mark.parametrize("u", [2.5, True])
    def test_transfer_entropy_lag(self, u):
        with pytest.raises(InvalidArgumentError, match="integer"):
            transfer_entropy(self.SERIES, self.SERIES, u)

    @pytest.mark.parametrize("u", [2.5, True])
    def test_effective_transfer_entropy_lag(self, u):
        with pytest.raises(InvalidArgumentError, match="integer"):
            effective_transfer_entropy(
                self.SERIES, self.SERIES, u, shuffles=2, rng=np.random.default_rng(0)
            )

    @pytest.mark.parametrize("shuffles", [2.5, True])
    def test_effective_transfer_entropy_shuffles(self, shuffles):
        with pytest.raises(InvalidArgumentError, match="shuffles"):
            effective_transfer_entropy(
                self.SERIES,
                self.SERIES,
                1,
                shuffles=shuffles,
                rng=np.random.default_rng(0),
            )

    @pytest.mark.parametrize("rng", [5, np.random.RandomState(0)])
    def test_effective_transfer_entropy_rng(self, rng):
        with pytest.raises(InvalidArgumentError, match="Generator"):
            effective_transfer_entropy(self.SERIES, self.SERIES, 1, shuffles=2, rng=rng)

    @pytest.mark.parametrize("rng", [None, 5, np.random.RandomState(0)])
    def test_best_lag_rng(self, rng):
        config = PipelineConfig(lag_max=5, shuffle_reps=2)
        with pytest.raises(InvalidArgumentError, match="Generator"):
            best_lag(self.SERIES, self.SERIES, config, rng)

    def test_shannon_entropy_of_strings(self):
        with pytest.raises(InvalidArgumentError, match="numbers"):
            shannon_entropy(["a"])

    @pytest.mark.parametrize("probabilities", [[np.nan], [1.0, np.nan], [np.inf]])
    def test_shannon_entropy_non_finite(self, probabilities):
        with pytest.raises(InvalidArgumentError, match="finite"):
            shannon_entropy(probabilities)

    BAD_SYMBOLS = {
        "nan": [np.nan] + [1.0] * 9,
        "inf": [np.inf] + [1.0] * 9,
        "huge": [1e30] + [1.0] * 9,
        "half": [1.5] + [1.0] * 9,
        "string": ["a", "b"] * 5,
        "none": [None] + [1] * 9,
    }

    @pytest.mark.parametrize("symbols", BAD_SYMBOLS.values(), ids=BAD_SYMBOLS)
    def test_transfer_entropy_symbols(self, symbols):
        # rejected before any cast, so no RuntimeWarning and no raw error
        with pytest.raises(InvalidArgumentError, match="integer symbols"):
            transfer_entropy(symbols, self.SERIES, 1)
        with pytest.raises(InvalidArgumentError, match="integer symbols"):
            transfer_entropy(self.SERIES, symbols, 1)

    def test_integer_valued_floats_keep_their_codes(self):
        floats = self.SERIES.astype(float) * 2.0 - 3.0
        assert _as_codes(floats, "source").tobytes() == _as_codes(
            self.SERIES, "source"
        ).tobytes()
        assert transfer_entropy(floats, self.SERIES, 2) == transfer_entropy(
            self.SERIES, self.SERIES, 2
        )

    def test_bad_symbols_fail_their_item_alone(self):
        # a bad symbol on either side raises before anything is drawn
        config = PipelineConfig(lag_max=3, shuffle_reps=2)
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        bad = self.BAD_SYMBOLS["nan"]
        for pair in ((self.SERIES, bad), (bad, self.SERIES)):
            with pytest.raises(InvalidArgumentError, match="integer symbols"):
                best_lag(*pair, config, rng)
            assert rng.bit_generator.state == state


def coupled_pair(u0, length, rng, drive=0.3, keep=0.3):
    """A Markov coupling of target history 1: each target symbol copies the
    source ``u0`` steps back with probability ``drive``, else repeats the
    previous target symbol with probability ``keep``, else is uniform noise.
    The source is uniform on three symbols."""
    source = rng.integers(0, 3, length)
    target = rng.integers(0, 3, length)
    draw = rng.random(length)
    for t in range(u0, length):
        if draw[t] < drive:
            target[t] = source[t - u0]
        elif draw[t] < drive + keep:
            target[t] = target[t - 1]
    return source, target


class TestDelayReconstruction:
    """Wibral et al. (PLoS ONE 8:e55809, 2013): the lag that maximizes TE
    recovers the coupling delay."""

    def test_ete_argmax_recovers_u0(self):
        config = PipelineConfig(lag_max=16, shuffle_reps=10)
        hits = draws = 0
        for u0 in (2, 5, 9, 14):
            for seed in range(50):
                rng = np.random.default_rng([seed, u0])
                source, target = coupled_pair(u0, 300, rng)
                u_hat, _ = best_lag(source, target, config, np.random.default_rng(seed))
                hits += u_hat == u0
                draws += 1
        assert hits >= 0.95 * draws


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
