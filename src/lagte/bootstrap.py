"""First-order Markov bootstrap for residual series.

The residual of a decomposed series is treated as a stationary chain over
a small discrete state space.  Fitting estimates the state occupation
probabilities and the one-step transition matrix from observed counts;
sampling walks the fitted chain and materializes each visited state as a
uniform draw from the residual values observed in that state.  Adding the
walk back onto a trend produces a bootstrap speed series that preserves
the marginal residual distribution and its first-order serial dependence.

Residuals are continuous, so the state space is built by equal-frequency
binning into ``n_states`` bins; regenerating values from per-bin pools
keeps the bootstrap marginal faithful to the data instead of to bin
midpoints.
"""

from __future__ import annotations

import warnings
from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple, Union

import numpy as np

from .core import (
    InvalidArgumentError,
    SpeedSeries,
    _as_floats,
    _check_int,
    _check_rng,
)

__all__ = ["MarkovModel", "fit_markov", "sample_bootstrap_series"]


@dataclass(frozen=True)
class MarkovModel:
    """A fitted finite-state chain over residual values.

    Fields
    ------
    edges : ndarray, shape (n_states + 1,)
        Bin edges of the equal-frequency state partition; state ``i``
        covers ``[edges[i], edges[i+1])`` with the last bin closed.
    pi_hat : ndarray, shape (n_states,)
        State occupation frequencies over all samples; sums to 1.
    p_hat : ndarray, shape (n_states, n_states)
        Row-stochastic transition matrix estimated from consecutive pairs.
        Rows flagged unreachable are all-zero placeholders.
    pools : tuple of ndarray
        Observed residual values per state; nonempty for every state that
        occurs in the data.
    unreachable : ndarray of bool, shape (n_states,)
        True for states with no observed outgoing transition (never
        visited, or visited only at the final sample).  A walk landing on
        such a state restarts from ``pi_hat``.
    """

    edges: np.ndarray
    pi_hat: np.ndarray
    p_hat: np.ndarray
    pools: Tuple[np.ndarray, ...]
    unreachable: np.ndarray

    def __post_init__(self):
        for name in ("edges", "pi_hat", "p_hat", "unreachable"):
            arr = np.asarray(getattr(self, name))
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        pools = tuple(np.asarray(p, dtype=float) for p in self.pools)
        for pool in pools:
            pool.flags.writeable = False
        object.__setattr__(self, "pools", pools)

    @property
    def n_states(self) -> int:
        return self.pi_hat.size


def fit_markov(residuals: Sequence[float], n_states: int) -> MarkovModel:
    """Fit a first-order chain to a residual series.

    States are equal-frequency bins of the residual values.  Occupation
    frequencies count all ``L`` samples; transition rows count the
    ``L - 1`` consecutive pairs, normalized by visits to the departing
    state within those pairs.

    Parameters
    ----------
    residuals : sequence of float
        At least two finite values.
    n_states : int
        Requested state count, at least 1.  When it exceeds the number of
        distinct residual values it is reduced to that number with a
        warning.

    Returns
    -------
    MarkovModel
    """
    values = _as_floats(residuals, "residuals", min_size=2, finite=True)
    _check_int(n_states, "n_states", 1)
    distinct = np.unique(values).size
    if n_states > distinct:
        warnings.warn(
            f"requested {n_states} states but only {distinct} distinct residual "
            f"values exist: reducing the state count to {distinct}",
            stacklevel=2,
        )
        n_states = distinct

    length = values.size
    # equal-frequency binning that respects ties: every occurrence of a
    # value lands in one state, chosen by the midpoint of the value's share
    # of the cumulative distribution
    uniq, counts = np.unique(values, return_counts=True)
    cum_frac = np.cumsum(counts) / length
    mids = cum_frac - counts / (2.0 * length)
    value_state = np.minimum((mids * n_states).astype(np.int64), n_states - 1)
    states = value_state[np.searchsorted(uniq, values)]
    edges = np.empty(n_states + 1)
    edges[0], edges[-1] = uniq[0], uniq[-1]
    for i in range(1, n_states):
        k = int(np.searchsorted(value_state, i, side="left"))
        edges[i] = uniq[k] if k < uniq.size else uniq[-1]

    occupation = np.bincount(states, minlength=n_states)
    pi_hat = occupation / length

    trans = np.bincount(
        states[:-1] * n_states + states[1:], minlength=n_states * n_states
    ).reshape(n_states, n_states)
    visits = trans.sum(axis=1)
    unreachable = visits == 0
    p_hat = np.zeros((n_states, n_states))
    np.divide(trans, visits[:, None], out=p_hat, where=~unreachable[:, None])

    order = np.argsort(states, kind="stable")
    boundaries = np.searchsorted(states[order], np.arange(n_states + 1))
    pools = tuple(
        values[order[boundaries[i] : boundaries[i + 1]]].copy()
        for i in range(n_states)
    )
    return MarkovModel(
        edges=edges,
        pi_hat=pi_hat,
        p_hat=p_hat,
        pools=pools,
        unreachable=unreachable,
    )


def sample_bootstrap_series(
    model: MarkovModel,
    trend: Sequence[float],
    length: int,
    rng: np.random.Generator,
    diagnostics: Optional[dict] = None,
) -> SpeedSeries:
    """Generate one bootstrap speed series from a fitted chain and a trend.

    The walk starts from a state drawn from ``pi_hat`` and advances through
    ``p_hat``; a step departing from an unreachable state redraws from
    ``pi_hat`` instead.  Each visited state then materializes as a uniform
    draw from that state's residual pool, and the result is added to the
    trend sample by sample.

    Parameters
    ----------
    model : MarkovModel
    trend : sequence of float
        Exactly ``length`` samples.
    length : int
        Number of samples to generate.
    rng : numpy.random.Generator
    diagnostics : dict, optional
        When given, ``diagnostics["restarts"]`` receives the number of
        mid-walk restarts from ``pi_hat``.

    Returns
    -------
    SpeedSeries
        ``trend[t] + residual_walk[t]`` per sample.
    """
    _check_int(length, "length", 1)
    _check_rng(rng)
    trend_arr = _as_floats(trend, "trend")
    if trend_arr.size != length:
        raise InvalidArgumentError(
            f"trend length {trend_arr.size} must equal the requested length {length}"
        )

    # pinning the cumulative tails to exactly 1.0 keeps sub-ulp rounding of
    # the partial sums from ever selecting past the last state
    cum_pi = np.cumsum(model.pi_hat)
    cum_pi[-1] = 1.0
    cum_rows = np.cumsum(model.p_hat, axis=1)
    cum_rows[:, -1] = 1.0
    # the walk is inherently sequential; bisect on Python lists costs a
    # fraction of a per-step np.searchsorted call and compares the same doubles
    cum_pi = cum_pi.tolist()
    unreachable = model.unreachable.tolist()
    tables = [
        cum_pi if dead else row for dead, row in zip(unreachable, cum_rows.tolist())
    ]
    uniforms = rng.random(length).tolist()
    path = [bisect_right(cum_pi, uniforms[0])]
    restarts = 0
    state = path[0]
    for x in uniforms[1:]:
        restarts += unreachable[state]
        state = bisect_right(tables[state], x)
        path.append(state)
    states = np.array(path, dtype=np.int64)

    # one draw per step, listed state by state in time order: one
    # rng.integers call with per-draw bounds consumes the same stream as a
    # call per visited state, and the draws index the concatenated pools
    sizes = np.array([pool.size for pool in model.pools])
    order = np.argsort(states, kind="stable")
    visited = states[order]
    picks = rng.integers(0, sizes[visited])
    picks += (np.cumsum(sizes) - sizes)[visited]
    residual = np.empty(length)
    residual[order] = np.concatenate(model.pools)[picks]

    if diagnostics is not None:
        diagnostics["restarts"] = restarts
    return SpeedSeries(trend_arr + residual)
