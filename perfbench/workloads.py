"""The four benchmark workloads: seeded inputs and one CLI-shaped command each.

A workload turns a seed into a *deck*: a fixed list of command inputs, one
per CLI invocation it imitates.  ``run`` executes one command with the same
public ``lagte`` calls and worker count as the matching subcommand and returns
one ``Op`` per operation (an estimate, a grid cell or a hop).  Every lagte
function is looked up through its module at call time, so the tracer in
``tracing.py`` can wrap it without touching ``src/lagte``.

A run times commands from the deck of its own seed.  It also runs the first
``reference`` commands of the seed-0 deck once, untimed, as a warm-up; their
lags give ``mae_lag``, so that the accuracy figure is exact and comparable
between runs whatever the seed.  (Per-seed accuracy is too noisy for that:
over 8 seeds, the quartile spread of a 48-hop corridor_paths deck was 58% of
its median.)
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from datetime import datetime, timedelta
from pathlib import Path
from typing import List, Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class Op:
    """One operation of a command: its bootstrap lags, or why it failed."""

    label: str
    lags: Optional[Tuple[int, ...]]
    truth: int
    error: Optional[str] = None


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed for deck item ``key`` of workload seed ``seed``."""
    ss = np.random.SeedSequence(seed, spawn_key=key)
    return int(ss.generate_state(1, dtype=np.uint64)[0])


@dataclass(frozen=True)
class Workload:
    """Shape shared by all workloads; subclasses supply ``setup`` and ``run``.

    ``deck`` is the number of commands made from one seed, ``reference`` the
    number of seed-0 commands behind ``mae_lag``, ``boot_reps`` the B of
    every estimate.  The remaining fields are recorded with each result.
    """

    name: str
    why: str
    workers: int
    deck: int
    reference: int
    boot_reps: int
    shuffle_reps: int
    lag_min: int
    lag_max: int
    length: int
    window: object
    norm_method: str

    def config(self, seed: int):
        from lagte.core import PipelineConfig

        return PipelineConfig(
            boot_reps=self.boot_reps,
            shuffle_reps=self.shuffle_reps,
            lag_min=self.lag_min,
            lag_max=self.lag_max,
            window=self.window,
            norm_method=self.norm_method,
            seed=seed,
        )

    def shape(self) -> dict:
        return {
            "B": self.boot_reps,
            "S": self.shuffle_reps,
            "L": self.length,
            "lags": [self.lag_min, self.lag_max],
            "window": self.window,
            "norm_method": self.norm_method,
            "workers": self.workers,
            "deck": self.deck,
            "reference": self.reference,
        }

    def smoke(self) -> "Workload":
        """A tiny version for the self-test: one command, B=2."""
        return replace(self, deck=1, reference=1, boot_reps=2)

    def setup(self, seed: int, workdir: Path) -> list:
        raise NotImplementedError

    def run(self, command, workers: int) -> List[Op]:
        raise NotImplementedError


def _pair(u0: int, noise: float, length: int, seed: int):
    from lagte import simulate

    return simulate.generate_pair(
        simulate.SimSpec(u0=u0, noise_sigma=noise, length=length, seed=seed)
    )


class SimulateDefault(Workload):
    """``lagte simulate --u0 10``: one pair, paper defaults, one process."""

    U0 = 10

    def setup(self, seed, workdir):
        deck = []
        for i in range(self.deck):
            pair_seed = derive_seed(seed, i)
            deck.append((_pair(self.U0, 1.0, self.length, pair_seed), pair_seed))
        return deck

    def run(self, command, workers):
        from lagte import estimator

        (source, target), pair_seed = command
        sample = estimator.estimate_delay(
            source, target, self.config(pair_seed), workers=workers
        )
        return [Op("estimate", sample.lags, self.U0)]


class WindowGrid(Workload):
    """``lagte grid-search``: lengths x windows on one pair."""

    U0 = 6
    LENGTHS = (120, 240)
    WINDOWS = (10, 40, "full")

    def setup(self, seed, workdir):
        deck = []
        for i in range(self.deck):
            pair_seed = derive_seed(seed, i)
            deck.append((_pair(self.U0, 1.0, self.length, pair_seed), pair_seed))
        return deck

    def run(self, command, workers):
        from lagte import estimator

        (source, target), pair_seed = command
        result = estimator.grid_search(
            source,
            target,
            self.config(pair_seed),
            self.LENGTHS,
            self.WINDOWS,
            workers=workers,
        )
        ops = [
            Op(f"cell {length}/{window}", sample.lags, self.U0)
            for (length, window), sample in zip(result.grid, result.samples)
        ]
        ops += [
            Op(f"cell {length}/{window}", None, self.U0, f"skipped: {reason}")
            for (length, window), reason in result.skipped
        ]
        return ops


class BatchRaw(Workload):
    """``lagte batch-sim --method none``: lags x noises x replicates."""

    LAGS = (5, 10)
    NOISES = (0.5, 1.0)
    REPLICATES = 2

    def setup(self, seed, workdir):
        return [derive_seed(seed, i) for i in range(self.deck)]

    def run(self, command, workers):
        from lagte import simulate

        # run_batch keeps only per-cell aggregates, so record each estimate's
        # lags on the way out.  Calls happen in (lag, noise, replicate) order.
        calls = []
        inner = simulate.estimate_delay

        def recording(*args, **kwargs):
            try:
                sample = inner(*args, **kwargs)
            except Exception as exc:
                calls.append(exc)
                raise
            calls.append(sample)
            return sample

        simulate.estimate_delay = recording
        try:
            simulate.run_batch(
                self.LAGS,
                self.NOISES,
                (self.norm_method,),
                (self.window,),
                self.REPLICATES,
                self.config(command),
                length=self.length,
                workers=workers,
            )
        finally:
            simulate.estimate_delay = inner
        truths = [u0 for u0 in self.LAGS for _ in self.NOISES for _ in range(self.REPLICATES)]
        ops = []
        for i, (truth, call) in enumerate(zip(truths, calls)):
            if isinstance(call, Exception):
                ops.append(Op(f"estimate {i}", None, truth, f"error: {call}"))
            else:
                ops.append(Op(f"estimate {i}", call.lags, truth))
        ops += [
            Op(f"estimate {i}", None, truth, "not run")
            for i, truth in enumerate(truths[len(calls) :], start=len(calls))
        ]
        return ops


class CorridorPaths(Workload):
    """``lagte path-analyze --format json``: two 3-hop paths from one incident road.

    Each command reads its own CSV of ``ROADS`` roads, ``MINUTES`` minutes
    long.  The incident road drives six downstream roads on two paths with
    known cumulative delays; the other roads are unrelated noise.  Hops are
    not consecutive, so every hop re-does the incident road's source work.
    """

    ROADS = 32
    MINUTES = 240
    DELAYS = (4, 9, 15, 6, 12, 19)  # true delay of each path road from the incident road
    INCIDENT_MINUTE = 90
    BEFORE, AFTER = 60.0, 120.0
    START = datetime(2024, 3, 1, 5, 0)

    def setup(self, seed, workdir):
        deck = []
        for i in range(self.deck):
            rng = np.random.default_rng(derive_seed(seed, i))
            text, paths, truth = self._corpus(rng)
            csv_path = workdir / f"{self.name}-{seed}-{i}.csv"
            spec_path = workdir / f"{self.name}-{seed}-{i}.json"
            csv_path.write_text(text, encoding="utf-8")
            incident_time = self.START + timedelta(minutes=self.INCIDENT_MINUTE)
            spec = {
                "incident": {"road": paths[0][0], "time": incident_time.isoformat()},
                "paths": paths,
            }
            spec_path.write_text(json.dumps(spec), encoding="utf-8")
            deck.append((csv_path, spec_path, truth, derive_seed(seed, i, 1)))
        return deck

    def _corpus(self, rng):
        """CSV text, the two paths and each path road's true delay."""
        n = self.MINUTES
        names = [f"N{k:02d}" for k in range(self.ROADS)]
        paths = [names[0:4], [names[0]] + names[4:7]]
        truth = dict(zip(paths[0][1:] + paths[1][1:], self.DELAYS))
        # The incident road holds level, decays from 15 minutes into the
        # analysis window and recovers late, as in the package's own chain
        # fixtures; followers copy it at their delay through an affine map.
        window_start = self.INCIDENT_MINUTE - int(self.BEFORE)
        decay_at, growth_at = window_start + 15, window_start + 142
        eps = rng.normal(0.0, 1.0, (self.ROADS, n))
        x = np.empty(n)
        for t in range(n):
            if t < decay_at:
                x[t] = 100.0 + eps[0, t]
            elif t < growth_at:
                x[t] = 0.95 * x[t - 1] + eps[0, t]
            else:
                x[t] = 1.10 * x[t - 1] + eps[0, t]
        series = {names[0]: x}
        for k, road in enumerate(names[1:], start=1):
            if road in truth:
                lagged = np.concatenate((np.full(truth[road], 100.0), x))[:n]
                y = np.where(
                    np.arange(n) < decay_at, 70.0, 0.5 * lagged + 20.0
                ) + eps[k]
            else:
                y = 60.0 + np.cumsum(eps[k]) * 0.5
            series[road] = y
        lines = ["timestamp,road_id,speed_kmh"]
        for t in range(n):
            stamp = (self.START + timedelta(minutes=t)).isoformat()
            lines.extend(f"{stamp},{road},{series[road][t]:.6f}" for road in names)
        return "\n".join(lines) + "\n", paths, truth

    def run(self, command, workers):
        from lagte import network

        csv_path, spec_path, truth, config_seed = command
        series = network.load_speed_csv(csv_path)
        road, when, paths = network.load_path_spec(spec_path)
        net = network.RoadNetworkInput(series=series, incident=(road, when), paths=paths)
        reports = network.analyze_paths(
            net,
            self.config(config_seed),
            max_hops=3,
            workers=workers,
            before_minutes=self.BEFORE,
            after_minutes=self.AFTER,
        )
        network.emit_report(reports, format="json")
        ops = []
        for report in reports:
            for hop in report.hops:
                label = f"hop {hop.source}->{hop.target}"
                if hop.error is not None:
                    ops.append(Op(label, None, truth[hop.target], f"error: {hop.error}"))
                else:
                    ops.append(Op(label, hop.sample.lags, truth[hop.target]))
        return ops


WORKLOADS = {
    w.name: w
    for w in (
        SimulateDefault(
            name="simulate_default",
            why="plain single-process baseline at the paper defaults; "
            "normalize and the lag scan split the time",
            workers=1,
            deck=16,
            reference=12,
            boot_reps=10,
            shuffle_reps=50,
            lag_min=1,
            lag_max=30,
            length=120,
            window=20,
            norm_method="nonlinear",
        ),
        WindowGrid(
            name="window_grid",
            why="grid search over lengths and windows; window statistics "
            "dominate and the short lag scan barely shows",
            workers=2,
            deck=4,
            reference=2,
            boot_reps=20,
            shuffle_reps=10,
            lag_min=1,
            lag_max=12,
            length=240,
            window=20,
            norm_method="nonlinear",
        ),
        BatchRaw(
            name="batch_raw",
            why="batch study with normalization off; the lag scan and "
            "per-estimate fixed cost, one pool per estimate, dominate",
            workers=2,
            deck=4,
            reference=3,
            boot_reps=10,
            shuffle_reps=50,
            lag_min=1,
            lag_max=30,
            length=120,
            window=20,
            norm_method="none",
        ),
        CorridorPaths(
            name="corridor_paths",
            why="CSV load, 3-hop path analysis from one incident road and a "
            "JSON report; the only workload that exercises network",
            workers=2,
            deck=4,
            reference=2,
            boot_reps=10,
            shuffle_reps=50,
            lag_min=1,
            lag_max=30,
            length=180,
            window=20,
            norm_method="nonlinear",
        ),
    )
}
