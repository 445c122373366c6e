"""Randomized search for value sets whose mean has several inflection points.

Pairs and triples always have exactly one, so anything interesting needs
n >= 4. Tight clusters of values near 1 with a single smaller outlier are
where extra inflection points show up, hence the cluster sampler default.

Draws are deterministic per (seed, trial): each trial seeds its own
generator, so trial k is reproducible without replaying trials 0..k-1.
Trials are scanned together, _SCAN_CHUNK at a time (see
inflection._scan_many); a trial's report does not depend on its chunk.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import MeanSpec, make_spec
from .errors import UsageError
from .inflection import InflectionReport, ScanConfig, _scan_many
from .inflection import find_inflections  # noqa: F401  -- perfbench/spans.py traces scans by this name


__all__ = [
    "LogUniform",
    "Cluster",
    "SearchConfig",
    "SearchHit",
    "random_instance",
    "search_multi_inflection",
]

_SCAN_CHUNK = 64  # trials scanned together


@dataclass(frozen=True)
class LogUniform:
    """Values exp(U(log lo, log hi)): scale-free spread over [lo, hi]."""

    lo: float = 0.1
    hi: float = 10.0

    def __post_init__(self):
        if not (0.0 < self.lo < self.hi):
            raise UsageError("need 0 < lo < hi")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.exp(rng.uniform(np.log(self.lo), np.log(self.hi), n))


@dataclass(frozen=True)
class Cluster:
    """n-1 values from a truncated normal around center plus one outlier.

    Normal draws beyond three spreads (or nonpositive) are redrawn; the
    uniform outlier is appended last.
    """

    center: float = 1.025
    spread: float = 0.002
    outlier_lo: float = 0.9
    outlier_hi: float = 0.99

    def __post_init__(self):
        if not self.spread > 0.0:
            raise UsageError("spread must be positive")
        if not (0.0 < self.outlier_lo < self.outlier_hi):
            raise UsageError("need 0 < outlier_lo < outlier_hi")
        if self.center - 3.0 * self.spread <= 0.0:
            raise UsageError("cluster must stay positive within three spreads")

    def draw(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n < 2:
            raise UsageError("cluster draws need n >= 2")
        body = []
        while len(body) < n - 1:
            v = float(rng.normal(self.center, self.spread))
            if v > 0.0 and abs(v - self.center) <= 3.0 * self.spread:
                body.append(v)
        body.append(float(rng.uniform(self.outlier_lo, self.outlier_hi)))
        return np.asarray(body)


@dataclass(frozen=True)
class SearchConfig:
    n: int = 4
    trials: int = 1000
    seed: int = 0
    values: LogUniform | Cluster = field(default_factory=Cluster)
    min_roots: int = 3
    scan: ScanConfig = field(default_factory=ScanConfig)
    pinned_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.n, int) or isinstance(self.n, bool) or self.n < 2:
            raise UsageError(f"need an integer n >= 2, got {self.n!r}")
        if not isinstance(self.trials, int) or self.trials < 1:
            raise UsageError("trials must be a positive integer")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise UsageError("seed must be a nonnegative integer")
        if not isinstance(self.min_roots, int) or self.min_roots < 1:
            raise UsageError("min_roots must be a positive integer")
        if self.pinned_values is not None:
            object.__setattr__(self, "pinned_values", tuple(float(v) for v in self.pinned_values))


@dataclass(frozen=True)
class SearchHit:
    spec: MeanSpec
    report: InflectionReport
    trial_index: int


def random_instance(config: SearchConfig, trial: int) -> MeanSpec:
    """The value set examined at a given trial index."""
    if not isinstance(trial, int) or trial < 0:
        raise UsageError("trial must be a nonnegative integer")
    if config.pinned_values is not None:
        return make_spec(config.pinned_values)
    rng = np.random.default_rng((config.seed, trial))
    return make_spec(config.values.draw(rng, config.n).tolist())


def search_multi_inflection(config: SearchConfig) -> list[SearchHit]:
    """All trials whose mean has at least min_roots inflection points, in trial order.

    Trials where the scan finds nothing (constant specs after merging) or
    exhausts its range do not count as hits.
    """
    hits: list[SearchHit] = []
    for start in range(0, config.trials, _SCAN_CHUNK):
        trials = range(start, min(start + _SCAN_CHUNK, config.trials))
        specs = [random_instance(config, trial) for trial in trials]
        for trial, spec, outcome in zip(trials, specs, _scan_many(specs, config.scan)):
            if isinstance(outcome, InflectionReport) and len(outcome.roots) >= config.min_roots:
                hits.append(SearchHit(spec=spec, report=outcome, trial_index=trial))
    return hits
