"""Wall-clock comparison of two-step vs direct weighted edge sampling.

Each run draws the same number of edges through both paths with derived
per-run seeds.  Times are reported in milliseconds at microsecond
resolution; the headline number is the ratio of medians.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from statistics import median

from .errors import ConfigError
from .graphstore import Graph, SpanningSubgraph, build_propagation
from .sampler import SampleRequest, direct_sample, make_weights, two_step_sample
from .seeding import derive_seed


@dataclass
class BenchReport:
    two_step_ms: list[float]
    direct_ms: list[float]

    @property
    def median_two_step_ms(self) -> float:
        return median(self.two_step_ms)

    @property
    def median_direct_ms(self) -> float:
        return median(self.direct_ms)

    @property
    def speedup(self) -> float:
        fast = self.median_two_step_ms
        return self.median_direct_ms / fast if fast > 0 else float("inf")


def bench_sampling(g: Graph, sampler_kind: str, s1: int, s2: int,
                   runs: int = 9, seed: int = 0) -> BenchReport:
    """Time ``runs`` repetitions of each sampler at equal selection size."""
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    if not (0 < s2 <= s1 <= g.num_edges):
        raise ConfigError(f"need 0 < s2 <= s1 <= |E|, got s1={s1}, s2={s2}, "
                          f"|E|={g.num_edges}")
    if sampler_kind == "gnr":
        p_full = build_propagation(SpanningSubgraph.full(g), "gcn-symmetric")
        probs = make_weights(sampler_kind, g, p_full)
    else:
        probs = make_weights(sampler_kind, g)

    # one untimed warmup per path so allocator effects hit neither side
    two_step_sample(g, probs, SampleRequest(s1, s2, derive_seed(seed, "warm", 0)))
    direct_sample(g, probs, s2, derive_seed(seed, "warm", 1))

    two_step_ms: list[float] = []
    direct_ms: list[float] = []
    for run in range(runs):
        req = SampleRequest(s1, s2, derive_seed(seed, run, "two-step"))
        t0 = time.perf_counter_ns()
        two_step_sample(g, probs, req)
        t1 = time.perf_counter_ns()
        two_step_ms.append((t1 - t0) / 1e6)

        t0 = time.perf_counter_ns()
        direct_sample(g, probs, s2, derive_seed(seed, run, "direct"))
        t1 = time.perf_counter_ns()
        direct_ms.append((t1 - t0) / 1e6)
    return BenchReport(two_step_ms=two_step_ms, direct_ms=direct_ms)
