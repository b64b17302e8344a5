"""The benchmark's workloads and the inputs each regenerates from its seed.

See README.md for why each workload exists and which metrics it moves.
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from spangraph.runner import RunConfig
from spangraph.synthetic import GeneratorSpec, generate_synthetic


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    Training workloads set ``run`` (RunConfig fields besides the data
    source and seed); the sampling workload leaves it empty and sets
    ``schedule`` instead.  ``peak_epochs`` is the length of the untimed
    tracemalloc pass.  Every timed run or schedule has at least 30 epochs.
    ``calibrated`` workloads report their timings in calibrated seconds
    (see metronome.py): those whose data fits in the CPU's caches, so that
    their speed follows the reference kernels'.
    """

    name: str
    data: dict
    run: dict = field(default_factory=dict)
    schedule: dict = field(default_factory=dict)
    acc_floor: float = 0.0
    peak_epochs: int = 0
    calibrated: bool = False

    @property
    def trains(self) -> bool:
        return bool(self.run)

    @property
    def on_disk(self) -> bool:
        return self.data.get("kind") == "preferential-attachment"

    def spec(self, seed: int) -> GeneratorSpec:
        return GeneratorSpec(seed=seed, **self.data)

    def config(self, seed: int, data_dir: str | None = None) -> RunConfig:
        source = dict(data_dir=data_dir) if data_dir else dict(generator=self.spec(seed))
        return RunConfig(seed=seed, timings=False, **source, **self.run)


PA50K = dict(kind="preferential-attachment", nodes=50_000, classes=4,
             feature_dim=16, attach=8)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="desk-sbm",
        data=dict(kind="sbm", nodes=2000, classes=4, feature_dim=16,
                  p_in=0.015, p_out=0.0015, feature_noise=3.0),
        run=dict(model="gcn", hidden_dim=32, learning_rate=0.3, epochs=150,
                 baseline="spangnn", sampler_kind="vm", alpha_up=0.5, beta=0.1),
        acc_floor=0.85, peak_epochs=150, calibrated=True,
    ),
    Workload(
        name="pa50k-gnr",
        data=PA50K,
        run=dict(model="gcn", hidden_dim=64, learning_rate=0.2, epochs=30,
                 baseline="spangnn", sampler_kind="gnr", alpha_up=0.25, beta=0.1),
        acc_floor=0.4, peak_epochs=12,
    ),
    Workload(
        name="pa50k-full-sage",
        data=PA50K,
        run=dict(model="sage", hidden_dim=32, learning_rate=0.2, epochs=30,
                 baseline="full"),
        acc_floor=0.9, peak_epochs=3,
    ),
    Workload(
        name="sample-1m",
        data=dict(nodes=200_000, edges=1_000_000),
        schedule=dict(alpha_up=0.02, beta=0.1, s1=10_000, s2=1_000, epochs=100),
        peak_epochs=100,
    ),
)}


def dataset_dir(w: Workload, seed: int, cache: Path) -> str:
    """Write the workload's dataset under ``cache`` once; return its path."""
    spec = w.spec(seed)
    final = cache / (f"pa{spec.nodes}-a{spec.attach}-c{spec.classes}"
                     f"-f{spec.feature_dim}-s{seed}")
    if not final.is_dir():
        tmp = cache / f"tmp-{os.getpid()}-{final.name}"
        shutil.rmtree(tmp, ignore_errors=True)
        generate_synthetic(spec, tmp, binary_features=True)
        try:
            os.replace(tmp, final)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not final.is_dir():
                raise
    return str(final)
