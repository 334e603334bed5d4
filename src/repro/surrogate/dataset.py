"""Labeled dataset generation for the aging surrogate.

Every row is one synthetic device: a workload-skewed SP profile at one
operating corner, labeled by the exact charlib+STA oracle with its
violation onset (right-censored at ``censor_factor * horizon``) and
the worst setup slack at a sampled age.  Rows are a pure function of
``(config, row index)``:

* all draws come off ``stream_rng("surrogate.dataset", seed, index)``
  and the per-net noise off the shared
  :func:`device_sp_vector` PCG64 stream, so any worker count and any
  process produces byte-identical rows;
* values are normalized through the benchmark harness's
  :func:`repro.bench.canon_value` at construction, so the canonical
  JSON is stable against float formatting differences;
* the serialized dataset is published through the
  :class:`~repro.core.artifacts.ArtifactCache` under a key covering
  the netlist structural hash, the base profile, and every config
  field that changes rows.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..aging.corners import TYPICAL_CORNER, WORST_CORNER, OperatingCorner
from ..bench.sample import canon_value, canonical_dumps
from ..core import telemetry
from ..core.artifacts import ArtifactCache
from ..core.config import SurrogateConfig
from ..core.pool import ordered_map, resolve_workers
from ..core.rng import stream_rng, stream_seed
from ..netlist.cells import CellLibrary
from ..netlist.netlist import Netlist
from ..sim.probes import SPProfile
from .features import FEATURE_SCHEMA, FleetFeaturizer, feature_names
from .oracle import ExactAgingOracle

#: Bumped on any incompatible change to the dataset row layout.
DATASET_SCHEMA = 1

_CORNERS: Dict[str, OperatingCorner] = {
    TYPICAL_CORNER.name: TYPICAL_CORNER,
    WORST_CORNER.name: WORST_CORNER,
}


def device_sp_vector(
    base_sp: np.ndarray,
    intensity: float,
    noise: float,
    seed: int,
    index: int,
) -> np.ndarray:
    """Workload-skewed SP vector for one synthetic device.

    ``intensity > 0`` pushes SPs toward 0 — the maximally BTI-stressed
    state for the library's ``stress_state == 0`` cells (duty is
    ``1 - sp``) — and ``intensity < 0`` pushes toward 1 (de-stress).
    Per-net weights ``1 - noise * u`` with ``u ~ U[0, 1)`` from the
    ``surrogate.device`` PCG64 stream make two devices at the same
    intensity distinct.  Used verbatim by dataset generation, the
    exact profiled fleet, and triage scoring, so every consumer sees
    the same device bit for bit.
    """
    rng = np.random.Generator(
        np.random.PCG64(stream_seed("surrogate.device", seed, index))
    )
    weights = 1.0 - noise * rng.random(base_sp.shape[0])
    if intensity >= 0.0:
        skewed = base_sp * (1.0 - intensity * weights)
    else:
        skewed = base_sp + (-intensity) * weights * (1.0 - base_sp)
    return np.clip(skewed, 0.0, 1.0)


def skewed_profile(
    base: SPProfile,
    netlist: Netlist,
    intensity: float,
    noise: float,
    seed: int,
    index: int,
) -> SPProfile:
    """Dict-profile convenience wrapper over :func:`device_sp_vector`."""
    featurizer = FleetFeaturizer(netlist)
    return featurizer.profile(
        device_sp_vector(
            featurizer.base_vector(base), intensity, noise, seed, index
        )
    )


def sample_draws(
    config: SurrogateConfig, index: int
) -> Tuple[float, str, float]:
    """(intensity, corner name, slack-sample age) for one dataset row.

    One named stream per row: draw order is fixed (intensity, corner,
    age) and independent of every other row, which is what lets workers
    label arbitrary index subsets.
    """
    rng = stream_rng("surrogate.dataset", config.seed, index)
    intensity = rng.uniform(config.skew_min, config.skew_max)
    corner = WORST_CORNER if rng.random() < 0.5 else TYPICAL_CORNER
    age = config.age_grid[rng.randrange(len(config.age_grid))]
    return intensity, corner.name, age


@dataclass
class SurrogateDataset:
    """A labeled sweep, canonically serializable.

    ``rows`` hold plain canon-normalized JSON values only; ``to_json``
    is byte-stable and :meth:`digest` fingerprints it.
    """

    netlist_name: str
    config: Dict[str, Any]
    feature_names: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)

    def to_document(self) -> Dict[str, Any]:
        return {
            "schema": DATASET_SCHEMA,
            "feature_schema": FEATURE_SCHEMA,
            "netlist": self.netlist_name,
            "config": self.config,
            "feature_names": list(self.feature_names),
            "rows": self.rows,
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_document())

    @classmethod
    def from_json(cls, text: str) -> "SurrogateDataset":
        data = json.loads(text)
        if data.get("schema") != DATASET_SCHEMA:
            raise ValueError(
                f"unsupported surrogate dataset schema "
                f"{data.get('schema')!r} (this build reads "
                f"{DATASET_SCHEMA})"
            )
        if data.get("feature_schema") != FEATURE_SCHEMA:
            raise ValueError(
                f"dataset feature schema {data.get('feature_schema')!r} "
                f"does not match this build's {FEATURE_SCHEMA}"
            )
        return cls(
            netlist_name=data["netlist"],
            config=data["config"],
            feature_names=list(data["feature_names"]),
            rows=list(data["rows"]),
        )

    def digest(self) -> str:
        return hashlib.sha256(self.to_json().encode()).hexdigest()

    # -- matrices -------------------------------------------------------
    def matrices(
        self, rows: Optional[Sequence[Dict[str, Any]]] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """(X, y) float64 arrays; y columns are (onset, slack)."""
        rows = self.rows if rows is None else list(rows)
        X = np.asarray([row["features"] for row in rows], dtype=np.float64)
        y = np.asarray(
            [[row["onset_years"], row["slack_ns"]] for row in rows],
            dtype=np.float64,
        )
        return X, y

    def split(
        self, holdout_fraction: float, seed: int
    ) -> Tuple[List[Dict[str, Any]], List[Dict[str, Any]]]:
        """Deterministic (train, holdout) partition.

        The shuffle runs on the ``surrogate.split`` stream, so the
        partition depends only on (seed, row count) — not on process
        history or worker count.
        """
        order = list(range(len(self.rows)))
        stream_rng("surrogate.split", seed).shuffle(order)
        n_holdout = int(round(holdout_fraction * len(order)))
        holdout = sorted(order[:n_holdout])
        train = sorted(order[n_holdout:])
        return (
            [self.rows[i] for i in train],
            [self.rows[i] for i in holdout],
        )


def _label_row(state: tuple, index: int) -> Dict[str, Any]:
    """One labeled row; ``state`` is (config, featurizer, oracle, base SP)."""
    config, featurizer, oracle, base_sp = state
    intensity, corner_name, age = sample_draws(config, index)
    sp = device_sp_vector(
        base_sp, intensity, config.noise, config.seed, index
    )
    profile = featurizer.profile(sp)
    corner = _CORNERS[corner_name]
    onset, censored, slack = oracle.label(profile, corner, age)
    features = featurizer.vector(sp, corner_name, age)
    return canon_value(
        {
            "index": index,
            "intensity": intensity,
            "corner": corner_name,
            "age_years": age,
            "onset_years": onset,
            "censored": censored,
            "slack_ns": slack,
            "features": features.tolist(),
        }
    )


def dataset_key(
    netlist: Netlist, base: SPProfile, config: SurrogateConfig
) -> str:
    """Content-addressed identity of a generated dataset.

    ``workers`` stays out on purpose: any worker count generates the
    same bytes.
    """
    return ArtifactCache.digest(
        "surrogate-dataset",
        DATASET_SCHEMA,
        FEATURE_SCHEMA,
        netlist.structural_hash(),
        hashlib.sha256(base.to_json().encode()).hexdigest(),
        [
            config.samples,
            config.seed,
            config.level_buckets,
            config.skew_min,
            config.skew_max,
            config.noise,
            list(config.age_grid),
            config.censor_factor,
        ],
    )


def generate_dataset(
    netlist: Netlist,
    library: CellLibrary,
    base_profile: SPProfile,
    config: Optional[SurrogateConfig] = None,
    cache: Optional[ArtifactCache] = None,
) -> SurrogateDataset:
    """Run the labeled sweep (cached, parallel, byte-deterministic).

    Rows are generated for indices ``0..samples-1``; workers label one
    row per task and results reassemble in index order, so the output
    is byte-identical for any ``config.workers`` and across process
    restarts.
    """
    config = config or SurrogateConfig()
    key = dataset_key(netlist, base_profile, config)
    if cache is not None:
        text = cache.load("surrogate-dataset", key)
        if text is not None:
            return SurrogateDataset.from_json(text)

    featurizer = FleetFeaturizer(netlist, buckets=config.level_buckets)
    oracle = ExactAgingOracle(netlist, library, config=config)
    base_sp = featurizer.base_vector(base_profile)
    with telemetry.span(
        "surrogate.dataset",
        netlist=netlist.name,
        samples=config.samples,
        workers=resolve_workers(config.workers, config.samples),
    ):
        rows = [
            row
            for row, _wall in ordered_map(
                _label_row,
                range(config.samples),
                config.workers,
                state=(config, featurizer, oracle, base_sp),
                name="surrogate",
            )
        ]
        telemetry.add("surrogate.dataset.rows", len(rows))

    dataset = SurrogateDataset(
        netlist_name=netlist.name,
        config=canon_value(
            {
                "samples": config.samples,
                "seed": config.seed,
                "level_buckets": config.level_buckets,
                "skew_min": config.skew_min,
                "skew_max": config.skew_max,
                "noise": config.noise,
                "age_grid": list(config.age_grid),
                "censor_factor": config.censor_factor,
            }
        ),
        feature_names=feature_names(config.level_buckets),
        rows=rows,
    )
    if cache is not None:
        cache.store("surrogate-dataset", key, dataset.to_json())
    return dataset
