"""Reproducible random number streams.

Every stochastic routine in the package draws from a counter-based Philox
generator keyed by ``(master_seed, role, replicate)``.  Streams derived from
the same master seed but different roles or replicate indices are
statistically independent, so replicates can run in any order and still
reproduce bit-identical results.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

ARTIFACT_VERSION = "0.1.0"

# Fixed role table; new roles must be appended, never renumbered.
ROLE_IDS = {
    "hawkes": 0,
    "micro": 1,
    "limit": 2,
    "oracle": 3,
    "harness": 4,
    "noise": 5,
}


def stream_rng(master_seed: int, replicate: int = 0, role: str = "hawkes") -> np.random.Generator:
    """Return the generator for one (seed, replicate, role) stream.

    The derivation is a pure function of its arguments: a SeedSequence with
    ``spawn_key=(role_id, replicate)`` feeding a Philox counter generator.
    """
    if role not in ROLE_IDS:
        raise ValueError(f"unknown rng role {role!r}; known: {sorted(ROLE_IDS)}")
    if replicate < 0:
        raise ValueError("replicate index must be >= 0")
    ss = np.random.SeedSequence(master_seed, spawn_key=(ROLE_IDS[role], replicate))
    return np.random.Generator(np.random.Philox(ss))


def as_rng(seed_or_rng, role: str = "hawkes") -> np.random.Generator:
    """Accept either a master seed or an already-built generator."""
    if isinstance(seed_or_rng, np.random.Generator):
        return seed_or_rng
    return stream_rng(int(seed_or_rng), 0, role)


@dataclass
class SeedManifest:
    """Record of every stream a command used, sufficient to rerun it."""

    master_seed: int
    command: str = ""
    version: str = ARTIFACT_VERSION
    streams: list[dict] = field(default_factory=list)
    level: Optional[int] = None  # refinement level of a micro run

    def register(self, role: str, replicates: int) -> None:
        self.streams.append({"role": role, "replicates": int(replicates)})

    def to_json(self) -> str:
        payload = {
            "master_seed": self.master_seed,
            "command": self.command,
            "version": self.version,
            "streams": self.streams,
        }
        if self.level is not None:
            payload["level"] = self.level
        return json.dumps(payload, indent=2, sort_keys=True)

    def write(self, path) -> None:
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def read(cls, path) -> "SeedManifest":
        raw = json.loads(Path(path).read_text())
        man = cls(master_seed=int(raw["master_seed"]), command=raw.get("command", ""))
        man.version = raw.get("version", ARTIFACT_VERSION)
        man.streams = list(raw.get("streams", []))
        man.level = raw.get("level")
        return man
