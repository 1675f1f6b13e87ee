"""Run manifests: everything needed to reproduce a result artifact.

A checkpointed :class:`~repro.experiments.base.ExperimentResult` that
drifts from EXPERIMENTS.md is only diagnosable if the artifact records
*how it was produced*: which seed, which machines and engine, which
fault models, which package version and git revision.  The manifest is
that record; the runner writes one per experiment into the ``--trace``
JSONL next to the result, and the report generator folds the
deterministic fields into every EXPERIMENTS.md block.

Two field classes are deliberately separated:

* **deterministic** fields (seed, machines, fault models, package
  version) — identical across reruns of the same code, so they belong
  in regenerated docs and golden files;
* **provenance** fields (engine, git revision, python version) — vary
  between runs without changing a result (the fast engine is
  bit-identical to the reference one), so the report prints them in
  its header, never inside the reproducible experiment blocks.
"""

from __future__ import annotations

import functools
import platform
import subprocess
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import repro


@functools.lru_cache(maxsize=None)
def git_revision(cwd: Optional[str] = None) -> str:
    """The current checkout's short revision, or ``"unknown"``.

    Memoized per ``cwd`` for the life of the process: every observed
    experiment and every trial block stamps its manifest with it, and
    the checkout does not change under a running process.
    """
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=cwd,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    if out.returncode != 0:
        return "unknown"
    return out.stdout.strip() or "unknown"


@dataclass
class RunManifest:
    """Reproducibility record for one experiment run.

    Attributes:
        experiment_id: Registered experiment id.
        seed: The ``rng`` seed the successful attempt ran with; None
            when the run function takes no seed.
        attempts: Attempts consumed (1 = first try succeeded).
        machines: Deduped machine builds: ``{spec, count}``.
        fault_models: Names of fault models attached during the run.
        engine: Process-wide default engine the run started under
            (provenance; not rendered in blocks).
        sanitize: Whether the runtime sanitizer was armed.
        package_version: ``repro.__version__``.
        git_rev: Checkout revision (provenance; not rendered in blocks).
        python_version: Interpreter version (provenance).
    """

    experiment_id: str
    seed: Optional[int] = None
    attempts: int = 1
    machines: List[Dict] = field(default_factory=list)
    fault_models: List[str] = field(default_factory=list)
    engine: str = "fast"
    sanitize: bool = False
    package_version: str = repro.__version__
    git_rev: str = "unknown"
    python_version: str = ""

    @classmethod
    def with_provenance(cls, **kwargs) -> "RunManifest":
        """Build a manifest stamped with this checkout's provenance."""
        kwargs.setdefault("git_rev", git_revision())
        kwargs.setdefault("python_version", platform.python_version())
        return cls(**kwargs)

    def to_dict(self) -> Dict:
        return {
            "experiment_id": self.experiment_id,
            "seed": self.seed,
            "attempts": self.attempts,
            "machines": [dict(m) for m in self.machines],
            "fault_models": list(self.fault_models),
            "engine": self.engine,
            "sanitize": self.sanitize,
            "package_version": self.package_version,
            "git_rev": self.git_rev,
            "python_version": self.python_version,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "RunManifest":
        return cls(
            experiment_id=data["experiment_id"],
            seed=data.get("seed"),
            attempts=data.get("attempts", 1),
            machines=[dict(m) for m in data.get("machines", [])],
            fault_models=list(data.get("fault_models", [])),
            engine=data.get("engine", "fast"),
            sanitize=data.get("sanitize", False),
            package_version=data.get("package_version", ""),
            git_rev=data.get("git_rev", "unknown"),
            python_version=data.get("python_version", ""),
        )

    # -- rendering ------------------------------------------------------

    def machines_summary(self) -> str:
        if not self.machines:
            return "no machines"
        parts = []
        for entry in self.machines:
            count = entry.get("count", 1)
            prefix = f"{count}× " if count != 1 else ""
            parts.append(f"{prefix}{entry['spec']}")
        return " + ".join(parts)

    def footer_line(self) -> str:
        """The deterministic one-liner under every experiment block.

        Contains only rerun-stable fields, so regenerated docs diff
        clean when nothing real changed (the docs-drift CI gate depends
        on this).
        """
        seed = "-" if self.seed is None else str(self.seed)
        parts = [
            f"seed {seed}",
            self.machines_summary(),
            f"repro {self.package_version}",
        ]
        if self.fault_models:
            parts.insert(2, f"faults {','.join(self.fault_models)}")
        if self.sanitize:
            parts.insert(2, "sanitized")
        if self.attempts != 1:
            parts.insert(1, f"attempt {self.attempts}")
        return "_run: " + " · ".join(parts) + "_"
