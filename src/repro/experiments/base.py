"""Shared experiment scaffolding.

Every table/figure module exposes a ``run_*`` function returning an
:class:`ExperimentResult`; the runner, the report renderer and the
tests consume that uniform shape.  Each result carries the paper's reported values (or
qualitative expectations) next to ours so EXPERIMENTS.md can be
regenerated mechanically.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Sequence


@dataclass
class ExperimentResult:
    """Uniform container for one reproduced table or figure.

    Attributes:
        experiment_id: Paper label, e.g. ``"table1"`` or ``"fig4"``.
        title: Human-readable description.
        columns: Column headers for the data rows.
        rows: The regenerated data, one list per row.
        paper_expectation: What the paper reports, as comparison notes.
        notes: Deviations/substitutions relevant to this experiment.
    """

    experiment_id: str
    title: str
    columns: List[str] = field(default_factory=list)
    rows: List[List] = field(default_factory=list)
    paper_expectation: str = ""
    notes: str = ""

    def render(self) -> str:
        """Format as a fixed-width text table."""
        lines = [f"[{self.experiment_id}] {self.title}"]
        if self.columns:
            widths = [
                max(
                    len(str(self.columns[i])),
                    max((len(_fmt(row[i])) for row in self.rows), default=0),
                )
                for i in range(len(self.columns))
            ]
            header = "  ".join(
                str(c).ljust(w) for c, w in zip(self.columns, widths)
            )
            lines.append(header)
            lines.append("-" * len(header))
            for row in self.rows:
                lines.append(
                    "  ".join(_fmt(v).ljust(w) for v, w in zip(row, widths))
                )
        if self.paper_expectation:
            lines.append(f"paper: {self.paper_expectation}")
        if self.notes:
            lines.append(f"notes: {self.notes}")
        return "\n".join(lines)


    def to_csv(self) -> str:
        """Render the data rows as CSV (for plotting pipelines)."""
        import csv
        import io

        buffer = io.StringIO()
        writer = csv.writer(buffer)
        writer.writerow(self.columns)
        for row in self.rows:
            writer.writerow(row)
        return buffer.getvalue()

    def save_csv(self, path: str) -> None:
        """Write :meth:`to_csv` output to a file.

        Opened with ``newline=""`` per the csv module's contract so the
        writer's own ``\\r\\n`` terminators are not doubled to
        ``\\r\\r\\n`` on Windows.
        """
        with open(path, "w", newline="") as handle:
            handle.write(self.to_csv())

    def to_dict(self) -> Dict:
        """Plain-data form for JSON checkpoints."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "paper_expectation": self.paper_expectation,
            "notes": self.notes,
        }

    @classmethod
    def from_dict(cls, data: Dict) -> "ExperimentResult":
        """Rebuild a result saved by :meth:`to_dict`."""
        return cls(
            experiment_id=data["experiment_id"],
            title=data["title"],
            columns=list(data.get("columns", [])),
            rows=[list(row) for row in data.get("rows", [])],
            paper_expectation=data.get("paper_expectation", ""),
            notes=data.get("notes", ""),
        )


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.4g}"
    return str(value)


#: Registry of experiment id -> zero-arg callable returning a result.
EXPERIMENT_REGISTRY: Dict[str, Callable[[], ExperimentResult]] = {}


def register(experiment_id: str):
    """Decorator adding a run function to the global registry."""

    def wrap(fn: Callable[..., ExperimentResult]):
        EXPERIMENT_REGISTRY[experiment_id] = fn
        return fn

    return wrap


def run_all(ids: Sequence[str] = ()) -> List[ExperimentResult]:
    """Run every registered experiment (or the given subset)."""
    # Import for side effects: each module registers itself.
    from repro.experiments import ALL_EXPERIMENT_MODULES  # noqa: F401

    chosen = list(ids) if ids else sorted(EXPERIMENT_REGISTRY)
    return [EXPERIMENT_REGISTRY[i]() for i in chosen]
