"""The experiment registry: each experiment is declared once, at its function.

``@experiment(name, title, artifact=..., check=...)`` registers a
function under its CLI name.  Everything else reads this one table: the
CLI (``python -m repro.bench``) runs the function and then its check,
:func:`write_artifact` dumps the rows of an experiment that declares an
:class:`Artifact`, and ``repro.bench.validate`` finds an artifact's
schema and check by the payload's ``experiment`` id.

A check takes the rows and returns the claims they break, one string
each; an empty list means the experiment reproduced its shape.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Optional

__all__ = ["Artifact", "Claims", "Experiment", "by_artifact", "experiment",
           "number", "positive", "registered", "write_artifact"]

Check = Callable[[list[dict]], list[str]]


@dataclass(frozen=True)
class Artifact:
    """A machine-readable ``BENCH_*.json`` file an experiment emits."""

    file: str
    experiment: str          # the payload's ``experiment`` id
    description: str
    unit: str
    row_keys: tuple[str, ...]


@dataclass(frozen=True)
class Experiment:
    """One registered experiment: ``run(scale=...)`` returns its rows."""

    name: str
    title: str
    run: Callable[..., list[dict]]
    artifact: Optional[Artifact] = None
    check: Optional[Check] = None


_REGISTRY: dict[str, Experiment] = {}


def experiment(name: str, title: str, artifact: Optional[Artifact] = None,
               check: Optional[Check] = None):
    """Register the decorated function as experiment ``name``."""
    def register(fn):
        assert name not in _REGISTRY, f"experiment {name!r} declared twice"
        _REGISTRY[name] = Experiment(name, title, fn, artifact, check)
        return fn
    return register


def registered() -> dict[str, Experiment]:
    """Every experiment by CLI name, in declaration order."""
    from . import experiments, simcore, tenants, scale  # noqa: F401 - register
    return _REGISTRY


def by_artifact(experiment_id) -> Optional[Experiment]:
    """The experiment whose artifact carries ``experiment_id``, if any."""
    for exp in registered().values():
        if exp.artifact is not None and exp.artifact.experiment == experiment_id:
            return exp
    return None


def write_artifact(artifact: Artifact, rows: list[dict]) -> str:
    """Dump ``rows`` as ``artifact``'s machine-readable file; its path."""
    payload = {
        "experiment": artifact.experiment,
        "description": artifact.description,
        "unit": artifact.unit,
        "rows": rows,
    }
    with open(artifact.file, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    return artifact.file


def number(value) -> bool:
    """A finite int or float (not a bool)."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and math.isfinite(value))


def positive(row: dict, key: str) -> bool:
    """``row[key]`` is a finite number above zero."""
    value = row.get(key)
    return number(value) and value > 0


class Claims:
    """The claims one check finds broken, each naming its measured values."""

    def __init__(self) -> None:
        self.broken: list[str] = []

    def __call__(self, holds: bool, claim: str) -> bool:
        """Record ``claim`` unless it ``holds``; return ``holds``."""
        if not holds:
            self.broken.append(claim)
        return holds
