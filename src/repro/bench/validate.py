"""Validate emitted bench artifacts: ``python -m repro.bench.validate F...``.

Experiments that declare an artifact write a machine-readable
``BENCH_*.json`` file that is tracked across PRs and consumed by CI's
``bench-smoke`` job.  A payload is valid when it has the top-level
fields, names a registered experiment, and its rows pass
:func:`check_rows`: every declared row key is present, throughputs,
speedups and host timings are strictly positive finite numbers, and the
experiment's own check — the semantic contract declared beside the
experiment function — finds nothing broken.

Exit status is 0 only if every named file validates; problems are listed
one per line as ``<file>: <complaint>``.
"""

from __future__ import annotations

import json
import sys

from .registry import Experiment, by_artifact, positive, registered

__all__ = ["check_rows", "validate_artifact", "main"]

_TOP_KEYS = ("experiment", "description", "unit", "rows")

#: Row keys that must hold a strictly positive number wherever an
#: artifact declares them (besides every ``*_kops`` and ``*speedup`` key).
_POSITIVE_KEYS = ("kops", "server_cpu_ns_per_op", "cpu_ratio",
                  "throughput_mops", "wall_s", "events_per_sec",
                  "speedup_vs_message")


def _must_be_positive(key: str) -> bool:
    return key.endswith(("_kops", "speedup")) or key in _POSITIVE_KEYS


def check_rows(exp: Experiment, rows: list[dict]) -> list[str]:
    """All complaints about ``exp``'s rows: the artifact's row schema and
    positive-number rule, then the experiment's check."""
    problems: list[str] = []
    row_keys = exp.artifact.row_keys if exp.artifact else ()
    for i, row in enumerate(rows):
        missing = [k for k in row_keys if k not in row]
        if missing:
            problems.append(f"row {i}: missing {', '.join(missing)}")
            continue
        for key in filter(_must_be_positive, row_keys):
            if not positive(row, key):
                problems.append(f"row {i}: {key} must be a positive "
                                f"number, got {row[key]!r}")
    if exp.check is not None:
        problems.extend(exp.check(rows))
    return problems


def validate_artifact(payload: dict) -> list[str]:
    """All schema/semantic complaints for one parsed artifact (empty = ok)."""
    problems = [f"missing top-level field {key!r}"
                for key in _TOP_KEYS if key not in payload]
    exp = by_artifact(payload.get("experiment"))
    if exp is None:
        known = sorted(e.artifact.experiment for e in registered().values()
                       if e.artifact)
        problems.append(f"unknown experiment {payload.get('experiment')!r} "
                        f"(expected one of {known})")
        return problems
    rows = payload.get("rows")
    if not isinstance(rows, list) or not rows:
        problems.append("rows must be a non-empty list")
        return problems
    return problems + check_rows(exp, rows)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if not argv:
        print("usage: python -m repro.bench.validate ARTIFACT.json ...",
              file=sys.stderr)
        return 2
    failed = False
    for path in argv:
        try:
            with open(path) as fh:
                payload = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            print(f"{path}: unreadable ({exc})")
            failed = True
            continue
        problems = validate_artifact(payload)
        for problem in problems:
            print(f"{path}: {problem}")
        if problems:
            failed = True
        else:
            print(f"{path}: ok ({payload['experiment']}, "
                  f"{len(payload['rows'])} rows)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
