"""Command-line experiment harness: ``python -m repro.bench <figure> ...``.

Examples::

    python -m repro.bench fig9              # one figure
    python -m repro.bench fig12out fig12up  # several
    python -m repro.bench all --scale 1.0   # everything (slow)
    python -m repro.bench fig13 --out results.txt

Prints the same rows/series the paper reports, writes the ``BENCH_*.json``
artifact of each experiment that declares one, then runs each
experiment's check and prints every claim its rows break; the exit
status is 1 if any was.  EXPERIMENTS.md records a reference run of this
harness.
"""

from __future__ import annotations

import argparse
import cProfile
import sys
import time
from contextlib import nullcontext

from .registry import registered, write_artifact
from .report import format_table
from .validate import check_rows


def _profile_table(pr, title: str) -> str:
    """Top-20 cumulative-time hotspots of one profiled experiment."""
    import pstats
    stats = pstats.Stats(pr)
    entries = sorted(stats.stats.items(), key=lambda kv: kv[1][3],
                     reverse=True)[:20]
    rows = []
    for (filename, lineno, func), (_cc, ncalls, tt, ct, _callers) in entries:
        parts = filename.replace("\\", "/").rsplit("/", 3)
        where = "/".join(parts[-2:]) if len(parts) > 1 else filename
        rows.append({
            "function": f"{where}:{lineno}({func})",
            "calls": ncalls,
            "tottime_ns": int(tt * 1e9),
            "cumtime_ns": int(ct * 1e9),
        })
    return format_table(rows, title=title)


def main(argv: list[str] | None = None) -> int:
    experiments = registered()
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the HydraDB paper's figures.")
    parser.add_argument("figures", nargs="+",
                        help=f"one of: {', '.join(experiments)}, or 'all'")
    parser.add_argument("--scale", type=float, default=0.5,
                        help="fraction of the 10k-op default per run "
                             "(default 0.5)")
    parser.add_argument("--out", type=str, default=None,
                        help="also append the tables to this file")
    parser.add_argument("--profile", action="store_true",
                        help="run each experiment under cProfile and "
                             "append a top-20 cumulative-time hotspot "
                             "table to the report")
    args = parser.parse_args(argv)

    names = list(experiments) if "all" in args.figures else args.figures
    unknown = [n for n in names if n not in experiments]
    if unknown:
        parser.error(f"unknown figure(s): {', '.join(unknown)}")

    failed = False
    sink = open(args.out, "a") if args.out else None

    def emit(text: str) -> None:
        print(text + "\n")
        if sink:
            sink.write(text + "\n\n")

    try:
        for name in names:
            exp = experiments[name]
            t0 = time.time()
            with (cProfile.Profile() if args.profile else nullcontext()) as pr:
                rows = exp.run(scale=args.scale)
            emit(format_table(rows, title=exp.title) + "\n"
                 f"[{name}: {len(rows)} rows in {time.time()-t0:.1f}s wall "
                 f"at scale={args.scale}]")
            if args.profile:
                emit(_profile_table(pr, title=f"{name} — top 20 hotspots by "
                                              f"cumulative time"))
            if exp.artifact:
                path = write_artifact(exp.artifact, rows)
                print(f"[{name}: artifact written to {path}]")
            for problem in check_rows(exp, rows):
                print(f"[{name}: check failed: {problem}]")
                failed = True
    finally:
        if sink:
            sink.close()
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
