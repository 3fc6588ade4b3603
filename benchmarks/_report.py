"""Shared reporting helper for the benchmark harness.

Every bench regenerates one table/figure of the paper.  ``emit`` prints
the regenerated rows (visible with ``pytest -s``) and also writes them to
``benchmarks/out/<experiment>.txt`` so the artifacts survive output
capture; EXPERIMENTS.md indexes those files.  When structured rows are
passed via ``data=`` a machine-readable companion,
``benchmarks/out/BENCH_<experiment>.json``, is written as well — that is
the file to diff when comparing runs before/after a performance change.
Each JSON artifact is stamped with the commit it was measured at (``null``
outside a git checkout, with ``git_dirty`` set when the work tree had
uncommitted changes), the CPU count and the platform.

Set ``BENCH_QUICK=1`` to make the parameter-sweep benches (A3, F4) use
small parameters — a smoke-test sweep for ``make bench-quick``.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from typing import Iterable, Optional, Sequence

OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


def quick() -> bool:
    """Whether the harness runs in the reduced-parameter smoke mode."""
    return os.environ.get("BENCH_QUICK", "") not in ("", "0")


def _git(*args: str) -> Optional[str]:
    """Output of ``git <args>`` run at the repository root, or None."""
    try:
        done = subprocess.run(
            ["git", *args], cwd=os.path.dirname(os.path.dirname(OUT_DIR)),
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _stamp() -> dict:
    """Commit, work-tree state and machine of this run.  Changes under
    ``benchmarks/out`` (the artifacts themselves) do not count as dirty."""
    commit = _git("rev-parse", "HEAD")
    status = None
    if commit is not None:
        status = _git("status", "--porcelain", "--", ":(exclude)benchmarks/out")
    return {
        "commit": commit,
        "git_dirty": None if status is None else bool(status),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def emit(experiment: str, text: str, data: Optional[object] = None) -> None:
    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, experiment + ".txt")
    with open(path, "w") as f:
        f.write(text.rstrip() + "\n")
    if data is not None:
        payload = {
            "experiment": experiment,
            "generated_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
            "python": platform.python_version(),
            "quick": quick(),
            "data": data,
        }
        payload.update(_stamp())
        json_path = os.path.join(OUT_DIR, "BENCH_{}.json".format(experiment))
        with open(json_path, "w") as f:
            json.dump(payload, f, indent=2, sort_keys=True)
            f.write("\n")
    print("\n[{}]".format(experiment))
    print(text)


def table(headers: Sequence[str], rows: Iterable[Sequence[object]]) -> str:
    """Plain fixed-width table."""
    rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def fmt(cells):
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    lines = [fmt(headers), fmt(["-" * w for w in widths])]
    lines.extend(fmt(row) for row in rows)
    return "\n".join(lines)
