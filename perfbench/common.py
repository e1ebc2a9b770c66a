"""Shared pieces of the benchmark: paths, statistics, set-up timing, stamps.

Nothing here imports ``repro`` at module import time, so ``run.py`` can
report a missing source tree before any import fails.
"""

from __future__ import annotations

import hashlib
import importlib.util
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import uuid
from fractions import Fraction
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RATIONALE = json.loads((BENCH_DIR / "rationale.json").read_text())

#: One id per benchmark process, stamped onto every row it prints.
RUN_ID = uuid.uuid4().hex[:12]


def source_present() -> bool:
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """The environment for child processes: the checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def derive_seed(*parts) -> int:
    """A stable 32-bit seed from any mix of ints and strings."""
    text = "|".join(str(p) for p in parts).encode()
    return int.from_bytes(hashlib.sha256(text).digest()[:4], "big")


def rng_for(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation; 0.0 if empty."""
    if not values:
        return 0.0
    data = sorted(values)
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return float(data[lo] + (data[hi] - data[lo]) * (pos - lo))


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Sample count, median and quartiles of one metric's samples."""
    return {
        "n": len(values),
        "p25": percentile(values, 25),
        "p50": percentile(values, 50),
        "p75": percentile(values, 75),
    }


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie strictly above the ``q``-th percentile."""
    return n - 1 - int((n - 1) * q / 100.0)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


# ---------------------------------------------------------------------------
# set-up time and memory
# ---------------------------------------------------------------------------

#: What a fresh process pays before it can plan: interpreter start, the
#: package import, and the calibrated selection table.
_SETUP_PROBE = (
    "import repro\n"
    "from repro.core.strategy import load_selection_table\n"
    "load_selection_table()\n"
    "print('ready', flush=True)\n"
)


def time_fresh_setup(repeats: int) -> List[float]:
    """Wall seconds from spawning a fresh interpreter until it can plan."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-c", _SETUP_PROBE],
            stdout=subprocess.PIPE,
            env=child_env(),
            cwd=str(ROOT),
            text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
        finally:
            proc.stdout.close()
            proc.wait(timeout=60)
        if line.strip() != "ready" or proc.returncode != 0:
            raise RuntimeError("set-up probe did not reach 'ready'")
        times.append(elapsed)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest waited-for descendant.

    ``getrusage`` reports the children's figure as the maximum over every
    terminated, waited-for descendant (server and pool workers included),
    not their sum.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


# ---------------------------------------------------------------------------
# host speed
# ---------------------------------------------------------------------------


def _calibration_kernel() -> int:
    """Fixed work in the style of the planner (Fraction arithmetic, tuple
    keyed dicts, a sort, a list build), from the standard library only, so
    no change to the repository can make it faster or slower."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 300):
        f = Fraction(i, (i % 13) + 1) - Fraction(i % 7, 3)
        acc = (acc + f * f) / 2
        table[(i % 17, i)] = (acc.numerator % 9973, f)
    rows = sorted(table.items(), key=lambda kv: (kv[1][0], kv[0]))
    items = [(k, v) for k, v in rows for _ in range(20)]
    return len(items) + sum(v[0] for _, v in rows)


_CALIBRATION_RESULT = _calibration_kernel()


def host_speed() -> float:
    """How slow the host is right now: the calibration kernel's wall time
    over its reference time (``host_reference.calibration_ms``).  1.0 is
    the reference speed; 1.5 means the same work takes 1.5x as long.

    A shared host can change speed by up to ~1.8x within seconds, for
    every process at once (measured on a 2-vCPU cloud VM).  A time divided by the
    factor measured next to it is the time the work takes at the reference
    speed, which no longer depends on the moment it ran."""
    t0 = time.perf_counter()
    result = _calibration_kernel()
    elapsed_ms = (time.perf_counter() - t0) * 1e3
    if result != _CALIBRATION_RESULT:
        raise RuntimeError("calibration kernel is not deterministic")
    return elapsed_ms / RATIONALE["host_reference"]["calibration_ms"]


# ---------------------------------------------------------------------------
# stamps
# ---------------------------------------------------------------------------


def machine_fingerprint() -> Dict[str, object]:
    """The repository's own host fingerprint (``benchmarks/conftest.py``)."""
    path = ROOT / "benchmarks" / "conftest.py"
    spec = importlib.util.spec_from_file_location("_bench_conftest", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.machine_fingerprint()


def git_commit() -> str:
    """HEAD of the checkout, or ``"unknown"`` when the checkout is not the
    top of a git work tree (git would otherwise report an enclosing one)."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"],
            cwd=str(ROOT),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def stamp(workload: str, seed: int, trace: int) -> Dict[str, object]:
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "commit": git_commit(),
        "run_id": RUN_ID,
        "machine": machine_fingerprint(),
    }


def print_rows(stamp_row: Dict[str, object], rows: Dict[str, Dict[str, object]]) -> None:
    """One table of every metric (name, unit, n, p25/p50/p75), then one
    stamped JSON row for the workload."""
    print(f"# {stamp_row['workload']}  seed={stamp_row['seed']}  "
          f"trace={stamp_row['trace']}  commit={stamp_row['commit'][:12]}  "
          f"run_id={stamp_row['run_id']}")
    print(f"  {'metric':44s} {'unit':9s} {'n':>6s} {'p25':>12s} {'p50':>12s} {'p75':>12s}")
    for name, row in rows.items():
        print(f"  {name:44s} {row['unit']:9s} {row['n']:6d} "
              f"{row['p25']:12.4f} {row['p50']:12.4f} {row['p75']:12.4f}")
    print("ROW " + json.dumps({**stamp_row, "metrics": rows}, sort_keys=True))


def result_line(correct: bool, attempted: int, failed: int,
                rows: Dict[str, Dict[str, object]], names: Sequence[str]) -> str:
    """The driver-facing last line: exactly the declared metric names."""
    metrics = {
        name: {"value": rows[name]["value"], "unit": rows[name]["unit"]}
        for name in names
    }
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": metrics,
    })


def declared_metrics(kind: str) -> List[str]:
    """Metric names of ``end_to_end`` or ``per_layer`` in BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in spec[kind]]


def metric_row(unit: str, value: float, samples: Optional[Sequence[float]] = None,
               n: Optional[int] = None) -> Dict[str, object]:
    """A report row: the value the driver reads plus the sample summary."""
    if samples is None:
        row = {"n": 1 if n is None else n, "p25": value, "p50": value, "p75": value}
    else:
        row = summary(samples)
    return {"unit": unit, "value": float(value), **row}


def declared_units(kind: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}
