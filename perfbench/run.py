"""Run one workload of the repository benchmark (or all of them).

    python3 perfbench/run.py --workload corpus-cold --seed 1 --seconds 45 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics untraced; ``--trace 1`` is the separate traced run that gives the
per-layer metrics.  The last line of standard output is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; above it, a
table of every metric (unit, sample count, quartiles) and a ``ROW`` line
stamped with the seed, commit, run id and machine fingerprint.

``--workload all`` runs every workload untraced and then traced, each in
its own process, and prints the tracing overhead and the traced run's
accounting next to the untraced figures.  The exit code is non-zero when
any output differed from ``execute_sequential`` or any request failed.

Workloads, metric definitions and the fixed serving parameters are in
``perfbench/rationale.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

WORKLOADS = tuple(common.RATIONALE["workloads"])


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def run_serving(seed: int, seconds: float, traced: bool):
    import serving

    out = serving.run(seed, seconds, traced)
    if not out["valid"]:
        out["errors"].append(
            f"generator fell {out['late_ms_max']:.1f} ms behind "
            f"(limit {serving.SPEC['max_late_ms']} ms): run invalid"
        )
        out["failed"] = max(out["failed"], 1)
    return out


def run_workload(workload: str, seed: int, seconds: float, traced: bool):
    """(rows, attempted, failed, errors) of one in-process run."""
    sys.path.insert(0, str(common.SRC))
    spec = common.RATIONALE["workloads"][workload]
    if workload == "serve-warm":
        out = run_serving(seed, seconds, traced)
        setups = out["setup_s"]
    else:
        setups = common.time_fresh_setup(common.RATIONALE["setup_repeats"])
        import planning

        out = planning.run(workload, seed, seconds, traced)
        share = spec.get("traced_serving_share")
        if traced and share:
            # the serving layers' per-layer metrics, on the serve-warm mix;
            # names the planning replay also reports keep the replay's value
            served = run_serving(seed, seconds * share, traced=True)
            for name, row in served["rows"].items():
                out["rows"].setdefault(name, row)
            out["attempted"] += served["attempted"]
            out["failed"] += served["failed"]
            out["errors"] += served["errors"]
    rows = out["rows"]
    if not traced:
        rows["setup_s"] = common.metric_row("s", common.median(setups), setups)
        rows["peak_rss_mb"] = common.metric_row("MB", common.peak_rss_mb())
        if out["tail_beyond"] < 10:
            print(f"warning: p{spec['tail_percentile']} has only "
                  f"{out['tail_beyond']} samples beyond it", file=sys.stderr)
    return rows, out["attempted"], out["failed"], out["errors"]


def single(args) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    names = common.declared_metrics(kind)
    units = common.declared_units(kind)
    rows, attempted, failed, errors = run_workload(
        args.workload, args.seed, args.seconds, bool(args.trace))
    for name in names:
        # A layer this workload does not exercise did no work in it.
        rows.setdefault(name, common.metric_row(units[name], 0.0, n=0))
    for err in errors[:20]:
        print(f"error: {err}", file=sys.stderr)
    common.print_rows(common.stamp(args.workload, args.seed, args.trace), rows)
    print(common.result_line(failed == 0, attempted, failed, rows, names), flush=True)
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Every workload untraced then traced, each in a child process."""
    results = {}
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=os.getcwd())
            sys.stderr.write(proc.stderr)
            lines = proc.stdout.strip().splitlines()
            print("\n".join(lines[:-1]))
            results[(workload, trace)] = json.loads(lines[-1])
            status = status or proc.returncode
    print("# tracing overhead and accounting (traced run vs untraced run)")
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        untraced = results[(workload, 0)]
        traced = results[(workload, 1)]["metrics"]
        print(f"  {workload:12s} overhead {traced['trace.overhead_pct']['value']:+.2f}%  "
              f"stage sum / untraced {traced['trace.accounted_ratio']['value']:.3f}  "
              f"untraced latency_ms_p50 {untraced['metrics']['latency_ms_p50']['value']:.3f}")
        for res in (untraced, results[(workload, 1)]):
            merged["correct"] &= res["correct"]
            merged["attempted"] += res["attempted"]
            merged["failed"] += res["failed"]
        for name, value in untraced["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = value
    print(json.dumps(merged), flush=True)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if not common.source_present():
        print(f"error: no repro sources under {common.SRC}; run from the root "
              "of a full checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return single(args)


if __name__ == "__main__":
    t0 = time.perf_counter()
    code = main()
    print(f"wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(code)
