"""The ``corpus-cold`` and ``paper-scale`` workloads.

``corpus-cold`` plans every program of ``selection_corpus`` (small and
medium presets, a fresh corpus seed per pass) with the default selector and
cold caches; only ``plan()`` is in the timed region.  ``paper-scale`` plans
and executes the paper's non-uniform loops and the large corpus shapes at
about 10^4 instances each.

Every schedule is executed on the ``serial`` backend and its store compared
with ``execute_sequential`` outside the timed region.

The traced run additionally replays ``plan()``'s stage sequence through the
public calls (fingerprint, features, selector, applicability probes, the
winner's builder) with cleared caches, and fails when the replay picks
another strategy or schedule than the untraced ``plan()`` of the same program.
"""

from __future__ import annotations

import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
from spans import Tracer

from repro.analysis.features import clear_feature_cache, program_features
from repro.core.partitioner import PartitioningNotApplicable
from repro.core.strategy import (
    PlanCache,
    PlanConfig,
    PlanningContext,
    get_selector,
    get_strategy,
    plan,
    program_fingerprint,
    strategy_names,
)
from repro.dependence.analysis import DependenceAnalysis, ImperfectNestError
from repro.runtime.backends import ExecConfig, execute
from repro.runtime.executor import execute_sequential, make_store
from repro.runtime.metrics import schedule_parallelism
from repro.workloads.corpus import selection_corpus
from repro.workloads.examples import example2_loop, figure1_loop
from repro.workloads.synthetic import (
    large_cholesky_nest,
    large_triangular_loop,
    large_uniform_loop,
)

#: Strategies whose builder time gets a metric: every strategy a workload
#: program selects at this commit.
BUILD_METRIC_STRATEGIES = ("symbolic", "recurrence-chains", "dataflow", "pdm", "doacross")

Program = Tuple[str, object, Dict[str, int]]
Store = Dict[str, np.ndarray]


class ReplayMismatch(RuntimeError):
    """The traced replay disagreed with the untraced ``plan()``."""


# ---------------------------------------------------------------------------
# program sets
# ---------------------------------------------------------------------------


def corpus_pass(seed: int, k: int) -> List[Program]:
    """Pass ``k``: both corpus presets at a fresh corpus seed, shuffled."""
    cfg = common.RATIONALE["workloads"]["corpus-cold"]["inputs"]
    corpus_seed = common.derive_seed(seed, "corpus", k)
    progs = [
        (f"{size}/{e.name}", e.program, dict(e.params))
        for size in cfg["sizes"]
        for e in selection_corpus(corpus_seed, size)
    ]
    common.rng_for(seed, "order", k).shuffle(progs)
    return progs


def paper_programs() -> List[Program]:
    n = common.RATIONALE["workloads"]["paper-scale"]["inputs"]
    progs = [
        figure1_loop(*n["figure1_loop"]),
        example2_loop(*n["example2_loop"]),
        large_triangular_loop(*n["large_triangular_loop"]),
        large_cholesky_nest(*n["large_cholesky_nest"]),
        large_uniform_loop(*n["large_uniform_loop"]),
    ]
    return [(p.name, p, {}) for p in progs]


def paper_pass(seed: int, k: int) -> List[Program]:
    progs = paper_programs()
    common.rng_for(seed, "order", k).shuffle(progs)
    return progs


# ---------------------------------------------------------------------------
# correctness oracle
# ---------------------------------------------------------------------------


class Oracle:
    """Seeded input stores and their ``execute_sequential`` results.

    ``variant`` selects one of several seeded stores per program; the
    ``max_programs`` most recently used programs stay cached (None: all).
    """

    def __init__(self, seed: int, max_programs: Optional[int] = None):
        self.seed = seed
        self.max_programs = max_programs
        self._refs: "OrderedDict[Tuple[str, int], Tuple[Store, Store]]" = OrderedDict()

    def inputs(self, prog, params, variant: int = 0) -> Tuple[Store, Store]:
        """(initial store, expected final store) for one program."""
        key = (program_fingerprint(prog), variant)
        hit = self._refs.get(key)
        if hit is not None:
            self._refs.move_to_end(key)
            return hit
        store = make_store(prog, fill="random", seed=common.derive_seed(self.seed, *key))
        pair = (store, execute_sequential(prog, params, fresh(store)))
        self._refs[key] = pair
        while self.max_programs is not None and len(self._refs) > self.max_programs:
            self._refs.popitem(last=False)
        return pair

    @staticmethod
    def matches(expected: Store, got) -> bool:
        return got is not None and set(expected) == set(got) and all(
            np.array_equal(expected[a], got[a]) for a in expected
        )


def fresh(store: Store) -> Store:
    return {a: v.copy() for a, v in store.items()}


# ---------------------------------------------------------------------------
# the traced replay of plan()
# ---------------------------------------------------------------------------


def replay_plan(tracer: Tracer, prog, params, trace_id: str):
    """``plan(prog, params, cache=PlanCache())`` with the default config,
    stage by stage through public calls; returns ``(strategy, schedule)``."""
    config = PlanConfig()
    with tracer.span("plan", trace_id):
        with tracer.span("ir.fingerprint"):
            fp = program_fingerprint(prog)
        ctx = PlanningContext(
            program=prog,
            params=dict(params),
            config=config,
            analysis=DependenceAnalysis(prog, dict(params), engine=config.engine),
            fingerprint=fp,
        )
        with tracer.span("analysis.features"):
            program_features(prog, dict(params), analysis=ctx.analysis, fingerprint=fp)
        with tracer.span("core.select"):
            order, _ = get_selector(config.selector).rank(ctx, strategy_names())
        for name in order:
            strategy = get_strategy(name)
            with tracer.span("core.probe"):
                reason = strategy.applicability(ctx)
            if reason is not None:
                continue
            with tracer.span(f"core.build.{name}") as build_span:
                try:
                    build = strategy.builder(ctx)
                except (PartitioningNotApplicable, ImperfectNestError):
                    build = None
            if build is None:
                # plan() counts a refusing builder as one more skipped probe
                build_span.name = "core.probe"
                continue
            return name, build.schedule
    raise ReplayMismatch(f"replay found no applicable strategy for {prog.name!r}")


def schedule_counts(schedule) -> Tuple[int, int, int]:
    return (schedule.num_phases, schedule.total_work, schedule.max_parallelism)


# ---------------------------------------------------------------------------
# the measured loop
# ---------------------------------------------------------------------------


@dataclass
class Op:
    """One measured operation: a program planned (and, for paper-scale,
    executed), with the times the metrics are made of.  ``*_ref_s`` are the
    same times at the reference host speed (:func:`common.host_speed`)."""

    pass_no: int
    slot: str
    plan_s: float
    exec_s: float
    plan_ref_s: float
    exec_ref_s: float
    latency_ms: float
    latency_ref_ms: float
    planned: int = 0
    executed: int = 0
    phase_s: float = 0.0


def per_slot_rate(ops: List[Op], count: str, seconds: str) -> Tuple[float, int]:
    """Instances per second over one typical pass: each program slot (a
    name, the same in every pass) contributes the median of its count and
    of its time over the run, so one slow moment moves one sample of one
    slot instead of a whole pass.  Returns (rate, samples per slot)."""
    by_slot: Dict[str, List[Op]] = {}
    for o in ops:
        by_slot.setdefault(o.slot, []).append(o)
    total_count = sum(common.median(getattr(o, count) for o in v) for v in by_slot.values())
    total_s = sum(common.median(getattr(o, seconds) for o in v) for v in by_slot.values())
    n = min((len(v) for v in by_slot.values()), default=0)
    return (total_count / total_s if total_s > 0 else 0.0), n


def run(workload: str, seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    """Run one planning workload for ``seconds`` (pass 0 always completes);
    returns report rows plus attempted/failed counts."""
    next_pass = corpus_pass if workload == "corpus-cold" else paper_pass
    executes_in_op = workload == "paper-scale"
    exec_cfg = ExecConfig(backend=ExecConfig().backend, seed=common.derive_seed(seed, "exec"))
    # corpus-cold draws new random programs every pass, so caching their
    # reference stores would make peak RSS the benchmark's own cache
    oracle = Oracle(seed, max_programs=0 if workload == "corpus-cold" else 8)
    tracer = Tracer()
    ops: List[Op] = []
    attempted = failed = 0
    errors: List[str] = []
    complete = set()
    pass0 = Counts()
    speeds: List[float] = []

    t_end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        programs = next_pass(seed, k)
        for idx, (name, prog, params) in enumerate(programs):
            if k > 0 and time.perf_counter() >= t_end:
                break
            attempted += 1
            store, expected = oracle.inputs(prog, params)
            run_store = fresh(store)
            trace_id = f"{k}:{idx}:{name}"
            try:
                # the replay alternates with plan() in which goes first
                if traced and idx % 2 == 1:
                    clear_feature_cache()
                    replay = replay_plan(tracer, prog, params, trace_id)
                clear_feature_cache()
                speed0 = common.host_speed()
                t0 = time.perf_counter()
                p = plan(prog, params, cache=PlanCache())
                t1 = time.perf_counter()
                speed1 = common.host_speed()
                t2 = time.perf_counter()
                if executes_in_op:
                    result = p.execute(backend=exec_cfg.backend, store=run_store,
                                       seed=exec_cfg.seed)
                else:
                    result = execute(prog, p.schedule, params, store=run_store,
                                     config=exec_cfg)
                t3 = time.perf_counter()
                speed2 = common.host_speed()
                speeds += [speed0, speed1, speed2]
                plan_s, exec_s = t1 - t0, t3 - t2
                plan_ref_s = plan_s / ((speed0 + speed1) / 2)
                exec_ref_s = exec_s / ((speed1 + speed2) / 2)
                if executes_in_op:
                    latency_s, latency_ref_s = plan_s + exec_s, plan_ref_s + exec_ref_s
                else:  # corpus-cold's operation is the plan() alone
                    latency_s, latency_ref_s = plan_s, plan_ref_s
                op = Op(k, name, plan_s, exec_s, plan_ref_s, exec_ref_s,
                        latency_s * 1e3, latency_ref_s * 1e3)
                if traced and idx % 2 == 0:
                    clear_feature_cache()
                    replay = replay_plan(tracer, prog, params, trace_id)
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                failed += 1
                errors.append(f"{name}: {type(exc).__name__}: {exc}")
                continue
            op.planned = p.schedule.total_work
            op.executed = result.instances_executed
            op.phase_s = sum(ps.elapsed_s for ps in result.phase_stats)
            ops.append(op)
            ok = Oracle.matches(expected, result.store)
            if not ok:
                errors.append(f"{name}: store differs from execute_sequential")
            if traced:
                r_name, r_sched = replay
                if r_name != p.strategy or schedule_counts(r_sched) != schedule_counts(p.schedule):
                    ok = False
                    errors.append(
                        f"{name}: replay chose {r_name} {schedule_counts(r_sched)}, "
                        f"plan() chose {p.strategy} {schedule_counts(p.schedule)}"
                    )
            if not ok:
                failed += 1
            if k == 0:
                pass0.add(p, result)
        else:
            complete.add(k)
        k += 1

    out = {"attempted": attempted, "failed": failed, "errors": errors}
    if traced:
        out["rows"] = layer_rows(tracer, ops, pass0)
        return out
    tail_q = common.RATIONALE["workloads"][workload]["tail_percentile"]
    # only complete passes, so every program weighs the same in every figure
    ops = [o for o in ops if o.pass_no in complete]
    lat = [o.latency_ref_ms for o in ops]
    plan_rate, n = per_slot_rate(ops, "planned", "plan_ref_s")
    run_rate, _ = per_slot_rate(ops, "executed", "exec_ref_s")
    raw_lat = [o.latency_ms for o in ops]
    raw_plan_rate, _ = per_slot_rate(ops, "planned", "plan_s")
    raw_run_rate, _ = per_slot_rate(ops, "executed", "exec_s")
    plan_s = sum(common.median(o.plan_ref_s for o in ops if o.slot == slot)
                 for slot in {o.slot for o in ops})
    out["rows"] = {
        "latency_ms_p50": common.metric_row("ms", common.percentile(lat, 50), lat),
        "latency_ms_tail": common.metric_row("ms", common.percentile(lat, tail_q), n=len(lat)),
        "plan_instances_per_s": common.metric_row("1/s", plan_rate, n=n),
        "run_instances_per_s": common.metric_row("1/s", run_rate, n=n),
        "plans_per_s": common.metric_row(
            "1/s", len({o.slot for o in ops}) / plan_s if plan_s else 0.0, n=n),
        "raw.latency_ms_p50": common.metric_row("ms", common.percentile(raw_lat, 50), raw_lat),
        "raw.latency_ms_tail": common.metric_row(
            "ms", common.percentile(raw_lat, tail_q), n=len(raw_lat)),
        "raw.plan_instances_per_s": common.metric_row("1/s", raw_plan_rate, n=n),
        "raw.run_instances_per_s": common.metric_row("1/s", raw_run_rate, n=n),
        "host.speed": common.metric_row("ratio", common.median(speeds), speeds),
        "failed_ratio": common.metric_row("fraction", failed / max(attempted, 1), n=attempted),
    }
    out["tail_beyond"] = common.samples_beyond(len(lat), tail_q)
    return out


class Counts:
    """Count metrics over pass 0, whose programs depend only on the seed."""

    def __init__(self) -> None:
        self.pairs = self.points = 0
        self.chosen: Dict[str, int] = {name: 0 for name in strategy_names()}
        self.phases = 0
        self.parallelism = 0.0
        self.chains = 0
        self.chain_max = 0
        self.run_phases = self.run_instances = 0

    def add(self, p, result) -> None:
        analysis = p.analysis
        self.pairs += sum(len(d.relation) for d in analysis.pair_dependences)
        self.points += sum(
            len(analysis.statement_domain_array(ctx.statement.label))
            for ctx in p.program.statement_contexts()
        )
        self.chosen[p.strategy] += 1
        self.phases += p.schedule.num_phases
        self.parallelism += schedule_parallelism(p.schedule)["average_parallelism"]
        self.chains += len(p.chains)
        self.chain_max = max(self.chain_max, p.longest_chain())
        self.run_phases += result.phases_executed
        self.run_instances += result.instances_executed

    def rows(self) -> Dict[str, Dict[str, object]]:
        c = lambda v: common.metric_row("count", v)  # noqa: E731
        rows = {
            "dependence.pairs": c(self.pairs),
            "dependence.points": c(self.points),
        }
        for name, n in self.chosen.items():
            rows[f"core.chosen.{name}"] = c(n)
        rows.update({
            "core.schedule.phases": c(self.phases),
            "core.schedule.parallelism": c(round(self.parallelism, 6)),
            "core.chains.count": c(self.chains),
            "core.chains.max_len": c(self.chain_max),
            "runtime.phases": c(self.run_phases),
            "runtime.instances": c(self.run_instances),
        })
        return rows


def layer_rows(tracer: Tracer, ops: List[Op], pass0: Counts) -> Dict[str, Dict[str, object]]:
    def ms(name: str) -> Dict[str, object]:
        values = tracer.self_ms_by_trace(name)
        return common.metric_row("ms", common.percentile(values, 50), values)

    rows = {
        "ir.fingerprint_ms": ms("ir.fingerprint"),
        "analysis.features_ms": ms("analysis.features"),
        "core.select_ms": ms("core.select"),
        "core.probe_ms": ms("core.probe"),
    }
    for name in BUILD_METRIC_STRATEGIES:
        values = tracer.self_ms_by_trace(f"core.build.{name}")
        rows[f"core.build_ms.{name}"] = common.metric_row(
            "ms", common.percentile(values, 50), values)
    rows.update(pass0.rows())
    exec_ms = [o.exec_s * 1e3 for o in ops]
    rows["runtime.execute_ms.serial"] = common.metric_row(
        "ms", common.percentile(exec_ms, 50), exec_ms)
    rows["runtime.us_per_instance"] = common.metric_row(
        "us", sum(o.phase_s for o in ops) * 1e6 / max(sum(o.executed for o in ops), 1),
        n=len(ops))

    stage_ms = sum(
        s.self_ms for root in tracer.roots for s in root.children
    )
    replay_ms = sum(root.duration_ms for root in tracer.roots)
    untraced_ms = sum(o.plan_s for o in ops) * 1e3
    rows["trace.accounted_ratio"] = common.metric_row(
        "ratio", stage_ms / untraced_ms if untraced_ms else 0.0, n=len(tracer.roots))
    rows["trace.overhead_pct"] = common.metric_row(
        "%", (replay_ms / untraced_ms - 1.0) * 100 if untraced_ms else 0.0,
        n=len(tracer.roots))
    return rows
