"""The ``serve-warm`` workload: an open loop over TCP against a plan server
running in its own process.

Requests are due on a seeded Poisson schedule at one fixed offered rate.
Most draw, with fixed skewed popularity, from a hot set of small-corpus
programs; a fixed share carries a never-seen program (a fresh corpus seed
and a unique name, so its fingerprint is new).  Each request carries a
seeded client store and a backend drawn per request.  The draws are
stratified (see :func:`build_schedule`), so seeds differ in order and
timing but not in composition.

The generator is this process's main thread: it sends each request when it
falls due, polls every open ticket's ``done`` flag every ``poll_ms``, and
counts a request's latency from its due time to the poll that saw it done,
so a stall is charged to every request due behind it.  The
:class:`~repro.serving.transport.TransportClient`'s reader thread is the
only other thread, on one connection.
"""

from __future__ import annotations

import dataclasses
import io
import json
import os
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

import common
from planning import Oracle, Store
from spans import Tracer

from repro.core.strategy import program_fingerprint
from repro.runtime.backends import ExecConfig
from repro.serving.api import PlanRequest
from repro.serving.transport import TransportClient, wire
from repro.serving.transport.wire import FrameKind
from repro.workloads.corpus import DEFAULT_CORPUS_SEED, selection_corpus

SPEC = common.RATIONALE["workloads"]["serve-warm"]["inputs"]
BACKENDS = ("serial", "compiled", "process")


@dataclass
class Planned:
    """One scheduled request: when it is due and what it carries."""

    due_s: float
    program: object
    params: Dict[str, int]
    backend: str
    store_seed: int
    miss: bool


def hot_set() -> List[Tuple[object, Dict[str, int]]]:
    """The fixed hot programs (small corpus at the default corpus seed)."""
    entries = {e.name: e for e in selection_corpus(DEFAULT_CORPUS_SEED, "small")}
    return [(entries[n].program, dict(entries[n].params)) for n in SPEC["hot_set"]]


def build_schedule(seed: int, seconds: float) -> List[Planned]:
    """The request schedule; the same seed always gives the same schedule.

    Arrivals are a Poisson process conditioned on its count: ``rate *
    seconds`` due times drawn uniformly and sorted.  The mix is stratified
    so that every seed offers the same composition: backends rotate in
    shuffled blocks of three, hot programs are dealt from shuffled decks of
    100 holding their popularity counts, and misses fall one per stratum of
    ``1 / miss_share`` requests, cycling through the seeded corpus entries.
    """
    rng = common.rng_for(seed, "schedule")
    n = round(SPEC["offered_rps"] * seconds)
    due = sorted(rng.uniform(0.0, seconds) for _ in range(n))
    n_miss = round(n * SPEC["miss_share"])
    misses = {int((j + rng.random()) * n / n_miss): j for j in range(n_miss)}
    hot = hot_set()
    deck_counts = [round(w * 100) for w in SPEC["hot_popularity"]]
    schedule: List[Planned] = []
    backends: List[str] = []
    deck: List[int] = []
    for i, t in enumerate(due):
        if not backends:
            backends = rng.sample(BACKENDS, len(BACKENDS))
        backend = backends.pop()
        store_seed = rng.randrange(SPEC["stores_per_program"])
        if i in misses:
            j = misses[i]
            name = SPEC["miss_entries"][j % len(SPEC["miss_entries"])]
            entries = selection_corpus(common.derive_seed(seed, "miss", j), "small")
            entry = next(e for e in entries if e.name == name)
            # the unique name guarantees a new fingerprint even if two corpus
            # seeds happen to generate the same loop
            program = dataclasses.replace(entry.program, name=f"{name}~{seed}.{j}")
            schedule.append(Planned(t, program, dict(entry.params), backend, store_seed, True))
            continue
        if not deck:
            deck = [k for k, c in enumerate(deck_counts) for _ in range(c)]
            rng.shuffle(deck)
        program, params = hot[deck.pop()]
        schedule.append(Planned(t, program, params, backend, store_seed, False))
    return schedule


def exec_config(backend: str) -> ExecConfig:
    workers = (os.cpu_count() or 1) if backend == "process" else 1
    return ExecConfig(backend=backend, workers=workers)


def inputs(oracle: Oracle, item: Planned) -> Tuple[Store, Store]:
    """(client store, expected store) of one request."""
    return oracle.inputs(item.program, item.params, item.store_seed)


# ---------------------------------------------------------------------------
# the server process
# ---------------------------------------------------------------------------


class ServerProcess:
    """``serve_proc.py`` in a child process, driven over its stdin/stdout."""

    def __init__(self) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, str(common.BENCH_DIR / "serve_proc.py"),
             str(SPEC["max_pools"])],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=common.child_env(),
            cwd=str(common.ROOT),
            text=True,
        )
        self.port = json.loads(self.proc.stdout.readline())["port"]

    def stats(self) -> Dict[str, object]:
        self.proc.stdin.write("stats\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())["stats"]

    def stop(self) -> None:
        """Close the server and wait for its process to exit."""
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.close()
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def warm_up(client: TransportClient, oracle: Oracle) -> None:
    """Serve every hot program once per backend: plans, kernels and pools."""
    for program, params in hot_set():
        for backend in BACKENDS:
            item = Planned(0.0, program, params, backend, 0, False)
            store, _ = inputs(oracle, item)
            client.request(program, params, exec_config=exec_config(backend),
                           store={a: v.copy() for a, v in store.items()}, timeout=120)


def start_server(oracle: Oracle) -> Tuple[ServerProcess, TransportClient, float]:
    """Start and warm a server; returns it, a connected client and the
    seconds from spawn to warm."""
    t0 = time.perf_counter()
    server = ServerProcess()
    try:
        client = TransportClient("127.0.0.1", server.port)
        try:
            warm_up(client, oracle)
        except BaseException:
            client.close()
            raise
    except BaseException:
        server.stop()
        raise
    return server, client, time.perf_counter() - t0


# ---------------------------------------------------------------------------
# the open-loop generator
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    """What the generator observed for one request."""

    item: Planned
    request: PlanRequest
    sent_s: float = 0.0
    done_s: Optional[float] = None
    ticket: object = None


def generate(client: TransportClient, schedule: List[Planned], oracle: Oracle,
             seed: int, drain_s: float,
             stall: Optional[Tuple[int, float]] = None) -> Tuple[List[Outcome], float]:
    """Send ``schedule`` open-loop; returns outcomes (times relative to the
    loop's start) and the generator's worst lateness in seconds.

    ``stall=(i, s)`` makes the generator sleep ``s`` seconds before sending
    request ``i`` (used by the self-test of due-time accounting).
    """
    poll_s = SPEC["poll_ms"] / 1e3
    outcomes = []
    for i, item in enumerate(schedule):
        store, _ = inputs(oracle, item)
        outcomes.append(Outcome(item, PlanRequest(
            program=item.program,
            params=item.params,
            exec_config=exec_config(item.backend),
            store={a: v.copy() for a, v in store.items()},
            request_id=f"{seed}-{i}",
        )))
    open_: List[Outcome] = []
    late_max = 0.0
    nxt = 0
    t0 = time.perf_counter()
    deadline = t0 + (schedule[-1].due_s if schedule else 0.0) + drain_s
    while nxt < len(outcomes) or open_:
        now = time.perf_counter()
        if open_:
            still = []
            for o in open_:
                if o.ticket.done:
                    o.done_s = now - t0
                else:
                    still.append(o)
            open_ = still
        if nxt < len(outcomes) and t0 + outcomes[nxt].item.due_s <= now:
            o = outcomes[nxt]
            if stall is not None and stall[0] == nxt:
                time.sleep(stall[1])
                now = time.perf_counter()
            o.sent_s = now - t0
            late_max = max(late_max, o.sent_s - o.item.due_s)
            o.ticket = client.submit(o.request)
            open_.append(o)
            nxt += 1
            continue
        if now > deadline:
            break  # whatever is still open is counted as failed
        wake = t0 + outcomes[nxt].item.due_s if nxt < len(outcomes) else now + poll_s
        time.sleep(max(0.0, min(poll_s, wake - now)))
    return outcomes, late_max


def check(outcome: Outcome, oracle: Oracle) -> Tuple[bool, Optional[object]]:
    """(answered correctly, response) for one outcome."""
    if outcome.done_s is None:
        return False, None
    try:
        response = outcome.ticket.result(0)
    except Exception:  # noqa: BLE001 - refused or failed requests count as failed
        return False, None
    _, expected = inputs(oracle, outcome.item)
    return Oracle.matches(expected, response.result.store), response


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------


def run(seed: int, seconds: float, traced: bool) -> Dict[str, object]:
    oracle = Oracle(seed)
    schedule = build_schedule(seed, seconds)
    for item in schedule:
        inputs(oracle, item)

    setups = []
    for _ in range(SPEC["setup_repeats"] - 1):
        server, client, took = start_server(oracle)
        client.close()
        server.stop()
        setups.append(took)
    server, client, took = start_server(oracle)
    setups.append(took)
    try:
        before = server.stats()
        outcomes, late_max = generate(client, schedule, oracle, seed, SPEC["drain_s"])
        after = server.stats()
    finally:
        client.close()
        server.stop()

    latencies, miss_lat, responses = [], [], []
    failed = within = 0
    limit = SPEC["latency_limit_ms"]
    for o in outcomes:
        ok, response = check(o, oracle)
        if not ok:
            failed += 1
            continue
        lat = (o.done_s - o.item.due_s) * 1e3
        latencies.append(lat)
        responses.append((o, response))
        within += lat <= limit
        if not response.plan_cache_hit:
            miss_lat.append(lat)

    out = {
        "attempted": len(outcomes),
        "failed": failed,
        "errors": [f"{failed} of {len(outcomes)} requests failed"] if failed else [],
        "setup_s": setups,
        "late_ms_max": late_max * 1e3,
        "valid": late_max * 1e3 <= SPEC["max_late_ms"],
    }
    if not traced:
        tail_q = common.RATIONALE["workloads"]["serve-warm"]["tail_percentile"]
        plan_s = sum(r.timings["plan_s"] for _, r in responses)
        exec_s = sum(r.timings["execute_s"] for _, r in responses)
        instances = sum(r.result.instances_executed for _, r in responses)
        n = len(latencies)
        out["rows"] = {
            "latency_ms_p50": common.metric_row("ms", common.percentile(latencies, 50), latencies),
            "latency_ms_tail": common.metric_row(
                "ms", common.percentile(latencies, tail_q), n=n),
            "plan_instances_per_s": common.metric_row("1/s", instances / plan_s, n=n),
            "run_instances_per_s": common.metric_row("1/s", instances / exec_s, n=n),
            "miss_latency_ms_p50": common.metric_row(
                "ms", common.percentile(miss_lat, 50), miss_lat),
            "slo_ratio": common.metric_row("fraction", within / max(len(outcomes), 1),
                                           n=len(outcomes)),
            "failed_ratio": common.metric_row("fraction", failed / max(len(outcomes), 1),
                                              n=len(outcomes)),
        }
        out["tail_beyond"] = common.samples_beyond(n, tail_q)
        return out

    out["rows"] = layer_rows(responses, before, after, late_max, outcomes)
    return out


def _delta(after, before, *path) -> float:
    a, b = after, before
    for key in path:
        a, b = a[key], b[key]
    return float(a) - float(b)


def layer_rows(responses, before, after, late_max, outcomes) -> Dict[str, Dict[str, object]]:
    # One client span per request, submit -> seen done, keyed by request id;
    # the server's plan and execute stages are its children, so its self
    # time is the outside time (queue wait, wire, thread hand-offs, polling).
    t_build = time.perf_counter()
    tracer = Tracer()
    for o, r in responses:
        start = int(o.sent_s * 1e9)
        root = tracer.add("request", o.request.request_id, start, int(o.done_s * 1e9))
        for stage in ("plan_s", "execute_s"):
            end = start + int(r.timings[stage] * 1e9)
            tracer.add(f"server.{stage}", o.request.request_id, start, end, parent=root)
            start = end
    build_ms = (time.perf_counter() - t_build) * 1e3

    def ms_row(values, q=50):
        return common.metric_row("ms", common.percentile(values, q), values)

    rows: Dict[str, Dict[str, object]] = {}
    outside = [root.self_ms for root in tracer.roots]
    plan_ms = tracer.self_ms_by_trace("server.plan_s")
    rows["serving.server_plan_ms_p50"] = ms_row(plan_ms)
    for backend in BACKENDS:
        sel = [r for o, r in responses if o.item.backend == backend]
        rows[f"serving.server_execute_ms_p50.{backend}"] = ms_row(
            [r.timings["execute_s"] * 1e3 for r in sel])
        rows[f"runtime.execute_ms.{backend}"] = ms_row(
            [r.result.elapsed_s * 1e3 for r in sel])
    rows["serving.outside_ms_p50"] = ms_row(outside)
    rows["serving.outside_ms_p99"] = common.metric_row(
        "ms", common.percentile(outside, 99), n=len(outside))

    phase_s = sum(sum(p.elapsed_s for p in r.result.phase_stats) for _, r in responses)
    instances = sum(r.result.instances_executed for _, r in responses)
    rows["runtime.us_per_instance"] = common.metric_row(
        "us", phase_s * 1e6 / max(instances, 1), n=len(responses))
    rows["runtime.phases"] = common.metric_row(
        "count", sum(r.result.phases_executed for _, r in responses))
    rows["runtime.instances"] = common.metric_row("count", instances)

    rows.update(wire_rows(responses))

    queue = after["server"]["queue"]
    rows["serving.queue.high_water"] = common.metric_row("count", queue["high_water"])
    rows["serving.queue.rejected"] = common.metric_row(
        "count", _delta(after, before, "server", "queue", "rejected"))
    rows["serving.batch_size_mean"] = common.metric_row(
        "count", float(np.mean([r.batch_size for _, r in responses])), n=len(responses))
    hits = _delta(after, before, "server", "plan_cache", "hits")
    misses = _delta(after, before, "server", "plan_cache", "misses")
    rows["serving.plan_cache.hit_ratio"] = common.metric_row(
        "fraction", hits / max(hits + misses, 1), n=int(hits + misses))
    created = _delta(after, before, "server", "pools", "created")
    reused = _delta(after, before, "server", "pools", "reused")
    rows["serving.pools.reuse_ratio"] = common.metric_row(
        "fraction", reused / max(reused + created, 1), n=int(reused + created))
    rows["serving.pools.created"] = common.metric_row("count", created)
    rows["serving.pools.evicted"] = common.metric_row(
        "count", _delta(after, before, "server", "pools", "evicted"))
    kernel = [r.result.meta["kernel_cache"] for o, r in responses
              if o.item.backend == "compiled" and "kernel_cache" in r.result.meta]
    rows["codegen.kernel_cache.hit_ratio"] = common.metric_row(
        "fraction", sum(k == "hit" for k in kernel) / max(len(kernel), 1), n=len(kernel))
    rows["serving.client.retries"] = common.metric_row(
        "count", sum(o.ticket.attempts - 1 for o in outcomes if o.ticket is not None))
    rows["serving.gen.late_ms_max"] = common.metric_row("ms", late_max * 1e3)

    # Latency counts from the due time; the spans start at the send, so the
    # generator's lateness is the part they do not attribute.
    due_ms = sum((o.done_s - o.item.due_s) * 1e3 for o, _ in responses)
    span_ms = sum(root.duration_ms for root in tracer.roots)
    rows["trace.accounted_ratio"] = common.metric_row(
        "ratio", span_ms / due_ms if due_ms else 0.0, n=len(responses))
    # Spans are built from timestamps the untraced run takes too, after the
    # loop; the overhead is what building them inline would add per request.
    rows["trace.overhead_pct"] = common.metric_row(
        "%", build_ms / span_ms * 100 if span_ms else 0.0, n=len(responses))
    return rows


def wire_rows(responses) -> Dict[str, Dict[str, object]]:
    """Replay the wire codec on the served request mix, request by request."""
    enc_req, dec_req, enc_resp, dec_resp, sizes, fps = [], [], [], [], [], []
    for o, r in responses:
        t0 = time.perf_counter()
        buf = io.BytesIO()
        header, payloads = wire.request_frame(o.request)
        wire.write_frame(buf, FrameKind.REQUEST, header, payloads)
        t1 = time.perf_counter()
        buf.seek(0)
        _, header, payloads = wire.read_frame(buf)
        req = wire.decode_request(header, payloads)
        t2 = time.perf_counter()
        out = io.BytesIO()
        header, payloads = wire.response_frame(r)
        wire.write_frame(out, FrameKind.RESPONSE, header, payloads)
        t3 = time.perf_counter()
        out.seek(0)
        _, header, payloads = wire.read_frame(out)
        wire.decode_response(header, payloads)
        t4 = time.perf_counter()
        program_fingerprint(req.program)
        t5 = time.perf_counter()
        enc_req.append((t1 - t0) * 1e3)
        dec_req.append((t2 - t1) * 1e3)
        enc_resp.append((t3 - t2) * 1e3)
        dec_resp.append((t4 - t3) * 1e3)
        fps.append((t5 - t4) * 1e3)
        sizes.append(len(buf.getvalue()))

    def ms(values):
        return common.metric_row("ms", common.percentile(values, 50), values)

    return {
        "ir.fingerprint_ms": ms(fps),
        "serving.transport.encode_request_ms": ms(enc_req),
        "serving.transport.decode_request_ms": ms(dec_req),
        "serving.transport.encode_response_ms": ms(enc_resp),
        "serving.transport.decode_response_ms": ms(dec_resp),
        "serving.transport.bytes_per_request": common.metric_row(
            "bytes", float(np.mean(sizes)) if sizes else 0.0, n=len(sizes)),
    }
