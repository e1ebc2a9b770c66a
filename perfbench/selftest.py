"""Self-tests of the benchmark itself (not of the library).

    python3 perfbench/selftest.py

They check that a seed fixes the inputs, that count metrics repeat exactly
at one seed, that the open-loop generator charges a stall to the requests
due behind it, and that the traced replay of ``plan()`` accounts for the
untraced ``plan()`` time within the stated tolerance.  The file is not named
``test_*`` so the library's test suite does not collect it.
"""

import sys
import time
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402

sys.path.insert(0, str(common.SRC))

import planning  # noqa: E402
import serving  # noqa: E402

COUNT_PREFIXES = ("dependence.", "core.chosen.", "core.schedule.", "core.chains.",
                  "runtime.phases", "runtime.instances")


def _programs(progs):
    return [(name, str(prog), sorted(params.items())) for name, prog, params in progs]


def _schedule(items):
    return [(i.due_s, i.program.name, str(i.program), i.backend, i.store_seed, i.miss)
            for i in items]


class SeedFixesInputs(unittest.TestCase):
    def test_program_sets(self):
        for make in (planning.corpus_pass, planning.paper_pass):
            self.assertEqual(_programs(make(7, 0)), _programs(make(7, 0)))
            self.assertEqual(_programs(make(7, 3)), _programs(make(7, 3)))
        self.assertNotEqual(_programs(planning.corpus_pass(7, 0)),
                            _programs(planning.corpus_pass(8, 0)))

    def test_request_schedule(self):
        first = _schedule(serving.build_schedule(7, 5.0))
        self.assertEqual(first, _schedule(serving.build_schedule(7, 5.0)))
        self.assertNotEqual(first, _schedule(serving.build_schedule(8, 5.0)))
        self.assertTrue(any(item[5] for item in first), "no never-seen program drawn")

    def test_stores(self):
        _, prog, params = planning.paper_programs()[0]
        (sa, ea), (sb, eb) = (planning.Oracle(7).inputs(prog, params) for _ in range(2))
        self.assertTrue(planning.Oracle.matches(sa, sb))
        self.assertTrue(planning.Oracle.matches(ea, eb))


class PlanningRepeats(unittest.TestCase):
    """Two traced runs at one seed (pass 0 only) give identical counts, and
    the replay's stages account for the untraced plan() time."""

    def _check(self, workload):
        runs = [planning.run(workload, 5, 0.0, traced=True) for _ in range(2)]
        for out in runs:
            self.assertEqual(out["failed"], 0, out["errors"])
        counts = [
            {k: v["value"] for k, v in out["rows"].items() if k.startswith(COUNT_PREFIXES)}
            for out in runs
        ]
        self.assertGreater(len(counts[0]), 10)
        self.assertEqual(counts[0], counts[1])
        tol = common.RATIONALE["tolerances"]["replay_vs_plan"]
        for out in runs:
            ratio = out["rows"]["trace.accounted_ratio"]["value"]
            self.assertLess(abs(ratio - 1.0), tol, f"stage sum / plan() = {ratio:.3f}")

    def test_corpus_cold(self):
        self._check("corpus-cold")

    def test_paper_scale(self):
        self._check("paper-scale")


class DueTimeAccounting(unittest.TestCase):
    """A stalled generator charges the stall to every request due behind it."""

    def test_stall_raises_later_latencies(self):
        stall_s = 0.5
        seed = 3
        schedule = serving.build_schedule(seed, 2.0)
        oracle = serving.Oracle(seed)
        at = len(schedule) // 3
        server, client, _ = serving.start_server(oracle)
        try:
            outcomes, late = serving.generate(client, schedule, oracle, seed,
                                              drain_s=30, stall=(at, stall_s))
        finally:
            client.close()
            server.stop()
        stall_end = outcomes[at].sent_s
        behind = [o for o in outcomes[at:] if o.item.due_s < stall_end]
        self.assertGreater(len(behind), 3)
        for o in behind:
            ok, _ = serving.check(o, oracle)
            self.assertTrue(ok)
            latency = o.done_s - o.item.due_s
            self.assertGreaterEqual(latency, stall_end - o.item.due_s)
        self.assertGreaterEqual(late, stall_s - 0.01)
        before = [o.done_s - o.item.due_s for o in outcomes[:at]]
        self.assertGreater(behind[0].done_s - behind[0].item.due_s,
                           sorted(before)[len(before) // 2] + stall_s / 2)


if __name__ == "__main__":
    t0 = time.perf_counter()
    result = unittest.main(exit=False, verbosity=2).result
    print(f"selftest wall {time.perf_counter() - t0:.1f} s", file=sys.stderr)
    sys.exit(0 if result.wasSuccessful() else 1)
