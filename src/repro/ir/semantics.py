"""Executable statement semantics used by the runtime validators.

The partitioning schemes are *semantics preserving* transformations: any
schedule they produce must compute exactly the same array contents as the
original sequential loop.  To test that, every statement needs an executable
meaning.  Two standard semantics are provided:

* :func:`order_sensitive_semantics` (the default) — the written value is a
  non-commutative, order-sensitive integer function of the values read and of
  the iteration vector.  If a schedule executes two dependent iterations in
  the wrong order, or misses/duplicates an iteration, the final array contents
  differ from the sequential run with overwhelming probability, so the
  validator catches the bug.
* :func:`sum_semantics` — a simple accumulating semantics for benchmarks where
  raw arithmetic throughput matters more than detection strength.
* :func:`compute_heavy_semantics` — the order-sensitive mixing iterated for a
  fixed number of rounds, giving each statement instance a realistic amount of
  per-point compute.  The interpreter's per-instance dispatch is a few
  microseconds — far below the paper's real loop bodies — which makes runtime
  *overheads* dominate any executor measurement; the process-backend
  benchmarks use this kernel so the measured speedup reflects the schedule's
  parallelism rather than dispatch cost.  Module-level (and deliberately
  closure-free) so it pickles under every multiprocessing start method.

Both are pure functions of their arguments; all arithmetic is integer so the
comparison against the sequential reference is exact (no floating point
tolerance games).
"""

from __future__ import annotations

from typing import Mapping, Sequence

__all__ = [
    "order_sensitive_semantics",
    "sum_semantics",
    "compute_heavy_semantics",
    "COMPUTE_HEAVY_ROUNDS",
    "DEFAULT_SEMANTICS",
    "MODULUS",
]

#: The mixing modulus, 2^31 - 1 (a Mersenne prime): it keeps the mixed values
#: bounded while preserving the "different order => different value" property
#: with high probability.  The executor's vector step reduces by the same
#: constant.
MODULUS = 2_147_483_647


def order_sensitive_semantics(
    arrays: Mapping[str, object],
    env: Mapping[str, int],
    read_values: Sequence[int],
) -> int:
    """Order-sensitive integer mixing of the read values and iteration vector.

    The value depends on the *sequence* of updates that produced the read
    values (multiplication by 31 chains them non-commutatively with the
    iteration contribution), which is what makes ordering violations visible.
    """
    acc = 17
    for v in read_values:
        # Multiply the read value into the accumulator (coefficient != 1) so
        # that chaining two updates in different orders cannot cancel out.
        acc = (31 * (acc + int(v))) % MODULUS
    for k, name in enumerate(sorted(env)):
        acc = (acc + (k + 2) * int(env[name])) % MODULUS
    return acc


def sum_semantics(
    arrays: Mapping[str, object],
    env: Mapping[str, int],
    read_values: Sequence[int],
) -> int:
    """Accumulating semantics: written value = sum of reads + 1."""
    return int(sum(int(v) for v in read_values) + 1)


#: Mixing rounds of :func:`compute_heavy_semantics` — sized so one instance
#: costs tens of microseconds of pure-Python integer arithmetic (roughly the
#: work of a small real loop body under the interpreter).
COMPUTE_HEAVY_ROUNDS = 250


def compute_heavy_semantics(
    arrays: Mapping[str, object],
    env: Mapping[str, int],
    read_values: Sequence[int],
) -> int:
    """Order-sensitive mixing iterated :data:`COMPUTE_HEAVY_ROUNDS` times.

    Same detection property as :func:`order_sensitive_semantics` (the first
    round *is* that function's chain), then keeps mixing the accumulator so
    each statement instance performs a fixed, compute-bound amount of work.
    Deterministic, integer-exact, and picklable (module-level, no closure):
    the exact-equality validation story is unchanged, only the per-instance
    cost grows.
    """
    acc = 17
    for v in read_values:
        acc = (31 * (acc + int(v))) % MODULUS
    for k, name in enumerate(sorted(env)):
        acc = (acc + (k + 2) * int(env[name])) % MODULUS
    for _ in range(COMPUTE_HEAVY_ROUNDS):
        acc = (31 * acc + 7) % MODULUS
    return acc


DEFAULT_SEMANTICS = order_sensitive_semantics
