"""Executable Python code generation.

Two generators whose output is *actually executed* by the test-suite:

* :func:`generate_chain_function` — the WHILE-loop chain walker of §3.2 as
  Python source: starting from an iteration it repeatedly applies
  ``i ← i·T + u`` (with explicit integrality checks) while the image stays in
  the intermediate set, and returns the visited chain.  The tests compare the
  compiled function against :func:`repro.core.chains.chains_from_recurrence`.
* :func:`generate_schedule_runner` — a Python function that replays a
  partitioned schedule over an array store (phases → barriers, units → ordered
  instance lists) using the program's statement semantics.  The tests compare
  its effect against the interpreting executor and the sequential reference.

Schedules are executed by :class:`repro.runtime.executor.InstanceRunner`, not
by generated code: these generators are printers whose output the tests run.
Generated source is returned as a string and compiled with ``compile``/``exec``
into an isolated namespace, so the artifacts can also be written to disk and
inspected — the Python analogue of the paper's generated Fortran.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List

from ..core.recurrence import AffineRecurrence
from ..core.schedule import Schedule
from ..ir.program import LoopProgram

__all__ = [
    "generate_chain_function",
    "compile_function",
    "generate_schedule_runner",
]


def compile_function(source: str, name: str) -> Callable:
    """Compile generated source and return the named function object."""
    namespace: Dict[str, object] = {}
    exec(compile(source, filename=f"<generated:{name}>", mode="exec"), namespace)
    fn = namespace.get(name)
    if fn is None:
        raise ValueError(f"generated source does not define {name!r}")
    return fn  # type: ignore[return-value]


def generate_chain_function(
    recurrence: AffineRecurrence,
    dim: int,
    name: str = "follow_chain",
) -> str:
    """Python source for the WHILE-loop chain walker.

    The generated function has the signature
    ``follow_chain(start, in_intermediate)`` where ``in_intermediate`` is a
    membership predicate for the intermediate set; it returns the list of
    visited iterations (the monotonic chain), exactly what the paper's
    ``chain`` subroutine executes.  Both the forward map and its inverse are
    emitted because the lexicographically forward direction can instantiate
    either side of the dependence equation (cf. figure 2).
    """
    def emit_map(T, u, fname: str) -> List[str]:
        lines = [f"def {fname}(point):"]
        lines.append('    """Apply the affine recurrence; return None when non-integral."""')
        for col in range(dim):
            terms = []
            for row in range(dim):
                coeff = Fraction(T[row][col])
                if coeff == 0:
                    continue
                terms.append(f"Fraction({coeff.numerator}, {coeff.denominator}) * point[{row}]")
            uc = Fraction(u[col])
            terms.append(f"Fraction({uc.numerator}, {uc.denominator})")
            lines.append(f"    c{col} = " + " + ".join(terms))
        checks = " or ".join(f"c{col}.denominator != 1" for col in range(dim))
        lines.append(f"    if {checks}:")
        lines.append("        return None")
        coords = ", ".join(f"int(c{col})" for col in range(dim))
        lines.append(f"    return ({coords}{',' if dim == 1 else ''})")
        return lines

    fwd = recurrence
    inv = recurrence.inverse()
    source_lines: List[str] = ["from fractions import Fraction", ""]
    source_lines += emit_map(fwd.T.tolist(), list(fwd.u), "_apply_forward")
    source_lines.append("")
    source_lines += emit_map(inv.T.tolist(), list(inv.u), "_apply_inverse")
    source_lines.append("")
    source_lines += [
        f"def {name}(start, in_intermediate):",
        '    """Follow the monotonic recurrence chain from start (start included)."""',
        "    chain = [tuple(start)]",
        "    current = tuple(start)",
        "    while True:",
        "        candidates = []",
        "        for step in (_apply_forward, _apply_inverse):",
        "            nxt = step(current)",
        "            if nxt is not None and nxt > current and in_intermediate(nxt):",
        "                candidates.append(nxt)",
        "        candidates = sorted(set(candidates))",
        "        if not candidates:",
        "            return chain",
        "        if len(candidates) > 1:",
        "            raise RuntimeError('chain bifurcates at %r' % (current,))",
        "        current = candidates[0]",
        "        if current in chain:",
        "            return chain",
        "        chain.append(current)",
    ]
    return "\n".join(source_lines) + "\n"


def generate_schedule_runner(
    program: LoopProgram,
    schedule: Schedule,
    name: str = "run_schedule",
) -> str:
    """Python source that replays a schedule over an array store.

    The generated function takes ``(store, semantics)`` where ``store`` maps
    array names to numpy arrays and ``semantics`` maps statement labels to
    callables ``(store, env, read_values) -> value``; phases are separated by
    comments marking the barrier, mirroring the OpenMP structure.
    """
    contexts = {ctx.statement.label: ctx for ctx in program.statement_contexts()}
    lines: List[str] = [
        f"def {name}(store, semantics):",
        f'    """Generated from schedule {schedule.name!r} ({schedule.num_phases} phases)."""',
    ]
    for pi, phase in enumerate(schedule.phases):
        lines.append(f"    # phase {pi}: {phase.name} ({len(phase.units)} parallel units)")
        for unit in phase.units:
            for label, iteration in unit.instances:
                ctx = contexts[label]
                env_items = ", ".join(
                    f"{n!r}: {v}" for n, v in zip(ctx.index_names, iteration)
                )
                stmt = ctx.statement
                reads = []
                for ref in stmt.reads:
                    idx = ref.evaluate(dict(zip(ctx.index_names, iteration)))
                    reads.append(f"int(store[{ref.array!r}][{idx!r}])")
                reads_src = "[" + ", ".join(reads) + "]"
                lines.append(
                    f"    _v = semantics[{label!r}](store, {{{env_items}}}, {reads_src})"
                )
                for ref in stmt.writes:
                    idx = ref.evaluate(dict(zip(ctx.index_names, iteration)))
                    lines.append(f"    store[{ref.array!r}][{idx!r}] = int(_v)")
        lines.append(f"    # ---- barrier after phase {pi} ----")
    lines.append("    return store")
    return "\n".join(lines) + "\n"
