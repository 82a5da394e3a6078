"""RPL005 — clock discipline: clock-free kernels, one clock source in obs.

Kernel modules (``models/*``, ``core/*``) are the code whose outputs
must be bit-identical under a seed and whose phase costs the profiler
attributes exactly.  A stray ``time.time()`` / ``time.perf_counter()``
there either leaks timing into logic or double-counts a phase that the
sanctioned :mod:`repro.obs.trace` spans (the trainer's one stopwatch)
already measure.  Timing belongs to the orchestration
layers — trainer, pool, eval drivers — or to an explicitly pragma'd
telemetry site.  Importing :mod:`repro.obs.clock` into a kernel is the
same violation with a detour, so that import is banned there too.

The observability package has the complementary invariant: spans, run
logs and metrics must share *one* time axis, so every ``obs/`` module
routes clock reads through :mod:`repro.obs.clock` — which is itself
exempt by construction (it is the single sanctioned ``time.*`` reader),
so no blanket pragmas are needed anywhere in ``obs/``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.findings import FileContext, Finding, Rule

__all__ = ["KernelWallClockRule"]

#: ``time`` module members that read a clock.
CLOCK_MEMBERS = frozenset({
    "monotonic", "monotonic_ns", "perf_counter", "perf_counter_ns",
    "process_time", "process_time_ns", "time", "time_ns",
})

#: The sanctioned clock module (kernels must not import it either).
_CLOCK_MODULE = "repro.obs.clock"


class KernelWallClockRule(Rule):
    """RPL005 — ad-hoc clock reads in kernel and obs modules."""

    code = "RPL005"
    name = "no-kernel-wallclock"
    summary = (
        "kernel modules (models/*, core/*) must not read wall clocks "
        "or import repro.obs.clock; obs/* modules must read clocks "
        "through repro.obs.clock (itself the one exempt reader)"
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        if ctx.is_kernel:
            yield from self._clock_reads(
                ctx,
                "read inside a kernel module; kernels must stay "
                "clock-free (profile via repro.obs.trace spans in the "
                "orchestration layer, or pragma a telemetry-only site "
                "with a reason)",
            )
            yield from self._clock_imports(ctx)
        elif ctx.is_obs:
            yield from self._clock_reads(
                ctx,
                "read directly in an obs module; route it through "
                "repro.obs.clock so spans, run logs and metrics share "
                "one time axis",
            )

    def _clock_reads(self, ctx: FileContext, why: str) -> Iterator[Finding]:
        time_aliases: set[str] = set()
        member_aliases: dict[str, str] = {}
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "time":
                        time_aliases.add(alias.asname or "time")
            elif isinstance(node, ast.ImportFrom) and node.module == "time":
                for alias in node.names:
                    if alias.name in CLOCK_MEMBERS:
                        member_aliases[alias.asname or alias.name] = alias.name
        for node in ast.walk(ctx.tree):
            member: str | None = None
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in time_aliases
                and node.attr in CLOCK_MEMBERS
            ):
                member = node.attr
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id in member_aliases
            ):
                member = member_aliases[node.id]
            if member is not None:
                yield ctx.finding(node, self.code, f"time.{member} {why}")

    def _clock_imports(self, ctx: FileContext) -> Iterator[Finding]:
        """Kernels importing the sanctioned clock module are still kernels
        reading clocks — the laundering detour gets the same finding."""
        for node in ast.walk(ctx.tree):
            hit = False
            if isinstance(node, ast.Import):
                hit = any(
                    alias.name == _CLOCK_MODULE
                    or alias.name.startswith(_CLOCK_MODULE + ".")
                    for alias in node.names
                )
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                hit = module == _CLOCK_MODULE or (
                    module == "repro.obs"
                    and any(alias.name == "clock" for alias in node.names)
                )
            if hit:
                yield ctx.finding(
                    node,
                    self.code,
                    f"{_CLOCK_MODULE} imported into a kernel module; "
                    "kernels must stay clock-free — the sanctioned clock "
                    "is for obs/orchestration code, not kernels",
                )
