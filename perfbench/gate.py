"""Correctness gate of the slot benchmark, run outside the timed region.

Three checks over every slot a run drove:

* conservation — every submission resolved exactly once:
  ``submitted == granted + rejected + errors``;
* bit-identity — each request's outcome over TCP (grant channel and slot,
  or reject reason and slot) equals that of an in-process
  ``SchedulingService`` driven directly, with no TCP, over the same inputs;
* optimality — per (slot, output fiber) the grant count equals the
  Hopcroft–Karp maximum matching of that slot's request graph (requests
  that reached the scheduler) on the channels free at that slot, and every
  grant is on a distinct, free, convertible channel.

A run drives the same input from slot 0 on several servers, so
:func:`check` compares each of them with the reference and
:func:`optimality` checks the reference once, over the longest of them:
a run identical to an optimal reference is optimal.
"""

from __future__ import annotations

from collections import defaultdict

from repro.graphs import BipartiteGraph, hopcroft_karp
from repro.service import SchedulingService
from repro.service.server import RejectReason, ServiceGrant

__all__ = ["GRANT", "Reference", "check", "optimality"]

#: Outcome tag of a grant: ``(GRANT, channel, slot)``; a reject is
#: ``(reason name, slot)`` and a failed request ``("ERROR", message)``.
GRANT = "GRANT"


class Reference:
    """An in-process ``SchedulingService`` driven directly, slot by slot.

    :meth:`advance` may be called several times; :attr:`outcomes` holds one
    row per slot driven so far, in the form :func:`check` compares.
    """

    def __init__(self, workload) -> None:
        # Durability only adds recovery state; it never changes an outcome.
        self.service = SchedulingService(
            workload.n_fibers, workload.scheme(), workload.scheduler(),
            durability=False,
        )
        self.outcomes: list[list[tuple]] = []

    async def advance(self, slots) -> None:
        """Drive ``slots`` (the next slots of the input) through the service."""
        for requests in slots:
            futures = [self.service.submit_nowait(r) for r in requests]
            await self.service.tick()
            row = []
            for fut in futures:
                o = fut.result()
                if isinstance(o, ServiceGrant):
                    row.append((GRANT, o.channel, o.slot))
                else:
                    row.append((o.reason.name, -1 if o.slot is None else o.slot))
            self.outcomes.append(row)

    async def close(self) -> None:
        await self.service.stop()


def check(slots, outcomes, reference) -> list[str]:
    """Conservation and bit-identity problems (empty = the run is correct)."""
    problems: list[str] = []
    submitted = sum(len(r) for r in slots)
    reasons = {r.name for r in RejectReason}
    granted = sum(1 for row in outcomes for o in row if o[0] == GRANT)
    rejected = sum(1 for row in outcomes for o in row if o[0] in reasons)
    errors = sum(1 for row in outcomes for o in row if o[0] == "ERROR")
    if submitted != granted + rejected + errors:
        problems.append(
            f"conservation: submitted {submitted} != granted {granted} + "
            f"rejected {rejected} + errors {errors}"
        )
    for t, (row, ref) in enumerate(zip(outcomes, reference)):
        if row != ref:
            bad = next(
                (i for i, (a, b) in enumerate(zip(row, ref)) if a != b),
                min(len(row), len(ref)),
            )

            def at(seq, i):
                return seq[i] if i < len(seq) else "nothing"

            problems.append(
                f"slot {t} request {bad} {at(slots[t], bad)}: TCP {at(row, bad)} "
                f"!= in-process reference {at(ref, bad)}"
            )
            break
    return problems


def optimality(workload, slots, outcomes) -> list[str]:
    """Optimality problems of ``outcomes`` (empty = every slot is optimal)."""
    scheme = workload.scheme()
    k = scheme.k
    # The request graph's edges, built once per wavelength: RequestGraph
    # builds the same graph but re-validates every edge on every call.
    reach = [scheme.adjacency(w) for w in range(k)]
    busy_until = [[0] * k for _ in range(workload.n_fibers)]
    for t, (requests, row) in enumerate(zip(slots, outcomes)):
        scheduled: dict[int, list[int]] = defaultdict(list)
        grants: dict[int, list[tuple[int, int, int]]] = defaultdict(list)
        for r, o in zip(requests, row):
            if o[0] == GRANT:
                scheduled[r.output_fiber].append(r.wavelength)
                grants[r.output_fiber].append((r.wavelength, o[1], r.duration))
            elif o[0] == "CONTENTION":
                scheduled[r.output_fiber].append(r.wavelength)
        for out, wavelengths in scheduled.items():
            free = [busy_until[out][b] <= t for b in range(k)]
            channels = [ch for _w, ch, _d in grants[out]]
            if len(set(channels)) != len(channels):
                return [f"slot {t} output {out}: channel granted twice"]
            for w, ch, _d in grants[out]:
                if not free[ch] or ch not in reach[w]:
                    return [
                        f"slot {t} output {out}: λ{w}→channel {ch} is "
                        "occupied or not convertible"
                    ]
            edges = [
                (i, b) for i, w in enumerate(wavelengths) for b in reach[w] if free[b]
            ]
            best = len(hopcroft_karp(BipartiteGraph(len(wavelengths), k, edges)))
            if best != len(channels):
                return [
                    f"slot {t} output {out}: {len(channels)} grants, "
                    f"Hopcroft-Karp maximum is {best}"
                ]
            for _w, ch, d in grants[out]:
                busy_until[out][ch] = t + d
    return []
