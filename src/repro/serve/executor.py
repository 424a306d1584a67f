"""Fluid execution of resident queries on the virtual clock.

The executor is the serve-layer counterpart of the fluid fair-share
policy in :mod:`repro.sim.simulator`: instead of event-stepping one
static schedule, it advances a *changing* population of queries.  Each
running query ``q`` has remaining work ``R_q`` (initialized to its
stand-alone response time ``T0`` at the scheduled degree) and progresses
at rate

    ``r_q = min over hosts(q) of capacity(site) / residents(site)``

— the fair share of its most contended site, since a query proceeds at
the pace of its slowest clone.  On the homogeneous unit pool
(``capacity_of`` omitted) this reduces exactly to the classic
``1 / max residents``: correctly-rounded division is monotone, so the
two forms are bitwise equal.  Rates are piecewise constant between
*events* (a launch, a retirement, an elastic capacity change signalled
via :meth:`FluidExecutor.notify_rates_changed`), so the executor simply
computes the next completion time analytically, sleeps the virtual
clock to whichever comes first — that completion or a membership change
— and integrates progress over the elapsed interval.  No polling, no
tolerance-tuned time steps, and byte-deterministic on the virtual loop.

Rates are cached.  A launch or a completion changes the resident count
of its host sites only, so it invalidates the rates of the queries that
share one of those sites (found through a site -> running-queries
index); a capacity change invalidates every rate.  Each interval then
recomputes just the invalidated rates with the same formula, so every
rate — and every float integrated from it — is bit-identical to a full
recomputation.  The wait itself is one ``loop.call_at`` timer per
interval, cancelled when a change wakes the loop first.
"""

from __future__ import annotations

import asyncio
from collections.abc import Callable
from dataclasses import dataclass, field

from repro.exceptions import ServiceError

__all__ = ["FluidExecutor"]

#: Relative slack for "remaining work is zero" (pure float drift guard).
_COMPLETION_SLACK = 1e-9


@dataclass
class _Running:
    name: str
    demand: float
    remaining: float
    hosts: tuple[int, ...]
    started_at: float
    #: "remaining work is zero" threshold, fixed by the demand.
    done_below: float
    #: fair-share rate, valid while the query is not marked stale.
    rate: float = 0.0


@dataclass
class FluidExecutor:
    """Advances resident queries under fair-share site contention.

    Parameters
    ----------
    residents_of:
        Site index -> number of distinct query-operators resident there
        (the pool's co-residency view; drives the fair-share rate).
    on_complete:
        Called synchronously, in launch order, as each query finishes:
        ``on_complete(name, finished_at)``.  The service uses it to
        retire the pool entry, resolve the client future, and record the
        job — all before the next rate recomputation, so retirement
        immediately speeds up the survivors.
    capacity_of:
        Site index -> relative speed (the pool's heterogeneity view).
        ``None`` means every site is the paper's unit site.
    """

    residents_of: Callable[[int], int]
    on_complete: Callable[[str, float], None]
    capacity_of: "Callable[[int], float] | None" = None

    _running: dict[str, _Running] = field(default_factory=dict, init=False)
    #: site index -> the running queries hosted there, in launch order.
    _on_site: dict[int, dict[str, _Running]] = field(default_factory=dict, init=False)
    #: queries whose cached rate must be recomputed before the next wait.
    _stale: dict[str, _Running] = field(default_factory=dict, init=False)
    _all_stale: bool = field(default=False, init=False)
    _changed: asyncio.Event = field(default_factory=asyncio.Event, init=False)
    _draining: bool = field(default=False, init=False)
    #: ∫ busy-sites dt and ∫ running-queries dt, for the report.
    busy_site_seconds: float = field(default=0.0, init=False)
    query_seconds: float = field(default=0.0, init=False)

    @property
    def running_count(self) -> int:
        """Queries currently executing."""
        return len(self._running)

    @property
    def backlog_seconds(self) -> float:
        """Total remaining stand-alone work of the running set."""
        return sum([q.remaining for q in self._running.values()])

    def launch(self, name: str, demand: float, hosts: tuple[int, ...], now: float) -> None:
        """Admit a placed query into the fluid race."""
        if name in self._running:
            raise ServiceError(f"query {name!r} is already running")
        if demand <= 0.0:
            raise ServiceError(
                f"query {name!r} has non-positive demand {demand}"
            )
        query = _Running(
            name=name,
            demand=demand,
            remaining=demand,
            hosts=tuple(hosts),
            started_at=now,
            done_below=_COMPLETION_SLACK * max(1.0, demand),
        )
        self._running[name] = query
        self._stale[name] = query
        for site in query.hosts:
            self._touch(site)[name] = query
        self._changed.set()

    def _touch(self, site: int) -> dict[str, _Running]:
        """Mark the queries on ``site`` stale; return the site's index entry."""
        residents = self._on_site.get(site)
        if residents is None:
            residents = self._on_site[site] = {}
        else:
            self._stale.update(residents)
        return residents

    def stop_when_idle(self) -> None:
        """Let the run loop exit once the last query completes."""
        self._draining = True
        self._changed.set()

    def notify_rates_changed(self) -> None:
        """Wake the run loop to recompute rates (e.g. a capacity change).

        The current interval is integrated at the rates that were in
        force, then the next interval recomputes every rate against the
        new per-site capacities — exactly how launches and retirements
        propagate to the queries they touch.
        """
        self._all_stale = True
        self._changed.set()

    def _rate(self, query: _Running) -> float:
        best = None
        for site in query.hosts:
            residents = self.residents_of(site)
            if residents < 1:
                raise ServiceError(
                    f"query {query.name!r} runs on a site with no residents "
                    "(pool and executor disagree)"
                )
            capacity = 1.0 if self.capacity_of is None else self.capacity_of(site)
            share = capacity / residents
            if best is None or share < best:
                best = share
        return best

    def _refresh_rates(self) -> None:
        """Recompute the stale rates (all of them after a capacity change)."""
        stale = self._running if self._all_stale else self._stale
        for query in stale.values():
            query.rate = self._rate(query)
        self._stale = {}
        self._all_stale = False

    def _advance(
        self, interval: list[_Running], busy_sites: int, elapsed: float, now: float
    ) -> None:
        """Integrate ``elapsed`` seconds of progress and fire completions.

        ``interval`` holds the queries that raced over the interval and
        ``busy_sites`` the sites they occupied.  Queries launched during
        the wait joined at the interval's end and made no progress.
        """
        if elapsed > 0.0:
            self.busy_site_seconds += elapsed * busy_sites
            self.query_seconds += elapsed * len(interval)
            for query in interval:
                query.remaining -= elapsed * query.rate
        done = [q for q in self._running.values() if q.remaining <= q.done_below]
        for query in done:
            del self._running[query.name]
            for site in query.hosts:
                residents = self._touch(site)
                del residents[query.name]
                if not residents:
                    del self._on_site[site]
            self._stale.pop(query.name, None)
            self.on_complete(query.name, now)

    async def run(self) -> None:
        """Drive the fluid race until drained.

        Exits when :meth:`stop_when_idle` was called and no query
        remains.  Each iteration waits for ``min(remaining/rate)`` of
        virtual time *or* a membership change, whichever fires first,
        then integrates the interval at the rates that were in force.
        """
        loop = asyncio.get_running_loop()
        changed = self._changed
        while True:
            changed.clear()
            if not self._running:
                if self._draining:
                    return
                await changed.wait()
                continue
            self._refresh_rates()
            interval = list(self._running.values())
            busy_sites = len(self._on_site)
            dt = min(q.remaining / q.rate for q in interval)
            started = loop.time()
            # ``call_later(dt)`` would compute this same deadline float.
            timer = loop.call_at(started + dt, changed.set)
            try:
                await changed.wait()
            finally:
                timer.cancel()
            now = loop.time()
            self._advance(interval, busy_sites, now - started, now)
