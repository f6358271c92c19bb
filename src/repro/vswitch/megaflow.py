"""The megaflow/flow cache and its slow path.

OVS-style switches answer most packets from an exact-ish match cache;
a miss *upcalls* to the slow path (classification over the full
OpenFlow pipeline + cache insertion), costing orders of magnitude more
CPU.  This asymmetry is the lever of the Csikor et al. "policy
injection" cloud-dataplane DoS the paper cites as motivation [15]: an
attacker who crafts packets that never hit the cache burns the shared
vswitch's CPU at a tiny packet budget, starving co-located tenants.

The model: an LRU cache keyed by the packet 5-tuple (+ in_port).  Hits
cost nothing extra (the fast-path cost is already in the datapath's
per-pass cycles); misses add ``upcall_cycles``.  Statistics feed the
policy-injection experiment and the accounting of who caused the slow-
path load.

The per-frame path looks up each packet when it reaches the bridge
(:meth:`MegaflowCache.lookup_cost`).  The batched path registers a
group's lookups ahead of time (:meth:`MegaflowCache.defer`) and the
cache resolves them lazily, in bridge-arrival order, when a member's
service is about to start: each member is charged the upcall exactly
when its per-frame twin would miss (see :class:`MegaflowCache`).
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

from repro.errors import SimulationError
from repro.net.packet import Frame

#: Kernel-OVS upcall to ovs-vswitchd and back: ~70 us of CPU at 2.1 GHz.
KERNEL_UPCALL_CYCLES = 150_000.0

#: OVS-DPDK's miss stays in user space (EMC -> dpcls -> ofproto):
#: far cheaper, but still ~20x a fast-path pass.
DPDK_UPCALL_CYCLES = 12_000.0

#: Default cache capacity (the kernel datapath's flow-table scale).
DEFAULT_CAPACITY = 8192

#: Bulk runs registered between two counts of the ones wholly behind
#: the frontier: a counted run releases the member lists it pins (a
#: lagging core keeps the rest, whose groups are alive anyway).
_BULK_BACKLOG = 32

_INF = float("inf")
_NEVER = (-_INF, -1, -1)


def flow_signature(frame: Frame, in_port: int) -> Tuple:
    """The microflow key: port + L2 + 5-tuple.  Addresses enter by
    value, so the key hashes and compares at C speed (the batched path
    looks keys up once per registered group and again to count it)."""
    src_ip, dst_ip = frame.src_ip, frame.dst_ip
    return (in_port, frame.src_mac.value, frame.dst_mac.value,
            frame.ethertype, None if src_ip is None else src_ip.value,
            None if dst_ip is None else dst_ip.value, frame.proto,
            frame.src_port, frame.dst_port)


def emc_signature(frame: Frame, in_port: int) -> Tuple:
    """Exact-match-cache key: the microflow signature extended with the
    remaining fields the OpenFlow pipeline can match on (VLAN tag and
    tunnel id), so two frames share a key only if every rule in the
    table necessarily treats them identically."""
    return (in_port, frame.src_mac, frame.dst_mac, frame.ethertype,
            frame.src_ip, frame.dst_ip, frame.proto,
            frame.src_port, frame.dst_port, frame.vlan, frame.tunnel_id)


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0


class DeferredLookups:
    """The microflow lookups of one group's members at one bridge.

    ``ts`` holds each member's arrival at the bridge (when its
    per-frame twin would look up), ``svc`` is the group's service-time
    list: the cache writes ``hit`` or ``miss`` into a member's slot
    once its outcome is known, and leaves ``None`` there until then.
    Members share ``key`` or, for randomized source ports, each has
    its own (``keys``).  A *bulk* run's members are known hits up
    front: their slots already hold ``hit``, and the cache only counts
    them later.  An *open* run (a fused sink) grows member by member
    through :meth:`add`.  At a bridge that may crash, ``gate(i)`` says
    whether member ``i`` arrived while the bridge was down: such a
    member never looks up (see :meth:`MegaflowCache.defer`).
    """

    __slots__ = ("cache", "key", "keys", "ts", "rid", "svc", "hit", "miss",
                 "ascending", "bulk", "open", "last", "counted", "gate")

    def __init__(self, cache: "MegaflowCache", key: Optional[Tuple],
                 keys: Optional[List[Tuple]], ts: List[float],
                 svc: list, hit: float, miss: float, rid: int,
                 ascending: bool, open_: bool,
                 gate: Optional[Callable[[int], bool]] = None) -> None:
        self.cache = cache
        self.gate = gate
        self.key = key
        self.keys = keys
        self.ts = ts
        self.rid = rid
        self.svc = svc
        self.hit = hit
        self.miss = miss
        self.ascending = ascending
        self.bulk = False
        self.open = open_
        #: The latest arrival, once the run is closed.
        self.last = ts[-1] if ts and not open_ else _INF
        #: Bulk runs: members arriving at or before this are counted.
        self.counted = -_INF

    def final(self, i: int) -> float:
        """Member ``i``'s service time, resolving lookups up to its
        arrival first.  Called when the member's service starts."""
        svc = self.svc[i]
        if svc is None:
            self.cache._resolve(self.ts[i], self.rid, i)
            svc = self.svc[i]
        return svc

    def add(self, arrival: float, key: Optional[Tuple] = None
            ) -> Optional[float]:
        """Register one more member (open runs); returns its service
        slot's initial value: ``hit`` for a bulk run, else None."""
        ts = self.ts
        ts.append(arrival)
        if self.keys is not None:
            self.keys.append(key)
        if self.bulk:
            return self.hit
        cache = self.cache
        cache._reserve(1)
        cache._push(arrival, self.rid, len(ts) - 1, self)
        return None

    def close(self) -> None:
        """No member joins any more (the fused sink is sealed)."""
        self.open = False
        self.last = max(self.ts, default=-_INF)


class MegaflowCache:
    """LRU microflow cache with upcall cost accounting.

    **Arrival-ordered resolution** (batched runs, after :meth:`order`).
    A batched group registers its members' lookups when it is
    dispatched, before the members arrive; a fused route registers
    each member when it commits upstream, up to the kernel datapath's
    fixed wait *after* the member's arrival.  Outcomes are resolved
    lazily, in arrival order (ties: registration, then member index),
    and only as far as the arrival of the member whose service is
    starting -- not up to ``sim.now``: a service starts at least that
    fixed wait after its arrival, so every earlier lookup is registered
    by then, while later arrivals may still be to come.  A miss writes
    the upcall-inclusive service time into the member's slot.

    While the cache cannot evict (*calm*: the entries plus every
    unresolved lookup still fit), a run whose single key is already
    cached can only hit: it is a *bulk* run, final at registration, and
    counted as a whole once behind the frontier.  Recency is kept as a
    per-key stamp meanwhile.  The first registration that could make
    the cache evict turns it into a strict LRU: lookups up to the
    frontier are counted, the bulk members beyond it (none of which
    has started) become ordinary pending lookups, and the entries are
    re-ordered by their stamps.

    ``stats`` and ``len()`` count every lookup arrived by ``sim.now``:
    read them after a run, when every station has caught up.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY,
                 upcall_cycles: float = KERNEL_UPCALL_CYCLES) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be positive")
        self.capacity = capacity
        self.upcall_cycles = upcall_cycles
        self._stats = CacheStats()
        self._entries: "OrderedDict[Tuple, int]" = OrderedDict()
        #: Arrival-ordered resolution, off until :meth:`order`.
        self._sim = None
        self._frontier: Optional[Callable[[], float]] = None
        self._sync: Optional[Callable[[float], None]] = None
        #: Unresolved lookups: (arrival, run id, member, run); one
        #: cursor entry per ascending run.
        self._pending: List[tuple] = []
        self._unresolved = 0
        self._rid = 0
        #: The last (arrival, run id, member) resolved.
        self._resolved = _NEVER
        #: Bulk runs with members still to count.
        self._bulk: List[DeferredLookups] = []
        self._bulk_limit = _BULK_BACKLOG
        #: Calm only: key -> (arrival, run id, member) of its latest
        #: counted touch.  None once the cache is a strict LRU.
        self._stamps: Optional[dict] = None
        #: Some run carries a gate (the bridge may crash): resolution
        #: asks it about each of the run's members.
        self._gated = False

    @property
    def stats(self) -> CacheStats:
        self._settle()
        return self._stats

    def __len__(self) -> int:
        self._settle()
        return len(self._entries)

    def lookup_cost(self, frame: Frame, in_port: int) -> float:
        """Extra cycles this packet costs: 0 on a hit, an upcall on a
        miss (which also installs the entry)."""
        key = flow_signature(frame, in_port)
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] += 1
            self._stats.hits += 1
            return 0.0
        self._stats.misses += 1
        self._entries[key] = 1
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
        return self.upcall_cycles

    def lookup_cost_batch(self, frame: Frame, in_port: int,
                          n: int) -> float:
        """Extra cycles the *first* of ``n`` same-key packets costs.

        Replicates ``n`` sequential :meth:`lookup_cost` calls: at most
        the first misses (install + upcall), the rest hit.  Frames 2..n
        cost 0 extra, so the caller only needs the one return value.
        """
        key = flow_signature(frame, in_port)
        if key in self._entries:
            self._entries.move_to_end(key)
            self._entries[key] += n
            self._stats.hits += n
            return 0.0
        self._stats.misses += 1
        self._stats.hits += n - 1
        self._entries[key] = n
        if len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self._stats.evictions += 1
        return self.upcall_cycles

    def invalidate(self) -> None:
        """Flush (flow-table revalidation after rule changes).  Lookups
        deferred by a batched run that arrived by now precede it."""
        if self._sim is not None:
            now = self._sim.now
            self._to_lru(now)
            self._resolve(now, _INF, _INF)
        self._entries.clear()

    # -- arrival-ordered resolution (batched runs) ---------------------

    def order(self, sim, frontier: Optional[Callable[[], float]],
              sync: Optional[Callable[[float], None]] = None) -> None:
        """Resolve lookups registered through :meth:`defer` in arrival
        order from now on.  ``frontier()`` is a time no lookup still to
        be registered arrives before, and that no member whose service
        has started arrived after (the bridge derives it from its core
        and its fixed wait).  A bridge with several cores passes
        ``sync(t)`` instead, which brings every core's lazy replay up to
        ``t``: its cores replay independently, so no one frontier holds
        for all of them; the cache is then a strict LRU from the start
        and syncs before each resolution."""
        self._sim = sim
        self._frontier = frontier
        self._sync = sync
        if sync is None:
            self._stamps = {key: (-_INF, -1, i)
                            for i, key in enumerate(self._entries)}

    def defer(self, key: Optional[Tuple], keys: Optional[List[Tuple]],
              ts: List[float], svc: list, hit: float, miss: float,
              open_: bool = False,
              gate: Optional[Callable[[int], bool]] = None
              ) -> DeferredLookups:
        """Register the lookups of a group's members, arriving at ``ts``
        (ascending), keyed by ``key`` or per member by ``keys``.  ``svc``
        holds ``hit`` for each member; the slots of members whose
        outcome is not known yet become None.  An ``open_`` run starts
        empty and grows through :meth:`DeferredLookups.add`.  A
        ``gate`` is asked, when member ``i``'s turn to resolve comes,
        whether it never reached the bridge; such a run is never
        bulk."""
        rid = self._rid
        self._rid = rid + 1
        if gate is not None:
            self._gated = True
        run = DeferredLookups(self, key, keys, ts, svc, hit, miss, rid,
                              not open_, open_, gate)
        if (self._stamps is not None and keys is None and gate is None
                and key in self._entries):
            run.bulk = True
            bulk = self._bulk
            bulk.append(run)
            if len(bulk) > self._bulk_limit:
                t = self._frontier()
                self._bulk = [r for r in bulk
                              if r.last > t or not self._count(r, t)]
                self._bulk_limit = len(self._bulk) + _BULK_BACKLOG
            return run
        n = len(ts)
        if n:
            self._reserve(n)
            svc[:] = [None] * n
            self._push(ts[0], rid, 0, run)
        return run

    def _push(self, t: float, rid: int, j: int,
              run: DeferredLookups) -> None:
        if (t, rid, j) <= self._resolved:
            raise SimulationError(
                f"microflow lookup registered at t={t}, behind the "
                f"resolved arrival {self._resolved[0]}")
        heapq.heappush(self._pending, (t, rid, j, run))

    def _reserve(self, n: int) -> None:
        """Count ``n`` new unresolved lookups; a calm cache that could
        then evict becomes a strict LRU first."""
        if (self._stamps is not None and len(self._entries)
                + self._unresolved + n > self.capacity):
            self._to_lru(self._frontier())
        self._unresolved += n

    def _resolve(self, t: float, rid: float, j: float) -> None:
        """Resolve pending lookups up to (arrival, run id, member)."""
        if self._sync is not None:
            self._sync(t)
        pending = self._pending
        entries = self._entries
        stats = self._stats
        stamps = self._stamps
        capacity = self.capacity
        gated = self._gated
        resolved = 0
        while pending:
            head = pending[0]
            ht, hrid, hj, run = head
            if ht > t or (ht == t and (hrid > rid
                                       or (hrid == rid and hj > j))):
                break
            if gated and run.gate is not None and run.gate(hj):
                pass  # the member never reached the bridge
            else:
                key = run.key if run.keys is None else run.keys[hj]
                count = entries.get(key)
                if count is not None:
                    entries[key] = count + 1
                    if stamps is None:
                        entries.move_to_end(key)
                    stats.hits += 1
                    run.svc[hj] = run.hit
                else:
                    entries[key] = 1
                    stats.misses += 1
                    if len(entries) > capacity:
                        entries.popitem(last=False)
                        stats.evictions += 1
                    run.svc[hj] = run.miss
                if stamps is not None:
                    stamps[key] = (ht, hrid, hj)
            resolved += 1
            self._resolved = (ht, hrid, hj)
            nxt = hj + 1
            if run.ascending and nxt < len(run.ts):
                heapq.heapreplace(pending, (run.ts[nxt], hrid, nxt, run))
            else:
                heapq.heappop(pending)
        self._unresolved -= resolved

    def _count(self, run: DeferredLookups, t: float) -> bool:
        """Count a bulk run's members arriving after its last count and
        at or before ``t``; True when the run is closed and counted."""
        ts = run.ts
        counted = run.counted
        if counted == -_INF and run.last <= t:
            # Closed and wholly behind t: the common case, O(1) for an
            # ascending run.
            n = len(ts)
            last = None
            if n:
                j = (n - 1 if run.ascending
                     else n - 1 - ts[::-1].index(run.last))
                last = (run.last, run.rid, j)
        elif run.ascending:
            lo = bisect_right(ts, counted)
            hi = bisect_right(ts, t, lo)
            n = hi - lo
            last = (ts[hi - 1], run.rid, hi - 1) if n else None
        else:
            n = 0
            last = None
            for j, a in enumerate(ts):
                if counted < a <= t:
                    n += 1
                    if last is None or a >= last[0]:
                        last = (a, run.rid, j)
        if n:
            key = run.key
            self._entries[key] += n
            self._stats.hits += n
            if last > self._stamps[key]:
                self._stamps[key] = last
        run.counted = t
        return run.last <= t

    def _to_lru(self, t: float) -> None:
        """Leave calm mode at frontier ``t``: count what arrived by
        then, turn later bulk members into pending lookups and order
        the entries by recency."""
        stamps = self._stamps
        if stamps is None:
            return
        self._resolve(t, _INF, _INF)
        for run in self._bulk:
            self._count(run, t)
            run.bulk = False
            ts = run.ts
            if run.ascending:
                later = range(bisect_right(ts, t), len(ts))
            else:
                later = [j for j, a in enumerate(ts) if a > t]
            for j in later:
                run.svc[j] = None
            self._unresolved += len(later)
            if run.ascending:
                if later:
                    self._push(ts[later[0]], run.rid, later[0], run)
            else:
                for j in later:
                    self._push(ts[j], run.rid, j, run)
        self._bulk = []
        entries = self._entries
        self._entries = OrderedDict(
            (key, entries[key]) for key in sorted(entries,
                                                  key=stamps.__getitem__))
        self._stamps = None

    def _settle(self) -> None:
        """Count every lookup arrived by ``sim.now``."""
        if self._sim is None:
            return
        now = self._sim.now
        self._resolve(now, _INF, _INF)
        if self._bulk:
            self._bulk = [run for run in self._bulk
                          if not self._count(run, now)]
