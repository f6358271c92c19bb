"""The flow table: prioritized rules with per-tenant logical datapaths.

Each rule can be tagged with a ``tenant_id`` -- this is the paper's
*flow-table-level isolation*: in the Baseline, all tenants' rules live
in one shared table, distinguishable only by these tags (and a single
misprogrammed rule can leak traffic across tenants -- see
:meth:`FlowTable.check_conflicts`, which detects exactly that class of
error).  Under MTS, each vswitch VM's table holds only its own tenants'
rules.

Lookup fast path
----------------

Real vswitches never scan rules linearly; they layer caches the way OVS
does (EMC -> megaflow -> classifier).  This table mirrors that:

1. an **exact-match cache** (EMC) keyed on the frame's full header
   signature memoizes the winning rule (or a definitive miss), so
   steady-state traffic costs one dict probe per lookup;
2. on an EMC miss, a **tuple-space-search classifier** buckets rules by
   wildcard mask and probes one hash table per mask group, visiting
   groups in descending max-priority order with early exit.

Both layers are invalidated on any rule change (``add``,
``remove_by_cookie``, ``remove_tenant``, ``clear``), and counters
(``lookups``, ``misses``, per-rule ``n_packets``/``n_bytes``) stay exact
on cached hits.  Constructing with ``fastpath=False`` retains the
original priority-ordered linear scan -- the reference oracle the
differential fuzz tests compare against.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro import obs as _obs
from repro.errors import FlowTableError
from repro.net.packet import Frame
from repro.vswitch.actions import Action, ActionType
from repro.vswitch.matches import FlowMatch
from repro.vswitch.megaflow import emc_signature

#: Default exact-match-cache capacity (mirrors OVS's EMC scale).
EMC_CAPACITY = 8192

#: Sentinel distinguishing "absent from EMC" from a cached miss (None).
_ABSENT = object()


@dataclass
class FlowRule:
    """One flow table entry.

    ``cookie`` is assigned by the owning table on :meth:`FlowTable.add`
    (a per-table allocator keeps dumps deterministic run-to-run); a
    caller may also pin an explicit cookie before adding.
    """

    match: FlowMatch
    actions: List[Action]
    priority: int = 100
    tenant_id: Optional[int] = None
    table_id: int = 0
    cookie: Optional[int] = None
    n_packets: int = 0
    n_bytes: int = 0
    #: Table-assigned insertion sequence; breaks priority ties the way
    #: OVS does (stable insertion order).
    seq: int = field(default=0, repr=False, compare=False)

    def has_output(self) -> bool:
        return any(a.type in (ActionType.OUTPUT, ActionType.NORMAL)
                   for a in self.actions)

    def describe(self) -> str:
        tenant = f" tenant={self.tenant_id}" if self.tenant_id is not None else ""
        acts = ",".join(a.type.value for a in self.actions)
        return (f"cookie={self.cookie} prio={self.priority}{tenant} "
                f"match={self.match} actions=[{acts}]")


def _mask_of(match: FlowMatch) -> Tuple:
    """The wildcard mask: which fields are constrained (dst_ip carries
    its prefix length, since different prefixes hash differently)."""
    return (
        match.in_port is not None,
        match.src_mac is not None,
        match.dst_mac is not None,
        match.ethertype is not None,
        match.vlan is not None,
        match.src_ip is not None,
        match.dst_ip_prefix if match.dst_ip is not None else None,
        match.proto is not None,
        match.src_port is not None,
        match.dst_port is not None,
        match.tunnel_id is not None,
    )


def _rule_key(match: FlowMatch) -> Tuple:
    """The hash key of a rule within its mask group."""
    key = []
    if match.in_port is not None:
        key.append(match.in_port)
    if match.src_mac is not None:
        key.append(match.src_mac)
    if match.dst_mac is not None:
        key.append(match.dst_mac)
    if match.ethertype is not None:
        key.append(match.ethertype)
    if match.vlan is not None:
        key.append(match.vlan)
    if match.src_ip is not None:
        key.append(match.src_ip)
    if match.dst_ip is not None:
        key.append(match.dst_ip.value >> (32 - match.dst_ip_prefix))
    if match.proto is not None:
        key.append(match.proto)
    if match.src_port is not None:
        key.append(match.src_port)
    if match.dst_port is not None:
        key.append(match.dst_port)
    if match.tunnel_id is not None:
        key.append(match.tunnel_id)
    return tuple(key)


def _frame_key(mask: Tuple, frame: Frame, in_port: int) -> Optional[Tuple]:
    """Extract the frame's hash key under ``mask``; None when the frame
    cannot match any rule of this mask (an IP match on a non-IP frame)."""
    key = []
    if mask[0]:
        key.append(in_port)
    if mask[1]:
        key.append(frame.src_mac)
    if mask[2]:
        key.append(frame.dst_mac)
    if mask[3]:
        key.append(frame.ethertype)
    if mask[4]:
        key.append(frame.vlan)
    if mask[5]:
        key.append(frame.src_ip)
    prefix = mask[6]
    if prefix is not None:
        if frame.dst_ip is None:
            return None
        key.append(frame.dst_ip.value >> (32 - prefix))
    if mask[7]:
        key.append(frame.proto)
    if mask[8]:
        key.append(frame.src_port)
    if mask[9]:
        key.append(frame.dst_port)
    if mask[10]:
        key.append(frame.tunnel_id)
    return tuple(key)


class _MaskGroup:
    """One tuple-space bucket: all rules sharing a wildcard mask."""

    __slots__ = ("mask", "entries", "max_priority")

    def __init__(self, mask: Tuple) -> None:
        self.mask = mask
        #: key -> rules sorted by (-priority, seq)
        self.entries: Dict[Tuple, List[FlowRule]] = {}
        self.max_priority = 0

    def insert(self, rule: FlowRule) -> None:
        bucket = self.entries.setdefault(_rule_key(rule.match), [])
        insort(bucket, rule, key=lambda r: (-r.priority, r.seq))
        if rule.priority > self.max_priority:
            self.max_priority = rule.priority


@dataclass
class EmcStats:
    """Hit/miss accounting of the exact-match cache layer."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class FlowTable:
    """Priority-ordered rule set with lookup and conflict analysis."""

    def __init__(self, name: str = "table0", fastpath: bool = True,
                 emc_capacity: int = EMC_CAPACITY) -> None:
        self.name = name
        self.fastpath = fastpath
        self._rules: List[FlowRule] = []
        self.lookups = 0
        self.misses = 0
        #: Per-table cookie allocator: dumps are deterministic run-to-run
        #: (no module-global counter leaking state across tables/tests).
        self._cookies = itertools.count(1)
        self._seq = itertools.count(1)
        #: Bumped on every rule change; callers may poll it instead of
        #: registering a listener.
        self.version = 0
        self._listeners: List[Callable[[], None]] = []
        # -- fast path state --
        self._groups: Dict[Tuple, _MaskGroup] = {}
        self._ordered_groups: List[_MaskGroup] = []
        self._emc: Dict[Tuple, Optional[FlowRule]] = {}
        self._emc_capacity = emc_capacity
        self.emc_stats = EmcStats()

    def __len__(self) -> int:
        return len(self._rules)

    def __iter__(self):
        return iter(self._rules)

    # -- change tracking ---------------------------------------------------

    def add_listener(self, callback: Callable[[], None]) -> None:
        """Call ``callback`` after every rule change (used by the bridge
        to invalidate its pass-plan cache)."""
        self._listeners.append(callback)

    def _changed(self) -> None:
        self.version += 1
        self._emc.clear()
        for callback in self._listeners:
            callback()

    # -- rule management ---------------------------------------------------

    def add(self, rule: FlowRule) -> FlowRule:
        if not rule.actions:
            raise FlowTableError("a rule needs at least one action")
        if rule.cookie is None:
            rule.cookie = next(self._cookies)
        rule.seq = next(self._seq)
        # insort keeps the list priority-sorted with same-priority rules
        # in insertion order (the deterministic behaviour OVS exhibits in
        # practice) at O(log n) compares + O(n) shift per insert, instead
        # of re-sorting the whole list on every add.
        insort(self._rules, rule, key=lambda r: (-r.priority, r.seq))
        group = self._groups.get(_mask_of(rule.match))
        if group is None:
            group = _MaskGroup(_mask_of(rule.match))
            self._groups[group.mask] = group
            self._ordered_groups.append(group)
        group.insert(rule)
        self._ordered_groups.sort(key=lambda g: -g.max_priority)
        self._changed()
        return rule

    def remove_by_cookie(self, cookie: int) -> bool:
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.cookie != cookie]
        if len(self._rules) == before:
            return False
        self._reindex()
        return True

    def remove_tenant(self, tenant_id: int) -> int:
        """Withdraw a tenant's whole logical datapath; returns the count."""
        before = len(self._rules)
        self._rules = [r for r in self._rules if r.tenant_id != tenant_id]
        removed = before - len(self._rules)
        if removed:
            self._reindex()
        return removed

    def clear(self) -> None:
        self._rules.clear()
        self._reindex()

    def _reindex(self) -> None:
        """Rebuild the tuple-space index after removals (control-plane
        rate, so a full rebuild is fine)."""
        self._groups = {}
        self._ordered_groups = []
        for rule in self._rules:
            group = self._groups.get(_mask_of(rule.match))
            if group is None:
                group = _MaskGroup(_mask_of(rule.match))
                self._groups[group.mask] = group
                self._ordered_groups.append(group)
            group.insert(rule)
        self._ordered_groups.sort(key=lambda g: -g.max_priority)
        self._changed()

    # -- lookup ------------------------------------------------------------

    def lookup(self, frame: Frame, in_port: int) -> Optional[FlowRule]:
        """Highest-priority matching rule, updating its counters."""
        self.lookups += 1
        if self.fastpath:
            key = emc_signature(frame, in_port)
            rule = self._emc.get(key, _ABSENT)
            if rule is not _ABSENT:
                self.emc_stats.hits += 1
                source = "emc"
            else:
                self.emc_stats.misses += 1
                rule = self._classify(frame, in_port)
                source = "tss"
                if len(self._emc) >= self._emc_capacity:
                    self._emc.pop(next(iter(self._emc)))
                    self.emc_stats.evictions += 1
                self._emc[key] = rule
        else:
            rule = self._linear_scan(frame, in_port)
            source = "linear"
        _obs.TRACER.flow_lookup(self.name, frame, in_port, rule, source)
        if rule is None:
            self.misses += 1
            return None
        rule.n_packets += 1
        rule.n_bytes += frame.wire_size()
        return rule

    def _classify(self, frame: Frame, in_port: int) -> Optional[FlowRule]:
        """Tuple-space search: one hash probe per mask group, visited in
        descending max-priority order with early exit."""
        best: Optional[FlowRule] = None
        for group in self._ordered_groups:
            if best is not None and best.priority > group.max_priority:
                break
            key = _frame_key(group.mask, frame, in_port)
            if key is None:
                continue
            bucket = group.entries.get(key)
            if not bucket:
                continue
            candidate = bucket[0]
            if (best is None
                    or candidate.priority > best.priority
                    or (candidate.priority == best.priority
                        and candidate.seq < best.seq)):
                best = candidate
        return best

    def _linear_scan(self, frame: Frame, in_port: int) -> Optional[FlowRule]:
        """The retained O(n) reference path (``fastpath=False``): scan
        the priority-sorted list, first match wins."""
        for rule in self._rules:
            if rule.match.matches(frame, in_port):
                return rule
        return None

    # -- introspection -----------------------------------------------------

    def matches_l4_ports(self) -> bool:
        """Whether any rule constrains the L4 source or destination
        port (the index groups rules by which fields they match)."""
        return any(mask[8] or mask[9] for mask in self._groups)

    def tenants(self) -> List[int]:
        """Distinct tenant ids present in the table (the shared-table
        blast-radius metric used by the security analysis)."""
        return sorted({r.tenant_id for r in self._rules if r.tenant_id is not None})

    def rules_of(self, tenant_id: int) -> List[FlowRule]:
        return [r for r in self._rules if r.tenant_id == tenant_id]

    def check_conflicts(self) -> List[Tuple[FlowRule, FlowRule]]:
        """Find same-priority rule pairs from *different tenants* whose
        matches overlap -- the misconfiguration class the paper warns
        about ("a small error in one rule ... making intra-tenant traffic
        visible to other tenants")."""
        conflicts: List[Tuple[FlowRule, FlowRule]] = []
        for a, b in itertools.combinations(self._rules, 2):
            if a.priority != b.priority:
                continue
            if a.tenant_id is None or b.tenant_id is None:
                continue
            if a.tenant_id == b.tenant_id:
                continue
            if a.match.overlaps(b.match):
                conflicts.append((a, b))
        return conflicts

    def dump(self) -> str:
        """ovs-ofctl dump-flows style listing."""
        return "\n".join(r.describe() for r in self._rules)
