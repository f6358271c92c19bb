"""An OVS-like bridge: ports, flow pipeline, NORMAL switching, timing.

The bridge is the object the MTS controller programs (the simulated
equivalents of ``ovs-vsctl add-port`` and ``ovs-ofctl add-flow``).  It
can run in two modes:

- **functional** (no simulator / no compute attached): frames are
  processed synchronously with zero delay -- used by unit tests and the
  security analysis;
- **timed** (simulator + compute shares attached): each forwarding pass
  is served by a per-core service station whose service time comes from
  the calibrated :class:`~repro.vswitch.datapath.DatapathModel`; frames
  are dispatched to stations by flow hash, modelling RSS across the
  bridge's cores (the paper's observation that multiple cores act as a
  load balancer).
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro import billing as _billing
from repro import obs as _obs
from repro.errors import ConfigurationError, SimulationError
from repro.host.cpu import ComputeShare
from repro.net.addresses import MacAddress
from repro.net.interfaces import PortPair
from repro.net.packet import Frame, FrameBatch
from repro.sim.hashjit import HashJitter
from repro.sim.kernel import Simulator
from repro.sim.resources import BatchFairStation, FairServiceStation

#: Per-port rx ring depth when the bridge runs in timed mode.
RX_RING_DEPTH = 512
from repro.vswitch.actions import Action, ActionType
from repro.vswitch.datapath import DatapathMode, DatapathModel, PassCosts, PortClass
from repro.vswitch.flowtable import FlowRule, FlowTable
from repro.vswitch.megaflow import (DeferredLookups, MegaflowCache,
                                    emc_signature, flow_signature)


@dataclass
class BridgePort:
    port_no: int
    name: str
    port_class: PortClass
    pair: PortPair
    rx_frames: int = 0
    tx_frames: int = 0


@dataclass
class _ForwardPlan:
    """Outcome of the pipeline for one frame: egress ports + costing."""

    frame: Frame
    in_port: int
    out_ports: List[int] = field(default_factory=list)
    rewrites: bool = False
    dropped: bool = False
    drop_reason: Optional[str] = None
    #: Timed mode: dispatch time, jitter wait and service time (None:
    #: functional mode, which costs no time).
    t_dispatch: Optional[float] = None
    wait: float = 0.0
    service: Optional[float] = None


#: Step opcodes of a cached pass plan (see :class:`_PlanTemplate`).
_HIT, _MISS, _APPLY = 0, 1, 2


class _PlanTemplate:
    """A memoized pipeline outcome for one exact header signature.

    ``steps`` replays the pipeline's observable side effects in order --
    table/rule counter bumps interleaved with header-rewrite actions, so
    per-rule ``n_bytes`` sees the same frame size the uncached walk saw.
    Plans containing NORMAL (MAC-table dependent) or CONTROLLER
    (punt-handler dependent) actions are never cached.
    """

    __slots__ = ("steps", "out_ports", "rewrites", "dropped", "drop_kind")

    def __init__(self, steps, out_ports, rewrites, dropped, drop_kind):
        self.steps = steps
        self.out_ports = out_ports
        self.rewrites = rewrites
        self.dropped = dropped
        self.drop_kind = drop_kind


#: Bound on the bridge's pass-plan cache (same scale as the EMC).
PLAN_CACHE_CAPACITY = 8192

_INF = float("inf")


class _FusedRoute:
    """The analytically-known continuation of a forwarding plan.

    Built by the deployment's route resolver when a plan's single
    egress leads -- through NIC/VEB/PCIe or vhost legs and at most one
    tenant forwarder (l2fwd or Linux bridge) -- deterministically to
    another (or the same) bridge's batch station, with a warm plan
    template waiting there, and beyond it either an unbounded flush
    margin or another fused route (``next``).  The downstream pass's
    microflow lookup needs no warm entry: each member registers it with
    the downstream cache (key ``flow_head`` plus the member's L4
    ports), which resolves it in arrival order like any other.  A pass
    group on the route uses it to *pre-register* each member at the
    downstream station the moment the member commits upstream,
    deferring the physical chain traversal to one accounting sweep per
    burst.

    ``legs`` holds the per-hop delays in chain order, ``None`` marking
    an l2fwd's (per-member: base cost plus keyed drain wait).  Commits
    add them one hop at a time, as the oracle's event chain does, so
    arrival timestamps match it to the last bit.  ``lookahead`` is the
    station lookahead of the upstream members (see
    :class:`~repro.sim.resources.BatchFairStation`).  ``header`` is the
    header the members arrive with at the route's bridge (what an armed
    bridge's ledger counts the pass with, see :class:`_Ledger`).
    """

    __slots__ = ("legs", "l2fwd_base", "drain_interval", "drain_unit",
                 "app", "app_epoch", "bridge", "header",
                 "in_port_no", "template", "template_key", "flow_head",
                 "dst_port", "out_ports", "model", "share", "num_queues",
                 "num_ports", "jitter", "key_or", "station", "cycles",
                 "lookahead", "next")


class _Ledger:
    """The counters one group's members owe an armed bridge.

    A bridge a fault plan may crash (:meth:`OvsBridge.arm_faults`)
    cannot count batched members when they are handed to it: a crash
    or restore instant may fall before they arrive.  Each group there
    keeps a ledger instead -- the pass's counter steps, as
    :meth:`OvsBridge._replay` bumps them for a member arriving with
    ``frame`` at ``port``, and the members' arrival times ``ts`` --
    which :meth:`OvsBridge.settle` pays by arrival, up to ``upto``.
    ``open`` while members may still join (a fused sink not sealed).
    """

    __slots__ = ("port", "steps", "src_mac", "tenant", "ts", "upto",
                 "open")

    def __init__(self, port: "BridgePort", template: _PlanTemplate,
                 frame: Frame, ts: List[float], open_: bool) -> None:
        self.port = port
        self.src_mac = frame.src_mac
        self.tenant = frame.tenant_id
        frame = frame.replica()
        steps = []
        for op, target, rule in template.steps:
            if op == _HIT:
                steps.append((target, rule, frame.wire_size()))
            elif op == _MISS:
                steps.append((target, None, 0))
            else:
                target.apply(frame)
        self.steps = steps
        self.ts = ts
        self.upto = -_INF
        self.open = open_


class _FusedSink:
    """Accumulates one fused burst at the downstream bridge's station.

    Grows by one member per upstream commit (identity captured *at
    commit*, before any later hop re-sorts batch arrays) and is sealed
    when the upstream group can no longer grow.  Like a batched pass,
    it reads its core share once, when made (once per upstream burst):
    every member gets the same service time and wait routine, plus the
    upcall when its microflow lookup misses (registered with the
    downstream cache at registration, resolved before its service
    starts).  The exemplar header arrives later, on the burst's single
    accounting
    traversal of the physical chain; by then every member is already
    admitted (or ring-dropped) downstream.  Duck-types the group
    protocol of :class:`~repro.sim.resources.BatchFairStation` and the
    fields :meth:`OvsBridge._execute_batch` reads.

    When its route continues (``route.next``), the sink is *chained*:
    each commit here pre-registers the member one station further, in
    a downstream sink of its own, exactly as a pass group on a fused
    route does; its lookahead is then the onward route's, and
    completing seals the downstream sink.  Otherwise its flush is
    fabric-bound.

    At an armed bridge the sink keeps its members' arrival times and a
    :class:`_Ledger`: a member that arrives while the bridge is down
    vanishes at admission (:meth:`dead`), and the accounting traversal
    counts nothing.
    """

    margin = _INF

    __slots__ = ("route", "bridge", "key", "out_ports", "svc", "batch",
                 "sink", "lookahead", "lookups", "ledger", "_service",
                 "_wait", "_ids", "_created", "_ports", "_src_port",
                 "_arrivals", "_done_idx", "_done_ts", "_submitted",
                 "_resolved", "_sealed")

    def __init__(self, route: _FusedRoute, src_port: Optional[int]) -> None:
        """``src_port``: the members' shared L4 source port, or None when
        each member brings its own to :meth:`register`."""
        self.route = route
        self.bridge = route.bridge
        self.key = route.in_port_no
        self.out_ports = route.out_ports
        self.svc: List[Optional[float]] = []
        self.batch: Optional[FrameBatch] = None
        #: The chained sink's own downstream sink (made on first commit).
        self.sink: Optional[_FusedSink] = None
        self.lookahead = (route.next.lookahead if route.next is not None
                          else _INF)
        share = route.share
        hz = share.effective_hz()
        self._service = route.cycles / hz
        self._wait = route.model.pass_wait(route.jitter, share.sharers,
                                           route.num_queues, 6, route.key_or)
        self._ids: List[int] = []
        self._created: List[float] = []
        self._ports: Optional[List[int]] = [] if src_port is None else None
        self._src_port = src_port
        bridge = self.bridge
        self.ledger: Optional[_Ledger] = None
        self._arrivals: Optional[List[float]] = None
        gate = None
        if bridge.fault_armed:
            self._arrivals = []
            self.ledger = _Ledger(bridge._ports[route.in_port_no],
                                  route.template, route.header,
                                  self._arrivals, True)
            bridge._ledgers.append(self.ledger)
            gate = self.dead
        cache = bridge.cache
        self.lookups: Optional[DeferredLookups] = None
        if cache is not None:
            key = (None if src_port is None
                   else route.flow_head + (src_port, route.dst_port))
            self.lookups = cache.defer(
                key, [] if src_port is None else None, [], self.svc,
                self._service, (route.cycles + cache.upcall_cycles) / hz,
                open_=True, gate=gate)
        self._done_idx: List[int] = []
        self._done_ts: List[float] = []
        self._submitted = 0
        self._resolved = 0
        self._sealed = False

    def register(self, frame_id: int, created_at: float, t: float,
                 src_port: Optional[int] = None) -> None:
        """Pre-register a member that finished upstream at ``t``: its
        arrival at the route's station, its microflow lookup there, and
        its service."""
        route = self.route
        arrival = t
        for leg in route.legs:
            if leg is None:
                leg = route.l2fwd_base + route.drain_interval * \
                    route.drain_unit(frame_id)
            arrival += leg
        j = self._submitted
        self._submitted = j + 1
        self._ids.append(frame_id)
        self._created.append(created_at)
        if self._arrivals is not None:
            self._arrivals.append(arrival)
        lookups = self.lookups
        if self._ports is not None:
            self._ports.append(src_port)
            self.svc.append(lookups.add(arrival, route.flow_head
                                        + (src_port, route.dst_port))
                            if lookups is not None else self._service)
        elif lookups is not None and not lookups.bulk:
            self.svc.append(lookups.add(arrival))
        else:
            if lookups is not None:
                lookups.ts.append(arrival)  # a known hit: count it later
            self.svc.append(self._service)
        # The pass wait is one sum, as in OvsBridge._dispatch.
        route.station.submit_member(
            self, j, arrival + self._wait(frame_id))

    def attach_part(self, part: FrameBatch) -> None:
        """Bind the accounting traversal's exemplar header.

        Member arrays alias the sink's own lists, so a part that
        arrives while the upstream group is still committing (end-of-run
        drain) automatically covers later members too.
        """
        if self.batch is None:
            self.batch = FrameBatch(part.frame, self._ids, [],
                                    self._created, self._ports)

    def seal(self) -> None:
        """Upstream group exhausted: the member set is final."""
        self._sealed = True
        if self.ledger is not None:
            self.ledger.open = False
        if self.lookups is not None:
            self.lookups.close()
        if self._resolved == self._submitted:
            self.flush(self.bridge.sim.now)
            self.route.station._clean(self)

    # -- station group protocol ---------------------------------------

    def dead(self, j: int) -> bool:
        """Whether member ``j`` arrived while the (armed) bridge was
        down."""
        return self.bridge.dead_at(self._arrivals[j])

    def commit(self, j: int, t: float) -> bool:
        self._resolved += 1
        onward = self.route.next
        if onward is not None:
            if self.sink is None:
                self.sink = _FusedSink(onward, self._src_port)
            self.sink.register(
                self._ids[j], self._created[j], t,
                None if self._ports is None else self._ports[j])
        self._done_idx.append(j)
        self._done_ts.append(t)
        return len(self._done_idx) == 1

    def drop(self, j: int) -> None:
        self._resolved += 1
        if not self._done_idx and self.is_done():
            # Nothing left to flush (the station only flushes a done
            # group holding commits): seal downstream here.
            self._seal_onward()

    def is_done(self) -> bool:
        return self._sealed and self._resolved == self._submitted

    def oldest_commit(self) -> Optional[float]:
        return self._done_ts[0] if self._done_ts else None

    def flush(self, now: float) -> None:
        if self._done_idx and self.batch is not None:
            self.bridge._execute_batch(self)
            self._done_idx = []
            self._done_ts = []
        if self.is_done():
            self._seal_onward()

    def _seal_onward(self) -> None:
        if self.sink is not None:
            self.sink.seal()


class _BatchPassGroup:
    """One batched burst's passage through the bridge's service station.

    Registered with a :class:`BatchFairStation` as a whole: the station
    admits members at their own arrival timestamps (``sub_ts``), serves
    them under rx-ring fairness, and hands finished members back via
    ``commit`` in finish order (so their timestamps arrive sorted).
    Committed members re-accumulate here until ``flush`` emits them
    downstream as one sub-batch through the bridge's ``_execute_batch``.
    ``lookups`` holds the members' microflow lookups when the bridge
    has a cache (service times are final once they resolve).

    The plan resolves to one of three egress kinds:

    - margin ``inf`` (fabric-bound): one flush, when the burst
      completes (or at the end-of-run drain);
    - margin 0: a flush at every commit, so each member reaches the
      next timestamped point no later than its own finish;
    - a :class:`_FusedRoute`: each commit *pre-registers* the member at
      the next station (chain delay plus jittered waits, identical
      draws to the hop-by-hop path), always contract-clean since the
      admission lies a full chain delay in the future.  The margin is
      then unbounded: the burst makes ONE accounting traversal of the
      chain, at completion, which seals the downstream sink.

    A member's first effect outside the station is its flush, or, on a
    fused route, its registration: the lookahead is the margin or the
    route's.
    """

    __slots__ = ("bridge", "batch", "key", "sub_ts", "svc", "margin",
                 "lookahead", "out_ports", "rewrites", "lookups", "route",
                 "sink", "_done_idx", "_done_ts", "_remaining")

    def __init__(self, bridge: "OvsBridge", batch: FrameBatch,
                 plan: "_ForwardPlan", sub_ts: List[float],
                 svc: List[float], egress) -> None:
        """``egress``: the plan's resolution, a margin (0 or ``inf``)
        or a fused route."""
        self.bridge = bridge
        self.batch = batch
        self.key = plan.in_port
        self.sub_ts = sub_ts
        self.svc = svc
        if type(egress) is _FusedRoute:
            self.route = egress
            self.margin = _INF
            self.lookahead = egress.lookahead
        else:
            self.route = None
            self.margin = self.lookahead = egress
        self.sink: Optional[_FusedSink] = None
        self.out_ports = plan.out_ports
        self.rewrites = plan.rewrites
        self.lookups: Optional[DeferredLookups] = None
        self._done_idx: List[int] = []
        self._done_ts: List[float] = []
        #: Members still expected to commit or drop; 0 means the
        #: sub-batch can never grow again and should flush.
        self._remaining = len(sub_ts)

    def dead(self, i: int) -> bool:
        """Whether member ``i`` arrived while the (armed) bridge was
        down."""
        return self.bridge.dead_at(self.batch.ts[i])

    def commit(self, i: int, t: float) -> bool:
        if self.route is not None:
            batch = self.batch
            ports = batch.src_ports
            sink = self.sink
            if sink is None:
                sink = self.sink = _FusedSink(
                    self.route,
                    batch.frame.src_port if ports is None else None)
            sink.register(batch.frame_ids[i], batch.created_at[i], t,
                          None if ports is None else ports[i])
        self._remaining -= 1
        self._done_idx.append(i)
        self._done_ts.append(t)
        return len(self._done_idx) == 1

    def drop(self, i: int) -> None:
        self._remaining -= 1
        if self._remaining == 0 and not self._done_idx:
            # Every member left ring-dropped: no flush will come, so a
            # (partial) sink must still be sealed here.
            self._seal_onward()

    def drop_range(self, members) -> None:
        self._remaining -= len(members)

    def is_done(self) -> bool:
        return self._remaining == 0

    def oldest_commit(self) -> Optional[float]:
        return self._done_ts[0] if self._done_ts else None

    def flush(self, now: float) -> None:
        if self._done_idx:
            self.bridge._execute_batch(self)
            self._done_idx = []
            self._done_ts = []
        if self._remaining == 0:
            self._seal_onward()

    def _seal_onward(self) -> None:
        if self.sink is not None:
            self.sink.seal()


class _SoloPlanGroup:
    """A single per-frame plan admitted through a batch station.

    Lets the classic per-frame ingress (plan-cache misses, traced runs)
    share one admission heap with batched arrivals.  Margin and
    lookahead 0: the plan executes at ``sim.now`` of its own finish
    wake, exactly when the per-frame station would have run it.  Made
    at dispatch, so its microflow lookup registers at the frame's
    arrival; submitted (``sub_ts`` set) after the pass wait.
    """

    __slots__ = ("bridge", "plan", "key", "sub_ts", "svc", "lookups",
                 "_done")

    margin = 0.0
    lookahead = 0.0

    def __init__(self, bridge: "OvsBridge", plan: "_ForwardPlan") -> None:
        self.bridge = bridge
        self.plan = plan
        self.key = plan.in_port
        self.sub_ts = ()
        self.svc: List[Optional[float]] = [plan.service]
        self.lookups: Optional[DeferredLookups] = None
        self._done: Optional[float] = None

    def dead(self, i: int) -> bool:
        """Never: the frame reached the bridge alive (see
        :meth:`OvsBridge._ingress`)."""
        return False

    def commit(self, i: int, t: float) -> bool:
        self._done = t
        return True

    def drop(self, i: int) -> None:
        pass

    def is_done(self) -> bool:
        return self._done is not None

    def oldest_commit(self) -> Optional[float]:
        return self._done

    def flush(self, now: float) -> None:
        if self._done is not None:
            self._done = None
            self.plan.service = self.svc[0]
            self.bridge._execute(self.plan)


class OvsBridge:
    """A programmable learning/flow switch."""

    def __init__(
        self,
        name: str,
        mode: DatapathMode = DatapathMode.KERNEL,
        sim: Optional[Simulator] = None,
        costs: Optional[PassCosts] = None,
        cache: Optional["MegaflowCache"] = None,
    ) -> None:
        self.name = name
        self.sim = sim
        #: Per-frame keyed jitter for pass timing variance (identical
        #: draws on the per-frame and batched paths).
        self._jitter = HashJitter.from_name(name)
        #: Exact-match cache over whole pipeline passes: header signature
        #: (:meth:`plan_key`) -> replayable plan.  Flushed whenever any
        #: table changes.  A cache of pipeline walks, not modelled state.
        self._plan_cache: Dict[tuple, _PlanTemplate] = {}
        #: No rule in any table matches L4 ports: plans ignore them.
        self._port_blind = True
        self.plan_cache_hits = 0
        self.plan_cache_invalidations = 0
        #: OpenFlow-style multi-table pipeline; table 0 always exists
        #: and is where processing starts.
        self.tables: Dict[int, FlowTable] = {
            0: self._new_table(f"{name}.table0")
        }
        self.model = DatapathModel(mode, costs) if costs is not None else None
        self.mode = mode
        #: Optional microflow cache: misses add upcall cycles to the
        #: pass (timed mode only).
        self.cache = cache
        #: Handler for CONTROLLER-punted frames: ``fn(frame, in_port)``.
        self.punt_handler = None
        self.punted = 0
        self._ports: Dict[int, BridgePort] = {}
        self._next_port_no = 1
        self._mac_table: Dict[MacAddress, int] = {}
        self._stations: List[FairServiceStation] = []
        self._shares: List[ComputeShare] = []
        #: True once :meth:`set_batch_stations` swapped the cores over.
        self._batch_mode = False
        self._margin_fn = None
        self.drops_no_match = 0
        self.drops_action = 0
        self.passes = 0
        #: Fault state (:meth:`crash` / :meth:`restore`): frames that
        #: reach a crashed bridge blackhole, tallied here.
        self.down = False
        self.fault_blackhole_drops = 0
        #: Outage windows ``[down, up]`` in time order (``up`` is
        #: ``inf`` while down).
        self._outages: List[List[float]] = []
        #: A fault plan may crash this bridge (:meth:`arm_faults`).
        self.fault_armed = False
        self._ledgers: List[_Ledger] = []
        #: Brings the whole batched chain up to ``sim.now`` (the
        #: deployment's catch-up, set with the batch stations).
        self._catch_up = None

    # -- configuration (ovs-vsctl equivalents) ---------------------------

    def add_port(self, name: str, port_class: PortClass, pair: PortPair) -> BridgePort:
        """Attach a port; the bridge becomes the consumer of ``pair``."""
        port = BridgePort(self._next_port_no, name, port_class, pair)
        self._next_port_no += 1
        self._ports[port.port_no] = port
        pair.rx.connect(lambda frame, p=port: self._ingress(p, frame))
        if self._batch_mode:
            pair.rx.connect_batch(
                lambda batch, p=port: self._ingress_batch(p, batch))
        return port

    def del_port(self, port_no: int) -> None:
        port = self._ports.pop(port_no, None)
        if port is not None:
            port.pair.rx.connect(lambda frame: None)
        self._mac_table = {m: p for m, p in self._mac_table.items() if p != port_no}

    def port(self, port_no: int) -> BridgePort:
        return self._ports[port_no]

    def port_by_name(self, name: str) -> BridgePort:
        for port in self._ports.values():
            if port.name == name:
                return port
        raise ConfigurationError(f"bridge {self.name} has no port {name!r}")

    def ports(self) -> List[BridgePort]:
        return list(self._ports.values())

    @property
    def table(self) -> FlowTable:
        """Table 0 (the single-table view most callers use)."""
        return self.tables[0]

    def _new_table(self, name: str) -> FlowTable:
        table = FlowTable(name=name)
        table.add_listener(self._invalidate_plans)
        return table

    def _invalidate_plans(self) -> None:
        """Rule change in any table: flush every cached pass plan."""
        if self._plan_cache:
            self.plan_cache_invalidations += 1
            self._plan_cache.clear()
        self._port_blind = not any(
            table.matches_l4_ports() for table in self.tables.values())

    def plan_key(self, frame: Frame, port_no: int) -> tuple:
        """The pass-plan memo key: every header field the tables can
        match.  L4 ports count only while some rule matches on them, so
        randomized source ports (cache-busting flows) share one plan."""
        if self._port_blind:
            return (port_no, frame.src_mac, frame.dst_mac, frame.ethertype,
                    frame.src_ip, frame.dst_ip, frame.proto, frame.vlan,
                    frame.tunnel_id)
        return emc_signature(frame, port_no)

    def flow_table(self, table_id: int) -> FlowTable:
        """Get (creating if needed) a pipeline table."""
        if table_id < 0:
            raise ConfigurationError("table ids are non-negative")
        if table_id not in self.tables:
            self.tables[table_id] = self._new_table(
                f"{self.name}.table{table_id}")
        return self.tables[table_id]

    def add_flow(self, rule: FlowRule) -> FlowRule:
        """ovs-ofctl add-flow (honours the rule's ``table_id``)."""
        for action in rule.actions:
            if (action.type == ActionType.GOTO_TABLE
                    and action.table_id <= rule.table_id):  # type: ignore[attr-defined]
                raise ConfigurationError(
                    f"goto_table must increase: {rule.table_id} -> "
                    f"{action.table_id}")  # type: ignore[attr-defined]
        return self.flow_table(rule.table_id).add(rule)

    def set_compute(self, shares: List[ComputeShare]) -> None:
        """Pin the datapath onto CPU shares (one service station each)."""
        if self.sim is None or self.model is None:
            raise ConfigurationError(
                f"bridge {self.name}: compute requires a simulator and costs"
            )
        self._shares = list(shares)
        self._stations = [
            FairServiceStation(
                self.sim,
                service_time=lambda plan: plan.service,
                on_done=self._execute,
                queue_capacity=RX_RING_DEPTH,
                name=f"{self.name}.core{i}",
            )
            for i in range(len(shares))
        ]

    def set_batch_stations(self, margin_fn, catch_up) -> None:
        """Swap the per-core stations for batch-admitting ones.

        ``margin_fn(plan)`` resolves, per forwarding plan, how served
        members leave this bridge (see :class:`_BatchPassGroup`): the
        deployment knows where each egress lands, and answers ``inf``
        for fabric-bound plans (one flush per burst), a fused route for
        a deterministic chain into another batch station, and 0 (a
        flush at every commit) for anything else.  ``catch_up()``
        brings every station of the chain up to ``sim.now``: a crash or
        restore instant runs it first (:meth:`crash`).
        Every port -- existing and future -- also gets a batched rx
        handler so upstream components can hand whole bursts in.  Must
        be called after :meth:`set_compute`.
        """
        if self.sim is None or self.model is None or not self._shares:
            raise ConfigurationError(
                f"bridge {self.name}: batched stations require timed compute")
        self._batch_mode = True
        self._margin_fn = margin_fn
        self._catch_up = catch_up
        self._stations = [
            BatchFairStation(self.sim, queue_capacity=RX_RING_DEPTH,
                             name=f"{self.name}.core{i}")
            for i in range(len(self._shares))
        ]
        if self.fault_armed or self._outages:
            # A bridge with an outage behind it may still be down.
            self.arm_faults()
        for port in self._ports.values():
            port.pair.rx.connect_batch(
                lambda batch, p=port: self._ingress_batch(p, batch))
        if self.cache is not None:
            if len(self._stations) == 1:
                self.cache.order(self.sim, self._lookup_frontier)
            else:
                self.cache.order(self.sim, None, self._catch_up_to)

    def _lookup_frontier(self) -> float:
        """Bound for the cache's arrival-ordered resolution on a
        one-core bridge: no lookup still to be registered here arrives
        before it, and no member whose service has started arrived
        after it.

        Lookups register at most the kernel datapath's fixed wait after
        their arrival (a fused registration lands up to one route
        lookahead after its upstream commit), except the core's own
        re-entering members, which register at commits it has not
        replayed yet, after its replay position; and a service starts at
        least the fixed wait after its arrival.  The wait is shrunk so
        that float rounding keeps both sides true.
        """
        model = self.model
        late = (model.costs.fixed_latency * (1.0 - 1e-9)
                if model.mode == DatapathMode.KERNEL else 0.0)
        t = self.sim.now
        position = self._stations[0].replay_position()
        return (position if position < t else t) - late

    def _catch_up_to(self, t: float) -> None:
        """Replay every core's steps due by ``t``: a core's re-entering
        members register their lookups at its commits, which a lazy
        replay may not have reached yet."""
        for station in self._stations:
            if station.replay_position() <= t:
                station.catch_up(t)

    # -- faults --------------------------------------------------------------

    def arm_faults(self) -> None:
        """Expect crash and restore instants mid-run (a fault plan
        targets this bridge).

        The batched chain hands members over, and fused routes register
        them here, ahead of their arrival, so an instant can fall in
        between.  On an armed bridge every batched member is judged by
        its arrival time against the outage windows: one that arrives
        while the bridge is down vanishes at its admission (the station
        asks ``group.dead(i)``), takes no ring slot and no microflow
        lookup; and members are counted in :class:`_Ledger` entries that
        :meth:`settle` pays by arrival, not when they are handed over.
        """
        self.fault_armed = True
        if self._batch_mode:
            for station in self._stations:
                station.mortal = True

    def crash(self) -> List[float]:
        """The vswitch dies at ``sim.now``: from this instant on, frames
        reaching any port blackhole until :meth:`restore` (frames
        already inside finish their pass).  The batched chain is first
        brought up to the instant, so every counter reads what the
        per-frame oracle reads then.  Returns the outage window."""
        if self._batch_mode and not self.fault_armed:
            raise SimulationError(
                f"bridge {self.name}: crashed on the batched path without "
                "arm_faults(); its counters already hold members that "
                "would arrive while it is down")
        now = self._fault_instant()
        window = [now, _INF]
        self._outages.append(window)
        self.down = True
        return window

    def restore(self) -> None:
        """The vswitch forwards again from ``sim.now`` on."""
        self._outages[-1][1] = self._fault_instant()
        self.down = False

    def _fault_instant(self) -> float:
        if self._catch_up is not None:
            self._catch_up()
        return self.sim.now if self.sim is not None else 0.0

    @property
    def outage(self) -> Optional[List[float]]:
        """The open outage window while down, else None."""
        return self._outages[-1] if self.down else None

    def dead_at(self, t: float) -> bool:
        """Whether a frame arriving at ``t`` finds the bridge down.
        Decided for any ``t`` up to ``sim.now``."""
        for start, end in reversed(self._outages):
            if t >= start:
                return t < end
        return False

    def settle(self, upto: float) -> None:
        """Pay the ledgers up to ``upto``: each member arriving before
        it counts as a pass (port, plan and rule counters, as
        :meth:`_replay` counts one) or, if it arrived while the bridge
        was down, as a blackhole drop.  The deployment settles armed
        bridges whenever it catches up the batched chain, and at the end
        of a run up to the stop time (inclusive)."""
        keep = []
        for ledger in self._ledgers:
            lo = ledger.upto
            later = ledger.open
            if upto > lo:
                alive = dead = 0
                for t in ledger.ts:
                    if t >= upto:
                        later = True
                    elif t >= lo:
                        if self.dead_at(t):
                            dead += 1
                        else:
                            alive += 1
                ledger.upto = upto
                if alive:
                    self._pay(ledger, alive)
                if dead:
                    self._blackhole(ledger.tenant, dead)
            else:
                later = True
            if later:
                keep.append(ledger)
        self._ledgers = keep

    def _pay(self, ledger: _Ledger, n: int) -> None:
        port = ledger.port
        port.rx_frames += n
        self.plan_cache_hits += n
        self._learn(ledger.src_mac, port.port_no)
        for table, rule, size in ledger.steps:
            table.lookups += n
            if rule is None:
                table.misses += n
            else:
                rule.n_packets += n
                rule.n_bytes += size * n
        self.passes += n

    def _blackhole(self, tenant: Optional[int], n: int) -> None:
        """``n`` frames reached the bridge while it was down (dead
        rings); a metered run charges them to the tenant."""
        self.fault_blackhole_drops += n
        if _billing.METER.enabled:
            for _ in range(n):
                _billing.METER.fault_drop(tenant)

    @property
    def num_cores(self) -> int:
        return len(self._shares)

    @property
    def compute_shares(self):
        """The CPU shares the datapath runs on (read-only view)."""
        return tuple(self._shares)

    # -- dataplane ---------------------------------------------------------

    def _ingress(self, port: BridgePort, frame: Frame) -> None:
        if self.down:
            self._blackhole(frame.tenant_id, 1)
            return
        port.rx_frames += 1
        key = self.plan_key(frame, port.port_no)
        template = self._plan_cache.get(key)
        _obs.TRACER.bridge_rx(self.name, frame, port.port_no,
                              template is not None)
        if template is not None:
            self.plan_cache_hits += 1
            plan = self._replay(template, port, frame)
        else:
            plan = self._pipeline(port, frame, cache_key=key)
        if plan.dropped:
            _obs.TRACER.drop(self.name, frame, plan.drop_reason or "consumed")
            if _billing.METER.enabled:
                _billing.METER.drop(frame.tenant_id,
                                    plan.drop_reason or "consumed")
            return
        self.passes += 1
        if not self._stations:
            self._execute(plan)
            return
        self._dispatch(plan)

    #: Upper bound on goto_table hops (tables must strictly increase,
    #: so this is a safety net, not a semantic limit).
    MAX_PIPELINE_DEPTH = 16

    def _replay(self, template: _PlanTemplate, port: BridgePort,
                frame: Frame) -> _ForwardPlan:
        """Apply a cached pass plan to a fresh frame, reproducing the
        uncached walk's counters and header mutations exactly."""
        self._learn(frame.src_mac, port.port_no)
        for op, target, rule in template.steps:
            if op == _HIT:
                target.lookups += 1
                rule.n_packets += 1
                rule.n_bytes += frame.wire_size()
                _obs.TRACER.flow_lookup(target.name, frame, port.port_no,
                                        rule, "plan")
            elif op == _MISS:
                target.lookups += 1
                target.misses += 1
                _obs.TRACER.flow_lookup(target.name, frame, port.port_no,
                                        None, "plan")
            else:
                target.apply(frame)
        if template.drop_kind == "no_match":
            self.drops_no_match += 1
        elif template.drop_kind == "action":
            self.drops_action += 1
        reason = template.drop_kind
        if reason is None and template.dropped:
            reason = "no_egress"
        return _ForwardPlan(frame=frame, in_port=port.port_no,
                            out_ports=list(template.out_ports),
                            rewrites=template.rewrites,
                            dropped=template.dropped,
                            drop_reason=reason)

    def _pipeline(self, port: BridgePort, frame: Frame,
                  cache_key: Optional[tuple] = None) -> _ForwardPlan:
        """Run the (multi-table) flow pipeline.

        Header rewrites apply immediately, so later tables match the
        modified packet, as OpenFlow specifies.  Timing happens later;
        mutating the in-flight frame early is unobservable.

        When ``cache_key`` is given and the walk only touched
        header-signature-determined state, the outcome is memoized so
        the next frame with the same signature replays it.
        """
        plan = _ForwardPlan(frame=frame, in_port=port.port_no)
        self._learn(frame.src_mac, port.port_no)
        steps: list = []
        cacheable = cache_key is not None
        drop_kind: Optional[str] = None
        table_id: Optional[int] = 0
        depth = 0
        while table_id is not None:
            depth += 1
            if depth > self.MAX_PIPELINE_DEPTH:
                raise ConfigurationError(
                    f"pipeline deeper than {self.MAX_PIPELINE_DEPTH} tables")
            table = self.tables.get(table_id)
            rule = (table.lookup(frame, port.port_no)
                    if table is not None else None)
            if rule is None:
                if table is not None:
                    steps.append((_MISS, table, None))
                self.drops_no_match += 1
                plan.dropped = True
                plan.drop_reason = drop_kind = "no_match"
                break
            steps.append((_HIT, table, rule))
            table_id = None
            for action in rule.actions:
                if action.type == ActionType.DROP:
                    self.drops_action += 1
                    plan.dropped = True
                    plan.drop_reason = drop_kind = "action"
                    break
                if action.type == ActionType.OUTPUT:
                    plan.out_ports.append(action.port_no)  # type: ignore[attr-defined]
                elif action.type == ActionType.NORMAL:
                    cacheable = False
                    plan.out_ports.extend(
                        self._normal_lookup(frame, port.port_no))
                elif action.type == ActionType.GOTO_TABLE:
                    table_id = action.table_id  # type: ignore[attr-defined]
                elif action.type == ActionType.CONTROLLER:
                    cacheable = False
                    self.punted += 1
                    if self.punt_handler is not None:
                        self.punt_handler(frame, port.port_no)
                    plan.dropped = True  # consumed by the slow path
                    plan.drop_reason = "punt"
                    break
                else:
                    steps.append((_APPLY, action, None))
                    action.apply(frame)
                    if action.rewrites():
                        plan.rewrites = True
            if plan.dropped:
                break
        if not plan.dropped and not plan.out_ports:
            plan.dropped = True
            plan.drop_reason = "no_egress"
        if cacheable:
            if len(self._plan_cache) >= PLAN_CACHE_CAPACITY:
                self._plan_cache.pop(next(iter(self._plan_cache)))
            self._plan_cache[cache_key] = _PlanTemplate(
                tuple(steps), tuple(plan.out_ports), plan.rewrites,
                plan.dropped, drop_kind)
        return plan

    def _learn(self, mac: MacAddress, port_no: int) -> None:
        if not mac.is_multicast:
            self._mac_table[mac] = port_no

    def _normal_lookup(self, frame: Frame, in_port: int) -> List[int]:
        if frame.dst_mac.is_multicast:
            return [p for p in self._ports if p != in_port]
        hit = self._mac_table.get(frame.dst_mac)
        if hit is None:
            return [p for p in self._ports if p != in_port]
        return [] if hit == in_port else [hit]

    def _dispatch(self, plan: _ForwardPlan) -> None:
        """Timed mode: charge the pass to a core and delay accordingly."""
        assert self.model is not None and self.sim is not None
        index = plan.frame.flow_id % len(self._stations)
        share = self._shares[index]
        out_class = self._ports[plan.out_ports[0]].port_class
        in_class = self._ports[plan.in_port].port_class
        cycles = self.model.pass_cycles(
            in_class, out_class, plan.rewrites, num_ports=len(self._ports)
        )
        cache = self.cache
        if cache is not None and not self._batch_mode:
            cycles += cache.lookup_cost(plan.frame, plan.in_port)
        hz = share.effective_hz()
        timing = self.model.timing(
            cycles,
            effective_hz=hz,
            sharers=share.sharers,
            num_queues=len(self._stations),
            jitter=self._jitter,
            # Mix the ingress port into the key so a frame's first and
            # second pass through the same bridge draw independently.
            key=(plan.frame.frame_id << 6) | (plan.in_port & 63),
        )
        plan.service = timing.service
        plan.t_dispatch = now = self.sim.now
        item = plan
        if self._batch_mode:
            item = _SoloPlanGroup(self, plan)
            if cache is not None:
                # Resolved in arrival order with the batched lookups.
                item.lookups = cache.defer(
                    flow_signature(plan.frame, plan.in_port), None, [now],
                    item.svc, timing.service,
                    (cycles + cache.upcall_cycles) / hz)
        wait = plan.wait = timing.wait
        if wait > 0:
            self.sim.call_later(wait, self._submit, index, item)
        else:
            self._submit(index, item)

    def _submit(self, index: int, item) -> None:
        # Keyed by ingress port: each port's rx ring gets a fair share
        # of the core under overload (NAPI/PMD round-robin polling).
        if self._batch_mode:
            item.sub_ts = (self.sim.now,)
            self._stations[index].submit_group(item)
        else:
            self._stations[index].submit(item.in_port, item)

    def rx_drops(self) -> int:
        """Frames dropped at full rx rings (timed mode)."""
        return sum(s.dropped() for s in self._stations)

    def _execute(self, plan: _ForwardPlan) -> None:
        """Apply mutations and transmit on the egress port(s)."""
        meter = _billing.METER
        if meter.enabled:
            # Exact per-packet CPU attribution: the station spent the
            # plan's calibrated service time on this tenant's frame.
            # Functional mode (no stations) never costs service time.
            if plan.service is not None:
                meter.cpu(plan.frame.tenant_id, plan.service)
        for i, port_no in enumerate(plan.out_ports):
            port = self._ports.get(port_no)
            if port is None:
                continue
            frame = plan.frame if i == len(plan.out_ports) - 1 else plan.frame.copy()
            port.tx_frames += 1
            _obs.TRACER.bridge_tx(self.name, frame, port_no, plan.t_dispatch,
                                  plan.wait, plan.service)
            port.pair.transmit(frame)

    # -- batched dataplane -------------------------------------------------
    #
    # The struct-of-arrays fast path: a whole same-flow burst classifies
    # once per flow bucket (replaying the cached pass plan with xN
    # counter bumps), gets per-member jittered timing in one loop, and
    # registers with its core's BatchFairStation as a single group.
    # Served members flow back out through _execute_batch as sub-batches.
    # Runs only with tracing off: per-hop spans exist only on the
    # per-frame path.

    def _ingress_batch(self, port: BridgePort, batch: FrameBatch) -> None:
        """Batched ingress: classify once per flow bucket.

        Only plan-cache hits batch -- a cached plan is callback-free and
        header-determined, so one replay with multiplied counters is
        exact.  Members with their own source ports share the plan while
        no rule matches L4 ports (:meth:`plan_key`).  On a miss (or in
        functional mode, or for per-member ports some rule could tell
        apart) members take the per-frame path at their own timestamps:
        the first walk installs the plan at the right simulated time,
        and the flow's *next* burst batches.  An armed bridge
        (:meth:`arm_faults`) counts the members by arrival instead, and
        replays a dropping plan per frame, where each member meets the
        bridge's state when it arrives.
        """
        sink = batch.fused_sink
        if sink is not None:
            self._ingress_accounting(port, batch, sink)
            return
        frame = batch.frame
        template = self._plan_cache.get(self.plan_key(frame, port.port_no))
        if (template is None or not self._stations
                or (batch.src_ports is not None and not self._port_blind)
                or (self.fault_armed and template.dropped)):
            sim = self.sim
            for i, t in enumerate(batch.ts):
                sim.schedule(t, self._ingress, port, batch.frame_at(i))
            return
        if self.fault_armed:
            # Counted by arrival (settle), where the members' fate is
            # known; the header is rewritten now.
            self._ledgers.append(_Ledger(port, template, frame, batch.ts,
                                         False))
            self._rewrite(template, frame)
            plan = _ForwardPlan(frame=frame, in_port=port.port_no,
                                out_ports=list(template.out_ports),
                                rewrites=template.rewrites)
        else:
            n = len(batch)
            port.rx_frames += n
            self.plan_cache_hits += n
            plan = self._replay_batch(template, port, frame, n)
            if plan.dropped:
                if _billing.METER.enabled:
                    _billing.METER.drop(frame.tenant_id,
                                        plan.drop_reason or "consumed", n)
                return
            self.passes += n
        self._dispatch_batch(plan, batch)

    def _ingress_accounting(self, port: BridgePort, batch: FrameBatch,
                            sink: _FusedSink) -> None:
        """Replay a fused burst's pass at this bridge, sans dispatch.

        The members were already admitted at (and served by) the
        station when their upstream commits pre-registered them (and
        their microflow lookups); this traversal replays the observable
        side effects of the pass -- port/table counters, header rewrites
        on the exemplar -- and hands the header to the sink that emits
        the burst.
        """
        if sink.ledger is not None:
            # An armed bridge counts the members by arrival (settle).
            self._rewrite(sink.route.template, batch.frame)
        else:
            # Members arriving after the kernel's stop time have not
            # reached this bridge when the run's counters are read.
            n = bisect_right(batch.ts, self.sim.stop_time)
            port.rx_frames += n
            self.plan_cache_hits += n
            self._replay_batch(sink.route.template, port, batch.frame, n)
            self.passes += n
        sink.attach_part(batch)

    @staticmethod
    def _rewrite(template: _PlanTemplate, frame: Frame) -> None:
        """Apply a cached plan's header rewrites, counting nothing."""
        for op, action, _rule in template.steps:
            if op == _APPLY:
                action.apply(frame)

    def _replay_batch(self, template: _PlanTemplate, port: BridgePort,
                      frame: Frame, n: int) -> _ForwardPlan:
        """xN :meth:`_replay`: one pass over the steps with multiplied
        counter bumps; header rewrites apply once to the exemplar."""
        self._learn(frame.src_mac, port.port_no)
        for op, target, rule in template.steps:
            if op == _HIT:
                target.lookups += n
                rule.n_packets += n
                rule.n_bytes += frame.wire_size() * n
            elif op == _MISS:
                target.lookups += n
                target.misses += n
            else:
                target.apply(frame)
        if template.drop_kind == "no_match":
            self.drops_no_match += n
        elif template.drop_kind == "action":
            self.drops_action += n
        reason = template.drop_kind
        if reason is None and template.dropped:
            reason = "no_egress"
        return _ForwardPlan(frame=frame, in_port=port.port_no,
                            out_ports=list(template.out_ports),
                            rewrites=template.rewrites,
                            dropped=template.dropped,
                            drop_reason=reason)

    def _dispatch_batch(self, plan: _ForwardPlan, batch: FrameBatch) -> None:
        """Timed mode for a whole bucket: per-member jittered timing
        (identical draws to the per-frame path -- keyed by frame id and
        ingress port), the members' microflow lookups registered with
        the cache (a miss adds its upcall to that member's service), one
        group registration with the flow's core."""
        model = self.model
        assert model is not None
        index = plan.frame.flow_id % len(self._stations)
        share = self._shares[index]
        out_class = self._ports[plan.out_ports[0]].port_class
        in_class = self._ports[plan.in_port].port_class
        cycles = model.pass_cycles(
            in_class, out_class, plan.rewrites, num_ports=len(self._ports))
        hz = share.effective_hz()
        svc, waits = model.timing_batch(
            cycles, effective_hz=hz,
            sharers=share.sharers, num_queues=len(self._stations),
            jitter=self._jitter, keys=batch.frame_ids,
            key_shift_or=plan.in_port & 63)
        ts = batch.ts
        sub_ts = [ts[i] + waits[i] for i in range(len(ts))]
        group = _BatchPassGroup(self, batch, plan, sub_ts, svc,
                                self._margin_fn(plan))
        cache = self.cache
        if cache is not None:
            key = flow_signature(plan.frame, plan.in_port)
            keys = None
            ports = batch.src_ports
            if ports is not None:
                head = key[:7]
                tail = key[8]
                keys = [head + (p, tail) for p in ports]
                key = None
            group.lookups = cache.defer(
                key, keys, ts, svc, svc[0],
                (cycles + cache.upcall_cycles) / hz,
                gate=group.dead if self.fault_armed else None)
        self._stations[index].submit_group(group)

    def _execute_batch(self, group: _BatchPassGroup) -> None:
        """Flush a group's committed members downstream as a sub-batch."""
        batch = group.batch
        idx = group._done_idx
        n = len(idx)
        meter = _billing.METER
        if meter.enabled:
            svc = group.svc
            meter.cpu(batch.frame.tenant_id,
                      sum(svc[i] for i in idx), n)
        ports = batch.src_ports
        sub = FrameBatch(
            batch.frame.replica(),
            [batch.frame_ids[i] for i in idx],
            list(group._done_ts),
            [batch.created_at[i] for i in idx],
            None if ports is None else [ports[i] for i in idx],
        )
        sub.fused_sink = group.sink
        out_ports = group.out_ports
        m = len(out_ports)
        # Mirror _execute's id draws: a copy per member for every
        # *existing* non-last egress, in port order, frame-major.
        targets = [(j, self._ports.get(p)) for j, p in enumerate(out_ports)]
        targets = [(j, p) for j, p in targets if p is not None]
        copies = sub.fanout_copies(
            sum(1 for j, _ in targets if j < m - 1))
        ci = 0
        for j, port in targets:
            if j < m - 1:
                out = copies[ci]
                ci += 1
            else:
                out = sub
            port.tx_frames += n
            port.pair.transmit_batch(out, self.sim)

    # -- introspection -----------------------------------------------------

    def utilization(self, elapsed: float) -> float:
        """Mean core utilization over ``elapsed`` seconds (timed mode)."""
        if not self._stations:
            return 0.0
        total = sum(s.utilization(elapsed) for s in self._stations)
        return total / len(self._stations)

    def dump_flows(self) -> str:
        chunks = []
        for table_id in sorted(self.tables):
            table = self.tables[table_id]
            if len(table):
                chunks.append(f"table {table_id}:\n{table.dump()}")
        return "\n".join(chunks)
