"""Sim-time heartbeat watchdog: how long until an outage is *noticed*.

Real control planes do not learn of a dead vswitch instantly; they poll
(or miss keepalives) on a period.  The watchdog models exactly that: a
single probe loop every ``heartbeat`` seconds walks all monitored
targets in sorted order and reports the first probe at which a target
is observed down.  Detection latency is therefore bounded by the
heartbeat -- and is *measured*, not assumed, which is what the
fault-isolation experiment's phase accounting now uses.

Probes are read-only: they inspect component health flags and never
touch the dataplane, so enabling the watchdog cannot change delivered
packet counts (the byte-compatibility guarantee of the legacy
fault-isolation table).
"""

from __future__ import annotations

from repro.sim.kernel import Simulator


class Watchdog:
    """Periodic health prober over a chaos session's targets."""

    def __init__(self, sim: Simulator, session, heartbeat: float) -> None:
        self.sim = sim
        self.session = session
        self.heartbeat = heartbeat
        self.probes = 0
        self._until = 0.0

    def start(self, horizon: float) -> None:
        """Begin probing; the loop re-arms itself until ``horizon``."""
        self._until = self.sim.now + horizon
        self.sim.schedule(self.sim.now + self.heartbeat, self._probe)

    def _probe(self) -> None:
        self.probes += 1
        now = self.sim.now
        # Sorted order makes same-probe multi-detections deterministic.
        for name in sorted(self.session.states):
            state = self.session.states[name]
            if state.down and not state.observed_down:
                state.observed_down = True
                self.session.on_detected(state,
                                         latency=now - state.down_since)
        next_t = now + self.heartbeat
        if next_t <= self._until:
            self.sim.schedule(next_t, self._probe)
