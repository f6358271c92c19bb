"""The event journal: one structured record per state transition.

Every transition the simulated system reports -- a fault's inject,
detect and recover, a tenant's arrival, placement and migration -- is
one flat dict::

    {"t": <sim seconds>, "layer": "faults" | "controlplane",
     "kind": <what happened>, ...attributes}

Attributes are plain JSON values (numbers, strings), so events from
every layer share one schema, correlate on one sim-time axis, and
serialize with one exporter.  Events carry only simulated times and
values derived from the run's seed -- never wall-clock stamps or
object ids -- so the JSONL of a run is byte-identical across the
sequential and process-pool backends.
"""

from __future__ import annotations

import json
from typing import Iterable, List


class Journal:
    """Ordered events of one emitter, stamped from its simulator."""

    def __init__(self, layer: str, sim) -> None:
        self.layer = layer
        self.sim = sim
        self.events: List[dict] = []

    def record(self, kind: str, **attrs) -> None:
        event = {"t": self.sim.now, "layer": self.layer, "kind": kind}
        event.update(attrs)
        self.events.append(event)

    def of_kind(self, *kinds: str) -> List[dict]:
        return [e for e in self.events if e["kind"] in kinds]


def write_jsonl(records: Iterable[dict], path: str) -> int:
    """Write one canonical JSON line (sorted keys, no whitespace) per
    record, so identical records give identical bytes; returns the
    count."""
    count = 0
    with open(path, "w") as handle:
        for record in records:
            handle.write(json.dumps(record, sort_keys=True,
                                    separators=(",", ":")) + "\n")
            count += 1
    return count
