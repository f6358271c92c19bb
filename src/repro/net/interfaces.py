"""Port abstractions: the glue every device plugs into.

A :class:`Port` is a unidirectional packet consumer -- anything with a
``receive(frame)`` method and a name.  Devices expose ports; wiring a
topology means pointing one device's egress at another device's port.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.net.packet import Frame, FrameBatch


class Port:
    """A named packet sink backed by a handler callable."""

    def __init__(self, name: str, handler: Optional[Callable[[Frame], None]] = None):
        self.name = name
        self._handler = handler
        self._batch_handler: Optional[Callable[[FrameBatch], None]] = None
        self.rx_frames = 0
        self.rx_bytes = 0

    def connect(self, handler: Callable[[Frame], None]) -> None:
        """Attach (or replace) the receive handler."""
        self._handler = handler

    def connect_batch(self, handler: Callable[[FrameBatch], None]) -> None:
        """Attach a batch receive handler (batched fast path)."""
        self._batch_handler = handler

    @property
    def connected(self) -> bool:
        return self._handler is not None

    def release(self) -> None:
        """Drop both receive handlers: they are bound to the consumer,
        which usually holds this port (a reference cycle)."""
        self._handler = self._batch_handler = None

    def receive(self, frame: Frame) -> None:
        """Deliver a frame into this port."""
        self.rx_frames += 1
        self.rx_bytes += frame.wire_size()
        if self._handler is not None:
            self._handler(frame)

    def receive_batch(self, batch: FrameBatch, sim) -> None:
        """Deliver a batch into this port.

        Consumers without a batch handler get the exact per-frame
        behaviour back: each member materializes and is delivered by
        its own event at its own timestamp (the batch contract
        guarantees ``sim.now <= batch.ts[0]``), so unconverted
        components never see batches at all.
        """
        handler = self._batch_handler
        if handler is not None:
            n = len(batch)
            self.rx_frames += n
            self.rx_bytes += batch.frame.wire_size() * n
            handler(batch)
            return
        for i, t in enumerate(batch.ts):
            sim.schedule(t, self.receive, batch.frame_at(i))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Port {self.name} rx={self.rx_frames}>"


class CountingPort(Port):
    """A port that additionally keeps the received frames (bounded)."""

    def __init__(self, name: str, keep: int = 10000):
        super().__init__(name)
        self.keep = keep
        self.frames: List[Frame] = []

    def receive(self, frame: Frame) -> None:
        if len(self.frames) < self.keep:
            self.frames.append(frame)
        super().receive(frame)


class PortPair:
    """A bidirectional attachment point: an rx port and a tx handler.

    Devices that both produce and consume (a VM's NIC interface, a
    vswitch port) are modelled as a pair: the owner receives on ``rx``
    and transmits by calling ``tx``.
    """

    def __init__(self, name: str):
        self.name = name
        self.rx = Port(f"{name}.rx")
        self._tx: Optional[Callable[[Frame], None]] = None
        self._tx_batch: Optional[Callable[[FrameBatch], None]] = None
        self.tx_frames = 0
        self.tx_bytes = 0

    def attach_tx(self, handler: Callable[[Frame], None]) -> None:
        self._tx = handler

    def attach_tx_batch(self, handler: Callable[[FrameBatch], None]) -> None:
        """Attach a batch transmit handler (batched fast path)."""
        self._tx_batch = handler

    def release(self) -> None:
        """Drop the transmit handlers and the rx port's handlers."""
        self._tx = self._tx_batch = None
        self.rx.release()

    def transmit(self, frame: Frame) -> None:
        """Send a frame out of this attachment point."""
        self.tx_frames += 1
        self.tx_bytes += frame.wire_size()
        if self._tx is None:
            raise RuntimeError(f"port pair {self.name} has no tx attached")
        self._tx(frame)

    def transmit_batch(self, batch: FrameBatch, sim) -> None:
        """Send a batch out of this attachment point.

        Falls back to one per-member event at each member's timestamp
        when no batch handler is attached (see
        :meth:`Port.receive_batch` for the contract).
        """
        handler = self._tx_batch
        if handler is not None:
            n = len(batch)
            self.tx_frames += n
            self.tx_bytes += batch.frame.wire_size() * n
            handler(batch)
            return
        for i, t in enumerate(batch.ts):
            sim.schedule(t, self.transmit, batch.frame_at(i))
