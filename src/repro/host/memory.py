"""Host memory and 1 GB hugepage accounting.

The paper allocates each VM 4 GB of RAM of which 1 GB is one 1 GB
hugepage; the Baseline receives a proportional number of hugepages, and
the host OS always keeps at least one.  Memory is one axis of Fig. 5's
resource plots, so the model tracks RAM and hugepages separately.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from repro.errors import MemoryExhaustedError
from repro.units import GIB


@dataclass
class MemoryAllocation:
    owner: str
    ram_bytes: int
    hugepages_1g: int


class HostMemory:
    """RAM plus a pool of 1 GB hugepages."""

    def __init__(self, total_bytes: int = 64 * GIB, hugepages_1g: int = 16) -> None:
        if total_bytes <= 0:
            raise ValueError("total memory must be positive")
        if hugepages_1g * GIB > total_bytes:
            raise ValueError("hugepages exceed total memory")
        self.total_bytes = total_bytes
        self.total_hugepages = hugepages_1g
        self._allocations: Dict[str, MemoryAllocation] = {}
        # The Host OS always keeps one hugepage (paper Fig. 5 caption).
        self.allocate("host-os", ram_bytes=4 * GIB, hugepages_1g=1)

    def allocated_bytes(self) -> int:
        return sum(a.ram_bytes for a in self._allocations.values())

    def allocated_hugepages(self) -> int:
        return sum(a.hugepages_1g for a in self._allocations.values())

    def free_bytes(self) -> int:
        return self.total_bytes - self.allocated_bytes()

    def free_hugepages(self) -> int:
        return self.total_hugepages - self.allocated_hugepages()

    def allocate(self, owner: str, ram_bytes: int, hugepages_1g: int = 0) -> MemoryAllocation:
        """Reserve RAM (inclusive of hugepage-backed RAM) for ``owner``."""
        if owner in self._allocations:
            raise MemoryExhaustedError(f"{owner!r} already holds an allocation")
        if ram_bytes < hugepages_1g * GIB:
            raise ValueError("ram_bytes must cover the requested hugepages")
        if ram_bytes > self.free_bytes():
            raise MemoryExhaustedError(
                f"cannot allocate {ram_bytes} B for {owner!r}: "
                f"{self.free_bytes()} B free"
            )
        if hugepages_1g > self.free_hugepages():
            raise MemoryExhaustedError(
                f"cannot allocate {hugepages_1g} hugepages for {owner!r}: "
                f"{self.free_hugepages()} free"
            )
        allocation = MemoryAllocation(owner, ram_bytes, hugepages_1g)
        self._allocations[owner] = allocation
        return allocation

    def release(self, owner: str) -> None:
        self._allocations.pop(owner, None)

    def owners(self) -> Dict[str, MemoryAllocation]:
        return dict(self._allocations)
