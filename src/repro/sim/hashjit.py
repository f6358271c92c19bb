"""Deterministic per-frame jitter: hash-based uniform draws.

The timed dataplane adds small random waits at several hops (softirq
wakeup variance, scheduler jitter, DPDK drain waits, the l2fwd drain
interval).  Historically these were drawn from a shared
``random.Random`` stream, which makes every draw depend on global
*draw order* -- fine for a strictly per-frame simulation, fatal for the
batched fast path, where a whole burst's waits are computed in one
event and the per-frame event interleaving (hence draw order) no longer
exists.

:class:`HashJitter` replaces the stream with a keyed hash: every draw
is a pure function of ``(component seed, frame id, site)``.  The oracle
per-frame path and the batched path therefore compute *identical* waits
for the same frame at the same hop, which is what makes their delivery
and drop behaviour byte-comparable.  The component seed is itself drawn
from the component's seeded RNG stream at construction, so runs remain
reproducible end to end and distinct components stay decorrelated.

The mixer is splitmix64 -- cheap (a handful of multiplies and shifts)
and statistically solid for this purpose.  A batch draws in *lanes*
(:meth:`HashJitter.units`): its keys are packed into the 128-bit lanes
of one Python integer, and each splitmix64 step is one operation on
that integer, so the per-key work runs at C speed instead of as one
Python call per key.  Every lane operation is taken mod 2^64 and every
product fits in its lane, so each lane's result equals the per-key
:meth:`HashJitter.unit` draw bit for bit.
"""

from __future__ import annotations

import zlib
from array import array
from typing import Callable, Dict, List, Sequence, Tuple

_MASK = (1 << 64) - 1
#: 1/2^53: converts the top 53 bits of the mix to a float in [0, 1).
_INV = 1.0 / (1 << 53)
_GAMMA = 0x9E3779B97F4A7C15
_MUL1 = 0xBF58476D1CE4E5B9
_MUL2 = 0x94D049BB133111EB
#: The mask of one 128-bit lane of :meth:`HashJitter._lanes`: a 64-bit
#: value and 64 bits of headroom, so a 64 x 64-bit product never
#: carries into the next lane.
_LANE = b"\xff" * 8 + bytes(8)

#: :meth:`HashJitter.units` draws in lanes from this many draws (keys x
#: sites) on: below it, packing and unpacking the lanes costs more than
#: mixing key by key.
LANE_MIN = 4


def mix64(x: int) -> int:
    """splitmix64 finalizer: avalanche a 64-bit value."""
    x = (x + _GAMMA) & _MASK
    x = ((x ^ (x >> 30)) * _MUL1) & _MASK
    x = ((x ^ (x >> 27)) * _MUL2) & _MASK
    return x ^ (x >> 31)


class HashJitter:
    """Keyed uniform draws: ``unit(key, site)`` is a pure function.

    ``key`` is typically a frame id and ``site`` a small per-draw-site
    constant, so one frame can take several independent draws at one
    hop (e.g. fixed wait + scheduler wait) without correlation.
    """

    __slots__ = ("seed", "_site_units", "_lane_starts")

    #: Draw-site constants (one per jitter site in the mediation chain).
    SITE_FIXED_WAIT = 1
    SITE_SCHED_WAIT = 2
    SITE_DRAIN_WAIT = 3
    SITE_DRAIN_ANOMALY = 4
    SITE_L2FWD_DRAIN = 5

    def __init__(self, seed: int) -> None:
        self.seed = seed & _MASK
        self._site_units: Dict[Tuple[int, int, int],
                               Callable[[int], float]] = {}
        #: One lane's words per site (see :meth:`units`), by
        #: ``(sites, shift, tag)``.
        self._lane_starts: Dict[tuple, array] = {}

    @classmethod
    def from_name(cls, name: str) -> "HashJitter":
        """Derive a component jitter source from its (stable) name.

        Keying by name rather than by an RNG draw gives *common random
        numbers* across configurations: the same-named hop in two
        compared setups (e.g. Baseline vs MTS L1) applies the same
        jitter to the same frame, so systematic model differences are
        not drowned by differently-realized noise.  It is also immune
        to component construction order, which keeps sequential and
        process-pool sweep backends bit-identical.
        """
        return cls(mix64(zlib.crc32(name.encode("utf-8"))))

    def unit(self, key: int, site: int) -> float:
        """A uniform float in [0, 1) for ``(key, site)``."""
        x = (self.seed + _GAMMA * ((key << 8) ^ site)) & _MASK
        x = ((x ^ (x >> 30)) * _MUL1) & _MASK
        x = ((x ^ (x >> 27)) * _MUL2) & _MASK
        return ((x ^ (x >> 31)) >> 11) * _INV

    def _start(self, site: int, shift: int, tag: int) -> int:
        """The constant ``c`` with ``unit((k << shift) | tag, site)``
        starting from ``(c + g * k) mod 2^64``, ``g = GAMMA << (shift +
        8)``: for ``0 <= tag < 2^shift`` and ``0 <= site < 256`` the
        key's shifted bits never overlap, so ``((k << shift | tag) <<
        8) ^ site`` is ``k * 2^(shift + 8) + (tag << 8 | site)``."""
        if not (0 <= tag < 1 << shift and 0 <= site < 256):
            raise ValueError(f"tag {tag} must fit in {shift} bits and "
                             f"site {site} in 8")
        return (self.seed + _GAMMA * ((tag << 8) | site)) & _MASK

    def site_unit(self, site: int, shift: int = 0,
                  tag: int = 0) -> Callable[[int], float]:
        """``unit((k << shift) | tag, site)`` as a function of ``k``,
        with everything but ``k`` folded into one constant: the
        per-member draw of callers that draw one key at a time."""
        fn = self._site_units.get((site, shift, tag))
        if fn is None:
            c = self._start(site, shift, tag)
            g = (_GAMMA << (shift + 8)) & _MASK

            # The defaults bind every constant as a local: this runs
            # once per member on the fused and per-frame paths.
            def unit(k: int, c: int = c, g: int = g, m: int = _MASK,
                     m1: int = _MUL1, m2: int = _MUL2,
                     inv: float = _INV) -> float:
                x = (c + g * k) & m
                x = ((x ^ (x >> 30)) * m1) & m
                x = ((x ^ (x >> 27)) * m2) & m
                return ((x ^ (x >> 31)) >> 11) * inv

            fn = self._site_units[site, shift, tag] = unit
        return fn

    def units(self, keys: Sequence[int], sites: Tuple[int, ...],
              shift: int = 0, tag: int = 0) -> List[float]:
        """``[unit((k << shift) | tag, s) for k in keys for s in
        sites]``: the batch form of :meth:`unit`.

        From :data:`LANE_MIN` draws on it draws in lanes
        (:meth:`_lanes`); below that, key by key (:meth:`site_unit`).
        """
        if len(keys) * len(sites) < LANE_MIN:
            draws = [self.site_unit(site, shift, tag) for site in sites]
            return [draw(k) for k in keys for draw in draws]
        starts = self._lane_starts.get((sites, shift, tag))
        if starts is None:
            starts = array("Q")
            for site in sites:
                starts.extend((0, self._start(site, shift, tag)))
            self._lane_starts[sites, shift, tag] = starts
        return self._lanes(keys, starts, shift)

    @staticmethod
    def _lanes(keys: Sequence[int], starts: array,
               shift: int) -> List[float]:
        """:meth:`units` in lanes; ``starts`` holds one lane's words
        per site: ``(0, start constant)``.

        Lane ``i * len(sites) + j`` (bits ``128 * lane`` up) of one
        integer draws key ``i`` at site ``j``: its low word holds the
        key, its high word the site's start constant (see
        :meth:`_start`).  Every splitmix64 step is then one operation
        on the whole integer: a multiply by a 64-bit constant leaves
        each product inside its 128-bit lane, and the mask (each lane's
        low 64 bits) takes every lane mod 2^64 again, which also clears
        what a right shift pulls down from the lane above.  The 53 high
        bits of each final value sit, after the last shift, in the low
        word of its lane.
        """
        words = starts * len(keys)
        try:
            ids = array("Q", keys)
        except OverflowError:  # only ``k mod 2^64`` reaches the mix
            ids = array("Q", [k & _MASK for k in keys])
        step = len(starts)
        for j in range(0, step, 2):
            words[j::step] = ids
        width = len(words) // 2
        mask = int.from_bytes(_LANE * width, "little")
        x = int.from_bytes(words, "little")
        x = ((((_GAMMA << (shift + 8)) & _MASK) * (x & mask)
              + ((x >> 64) & mask)) & mask)
        x = (((x ^ (x >> 30)) & mask) * _MUL1) & mask
        x = (((x ^ (x >> 27)) & mask) * _MUL2) & mask
        x = (x ^ (x >> 31)) >> 11
        words = array("Q", x.to_bytes(16 * width, "little"))
        return list(map(_INV.__mul__, words[::2]))
