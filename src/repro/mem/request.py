"""Memory request representation.

Every transfer that reaches a DRAM channel (demand read, fill write,
writeback, metadata access, TAD fetch, ...) is a :class:`Request`. The
:class:`AccessKind` tag is what lets the metrics layer compute the paper's
CAS-fraction breakdowns (Figs. 8 and 14) without re-deriving intent from
context.

Requests are the single most-allocated object on the simulation hot
path, so the class is deliberately lean: ``__slots__``, a hand-written
``__init__``, and per-kind flags (``is_write``, ``index``) precomputed
once on the enum members instead of per-call set membership tests.
"""

from __future__ import annotations

import enum
import itertools
from typing import Callable, Optional

LINE_BYTES = 64
LINE_SHIFT = 6

_request_ids = itertools.count()


class AccessKind(enum.Enum):
    """Why a request exists.

    Each member carries two precomputed attributes (assigned right after
    the class body, so they are plain attribute loads on the hot path):

    - ``is_write`` — whether the transfer moves data *into* a device;
    - ``index`` — dense 0-based position in definition order, used for
      array-based CAS accounting in
      :class:`~repro.mem.channel.ChannelStats`.
    """

    DEMAND_READ = "demand_read"          # CPU-side read (L3 miss)
    PREFETCH_READ = "prefetch_read"      # core-side stride prefetcher
    FILL_WRITE = "fill_write"            # read-miss fill into the MS$
    L4_WRITE = "l4_write"                # dirty L3 eviction written to the MS$
    WRITEBACK = "writeback"              # dirty MS$ eviction written to main memory
    EVICT_READ = "evict_read"            # reading dirty victim data out of the MS$
    META_READ = "meta_read"              # sector metadata fetch from in-DRAM tags
    META_WRITE = "meta_write"            # sector metadata update
    TAD_READ = "tad_read"                # Alloy cache tag-and-data fetch
    TAD_WRITE = "tad_write"              # Alloy cache tag-and-data write
    SPEC_READ = "spec_read"              # SFRM speculative main-memory read
    FOOTPRINT_READ = "footprint_read"    # footprint prefetch from main memory
    WT_WRITE = "wt_write"                # opportunistic write-through to main memory


_WRITE_KINDS = frozenset(
    {
        AccessKind.FILL_WRITE,
        AccessKind.L4_WRITE,
        AccessKind.WRITEBACK,
        AccessKind.META_WRITE,
        AccessKind.TAD_WRITE,
        AccessKind.WT_WRITE,
    }
)

#: Members in definition order, indexable by ``AccessKind.index``.
ACCESS_KINDS: tuple[AccessKind, ...] = tuple(AccessKind)
NUM_ACCESS_KINDS = len(ACCESS_KINDS)

for _index, _kind in enumerate(ACCESS_KINDS):
    _kind.is_write = _kind in _WRITE_KINDS
    _kind.index = _index
del _index, _kind


class Request:
    """One 64-byte-granularity DRAM access.

    Parameters
    ----------
    line:
        64-byte line address (byte address >> 6).
    kind:
        The :class:`AccessKind` of the transfer.
    core_id:
        Originating core, or -1 for maintenance traffic with no single
        owner.
    on_complete:
        Called as ``on_complete(request, finish_cycle)`` when the data
        transfer (plus any I/O delay) finishes. Writes usually pass None.
    burst_override:
        Data-bus occupancy in *device* cycles, overriding the channel's
        default 64-byte burst. The Alloy cache uses this for its 72-byte
        TAD transfers (3 cycles instead of 2 on HBM).
    """

    __slots__ = (
        "line",
        "kind",
        "core_id",
        "on_complete",
        "burst_override",
        "req_id",
        "issue_cycle",
        "start_cycle",
        "finish_cycle",
        "is_write",
        "row",   # DRAM row and bank state, both set by DramChannel.enqueue
        "bank",
    )

    def __init__(
        self,
        line: int,
        kind: AccessKind,
        core_id: int = -1,
        on_complete: Optional[Callable[["Request", int], None]] = None,
        burst_override: Optional[int] = None,
    ) -> None:
        self.line = line
        self.kind = kind
        self.core_id = core_id
        self.on_complete = on_complete
        self.burst_override = burst_override
        self.req_id = next(_request_ids)
        self.issue_cycle = -1
        self.start_cycle = -1
        self.finish_cycle = -1
        # Copied off the kind so the dispatch loop pays one attribute
        # load, not an enum property plus a set lookup.
        self.is_write = kind.is_write

    def __repr__(self) -> str:
        return (
            f"Request(line={self.line}, kind={self.kind.value!r}, "
            f"core_id={self.core_id}, req_id={self.req_id})"
        )

    @property
    def byte_addr(self) -> int:
        return self.line << LINE_SHIFT

    def queue_latency(self) -> int:
        """Cycles spent waiting before service began (after completion)."""
        if self.start_cycle < 0 or self.issue_cycle < 0:
            return 0
        return self.start_cycle - self.issue_cycle

    def total_latency(self) -> int:
        """Issue-to-finish latency in CPU cycles (after completion)."""
        if self.finish_cycle < 0 or self.issue_cycle < 0:
            return 0
        return self.finish_cycle - self.issue_cycle


def line_of(byte_addr: int) -> int:
    """64-byte line address of a byte address."""
    return byte_addr >> LINE_SHIFT
