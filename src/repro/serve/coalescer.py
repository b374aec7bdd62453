"""Request coalescing: fold compatible pending requests into batch jobs.

The server's dispatcher hands over whatever is pending for a shard once
that shard is idle (one request when traffic is light, the backlog that
gathered behind the busy shard under a burst), and the plan is:

1. **dedup** — requests with equal :func:`identity_key` are one
   computation; a single entry carries every waiter and the engine runs
   it once;
2. **shard routing** — entries group by :func:`shard_of` (a stable hash
   of the affinity key), so repeat design points always land on the
   shard whose caches are warm for them;
3. **batching** — each shard's entries split into batches of at most
   ``max_batch``; one batch becomes one engine submission (a single
   ``run_jobs`` group for ``errors`` entries, one cache-backed measure
   loop for ``measure`` entries).

Everything here is pure planning over immutable requests — no I/O, no
clocks (an entry's admission time is a reading the server passes in) —
which is what makes the solo-vs-coalesced bit-identity testable:
the plan changes *scheduling* only, never a job's seed or chunk layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Sequence

from repro.serve.protocol import EvalRequest, identity_key, shard_of


@dataclass
class PendingEntry:
    """One deduplicated computation plus every waiter attached to it.

    ``waiters`` holds opaque per-request completion handles (asyncio
    futures in the server, plain lists in tests); the executor resolves
    all of them with the same result object.  ``admitted`` is the
    caller's clock reading when the first of them arrived.
    """

    request: EvalRequest
    key: str
    shard: int
    admitted: float = 0.0
    waiters: List[Any] = field(default_factory=list)

    @property
    def fanout(self) -> int:
        return len(self.waiters)


@dataclass(frozen=True)
class Batch:
    """One engine submission: same shard, same kind, ordered entries."""

    shard: int
    kind: str
    entries: tuple

    @property
    def requests(self) -> int:
        """How many client requests this batch serves (dedup included)."""
        return sum(entry.fanout for entry in self.entries)


def plan_batches(
    pending: Sequence[PendingEntry], max_batch: int
) -> List[Batch]:
    """Group pending entries into per-shard, per-kind batches.

    Entries keep their arrival order inside a batch (the plan is a pure
    function of the pending list, so equal inputs produce equal plans —
    asserted by the determinism tests).
    """
    if max_batch < 1:
        raise ValueError(f"max_batch must be positive, got {max_batch}")
    grouped: Dict[tuple, List[PendingEntry]] = {}
    order: List[tuple] = []
    for entry in pending:
        key = (entry.shard, entry.request.kind)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(entry)
    batches: List[Batch] = []
    for key in order:
        shard, kind = key
        entries = grouped[key]
        for i in range(0, len(entries), max_batch):
            batches.append(
                Batch(shard=shard, kind=kind, entries=tuple(entries[i : i + max_batch]))
            )
    return batches


def admit(
    pending: Dict[str, PendingEntry],
    request: EvalRequest,
    waiter: Any,
    shards: int,
    admitted: float = 0.0,
) -> PendingEntry:
    """Attach one request to the pending set, deduplicating by identity.

    Returns the (possibly pre-existing) entry the request joined; the
    caller counts a *coalesced-by-dedup* hit when the entry already had
    waiters.  A new entry records ``admitted``; a joiner keeps the
    entry's original admission time.
    """
    key = identity_key(request)
    entry = pending.get(key)
    if entry is None:
        entry = PendingEntry(
            request=request, key=key, shard=shard_of(request, shards),
            admitted=admitted,
        )
        pending[key] = entry
    entry.waiters.append(waiter)
    return entry
