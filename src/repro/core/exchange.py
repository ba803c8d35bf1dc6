"""The coordinator's border exchange (paper Sections 3.1–3.2).

Between two supersteps the coordinator folds the update parameters the
fragments reported into a global table with the program's
``aggregateMsg``, routes every changed value to the fragments that need
it through ``G_P``, and charges the traffic.  One
:class:`BorderExchange` per engine run or standing query holds that
job's state — ``reported`` (each fragment's last reported values),
``table`` (the aggregated parameters) and ``sizer`` (the memoized byte
accounting) — and its methods are the only implementation of it.  The
BSP engine drives one per run and returns it on its result, a
:class:`~repro.core.updates.ContinuousQuerySession` adopts that one and
keeps it current under updates, and the asynchronous engine folds one
fragment at a time through its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, Optional, Set, Tuple

from repro.core.pie import ParamKey, ParamUpdates, PIEProgram
from repro.partition.base import Fragmentation
from repro.runtime.executors import read_report
from repro.runtime.message import stable_hash
from repro.runtime.metrics import ParamSizeCache, message_bytes

__all__ = ["BorderExchange", "Round"]

_MISSING = object()

#: ``(bytes, messages, dirty keys)`` of one fold
Folded = Tuple[int, int, Set[ParamKey]]


@dataclass
class Round:
    """What one coordinator step hands the next superstep: per-fragment
    parameter messages and designated/key-value deliveries, plus the
    traffic charged for the step (reports and drained channels up,
    deliveries down)."""

    messages: Dict[int, ParamUpdates] = field(default_factory=dict)
    designated: Dict[int, list] = field(default_factory=dict)
    keyvalue: Dict[int, dict] = field(default_factory=dict)
    nbytes: int = 0
    count: int = 0

    @property
    def pending(self) -> bool:
        return bool(self.messages or self.designated or self.keyvalue)


class BorderExchange:
    """The coordinator's border state and its fold/route/charge logic."""

    def __init__(self, program: PIEProgram, fragmentation: Fragmentation):
        self.program = program
        self.fragmentation = fragmentation
        self.reported: Dict[int, ParamUpdates] = {
            frag.fid: {} for frag in fragmentation}
        self.table: Dict[ParamKey, Any] = {}
        #: identical entries recur across rounds and destinations; each
        #: is pickled once for the exchange's lifetime
        self.sizer = ParamSizeCache()
        # Owner routing is an edge-cut shortcut (copies owned elsewhere
        # carry no local out-edges); on a vertex-cut every holder needs
        # the aggregated value.
        self._owner_routed = program.route_to == "owner" and not any(
            frag.vertex_cut for frag in fragmentation)

    def fold(self, reports: Dict[int, Tuple[str, ParamUpdates]], checker,
             *, first_round: bool = False) -> Folded:
        """Fold ``{fid: report}`` into the table, in fragment order.

        A ``("changed", params)`` report (the incremental protocol of
        :meth:`~repro.core.pie.PIEProgram.read_changed_params`) is folded
        directly; a ``("full", params)`` report is diffed against the
        fragment's last report first.  A table entry moves when the
        aggregate progresses (in the first round, when it changes at
        all), and ``checker`` (a
        :class:`~repro.core.monotonic.MonotonicityChecker`) sees it.
        """
        agg = self.program.aggregator
        combine, is_progress = agg.combine, agg.is_progress
        reported, table, sizer = self.reported, self.table, self.sizer
        dirty: Set[ParamKey] = set()
        up_bytes = up_msgs = 0
        for fid in sorted(reports):
            kind, params = reports[fid]
            if kind == "full":
                prev = reported[fid]
                changed = {k: v for k, v in params.items()
                           if k not in prev or prev[k] != v}
                reported[fid] = params
            else:
                changed = params
                if changed:
                    reported[fid].update(changed)
            if not changed:
                continue
            up_bytes += sizer.updates_bytes(changed)
            up_msgs += 1
            for key, value in changed.items():
                if key in table:
                    old = table[key]
                    merged = combine(old, value)
                    if is_progress(old, merged) or (
                            first_round and merged != old):
                        checker.observe(key, merged)
                        table[key] = merged
                        dirty.add(key)
                else:
                    table[key] = value
                    dirty.add(key)
        return up_bytes, up_msgs, dirty

    def fold_states(self, query: Any, states: Dict[int, Any], checker, *,
                    fids: Optional[Iterable[int]] = None,
                    force_full: bool = False) -> Folded:
        """Read the reports of states held in this process (all
        fragments, or ``fids``) and fold them.  ``force_full`` diffs the
        full parameter dicts even for programs with the incremental
        protocol — needed right after a graph mutation, when border sets
        may have gained nodes their dirty tracking never saw."""
        frags = self.fragmentation.fragments
        return self.fold(
            {fid: read_report(self.program, query, frags[fid], states[fid],
                              force_full)
             for fid in (range(len(frags)) if fids is None else fids)},
            checker)

    def fold_region(self, fresh: Dict[int, ParamUpdates],
                    probes: Dict[int, Set[Any]], names: Set[Any]) -> Folded:
        """Fold the reads taken after a bounded reset, with retractions.

        ``fresh[fid]`` holds fragment ``fid``'s re-read entries and
        ``probes[fid]`` the nodes whose ``(node, name)`` keys it was asked
        about.  Moved entries are folded; a probed key the fragment
        reported before but no longer reads is retracted, charged as a
        key-only tombstone.  Every moved or retracted key is then
        re-aggregated (:meth:`regather`).
        """
        up_bytes = up_msgs = 0
        recompute: Set[ParamKey] = set()
        for fid, entries in fresh.items():
            prev = self.reported[fid]
            diff = {}
            for key, value in entries.items():
                if prev.get(key, _MISSING) != value:
                    diff[key] = prev[key] = value
                    recompute.add(key)
            gone = {}
            for node in probes.get(fid, ()):
                for name in names:
                    key = (node, name)
                    if key in prev and key not in entries:
                        gone[key] = None
                        del prev[key]
                        recompute.add(key)
            if diff or gone:
                up_msgs += 1
                up_bytes += self.sizer.updates_bytes(diff)
                if gone:
                    up_bytes += self.sizer.updates_bytes(gone)
        return up_bytes, up_msgs, self.regather(recompute)

    def regather(self, keys: Iterable[ParamKey]) -> Set[ParamKey]:
        """Re-aggregate ``keys`` over every fragment's last report (a key
        nobody reports leaves the table); return the keys that moved."""
        combine = self.program.aggregator.combine
        reports = list(self.reported.values())
        moved: Set[ParamKey] = set()
        for key in keys:
            best = _MISSING
            for params in reports:
                value = params.get(key, _MISSING)
                if value is not _MISSING:
                    best = value if best is _MISSING else combine(best, value)
            if best is _MISSING:
                self.table.pop(key, None)
            elif self.table.get(key, _MISSING) != best:
                self.table[key] = best
                moved.add(key)
        return moved

    def compose(self, dirty: Iterable[ParamKey]) -> Dict[int, ParamUpdates]:
        """One message per destination fragment for the changed keys,
        destinations deduced from ``G_P`` (paper 3.2(3)), skipping
        fragments that already hold the value."""
        gp = self.fragmentation.gp
        table, reported = self.table, self.reported
        owner_routed = self._owner_routed
        messages: Dict[int, ParamUpdates] = {}
        for key in dirty:
            node = key[0]
            if node not in gp:
                continue
            value = table[key]
            dests = (gp.owner(node),) if owner_routed else gp.holders(node)
            for dest in dests:
                if reported[dest].get(key) == value:
                    continue
                messages.setdefault(dest, {})[key] = value
        return messages

    def route_channels(self, outcomes) -> Tuple[dict, dict, int, int]:
        """Route the designated and key-value messages drained this
        superstep; key-value pairs are grouped by key and assigned to
        workers by key hash — the coordinator's MapReduce-style shuffle
        (Section 3.5).  Returns ``(designated, keyvalue, bytes,
        message_count)``, both channels keyed by destination fid."""
        m = len(self.fragmentation.fragments)
        designated: Dict[int, list] = {}
        grouped: Dict[Any, list] = {}
        ch_bytes = ch_msgs = 0
        for fid in range(m):
            des, kvs = outcomes[fid].designated, outcomes[fid].keyvalue
            for dest, items in des.items():
                if not 0 <= dest < m:
                    raise ValueError(f"designated dest {dest} out of range")
                if items:
                    designated.setdefault(dest, []).extend(items)
                    ch_bytes += message_bytes(items)
                    ch_msgs += 1
            for key, value in kvs:
                grouped.setdefault(key, []).append(value)
                ch_msgs += 1
            if kvs:
                ch_bytes += message_bytes(kvs)
        keyvalue: Dict[int, dict] = {}
        for key, values in grouped.items():
            # stable_hash, not builtin hash: string keys must route to the
            # same worker in every process regardless of PYTHONHASHSEED.
            keyvalue.setdefault(stable_hash(key) % m, {})[key] = values
        return designated, keyvalue, ch_bytes, ch_msgs

    def settle(self, outcomes, checker, *, first_round: bool) -> Round:
        """The coordinator step between two BSP supersteps: fold the
        reports a backend session returned, compose the messages, route
        the explicit channels and charge it all."""
        up_bytes, up_msgs, dirty = self.fold(
            {fid: outcome.report for fid, outcome in outcomes.items()},
            checker, first_round=first_round)
        messages = self.compose(dirty)
        designated, keyvalue, ch_bytes, ch_msgs = \
            self.route_channels(outcomes)
        nbytes = (up_bytes + ch_bytes + self.charge_messages(messages)
                  + self.charge_payloads(designated)
                  + self.charge_payloads(keyvalue))
        count = (up_msgs + ch_msgs
                 + len(messages) + len(designated) + len(keyvalue))
        return Round(messages, designated, keyvalue, nbytes, count)

    def charge_params(self, updates: ParamUpdates) -> int:
        """Charged size of one update-parameter dict."""
        return self.sizer.updates_bytes(updates)

    def charge_messages(self, messages: Dict[int, ParamUpdates]) -> int:
        """Charged size of one parameter message per destination."""
        return sum(map(self.sizer.updates_bytes, messages.values()))

    @staticmethod
    def charge_payloads(payloads: Dict[int, Any]) -> int:
        """Charged size of one opaque payload per destination (pre-PEval
        data shipping, channel deliveries)."""
        return sum(message_bytes(p) for p in payloads.values())

    def snapshot(self) -> Dict[str, Any]:
        """The coordinator tables for a checkpoint (never the size memo,
        which is derived data)."""
        return {"reported": self.reported, "table": self.table}

    def restore(self, snap: Dict[str, Any]) -> None:
        """Adopt the tables of a restored checkpoint (a private copy)."""
        self.reported, self.table = snap["reported"], snap["table"]
