"""Outside-in tracing: timed wrappers around each layer's public calls.

The program carries no tracing of its own.  :class:`Tracer` replaces
the public functions and methods of each layer (the ``LAYERS`` table)
with wrappers that record a span — name, start, end, parent — on a
span stack, and restores the originals on :meth:`Tracer.uninstall`.
A layer's *self time* is its spans' duration minus the time covered by
its child spans; a call that re-enters the layer it is already in (a
``super()`` call, a delegating composite) joins the outer span instead
of opening a new one, so calls count once per layer boundary.

Aggregates (calls, total ns, self ns per layer, plus counters) cover
every call.  Raw spans are kept in memory up to ``KEEP_SPANS`` and
written out by :meth:`Tracer.write` when the run ends; the cap keeps a
traced download of a few hundred thousand messages within memory.

Each wrapper costs a little outside the interval it times, and that
cost would land in the caller's self time.  :meth:`Tracer.install`
measures it once (a wrapped empty call inside a wrapped loop, against
the same loop unwrapped) and subtracts it per child span, so self
times estimate the untraced cost.  Traced runs are still slower as a
whole; ``trace.overhead_pct`` in the per-layer output says by how much.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import time
from collections import Counter
from pathlib import Path

#: layer -> [(module, class or None, attribute names)].  A class entry
#: wraps the attribute on that class and on every subclass that
#: overrides it; a module entry wraps the function wherever a loaded
#: ``repro`` module imported it by name.
LAYERS = {
    "scheduler.loop": [("repro.sim.scheduler", "Kernel",
                        ("run", "_run_calendar"))],
    "scheduler.schedule": [("repro.sim.scheduler", "Kernel",
                            ("schedule",))],
    "protocols.step": [("repro.sim.scheduler", "Kernel", ("_advance",))],
    "network.send": [("repro.sim.network", "Network", ("send",))],
    "network.deliver": [("repro.sim.network", "Network",
                         ("_deliver", "_arrive"))],
    "routing.path": [("repro.topology.routing", "Router", ("path",))],
    "adversary.latency": [("repro.adversary.base", "Adversary",
                           ("message_latency",))],
    "adversary.transform": [("repro.adversary.base", "Adversary",
                             ("transform_message",))],
    "rng.derive_seed": [("repro.util.rng", None, ("derive_seed",))],
    "protocols.deliver": [("repro.sim.process", "Process", ("deliver",))],
    "messages.size_bits": [("repro.sim.messages", "Message",
                            ("size_bits",))],
    "assignment": [("repro.core.assignment", None, (
        "round_robin_owner", "round_robin_indices", "distribute_evenly",
        "digit_owner", "group_by_digit_owner", "digit_indices",
        "balanced_partition", "committee_for", "committees_of_peer",
        "committees_by_peer", "digit_owners"))],
    "source.request": [
        ("repro.sim.source", "DataSource",
         ("request_bits", "request_segment", "request_bits_from")),
        ("repro.sim.sourceset", "SourceSet",
         ("request_bits", "request_segment", "request_bits_from"))],
    "bitarrays": [
        ("repro.util.bitarrays", "BitArray", (
            "from_bits", "from_string", "from_segments", "ones", "random",
            "get_many", "set_many", "segment", "set_segment", "to_bits",
            "count_ones", "copy", "__eq__")),
        ("repro.util.bitarrays", None, ("canonical_indices",
                                        "mask_to_set"))],
    "sync.engine": [("repro.sync.engine", "SyncEngine", ("run",))],
    "wire.encode": [("repro.net.wire", None, ("encode_frame",))],
    "wire.decode": [("repro.net.wire", None, ("decode_body",))],
}

#: Coroutine methods, timed flat (no stack: tasks interleave at awaits).
ASYNC_LAYERS = {
    "net.request": [("repro.net.client", "NetClient", ("request",))],
}


def _subclasses(cls):
    seen, todo = [], [cls]
    while todo:
        current = todo.pop()
        if current not in seen:
            seen.append(current)
            todo.extend(current.__subclasses__())
    return seen


#: Raw spans kept per tracer (aggregates cover every call regardless).
KEEP_SPANS = 50_000


class Tracer:
    """Span recorder plus the patch set that feeds it."""

    def __init__(self) -> None:
        self.stack: list = []
        #: layer -> [calls, total ns, self ns]
        self.stats: dict[str, list] = {}
        self.counts: Counter = Counter()
        self.spans: list = []
        self._next_id = 1
        self._patches: list = []
        #: Wrapper cost outside a child's timed interval, in ns.
        self._child_cost = [0]

    # -- recording -----------------------------------------------------------

    def reset(self) -> None:
        """Zero every aggregate (the wrappers hold the same lists)."""
        for entry in self.stats.values():
            entry[0] = entry[1] = entry[2] = 0
        self.counts.clear()

    def snapshot(self) -> dict:
        return {"stats": {name: list(entry)
                          for name, entry in self.stats.items()},
                "counts": dict(self.counts)}

    def _entry(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0, 0])

    def wrap(self, name: str, fn, pre=None, post=None):
        """A stack-aware timing wrapper of ``fn`` for layer ``name``."""
        stack = self.stack
        spans = self.spans
        entry = self._entry(name)
        clock = time.perf_counter_ns
        tracer = self
        child_cost = self._child_cost

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if stack and stack[-1][0] is name:
                return fn(*args, **kwargs)
            if pre is not None:
                pre(tracer, args)
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][2] if stack else 0
            frame = [name, 0, span_id]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                entry[0] += 1
                entry[1] += duration
                entry[2] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration + child_cost[0]
                if len(spans) < KEEP_SPANS:
                    spans.append((span_id, parent, name, start, end))
            if post is not None:
                post(tracer, args, result)
            return result

        return traced

    def wrap_async(self, name: str, fn):
        entry = self._entry(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        async def traced(*args, **kwargs):
            start = clock()
            try:
                return await fn(*args, **kwargs)
            finally:
                entry[0] += 1
                entry[1] += clock() - start
                entry[2] = entry[1]

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` as one root span (an operation)."""
        return self.wrap(name, fn)(*args, **kwargs)

    # -- patching ------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _patch_class(self, name, cls, attr, hooks, is_async) -> None:
        for klass in _subclasses(cls):
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._patch(klass, attr, classmethod(
                    self.wrap(name, raw.__func__, *hooks)))
            elif is_async:
                self._patch(klass, attr, self.wrap_async(name, raw))
            else:
                self._patch(klass, attr, self.wrap(name, raw, *hooks))

    def _patch_function(self, name, module, attr, hooks) -> None:
        original = getattr(module, attr)
        wrapped = self.wrap(name, original, *hooks)
        for other in list(sys.modules.values()):
            if (getattr(other, "__name__", "").startswith("repro")
                    and other.__dict__.get(attr) is original):
                self._patch(other, attr, wrapped)

    def calibrate(self, calls: int = 20_000) -> int:
        """Measure the wrapper cost that falls outside a child's span,
        for a call of four positional arguments (a typical layer call,
        such as ``message_latency(sender, destination, message, now)``)."""
        def empty(first, second, third, fourth):
            return None

        def loop(callee):
            for _ in range(calls):
                callee(1, 2, 3, 4)

        child = self.wrap("calibration.child", empty)
        best = None
        for _ in range(5):
            self._child_cost[0] = 0
            start = time.perf_counter_ns()
            loop(empty)
            bare = time.perf_counter_ns() - start
            self.reset()
            self.wrap("calibration.loop", loop)(child)
            wrapped_self = self.stats["calibration.loop"][2]
            cost = max(0, (wrapped_self - bare) // calls)
            best = cost if best is None else min(best, cost)
        for name in ("calibration.loop", "calibration.child"):
            del self.stats[name]
        self.spans.clear()
        self._child_cost[0] = best
        return best

    def install(self) -> "Tracer":
        """Wrap every layer's calls (idempotent per tracer)."""
        if self._patches:
            return self
        if not self._child_cost[0]:
            self.calibrate()
        for table, is_async in ((LAYERS, False), (ASYNC_LAYERS, True)):
            for name, targets in table.items():
                hooks = HOOKS.get(name, (None, None))
                for module_name, class_name, attrs in targets:
                    module = importlib.import_module(module_name)
                    for attr in attrs:
                        if class_name is None:
                            self._patch_function(name, module, attr, hooks)
                        else:
                            self._patch_class(name,
                                              getattr(module, class_name),
                                              attr, hooks, is_async)
        return self

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- output --------------------------------------------------------------

    def write(self, path: Path, extra: dict) -> None:
        """Write the kept spans (one JSON line each) after a header line
        holding the aggregates."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"aggregates": self.snapshot(),
                                     "spans_kept": len(self.spans),
                                     **extra}) + "\n")
            for span_id, parent, name, start, end in self.spans:
                handle.write(json.dumps({"id": span_id, "parent": parent,
                                         "name": name, "start": start,
                                         "end": end}) + "\n")


# -- counters fed by the wrappers ------------------------------------------

def _count_live_delivery(tracer: Tracer, args) -> None:
    network, destination = args[0], args[1]
    if isinstance(destination, list):  # a routed hop: (hops, index, ...)
        hops, index = destination, args[2]
        if index + 2 != len(hops):
            return  # an intermediate relay hop, not a delivery
        destination = hops[-1]
    tracer.counts["deliveries_popped"] += 1
    if network._receivers[destination].live:
        tracer.counts["deliveries_live"] += 1


def _count_hops(tracer: Tracer, _args, path) -> None:
    tracer.counts["route_hops"] += len(path) - 1


def _count_frame_bytes(tracer: Tracer, _args, frame) -> None:
    tracer.counts["wire_bytes"] += len(frame)


def _count_rounds(tracer: Tracer, _args, result) -> None:
    tracer.counts["sync_rounds"] += result.rounds


HOOKS = {
    "network.deliver": (_count_live_delivery, None),
    "routing.path": (None, _count_hops),
    "wire.encode": (None, _count_frame_bytes),
    "sync.engine": (None, _count_rounds),
}


# -- pool workers of a traced server -----------------------------------------

#: Set by the traced server launcher; its forked pool workers inherit it.
WORKER_TRACER: "Tracer | None" = None


def traced_execute_repeat(point, repeat):
    """What a traced server's pool runs instead of ``execute_repeat``.

    Runs in a forked pool worker, where the launcher's wrappers are
    already installed: it times the task as one root span, appends the
    task's layer aggregates and payload size to a per-worker file, and
    returns the record unchanged.
    """
    from repro.experiments import execute_repeat
    from repro.sim.runner import Simulation

    tracer = WORKER_TRACER
    tracer.reset()
    original_run = Simulation.run

    def counted_run(self, **kwargs):
        result = original_run(self, **kwargs)
        tracer.counts["events"] += result.events_processed
        tracer.counts["bits_served"] += sum(
            len(indices) for indices in result.queried_indices.values())
        return result

    Simulation.run = counted_run
    try:
        start = time.perf_counter_ns()
        record = tracer.call("task", execute_repeat, point, repeat)
        compute_ns = time.perf_counter_ns() - start
    finally:
        Simulation.run = original_run
    payload = (len(pickle.dumps((execute_repeat, point, repeat)))
               + len(pickle.dumps(record)))
    line = {"compute_ns": compute_ns, "payload_bytes": payload,
            **tracer.snapshot()}
    path = Path(os.environ["PERFBENCH_TRACE_DIR"]) / \
        f"worker-{os.getpid()}.jsonl"
    with open(path, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(line) + "\n")
    return record

