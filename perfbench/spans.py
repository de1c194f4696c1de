"""Span recording around worldhook's layer boundaries, and its analysis.

A :class:`Tracer` wraps functions so that each call records a span
``(span_id, parent_id, name, start, end)`` under the request it belongs to.
A root span (``handle_request`` on the gateway, ``call_external`` in the
world) opens a request; spans of one request share the envelope's
requestId. Spans stay in memory until the traced process writes them out.

Names are wrapped where they are looked up: ``gateway.py`` imports
``decode_envelope`` into its own namespace, so the tracer replaces
``worldhook.gateway.decode_envelope``, not ``worldhook.envelope``'s.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
from time import perf_counter


class _Request:
    __slots__ = ("rid", "route", "spans")

    def __init__(self):
        self.rid = ""
        self.route = None
        self.spans: list[tuple] = []


class Tracer:
    def __init__(self):
        self.requests: list[_Request] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._patched: list[tuple] = []

    def wrap(self, name: str, fn, *, root: bool = False, on_result=None):
        """``fn`` recording a span per call; outside a request only a root records."""
        local, ids, done = self._local, self._ids, self.requests

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            ctx = getattr(local, "ctx", None)
            if root:
                req, parent = _Request(), 0
            elif ctx is None:
                return fn(*args, **kwargs)
            else:
                req, parent = ctx
            span_id = next(ids)
            local.ctx = (req, span_id)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                local.ctx = ctx
                req.spans.append((span_id, parent, name, start, end))
                if root:
                    done.append(req)
            if on_result is not None:
                on_result(req, args, result)
            return result
        return traced

    def carry(self, fn):
        """``fn`` run under the calling thread's current span, on any thread."""
        ctx = getattr(self._local, "ctx", None)
        if ctx is None:
            return fn
        local = self._local

        @functools.wraps(fn)
        def carried(*args, **kwargs):
            outer = getattr(local, "ctx", None)
            local.ctx = ctx
            try:
                return fn(*args, **kwargs)
            finally:
                local.ctx = outer
        return carried

    def patch(self, owner, attr: str, name: str, **options) -> None:
        """Replace ``owner.attr`` by its traced form until :meth:`unpatch`."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **options))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for req in self.requests:
                out.write(json.dumps({"rid": req.rid, "route": req.route,
                                      "spans": req.spans}) + "\n")


def _set_rid_from_result(req, args, result):
    rid = getattr(result, "request_id", None)
    if rid:
        req.rid = rid


def _set_rid_from_arg(req, args, result):
    req.rid = args[0].request_id


def _set_route(req, args, result):
    req.route = result


def install_gateway(tracer: Tracer) -> None:
    """Wrap the gateway-side layer boundaries of an imported ``worldhook``."""
    from worldhook import devices, gateway, smarthome, tunnel

    D = gateway.RequestDispatcher
    tracer.patch(D, "handle_request", "gateway.handle", root=True)
    tracer.patch(D, "resolve_route", "gateway.resolve", on_result=_set_route)
    tracer.patch(gateway.RequestLog, "append", "gateway.log_append")
    tracer.patch(tunnel.TokenRegistry, "is_active", "tunnel.is_active")
    tracer.patch(gateway, "decode_envelope", "envelope.decode", on_result=_set_rid_from_result)
    tracer.patch(gateway, "serialize_response", "envelope.serialize")
    for cls in (devices.Fan, devices.Doorbell, devices.PresenceLamp,
                devices.ToneSpeaker, devices.VirtualGpioBank):
        tracer.patch(cls, "handle", "devices.handle")
    tracer.patch(smarthome, "parse_smarthome_request", "envelope.parse_smarthome")
    tracer.patch(smarthome, "dispatch", "smarthome.dispatch")
    # dispatch calls the allow-list's entries, not the client's attributes;
    # functools.wraps keeps the signature its argument check binds against.
    table = smarthome.ALLOW_LIST
    for fname, fn in list(table.items()):
        table[fname] = tracer.wrap("smarthome.client", fn)
    # The handler runs on a thread of its own: carry the request's span there.
    # _run_handler is private; without it, handler spans are not recorded.
    run_handler = getattr(D, "_run_handler", None)
    if run_handler is not None:
        def carrying_run_handler(self, handler, *rest):
            return run_handler(self, tracer.carry(handler), *rest)
        D._run_handler = carrying_run_handler


def install_world(tracer: Tracer) -> None:
    """Wrap the world module's envelope encoder, where ``World`` looks it up."""
    from worldhook import world as world_module

    tracer.patch(world_module, "encode_envelope", "envelope.encode",
                 on_result=_set_rid_from_arg)


def attach_world(tracer: Tracer, world) -> None:
    """Wrap one ``World``'s callout path; each callout is the root of a request."""
    world.call_external = tracer.wrap("world.call", world.call_external, root=True)
    world.limiter.allow = tracer.wrap("world.limiter", world.limiter.allow)
    session = getattr(world, "_session", None)
    if session is not None and hasattr(session, "post"):
        session.post = tracer.wrap("world.post", session.post)


# -- analysis ------------------------------------------------------------------------

def _covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total, cursor = 0.0, start
    for a, b in sorted(intervals):
        a, b = max(a, cursor), min(b, end)
        if b > a:
            total += b - a
            cursor = b
    return total


def durations(requests, window=None) -> tuple[dict, dict]:
    """Per-name lists of span durations and of self times, in seconds.

    ``requests`` are ``{"rid", "route", "spans"}`` records; with a window
    ``(t0, t1)`` only requests whose root started inside it count.
    """
    total: dict[str, list[float]] = {}
    own: dict[str, list[float]] = {}
    for req in requests:
        spans = req["spans"]
        root = next((s for s in spans if s[1] == 0), None)
        if root is None or (window and not window[0] <= root[3] <= window[1]):
            continue
        children: dict[int, list[tuple[float, float]]] = {}
        for span_id, parent, name, start, end in spans:
            children.setdefault(parent, []).append((start, end))
        for span_id, parent, name, start, end in spans:
            total.setdefault(name, []).append(end - start)
            busy = _covered(start, end, children.get(span_id, []))
            own.setdefault(name, []).append(end - start - busy)
    return total, own


def load(path) -> list[dict]:
    with open(path, encoding="utf-8") as f:
        return [json.loads(line) for line in f if line.strip()]
