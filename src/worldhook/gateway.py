"""The HTTP gateway: accepts POSTed trigger envelopes and runs handlers.

Request lifecycle: resolve the route (honoring tunnel run tokens on the path)
in the one route table, decode the envelope, run the route's handler with the
envelope's ``request`` string, serialize the result, and append a record to
the request log. The server never dies because of a request; any failure,
including a handler result that is not JSON, becomes a structured error
response, and every request leaves the path through one exit that logs it.

Concurrency: each busy device key has one worker thread that runs the key's
requests in arrival order; unrelated keys run concurrently, and a request
without a device key gets a key of its own. A worker runs the handler and
then logs the request, so the request log holds one key's requests in the
order the device saw them. A key's queue is bounded (overflow rejects with
DeviceFault), and its worker exits once the queue is empty. Each request has
one deadline, ``handler_timeout_ms`` from submission, covering its queue wait
and its handler. At the deadline the key's queue decides: a request still in
it is removed, under the queue lock, and answered "timed out waiting for
device" without ever running; any other request is running, and gets a 500
while its handler finishes in the background, still holding its key so mutual
exclusion per device is never violated.

Request log: records are numbered (``arrival_order``) and counted (``len``)
over the process's lifetime, but the log keeps none of them: each record goes
to the log's listeners, in arrival order, and is dropped, so memory stays
bounded however long the gateway runs. ``worldhook serve`` prints each record
to stdout from its listener.

Transport: the gateway is an app on :class:`worldhook.httpserver.Server`, the
threaded HTTP/1.1 keep-alive server that the mock smart-home cloud runs on too.
"""

from __future__ import annotations

import re
import threading
import time
from collections import deque
from concurrent import futures
from dataclasses import dataclass
from typing import Any, Callable, Optional

from . import tunnel
from .devices import DeviceFaultError, DeviceRegistry
from .envelope import (
    ErrorCode,
    GatewayError,
    HandlerResponse,
    ResponseStatus,
    TriggerEnvelope,
    canonical_json,
    decode_envelope,
    serialize_response,
)
from .httpserver import GatewayStartupError, Server  # noqa: F401 - the error is re-exported

DEFAULT_ROUTE_PREFIX = "/trigger"
_ROUTE_NAME_RE = re.compile(r"[A-Za-z0-9._~-]+")
_DEFAULT_ROUTE = ""  # sentinel route name for the default handler


class RegistrationError(Exception):
    """Invalid handler registration (duplicate slot, bad route name)."""


@dataclass
class GatewayConfig:
    bind_port: int = 0  # 0 = OS-assigned ephemeral port
    route_prefix: str = DEFAULT_ROUTE_PREFIX
    per_device_queue_depth: int = 128
    handler_timeout_ms: int = 10_000  # deadline from submission: queue wait plus handler

    def validate(self) -> None:
        if not 0 <= self.bind_port <= 65535:
            raise ValueError(f"bind_port {self.bind_port} outside [0, 65535]")
        if self.per_device_queue_depth < 1:
            raise ValueError("per_device_queue_depth must be >= 1")
        if self.handler_timeout_ms <= 0:
            raise ValueError("handler_timeout_ms must be > 0")
        if not self.route_prefix.startswith("/") or self.route_prefix.rstrip("/") == "":
            raise ValueError(f"route_prefix {self.route_prefix!r} must look like '/name'")


class HandlerRegistration:
    """The gateway's handler table: one dict of routes, the default under ``""``.

    A handler is ``f(payload: str) -> result`` where the result may be a
    plain string, any JSON value, a :class:`HandlerResponse`, a
    :class:`GatewayError`, or None (normalized to an empty-string OK).
    Named routes serialize under their route name as device key; the default
    route serializes under the envelope's item id (none when empty).
    """

    def __init__(self):
        self.routes: dict[str, Callable[[str], Any]] = {}

    def register_default(self, handler: Callable[[str], Any]) -> "HandlerRegistration":
        """Register the default handler. A second registration is an error."""
        if _DEFAULT_ROUTE in self.routes:
            raise RegistrationError("a default handler is already registered")
        self.routes[_DEFAULT_ROUTE] = handler
        return self

    def register_route(self, name: str, handler: Callable[[str], Any]) -> "HandlerRegistration":
        """Register a named route, serialized under its name as device key."""
        if not _ROUTE_NAME_RE.fullmatch(name):
            raise RegistrationError(f"route name {name!r} is not URL-safe")
        if name in self.routes:
            raise RegistrationError(f"route {name!r} is already registered")
        self.routes[name] = handler
        return self

    def register_devices(self, registry: DeviceRegistry) -> "HandlerRegistration":
        """Register each device of ``registry`` as a route named by its key."""
        for key, handler in registry.handlers().items():
            self.register_route(key, handler)
        return self

    def has_handlers(self) -> bool:
        return bool(self.routes)


@dataclass(frozen=True)
class RequestRecord:
    request_id: str
    arrival_order: int
    envelope: Optional[TriggerEnvelope]
    response_status: int
    latency_ms: float
    route: str
    dispatched: bool  # True when a handler was actually invoked


class RequestLog:
    """Totally ordered stream of completed requests, handed to listeners.

    Every appended record gets the next ``arrival_order``, and ``len`` counts
    every record ever appended; the log itself keeps no records. Listeners are
    called in log order while the log's lock is held, so they must not call
    back into the log.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._count = 0
        self._listeners: list[Callable[[RequestRecord], None]] = []

    def append(self, *, request_id: str, envelope: Optional[TriggerEnvelope],
               response_status: int, latency_ms: float, route: str,
               dispatched: bool) -> RequestRecord:
        with self._lock:
            record = RequestRecord(
                request_id=request_id,
                arrival_order=self._count,
                envelope=envelope,
                response_status=response_status,
                latency_ms=latency_ms,
                route=route,
                dispatched=dispatched,
            )
            self._count += 1
            for listener in self._listeners:
                listener(record)
        return record

    def add_listener(self, fn: Callable[[RequestRecord], None]) -> None:
        with self._lock:
            self._listeners.append(fn)

    def __len__(self) -> int:
        with self._lock:
            return self._count


class RequestDispatcher:
    """Route resolution and handler execution, independent of any socket."""

    def __init__(self, config: GatewayConfig, registration: HandlerRegistration,
                 token_registry: Optional[tunnel.TokenRegistry] = None):
        config.validate()
        self.config = config
        self.registration = registration
        self.token_registry = token_registry or tunnel.default_registry()
        self.request_log = RequestLog()
        self._pending: dict[Any, deque] = {}  # busy key -> jobs behind its worker's
        self._pending_lock = threading.Lock()
        self._inflight = 0
        self._inflight_cond = threading.Condition()

    # -- route resolution ---------------------------------------------------

    def _match(self, path: str, prefix: str) -> Optional[str]:
        """The route ``path`` names under ``prefix``, or None."""
        if path == prefix or path == prefix + "/":
            return _DEFAULT_ROUTE
        if path.startswith(prefix + "/"):
            name = path[len(prefix) + 1:].strip("/")
            if name and name in self.registration.routes:
                return name
        return None

    def resolve_route(self, path: str) -> Optional[str]:
        """Map a request path to a route name ("" = default), or None (404).

        Accepted shapes: ``<prefix>``, ``<prefix>/<name>``, and behind an
        active tunnel token the same two plus the bare ``/<token>`` and
        ``/<token>/<name>``. Wrong or revoked tokens resolve to nothing.
        """
        path = path.split("?", 1)[0]
        route = self._match(path, self.config.route_prefix)
        if route is None:
            token, _, rest = path.lstrip("/").partition("/")
            if token and self.token_registry.is_active(token):
                rest = "/" + rest
                route = self._match(rest, self.config.route_prefix)
                if route is None:
                    route = self._match(rest, "")
        return route

    # -- execution ----------------------------------------------------------

    @staticmethod
    def _device_key(route: str, env: TriggerEnvelope) -> Optional[str]:
        if route == _DEFAULT_ROUTE:
            return env.item_id or None
        return route

    def _run_handler(self, job: Callable[[], Any], key: Any) -> Optional[tuple]:
        """Queue ``job`` behind ``key``; returns its (future, job) entry, or None when full.

        The first job on an idle key starts the key's worker, which runs the
        key's jobs in FIFO order and exits, dropping the key, once none are
        left. The job in the worker's hands counts toward the queue depth.
        """
        entry = (futures.Future(), job)
        with self._pending_lock:
            pending = self._pending.get(key)
            if pending is None:
                self._pending[key] = deque()
            elif len(pending) + 1 >= self.config.per_device_queue_depth:
                return None
            else:
                pending.append(entry)
                return entry
        threading.Thread(target=self._work, args=(key, entry), daemon=True,
                         name="worldhook-device").start()
        return entry

    def _work(self, key: Any, entry: tuple) -> None:
        """Run ``entry`` and then ``key``'s queued jobs; drop the key when none are left."""
        while True:
            future, job = entry
            try:
                future.set_result(job())
            except BaseException as exc:  # noqa: BLE001 - re-raised by future.result()
                future.set_exception(exc)
            with self._pending_lock:
                pending = self._pending[key]
                if not pending:
                    del self._pending[key]
                    return
                entry = pending.popleft()

    @staticmethod
    def _invoke(handler: Callable[[str], Any], env: TriggerEnvelope) -> HandlerResponse:
        """Run the handler and encode its OK result; any failure of either is a 500."""
        try:
            result = handler(env.request)
            if isinstance(result, GatewayError):
                return HandlerResponse.from_error(result)
            if not isinstance(result, HandlerResponse):
                result = HandlerResponse.ok("" if result is None else result)
            if result.status is ResponseStatus.OK and not isinstance(result.body, str):
                return HandlerResponse.ok(canonical_json(result.body))
            return result
        except BaseException as exc:  # noqa: BLE001 - becomes a 500, never kills the server
            code = ErrorCode.DEVICE_FAULT if isinstance(exc, DeviceFaultError) else ErrorCode.INTERNAL
            return HandlerResponse.from_error(GatewayError(code, str(exc), env.request_id))

    def handle_request(self, raw_body: bytes, path: str, method: str = "POST") -> tuple[int, bytes]:
        """Full request lifecycle; always returns a (status, body) pair."""
        start = time.monotonic()
        with self._inflight_cond:
            self._inflight += 1
        try:
            try:
                return self._handle(raw_body, path, method, start)
            except Exception as exc:  # gateway bug: still answer, never die
                err = GatewayError(ErrorCode.INTERNAL, f"internal error: {exc}")
                return self._finish(err, start=start, route=path)
        finally:
            with self._inflight_cond:
                self._inflight -= 1
                self._inflight_cond.notify_all()

    def _finish(self, response: HandlerResponse | GatewayError, *, start: float, route: str,
                envelope: Optional[TriggerEnvelope] = None,
                dispatched: bool = False) -> tuple[int, bytes]:
        """The one exit: serialize the reply and log the request."""
        if isinstance(response, GatewayError):
            response = HandlerResponse.from_error(response)
        status, body = serialize_response(response)
        self.request_log.append(
            request_id=envelope.request_id if envelope else "",
            envelope=envelope,
            response_status=status,
            latency_ms=(time.monotonic() - start) * 1000.0,
            route=route,
            dispatched=dispatched,
        )
        return status, body

    def _handle(self, raw_body: bytes, path: str, method: str, start: float) -> tuple[int, bytes]:
        route = self.resolve_route(path)
        if route is None:
            err = GatewayError(ErrorCode.UNKNOWN_FUNCTION, f"no route for {path!r}")
            return self._finish(err, start=start, route=path)
        if method != "POST":
            err = GatewayError(ErrorCode.MALFORMED_ENVELOPE, "only POST is supported")
            return self._finish(err, start=start, route=route)
        env = decode_envelope(raw_body)
        if isinstance(env, GatewayError):
            return self._finish(env, start=start, route=route)
        handler = self.registration.routes.get(route)
        if handler is None:
            err = GatewayError(ErrorCode.UNKNOWN_FUNCTION, "no handler for this route",
                               env.request_id)
            return self._finish(err, start=start, envelope=env, route=route)

        key = self._device_key(route, env)
        slot = object() if key is None else key
        claim = threading.Lock()  # whoever takes it logs a running request: worker or timeout

        def job() -> Optional[tuple[int, bytes]]:
            response = self._invoke(handler, env)
            if claim.acquire(blocking=False):
                return self._finish(response, start=start, envelope=env, route=route,
                                    dispatched=True)
            return None

        entry = self._run_handler(job, slot)
        if entry is None:
            err = GatewayError(ErrorCode.DEVICE_FAULT, f"device queue full for key {key!r}",
                               env.request_id)
            return self._finish(err, start=start, envelope=env, route=route)
        future = entry[0]
        try:
            return future.result(self.config.handler_timeout_ms / 1000.0)
        except futures.TimeoutError:  # not the builtin TimeoutError before Python 3.11
            pass
        with self._pending_lock:  # still queued: withdraw it, and its worker never sees it
            pending = self._pending.get(slot, ())
            queued = entry in pending
            if queued:
                pending.remove(entry)
        if queued:
            message = f"timed out waiting for device {key!r}"
        else:  # the handler keeps its key until it returns
            message = f"handler timed out after {self.config.handler_timeout_ms}ms"
            if not claim.acquire(blocking=False):
                return future.result()  # the worker is logging the handler's reply
        return self._finish(GatewayError(ErrorCode.INTERNAL, message, env.request_id),
                            start=start, envelope=env, route=route, dispatched=not queued)

    def wait_idle(self, timeout_s: float) -> bool:
        with self._inflight_cond:
            return self._inflight_cond.wait_for(lambda: self._inflight == 0, timeout_s)


@dataclass
class ServerHandle:
    """A running gateway: bound port, its request log, and shutdown."""

    port: int
    request_log: RequestLog
    dispatcher: RequestDispatcher
    _server: Server

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    @property
    def trigger_url(self) -> str:
        return self.base_url + self.dispatcher.config.route_prefix

    @property
    def _thread(self) -> threading.Thread:
        """The accept-loop thread; alive while the gateway serves."""
        return self._server.thread

    def shutdown(self) -> None:
        """Stop listening, let in-flight requests finish (bounded), close. Idempotent."""
        self._server.stop_listening()
        self.dispatcher.wait_idle(self.dispatcher.config.handler_timeout_ms / 1000.0)
        self._server.close()


def run(config: GatewayConfig, registration: HandlerRegistration,
        token_registry: Optional[tunnel.TokenRegistry] = None) -> ServerHandle:
    """Start the gateway and return once the listener is accepting connections."""
    if not registration.has_handlers():
        raise RegistrationError("at least one handler must be registered before run()")
    dispatcher = RequestDispatcher(config, registration, token_registry)
    server = Server(lambda method, path, headers, body:
                    dispatcher.handle_request(body, path, method),
                    config.bind_port, "worldhook-gateway")
    return ServerHandle(port=server.port, request_log=dispatcher.request_log,
                        dispatcher=dispatcher, _server=server)


class GatewayApp:
    """Small app facade: register handlers by decorator, then ``run()``.

    >>> app = GatewayApp()
    >>> @app.receive
    ... def handle(data):
    ...     return data
    >>> handle_ = app.run()   # doctest: +SKIP
    """

    def __init__(self, config: Optional[GatewayConfig] = None,
                 token_registry: Optional[tunnel.TokenRegistry] = None):
        self.config = config or GatewayConfig()
        self.registration = HandlerRegistration()
        self._token_registry = token_registry

    def receive(self, handler: Callable[[str], Any]) -> Callable[[str], Any]:
        self.registration.register_default(handler)
        return handler

    def route(self, name: str):
        def decorator(handler: Callable[[str], Any]) -> Callable[[str], Any]:
            self.registration.register_route(name, handler)
            return handler
        return decorator

    def run(self) -> ServerHandle:
        return run(self.config, self.registration, self._token_registry)
