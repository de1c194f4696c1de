"""Closed-loop load: each connection sends its next request when the last reply is in."""

from __future__ import annotations

import http.client
import threading
from time import perf_counter
from urllib.parse import urlsplit

REQUEST_TIMEOUT_S = 10.0
_HEADERS = {"Content-Type": "application/json; charset=utf-8"}


class Sample:
    __slots__ = ("request", "start", "end", "status", "body")

    def __init__(self, request, start, end, status, body):
        self.request = request
        self.start = start
        self.end = end
        self.status = status  # None on a transport error or timeout
        self.body = body

    @property
    def latency_ms(self) -> float:
        return (self.end - self.start) * 1000.0


def _connection_loop(base, requests, deadline, out: list) -> None:
    host, port, prefix = base
    conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    try:
        for request in requests:
            start = perf_counter()
            if start >= deadline:
                return
            path = prefix + "/" + request["route"] if request["route"] else prefix
            try:
                conn.request("POST", path, request["body"].encode("utf-8"), _HEADERS)
                reply = conn.getresponse()
                body = reply.read()
                out.append(Sample(request, start, perf_counter(), reply.status, body))
            except (OSError, http.client.HTTPException) as exc:
                out.append(Sample(request, start, perf_counter(), None, repr(exc).encode()))
                conn.close()
                conn = http.client.HTTPConnection(host, port, timeout=REQUEST_TIMEOUT_S)
    finally:
        conn.close()


class ClosedLoop:
    """One thread and one keep-alive connection per request list, until a deadline."""

    def __init__(self, url: str, per_connection: list[list[dict]], deadline: float):
        parts = urlsplit(url)
        base = (parts.hostname, parts.port, parts.path.rstrip("/"))
        self.samples: list[list[Sample]] = [[] for _ in per_connection]
        self._threads = [
            threading.Thread(target=_connection_loop, args=(base, reqs, deadline, out),
                             name=f"perfbench-conn-{i}")
            for i, (reqs, out) in enumerate(zip(per_connection, self.samples))
        ]

    def start(self) -> "ClosedLoop":
        for thread in self._threads:
            thread.start()
        return self

    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def completed(self) -> int:
        return sum(len(s) for s in self.samples)

    def join(self) -> list[Sample]:
        for thread in self._threads:
            thread.join()
        return [s for conn in self.samples for s in conn]
