"""Thread-safe keep-alive HTTP client on the standard library's ``http.client``.

Failures raise OSError or HTTPException (InvalidURL for a URL that is not
absolute http(s)). Proxy variables are ignored, redirects are not followed,
and https checks certificates against the system CA store.
"""

import functools
import http.client
import selectors
import threading
import weakref
from typing import NamedTuple, Optional
from urllib.parse import quote, urlsplit, urlunsplit

#: Idle connections kept per (scheme, host, port); more may be open at once.
MAX_IDLE = 32

_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}


class Response(NamedTuple):
    status_code: int
    text: str  # the body, decoded as UTF-8


def _close_all(idle: dict) -> None:
    for conns in idle.values():
        for conn in conns:
            conn.close()


class Session:
    """Keeps up to MAX_IDLE idle connections per key; a sent request is never retried."""

    def __init__(self):
        self._lock = threading.Lock()
        self._idle: dict[tuple, list[http.client.HTTPConnection]] = {}
        weakref.finalize(self, _close_all, self._idle)

    def request(self, method: str, url: str, data: Optional[bytes] = None,
                headers: Optional[dict] = None, timeout: Optional[float] = None) -> Response:
        try:
            parts = urlsplit(url)
            key = (parts.scheme, (parts.hostname or "").encode("idna").decode(), parts.port)
        except ValueError as exc:  # bad port, IPv6 literal or host label
            raise http.client.InvalidURL(f"{url!r}: {exc}") from None
        if parts.scheme not in _CONNECTIONS or not key[1]:
            raise http.client.InvalidURL(f"{url!r} is not an absolute http(s) URL")
        # UTF-8 percent-encode what RFC 3986 bars from a path or query, as requests does
        target = quote(urlunsplit(("", "", parts.path or "/", parts.query, "")),
                       safe="!$&'()*+,;=:@/?%")
        conn = (self._idle_connection(key, timeout)
                or _CONNECTIONS[parts.scheme](key[1], key[2], timeout=timeout))
        try:
            conn.request(method, target, data, headers or {})
            reply = conn.getresponse()
            response = Response(reply.status, reply.read().decode("utf-8", "replace"))
        except BaseException:
            conn.close()
            raise
        with self._lock:
            idle = self._idle.setdefault(key, [])
            if not reply.will_close and len(idle) < MAX_IDLE:
                idle.append(conn)
                return response
        conn.close()
        return response

    post = functools.partialmethod(request, "POST")

    def _idle_connection(self, key: tuple, timeout: Optional[float]):
        while True:
            with self._lock:
                if not self._idle.get(key):
                    return None
                conn = self._idle[key].pop()
            with selectors.DefaultSelector() as selector:
                selector.register(conn.sock, selectors.EVENT_READ)
                if not selector.select(0):  # readable when the peer has closed it
                    conn.sock.settimeout(timeout)
                    return conn
            conn.close()
