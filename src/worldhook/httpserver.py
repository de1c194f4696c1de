"""The one HTTP server: threaded HTTP/1.1 keep-alive on 127.0.0.1.

The gateway and the mock smart-home cloud both run on it. An app is
``app(method, path, headers, body) -> (status, body_bytes)``; the server reads
the request body, calls the app on the connection's thread, and writes the
reply as JSON. GET, POST, PUT, DELETE, PATCH and OPTIONS reach the app, which
answers the ones it does not serve itself. HEAD gets the stdlib's 501, because
a HEAD reply must carry no body.
"""

from __future__ import annotations

import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Callable, Mapping

App = Callable[[str, str, Mapping[str, str], bytes], tuple[int, bytes]]

# How often the accept loop checks for a stop request: a stop waits up to this long.
POLL_INTERVAL_S = 0.05


class GatewayStartupError(Exception):
    """The server could not start (typically: port already in use)."""


class _RequestHandler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    timeout = 30  # seconds an idle keep-alive connection is held open

    def _serve(self) -> None:
        try:
            length = int(self.headers.get("Content-Length") or 0)
        except ValueError:
            length = 0
        # Read the body on every method, so the next request on the connection
        # starts where this one ends; a negative length would block until EOF.
        body = self.rfile.read(length) if length > 0 else b""
        status, payload = self.server.app(self.command, self.path, self.headers, body)
        try:
            self.send_response(status)
            self.send_header("Content-Type", "application/json; charset=utf-8")
            self.send_header("Content-Length", str(len(payload)))
            self.end_headers()
            self.wfile.write(payload)
        except (BrokenPipeError, ConnectionResetError):
            pass  # client went away; the app has already handled the request

    do_GET = do_POST = do_PUT = do_DELETE = do_PATCH = do_OPTIONS = _serve

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # apps keep their own request logs


class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    block_on_close = False
    request_queue_size = 128
    app: App  # attached by Server


class Server:
    """A running server: its bound ``port`` and its accept-loop ``thread``."""

    def __init__(self, app: App, port: int, thread_name: str):
        """Bind ``127.0.0.1:port`` (0 = ephemeral) and serve ``app`` until closed."""
        try:
            self._server = _ThreadingServer(("127.0.0.1", port), _RequestHandler)
        except (OSError, OverflowError) as exc:  # OverflowError: port outside 0-65535
            raise GatewayStartupError(f"cannot bind port {port}: {exc}") from exc
        self._server.app = app
        self.port: int = self._server.server_address[1]
        self.thread = threading.Thread(target=self._server.serve_forever,
                                       args=(POLL_INTERVAL_S,), daemon=True, name=thread_name)
        self.thread.start()

    def stop_listening(self) -> None:
        """Stop the accept loop; requests already being served run on."""
        self._server.shutdown()

    def close(self) -> None:
        """Close the listening socket and join the accept-loop thread."""
        self._server.server_close()
        self.thread.join(timeout=5.0)
