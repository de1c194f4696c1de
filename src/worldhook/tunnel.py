"""Exposing the gateway behind a unique URL, without a third-party tunnel.

The built-in loopback mode mints a unique run token and returns
``http://127.0.0.1:<port>/<token>``; the gateway honors the token on its
request path and rejects closed or unknown tokens with 404. External
tunneling providers plug in behind a two-method adapter (``start(local_port)
-> public_url``, ``stop()``), so nothing here ever needs the network.
"""

from __future__ import annotations

import random
import string
import threading
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Protocol

TOKEN_ALPHABET = string.ascii_letters + string.digits  # 62 symbols
TOKEN_LENGTH = 16


class TunnelError(Exception):
    """Tunnel configuration or startup failure."""


class TunnelMode(Enum):
    LOOPBACK = "Loopback"
    EXTERNAL = "External"


class ExternalTunnelAdapter(Protocol):
    """What a pluggable external tunneling provider must implement."""

    def start(self, local_port: int) -> str: ...

    def stop(self) -> None: ...


@dataclass(frozen=True)
class TunnelEndpoint:
    """An open tunnel: a public URL whose last path segment is the run token."""

    public_url: str
    mode: TunnelMode
    run_token: str


class TokenRegistry:
    """Issues run tokens and tracks which ones are currently routable.

    Tokens are never reissued within a registry's lifetime, so any two
    endpoints from one run are distinct. Pass a seeded ``random.Random`` for
    reproducible tokens in tests; the default draws from OS entropy.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng or random.SystemRandom()
        self._lock = threading.Lock()
        self._issued: set[str] = set()
        self._active: set[str] = set()
        self._adapters: dict[str, ExternalTunnelAdapter] = {}

    def issue(self) -> str:
        with self._lock:
            while True:
                token = "".join(self._rng.choice(TOKEN_ALPHABET) for _ in range(TOKEN_LENGTH))
                if token not in self._issued:
                    self._issued.add(token)
                    self._active.add(token)
                    return token

    def revoke(self, token: str) -> None:
        with self._lock:
            self._active.discard(token)
            self._adapters.pop(token, None)

    def is_active(self, token: str) -> bool:
        with self._lock:
            return token in self._active

    def _attach_adapter(self, token: str, adapter: ExternalTunnelAdapter) -> None:
        with self._lock:
            self._adapters[token] = adapter

    def _adapter_for(self, token: str) -> Optional[ExternalTunnelAdapter]:
        with self._lock:
            return self._adapters.get(token)


_default_registry = TokenRegistry()


def default_registry() -> TokenRegistry:
    """The process-wide registry the gateway consults unless given another."""
    return _default_registry


def open_tunnel(
    mode: TunnelMode,
    local_port: int,
    *,
    adapter: Optional[ExternalTunnelAdapter] = None,
    registry: Optional[TokenRegistry] = None,
) -> TunnelEndpoint:
    """Open a tunnel to a locally bound port and return its endpoint.

    Loopback mode is immediate and fully local. External mode requires an
    adapter; its URL gets the run token appended as the final path segment.
    """
    registry = registry or _default_registry
    token = registry.issue()
    if mode is TunnelMode.LOOPBACK:
        return TunnelEndpoint(f"http://127.0.0.1:{local_port}/{token}", mode, token)
    if adapter is None:
        registry.revoke(token)
        raise TunnelError("external tunnel mode requires an adapter")
    base = adapter.start(local_port).rstrip("/")
    registry._attach_adapter(token, adapter)
    return TunnelEndpoint(f"{base}/{token}", mode, token)


def close_tunnel(endpoint: TunnelEndpoint, *, registry: Optional[TokenRegistry] = None) -> None:
    """Stop routing the endpoint's token. Idempotent."""
    registry = registry or _default_registry
    adapter = registry._adapter_for(endpoint.run_token)
    registry.revoke(endpoint.run_token)
    if adapter is not None:
        adapter.stop()
