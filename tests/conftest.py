import http.client
import json
import socket

import pytest
import requests

from worldhook import (
    DeviceRegistry,
    GatewayConfig,
    HandlerRegistration,
    SmartHomeClient,
    TokenRegistry,
    TunnelMode,
    close_tunnel,
    open_tunnel,
    run,
    start_mock,
)


def post_trigger(url: str, request: str, timeout: float = 10.0, **meta) -> requests.Response:
    """POST a trigger envelope built from camelCase keyword fields."""
    body = {"request": request, **meta}
    return requests.post(url, data=json.dumps(body).encode("utf-8"), timeout=timeout)


def raw_exchange(sock: socket.socket, request: str, method: str = "") -> tuple[int, bytes]:
    """Send one hand-framed request on ``sock``; return its reply's status and body.

    Pass ``method="HEAD"`` for a HEAD request, whose reply has no body to read.
    """
    sock.sendall(request.encode("utf-8"))
    reply = http.client.HTTPResponse(sock, method=method or None)
    reply.begin()
    return reply.status, reply.read()


def recorded(source) -> list:
    """Collect the request records ``source`` (a gateway handle or dispatcher) logs from now on."""
    records = []
    source.request_log.add_listener(records.append)
    return records


class GatewayEnv:
    """A running gateway wired to a fresh default device bench; ``records`` collects its log."""

    def __init__(self, config=None):
        self.registry = DeviceRegistry.default()
        self.registration = HandlerRegistration().register_devices(self.registry)
        self.tokens = TokenRegistry()
        self.handle = run(config or GatewayConfig(), self.registration, self.tokens)
        self.records = recorded(self.handle)
        self.endpoint = open_tunnel(TunnelMode.LOOPBACK, self.handle.port,
                                    registry=self.tokens)

    @property
    def trigger_url(self):
        return self.handle.trigger_url

    @property
    def public_url(self):
        return self.endpoint.public_url

    def device(self, key):
        return self.registry.get(key)

    def close(self):
        close_tunnel(self.endpoint, registry=self.tokens)
        self.handle.shutdown()


@pytest.fixture
def device_gateway():
    env = GatewayEnv()
    yield env
    env.close()


@pytest.fixture
def mock_cloud():
    handle = start_mock()
    client = SmartHomeClient(handle.base_url, handle.token)
    yield handle, client
    handle.shutdown()
