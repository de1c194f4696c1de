import json

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


class GatewayEnv:
    """A running gateway wired to a fresh default device bench."""

    def __init__(self, config=None):
        self.registry = DeviceRegistry.default()
        self.registration = HandlerRegistration().register_devices(self.registry)
        self.tokens = TokenRegistry()
        self.handle = run(config or GatewayConfig(), self.registration, self.tokens)
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
