import random
import re

import pytest
import requests

from worldhook.gateway import GatewayConfig, HandlerRegistration, run
from worldhook.tunnel import (
    TokenRegistry,
    TunnelError,
    TunnelMode,
    close_tunnel,
    open_tunnel,
)
from conftest import recorded

URL_RE = re.compile(r"^http://127\.0\.0\.1:(\d+)/([A-Za-z0-9]{16})$")


class FakeAdapter:
    def __init__(self):
        self.started_with = None
        self.stopped = 0

    def start(self, local_port):
        self.started_with = local_port
        return "https://example-tunnel.test/base/"

    def stop(self):
        self.stopped += 1


class TestLoopback:
    def test_url_format_and_token_length(self):
        registry = TokenRegistry()
        ep = open_tunnel(TunnelMode.LOOPBACK, 8080, registry=registry)
        match = URL_RE.match(ep.public_url)
        assert match and match.group(1) == "8080"
        assert ep.run_token == match.group(2)
        assert len(ep.run_token) >= 8

    def test_two_opens_get_distinct_tokens(self):
        registry = TokenRegistry()
        a = open_tunnel(TunnelMode.LOOPBACK, 1, registry=registry)
        b = open_tunnel(TunnelMode.LOOPBACK, 1, registry=registry)
        assert a.run_token != b.run_token

    def test_thousand_tokens_all_distinct(self):
        registry = TokenRegistry()
        tokens = {open_tunnel(TunnelMode.LOOPBACK, 1, registry=registry).run_token
                  for _ in range(1000)}
        assert len(tokens) == 1000

    def test_seeded_rng_is_reproducible(self):
        first = TokenRegistry(rng=random.Random(99)).issue()
        second = TokenRegistry(rng=random.Random(99)).issue()
        assert first == second

    def test_close_is_idempotent(self):
        registry = TokenRegistry()
        ep = open_tunnel(TunnelMode.LOOPBACK, 1, registry=registry)
        close_tunnel(ep, registry=registry)
        close_tunnel(ep, registry=registry)
        assert not registry.is_active(ep.run_token)

    def test_reopen_gets_new_token(self):
        registry = TokenRegistry()
        first = open_tunnel(TunnelMode.LOOPBACK, 1, registry=registry)
        close_tunnel(first, registry=registry)
        second = open_tunnel(TunnelMode.LOOPBACK, 1, registry=registry)
        assert second.run_token != first.run_token


class TestExternal:
    def test_requires_adapter(self):
        with pytest.raises(TunnelError):
            open_tunnel(TunnelMode.EXTERNAL, 8080, registry=TokenRegistry())

    def test_adapter_url_gets_token_segment(self):
        registry = TokenRegistry()
        adapter = FakeAdapter()
        ep = open_tunnel(TunnelMode.EXTERNAL, 8123, adapter=adapter, registry=registry)
        assert adapter.started_with == 8123
        assert ep.public_url == f"https://example-tunnel.test/base/{ep.run_token}"
        close_tunnel(ep, registry=registry)
        assert adapter.stopped == 1


class TestGatewayIntegration:
    @pytest.fixture
    def gateway(self):
        registration = HandlerRegistration().register_default(lambda payload: payload)
        tokens = TokenRegistry()
        handle = run(GatewayConfig(), registration, tokens)
        yield handle, tokens
        handle.shutdown()

    def test_active_token_routes_to_default_handler(self, gateway):
        handle, tokens = gateway
        ep = open_tunnel(TunnelMode.LOOPBACK, handle.port, registry=tokens)
        reply = requests.post(ep.public_url, data=b'{"request":"hi"}', timeout=5)
        assert reply.status_code == 200
        assert reply.json() == {"response": "hi"}

    def test_wrong_token_is_404_and_never_dispatched(self, gateway):
        handle, tokens = gateway
        open_tunnel(TunnelMode.LOOPBACK, handle.port, registry=tokens)
        records = recorded(handle)
        url = f"{handle.base_url}/{'x' * 16}"
        reply = requests.post(url, data=b'{"request":"hi"}', timeout=5)
        assert reply.status_code == 404
        assert reply.json()["error"]["code"] == "UnknownFunction"
        assert [(r.response_status, r.dispatched) for r in records] == [(404, False)]

    def test_closed_token_is_404_even_for_get(self, gateway):
        handle, tokens = gateway
        ep = open_tunnel(TunnelMode.LOOPBACK, handle.port, registry=tokens)
        close_tunnel(ep, registry=tokens)
        assert requests.get(ep.public_url, timeout=5).status_code == 404
        assert requests.post(ep.public_url, data=b'{"request":"x"}', timeout=5).status_code == 404

    def test_tunneled_named_route(self, gateway):
        handle, tokens = gateway
        handle.dispatcher.registration.register_route("echo2", lambda p: p + "!")
        ep = open_tunnel(TunnelMode.LOOPBACK, handle.port, registry=tokens)
        reply = requests.post(f"{ep.public_url}/echo2", data=b'{"request":"hi"}', timeout=5)
        assert reply.status_code == 200
        assert reply.json() == {"response": "hi!"}
