import gc
import json
import socket
import sys
import threading
import time
import tracemalloc

import pytest
import requests

from worldhook.devices import DeviceFaultError, DeviceRegistry, Fan
from worldhook.envelope import ErrorCode, GatewayError
from worldhook.gateway import (
    GatewayApp,
    GatewayConfig,
    GatewayStartupError,
    HandlerRegistration,
    RegistrationError,
    RequestDispatcher,
    RequestLog,
    run,
)
from worldhook.smarthome import make_gateway_handler
from conftest import post_trigger, raw_exchange, recorded


DEEP_JSON = "[" * 100_000 + "]" * 100_000
HUGE_INT = "1" * 5000  # over CPython's int/str conversion limit of 4300 digits


def envelope_bytes(request: str, **meta) -> bytes:
    return json.dumps({"request": request, **meta}).encode()


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.01)
    return True


class TestRegistration:
    def test_echo_handler_round_trip(self):
        registration = HandlerRegistration().register_default(lambda p: p)
        handle = run(GatewayConfig(), registration)
        try:
            reply = post_trigger(handle.trigger_url, "hi")
            assert reply.status_code == 200
            assert reply.json() == {"response": "hi"}
        finally:
            handle.shutdown()

    def test_json_result_is_embedded(self):
        registration = HandlerRegistration().register_default(lambda p: {"ok": True})
        handle = run(GatewayConfig(), registration)
        try:
            reply = post_trigger(handle.trigger_url, "x")
            assert reply.status_code == 200
            assert reply.json() == {"response": '{"ok":true}'}
        finally:
            handle.shutdown()

    def test_second_default_registration_fails(self):
        registration = HandlerRegistration().register_default(lambda p: p)
        with pytest.raises(RegistrationError):
            registration.register_default(lambda p: p)

    def test_duplicate_route_fails(self):
        registration = HandlerRegistration().register_route("fan", lambda p: p)
        with pytest.raises(RegistrationError):
            registration.register_route("fan", lambda p: p)

    def test_unsafe_route_name_fails(self):
        with pytest.raises(RegistrationError):
            HandlerRegistration().register_route("a/b", lambda p: p)

    def test_run_requires_a_handler(self):
        with pytest.raises(RegistrationError):
            run(GatewayConfig(), HandlerRegistration())

    def test_app_decorators(self):
        app = GatewayApp()

        @app.receive
        def handle(data):
            return data.upper()

        @app.route("fan")
        def fan_route(data):
            return "fan:" + data

        with pytest.raises(RegistrationError):
            app.receive(lambda p: p)

        handle_ = app.run()
        try:
            assert post_trigger(handle_.trigger_url, "hey").json() == {"response": "HEY"}
            assert post_trigger(handle_.trigger_url + "/fan", "on").json() == \
                {"response": "fan:on"}
        finally:
            handle_.shutdown()


class TestRunAndShutdown:
    def test_ephemeral_port_is_reported(self):
        handle = run(GatewayConfig(bind_port=0),
                     HandlerRegistration().register_default(lambda p: p))
        try:
            assert handle.port > 0
        finally:
            handle.shutdown()

    def test_every_post_is_logged(self):
        handle = run(GatewayConfig(), HandlerRegistration().register_default(lambda p: p))
        try:
            post_trigger(handle.trigger_url, "one")
            assert len(handle.request_log) == 1
        finally:
            handle.shutdown()

    def test_port_in_use_is_startup_error(self):
        registration = HandlerRegistration().register_default(lambda p: p)
        first = run(GatewayConfig(bind_port=0), registration)
        try:
            with pytest.raises(GatewayStartupError):
                run(GatewayConfig(bind_port=first.port),
                    HandlerRegistration().register_default(lambda p: p))
        finally:
            first.shutdown()

    def test_post_after_shutdown_is_refused(self):
        handle = run(GatewayConfig(), HandlerRegistration().register_default(lambda p: p))
        url = handle.trigger_url
        handle.shutdown()
        with pytest.raises(requests.ConnectionError):
            requests.post(url, data=envelope_bytes("x"), timeout=2)

    def test_shutdown_twice_is_fine(self):
        handle = run(GatewayConfig(), HandlerRegistration().register_default(lambda p: p))
        handle.shutdown()
        handle.shutdown()

    def test_in_flight_request_is_logged_across_shutdown(self):
        # Handler sleeps below the timeout; shutdown must wait for it and its
        # log entry must exist afterwards.
        def slow(payload):
            time.sleep(0.2)
            return payload

        handle = run(GatewayConfig(handler_timeout_ms=2000),
                     HandlerRegistration().register_default(slow))
        records = recorded(handle)
        result = {}

        def fire():
            result["reply"] = post_trigger(handle.trigger_url, "inflight")

        poster = threading.Thread(target=fire)
        poster.start()
        time.sleep(0.05)  # let the request reach the handler
        handle.shutdown()
        poster.join(timeout=5)
        assert result["reply"].status_code == 200
        assert len(records) == 1 and records[0].envelope.request == "inflight"


class TestOtherMethods:
    @pytest.fixture
    def handle(self):
        handle = run(GatewayConfig(), HandlerRegistration().register_default(lambda p: p))
        yield handle
        handle.shutdown()

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
    def test_method_is_json_400_logged_and_keeps_the_connection(self, handle, method):
        records = recorded(handle)
        body = '{"request":"x"}'
        with socket.create_connection(("127.0.0.1", handle.port), timeout=1.0) as sock:
            status, reply = raw_exchange(sock, f"{method} /trigger HTTP/1.1\r\nHost: x\r\n"
                                               f"Content-Length: {len(body)}\r\n\r\n{body}")
            assert status == 400
            assert json.loads(reply)["error"] == {"code": "MalformedEnvelope",
                                                  "message": "only POST is supported",
                                                  "request_id": ""}
            assert raw_exchange(sock, "POST /trigger HTTP/1.1\r\nHost: x\r\n"
                                      f"Content-Length: {len(body)}\r\n\r\n{body}")[0] == 200
        assert [(r.response_status, r.dispatched) for r in records] == [(400, False), (200, True)]

    def test_head_stays_501_without_a_body(self, handle):
        with socket.create_connection(("127.0.0.1", handle.port), timeout=1.0) as sock:
            status, reply = raw_exchange(sock, "HEAD /trigger HTTP/1.1\r\nHost: x\r\n\r\n",
                                         method="HEAD")
        assert (status, reply) == (501, b"")
        assert len(handle.request_log) == 0


class TestRequestLog:
    @staticmethod
    def append(log: RequestLog, n: int) -> None:
        for i in range(n):
            log.append(request_id=f"r{i}", envelope=None, response_status=200,
                       latency_ms=0.0, route="", dispatched=True)

    def test_listeners_see_every_arrival_order_and_len_counts_them(self):
        log = RequestLog()
        seen = []
        log.add_listener(lambda record: seen.append(record.arrival_order))
        appenders = [threading.Thread(target=self.append, args=(log, 50)) for _ in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in appenders:
                t.start()
            for t in appenders:
                t.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in appenders)
        assert len(log) == 200
        assert seen == list(range(200))

    def test_log_retains_no_memory_per_request(self):
        registration = HandlerRegistration().register_route("fan", lambda p: "Running")
        dispatcher = RequestDispatcher(GatewayConfig(), registration)
        # A retained record with its envelope is ~670 B: 5000 of them would be ~3.3 MB.
        assert retained_bytes(dispatcher, "/trigger/fan") < 32_000
        assert len(dispatcher.request_log) == 5200

    def test_devices_with_a_dropping_sink_retain_no_memory_per_request(self):
        registry = DeviceRegistry.default()
        registry.stream_events(lambda device_key, event: None)
        dispatcher = RequestDispatcher(GatewayConfig(),
                                       HandlerRegistration().register_devices(registry))
        # A kept fan event is ~190 B: 5000 of them would be ~0.9 MB.
        assert retained_bytes(dispatcher, "/trigger/fan") < 32_000
        assert registry.get("fan").state.value == "Running"


def retained_bytes(dispatcher: RequestDispatcher, path: str) -> int:
    """Traced bytes held after 1000 and after 5000 "on" requests, beyond a warm-up of 200."""
    body = envelope_bytes("on", itemId="fan", userId="u1")

    def traced_bytes_after(n: int) -> int:
        for _ in range(n):
            assert dispatcher.handle_request(body, path)[0] == 200
        assert wait_until(lambda: not dispatcher._pending)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]

    tracemalloc.start()
    try:
        baseline = traced_bytes_after(200)  # warm-up: caches, lazy imports
        after_1000 = traced_bytes_after(1000)
        after_5000 = traced_bytes_after(4000)
    finally:
        tracemalloc.stop()
    return max(after_1000, after_5000) - baseline


class TestDispatchLifecycle:
    @pytest.fixture
    def dispatcher(self):
        registration = HandlerRegistration().register_default(lambda p: p)
        return RequestDispatcher(GatewayConfig(), registration)

    def test_direct_valid_request(self, dispatcher):
        status, body = dispatcher.handle_request(envelope_bytes("ping"), "/trigger")
        assert status == 200
        assert json.loads(body) == {"response": "ping"}

    def test_garbage_then_valid(self, dispatcher):
        records = recorded(dispatcher)
        status, body = dispatcher.handle_request(b"garbage", "/trigger")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "MalformedEnvelope"
        status, _ = dispatcher.handle_request(envelope_bytes("ok"), "/trigger")
        assert status == 200
        assert [r.arrival_order for r in records] == [0, 1]

    def test_unknown_route_404(self, dispatcher):
        status, body = dispatcher.handle_request(envelope_bytes("x"), "/nope")
        assert status == 404
        assert json.loads(body)["error"]["code"] == "UnknownFunction"

    def test_get_is_rejected_but_logged(self, dispatcher):
        records = recorded(dispatcher)
        status, body = dispatcher.handle_request(b"", "/trigger", method="GET")
        assert status == 400
        assert len(dispatcher.request_log) == 1
        assert not records[0].dispatched

    def test_handler_exception_becomes_500(self):
        def boom(payload):
            raise RuntimeError("kaboom")

        dispatcher = RequestDispatcher(GatewayConfig(),
                                       HandlerRegistration().register_default(boom))
        status, body = dispatcher.handle_request(envelope_bytes("x"), "/trigger")
        assert status == 500
        doc = json.loads(body)
        assert doc["error"]["code"] == "Internal"
        assert "kaboom" in doc["error"]["message"]
        # the dispatcher keeps serving afterwards
        assert dispatcher.handle_request(envelope_bytes("y"), "/trigger")[0] == 500
        assert len(dispatcher.request_log) == 2

    def test_device_fault_keeps_its_code(self):
        def fault(payload):
            raise DeviceFaultError("pin 99 out of range")

        dispatcher = RequestDispatcher(GatewayConfig(),
                                       HandlerRegistration().register_default(fault))
        status, body = dispatcher.handle_request(envelope_bytes("x"), "/trigger")
        assert status == 500
        assert json.loads(body)["error"]["code"] == "DeviceFault"

    @pytest.mark.parametrize("body", [
        DEEP_JSON,
        '{"request":"x","timestampMs":' + HUGE_INT + '}',
    ], ids=["deep-nesting", "huge-int"])
    def test_hostile_envelope_is_400(self, dispatcher, body):
        status, reply = dispatcher.handle_request(body.encode(), "/trigger")
        assert (status, json.loads(reply)["error"]["code"]) == (400, "MalformedEnvelope")

    @pytest.mark.parametrize("payload", [
        DEEP_JSON,
        '{"function_name":"set_brightness","args":["bulb-1",' + HUGE_INT + ']}',
        '{"function_name":"set_brightness","args":["bulb-1",NaN]}',
        '{"function_name":"set_brightness","args":["bulb-1",Infinity]}',
        '{"function_name":"set_brightness","kwargs":{"device_id":"bulb-1","level":-Infinity}}',
    ], ids=["deep-nesting", "huge-int", "nan", "infinity", "minus-infinity"])
    def test_hostile_smarthome_payload_is_400(self, mock_cloud, payload):
        _, client = mock_cloud
        dispatcher = RequestDispatcher(
            GatewayConfig(), HandlerRegistration().register_default(make_gateway_handler(client)))
        status, reply = dispatcher.handle_request(envelope_bytes(payload), "/trigger")
        assert (status, json.loads(reply)["error"]["code"]) == (400, "MalformedPayload")
        assert client.get_status("bulb-1").state == {"power": "off", "brightness": 100}

    def test_handler_returning_gateway_error(self):
        registration = HandlerRegistration().register_default(
            lambda p: GatewayError(ErrorCode.MALFORMED_PAYLOAD, "bad payload"))
        dispatcher = RequestDispatcher(GatewayConfig(), registration)
        status, body = dispatcher.handle_request(envelope_bytes("x"), "/trigger")
        assert status == 400
        assert json.loads(body)["error"]["code"] == "MalformedPayload"

    def test_handler_returning_none_is_empty_ok(self, ):
        registration = HandlerRegistration().register_default(lambda p: None)
        dispatcher = RequestDispatcher(GatewayConfig(), registration)
        status, body = dispatcher.handle_request(envelope_bytes("x"), "/trigger")
        assert (status, json.loads(body)) == (200, {"response": ""})

    def test_handler_result_that_is_not_json_is_a_dispatched_500(self):
        registration = HandlerRegistration().register_route(
            "dev", lambda p: {1, 2} if p == "set" else p)
        dispatcher = RequestDispatcher(GatewayConfig(), registration)
        records = recorded(dispatcher)
        status, body = dispatcher.handle_request(
            envelope_bytes("set", requestId="r42"), "/trigger/dev")
        error = json.loads(body)["error"]
        assert (status, error["code"], error["request_id"]) == (500, "Internal", "r42")
        assert wait_until(lambda: not dispatcher._pending)  # the key is free again
        assert dispatcher.handle_request(
            envelope_bytes("ok", requestId="r43"), "/trigger/dev")[0] == 200
        assert [(r.request_id, r.route, r.dispatched, r.response_status, r.envelope.request)
                for r in records] == [("r42", "dev", True, 500, "set"),
                                      ("r43", "dev", True, 200, "ok")]

    def test_timeout_maps_to_500(self):
        def sleepy(payload):
            time.sleep(1.0)
            return payload

        dispatcher = RequestDispatcher(
            GatewayConfig(handler_timeout_ms=100),
            HandlerRegistration().register_default(sleepy))
        records = recorded(dispatcher)
        start = time.monotonic()
        status, body = dispatcher.handle_request(envelope_bytes("x"), "/trigger")
        elapsed = time.monotonic() - start
        assert status == 500
        assert "timed out" in json.loads(body)["error"]["message"]
        assert elapsed < 0.9  # did not wait for the handler
        # the handler's late reply is dropped: one record per request
        assert wait_until(lambda: not dispatcher._pending)
        assert [(r.response_status, r.dispatched) for r in records] == [(500, True)]

    def test_deadline_passing_in_queue_withdraws_the_request(self):
        release = threading.Event()
        calls = []

        def blocker(payload):
            calls.append(payload)
            release.wait(5)
            return payload

        dispatcher = RequestDispatcher(
            GatewayConfig(handler_timeout_ms=200),
            HandlerRegistration().register_route("dev", blocker))
        records = recorded(dispatcher)
        first = threading.Thread(
            target=dispatcher.handle_request, args=(envelope_bytes("a"), "/trigger/dev"))
        first.start()
        try:
            assert wait_until(lambda: calls == ["a"])
            status, body = dispatcher.handle_request(envelope_bytes("b"), "/trigger/dev")
            first.join(5)  # "a" passes its deadline too, with its handler still running
        finally:
            release.set()
        assert not first.is_alive()
        assert status == 500
        assert "timed out waiting for device" in json.loads(body)["error"]["message"]
        assert wait_until(lambda: not dispatcher._pending)
        assert calls == ["a"]  # the withdrawn request never reached the handler
        by_request = {r.envelope.request: r for r in records}
        assert (by_request["b"].response_status, by_request["b"].dispatched) == (500, False)
        assert (by_request["a"].response_status, by_request["a"].dispatched) == (500, True)


class TestPerDeviceSerialization:
    def test_route_key_serializes_and_overflow_faults(self):
        release = threading.Event()
        entered = threading.Event()

        def blocker(payload):
            entered.set()
            release.wait(5)
            return "done"

        registration = HandlerRegistration().register_route("dev", blocker)
        config = GatewayConfig(per_device_queue_depth=1, handler_timeout_ms=8000)
        handle = run(config, registration)
        try:
            replies = {}

            def fire(tag):
                replies[tag] = post_trigger(handle.trigger_url + "/dev", tag)

            first = threading.Thread(target=fire, args=("a",))
            first.start()
            assert entered.wait(5)
            # queue holds the executing request; the next two overflow
            second = threading.Thread(target=fire, args=("b",))
            third = threading.Thread(target=fire, args=("c",))
            second.start(), third.start()
            second.join(5), third.join(5)
            release.set()
            first.join(5)
            assert replies["a"].status_code == 200
            assert {replies["b"].status_code, replies["c"].status_code} == {500}
            assert replies["b"].json()["error"]["code"] == "DeviceFault"
        finally:
            release.set()
            handle.shutdown()

    def test_unrelated_keys_run_concurrently(self):
        release = threading.Event()

        def blocker(payload):
            release.wait(5)
            return "slow"

        registration = HandlerRegistration()
        registration.register_route("slow", blocker)
        registration.register_route("fast", lambda p: "fast")
        handle = run(GatewayConfig(), registration)
        try:
            slow_thread = threading.Thread(
                target=post_trigger, args=(handle.trigger_url + "/slow", "x"))
            slow_thread.start()
            time.sleep(0.05)
            start = time.monotonic()
            reply = post_trigger(handle.trigger_url + "/fast", "y")
            assert reply.status_code == 200
            assert time.monotonic() - start < 1.0
        finally:
            release.set()
            slow_thread.join(5)
            handle.shutdown()

    def test_default_route_serializes_by_item_id(self):
        seen = []
        lock = threading.Lock()

        def handler(payload):
            with lock:
                seen.append(payload)
            time.sleep(0.01)
            return payload

        registration = HandlerRegistration().register_default(handler)
        handle = run(GatewayConfig(), registration)
        logged = recorded(handle)
        try:
            threads = [
                threading.Thread(target=post_trigger, args=(handle.trigger_url, f"c{i}"),
                                 kwargs={"itemId": "one-device"})
                for i in range(8)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
            records = [r for r in logged if r.dispatched]
            # log order must equal handler execution order for the shared key
            assert [r.envelope.request for r in records] == seen
        finally:
            handle.shutdown()

    def test_fan_routed_commands_follow_arrival_order(self):
        fan = Fan("fan")
        registration = HandlerRegistration().register_route("fan", fan.handle)
        handle = run(GatewayConfig(), registration)
        records = recorded(handle)
        try:
            for payload in ["on", "off", "on"]:
                post_trigger(handle.trigger_url + "/fan", payload)
            log_requests = [r.envelope.request for r in records]
            assert [e.command for e in fan.event_log] == log_requests
        finally:
            handle.shutdown()


    def test_log_order_equals_execution_order_under_contention(self):
        seen = []
        lock = threading.Lock()

        def handler(payload):
            with lock:
                seen.append(payload)
            return payload

        dispatcher = RequestDispatcher(GatewayConfig(),
                                       HandlerRegistration().register_route("dev", handler))
        records = recorded(dispatcher)
        threads = [
            threading.Thread(target=dispatcher.handle_request,
                             args=(envelope_bytes(f"c{i}"), "/trigger/dev"))
            for i in range(32)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        logged = [r.envelope.request for r in records]
        assert len(logged) == 32
        assert logged == seen

    def test_idle_keys_leave_no_state_or_threads(self):
        baseline = threading.active_count()
        dispatcher = RequestDispatcher(GatewayConfig(),
                                       HandlerRegistration().register_default(lambda p: p))
        for i in range(50):
            status, _ = dispatcher.handle_request(
                envelope_bytes("x", itemId=f"item-{i}"), "/trigger")
            assert status == 200
        assert wait_until(lambda: not dispatcher._pending)
        assert wait_until(lambda: threading.active_count() <= baseline)


class TestConfigValidation:
    @pytest.mark.parametrize("kwargs", [
        {"bind_port": -1},
        {"bind_port": 70000},
        {"per_device_queue_depth": 0},
        {"handler_timeout_ms": 0},
        {"route_prefix": "nope"},
    ])
    def test_bad_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            GatewayConfig(**kwargs).validate()
