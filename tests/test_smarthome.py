import json
import random
import socket
import string
import sys
import threading
import time
from collections import Counter

import pytest
import requests

from worldhook import GatewayStartupError, httpserver
from worldhook.envelope import ErrorCode, ResponseStatus, SmartHomeRequest, canonical_json
from worldhook.smarthome import (
    ALLOW_LIST,
    DeviceType,
    Fixture,
    SmartHomeAuthError,
    SmartHomeClient,
    SmartHomeCommandError,
    SmartHomeDevice,
    SmartHomeNotFoundError,
    SmartHomeTransportError,
    default_state,
    default_workshop_fixture,
    dispatch,
    make_gateway_handler,
    result_to_canonical_json,
    start_mock,
)
from conftest import raw_exchange


# ---------------------------------------------------------------------------
# Independent oracle: a from-scratch interpretation of the command rules,
# written against the documented behavior, not the server's code.
# ---------------------------------------------------------------------------

SWITCHABLE = {"Bulb", "Plug", "Bot", "Circulator", "Humidifier"}


def oracle_apply(device_type: str, state: dict, command: str, parameter):
    if command == "turnOn" and device_type in SWITCHABLE:
        return {**state, "power": "on"}
    if command == "turnOff" and device_type in SWITCHABLE:
        return {**state, "power": "off"}
    if command == "setBrightness" and device_type == "Bulb" \
            and isinstance(parameter, int) and 1 <= parameter <= 100:
        return {**state, "power": "on", "brightness": parameter}
    if command == "press" and device_type == "Bot":
        return dict(state)
    return None  # invalid


class TestFixture:
    def test_workshop_roster_counts(self):
        fixture = default_workshop_fixture()
        assert len(fixture.devices) == 27
        counts = Counter(d.device_type for d in fixture.devices)
        assert counts == {
            DeviceType.HUB: 2,
            DeviceType.CAMERA: 2,
            DeviceType.MOTION_SENSOR: 4,
            DeviceType.METER: 1,
            DeviceType.LED_STRIP: 1,
            DeviceType.BULB: 4,
            DeviceType.PLUG: 4,
            DeviceType.BOT: 4,
            DeviceType.HUMIDIFIER: 1,
            DeviceType.REMOTE_BUTTON: 2,
            DeviceType.CIRCULATOR: 2,
        }

    def test_save_load_round_trip(self, tmp_path):
        fixture = default_workshop_fixture(token="tok-123")
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps({
            "token": "tok-123",
            "devices": [{"deviceId": d.device_id, "deviceType": d.device_type.value,
                         "name": d.name, "state": d.state} for d in fixture.devices],
        }))
        loaded = Fixture.load(path)
        assert loaded.token == "tok-123"
        assert [(d.device_id, d.device_type, d.name, d.state) for d in loaded.devices] == \
            [(d.device_id, d.device_type, d.name, d.state) for d in fixture.devices]

    @pytest.mark.parametrize("doc, names", [
        ({"devices": [{"deviceType": "Bulb"}]}, "'deviceId'"),
        ({"devices": [{"deviceId": "b"}]}, "'deviceType'"),
        ({"devices": ["bulb-1"]}, "device 0 is not an object"),
        ({"devices": [{"deviceId": "b", "deviceType": "Kettle"}]}, "Kettle"),
        ({"devices": [{"deviceId": "b", "deviceType": "Bulb", "state": 5}]}, "device 0"),
        ([], "list of devices"),
    ])
    def test_malformed_fixture_names_the_entry(self, tmp_path, doc, names):
        path = tmp_path / "fixture.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=names):
            Fixture.load(path)

    def test_empty_fixture(self):
        handle = start_mock(Fixture(token="t", devices=[]))
        try:
            client = SmartHomeClient(handle.base_url, "t")
            assert client.list_devices() == []
        finally:
            handle.shutdown()


class TestClient:
    def test_list_devices(self, mock_cloud):
        _, client = mock_cloud
        devices = client.list_devices()
        assert len(devices) == 27
        by_id = {d.device_id: d for d in devices}
        assert by_id["bulb-1"].device_type is DeviceType.BULB

    def test_meter_fixture_echo(self, mock_cloud):
        _, client = mock_cloud
        status = client.get_status("meter-1")
        assert status.state == {"temperature": 25.0, "humidity": 50, "co2": 800}

    def test_turn_on_read_your_write(self, mock_cloud):
        _, client = mock_cloud
        assert client.turn_on("plug-1").state["power"] == "on"
        assert client.get_status("plug-1").state["power"] == "on"

    def test_set_brightness_implies_power_on(self, mock_cloud):
        _, client = mock_cloud
        status = client.set_brightness("bulb-2", 50)
        assert status.state == {"power": "on", "brightness": 50}

    def test_press_is_momentary(self, mock_cloud):
        handle, client = mock_cloud
        before = client.get_status("bot-1").state
        assert client.press("bot-1").state == before
        assert handle.presses == ["bot-1"]

    def test_press_on_meter_is_command_error(self, mock_cloud):
        _, client = mock_cloud
        with pytest.raises(SmartHomeCommandError):
            client.press("meter-1")

    def test_brightness_range_validated(self, mock_cloud):
        _, client = mock_cloud
        with pytest.raises(SmartHomeCommandError):
            client.set_brightness("bulb-1", 0)
        with pytest.raises(SmartHomeCommandError):
            client.set_brightness("bulb-1", 101)

    def test_unknown_device(self, mock_cloud):
        _, client = mock_cloud
        with pytest.raises(SmartHomeNotFoundError):
            client.get_status("toaster-9")

    def test_wrong_token(self, mock_cloud):
        handle, _ = mock_cloud
        bad = SmartHomeClient(handle.base_url, "wrong-token")
        with pytest.raises(SmartHomeAuthError):
            bad.list_devices()

    def test_unreachable_server(self):
        client = SmartHomeClient("http://127.0.0.1:1", "t", timeout_s=0.5)
        with pytest.raises(SmartHomeTransportError):
            client.list_devices()

    def test_device_ids_are_quoted_in_paths(self):
        kinds = {"desk lamp": DeviceType.BULB, "lampe-\u00fc": DeviceType.PLUG,
                 "bulb-1": DeviceType.BULB}
        fixture = Fixture(devices=[SmartHomeDevice(i, t, i, default_state(t))
                                   for i, t in kinds.items()])
        handle = start_mock(fixture)
        try:
            client = SmartHomeClient(handle.base_url, handle.token)
            assert client.get_status("desk lamp").device_id == "desk lamp"
            assert client.turn_on("lampe-\u00fc").state["power"] == "on"
            assert client.get_status("lampe-\u00fc").state["power"] == "on"
            for device_id in ("a/b", "%62ulb-1"):
                for name in ("get_status", "turn_on"):
                    response = dispatch(SmartHomeRequest(name, [device_id]), client)
                    assert response.status is ResponseStatus.NOT_FOUND, (device_id, response)
                    assert response.body.code is ErrorCode.DEVICE_FAULT
            assert client.get_status("bulb-1").state["power"] == "off"
        finally:
            handle.shutdown()

    def test_connection_closed_by_idle_server_is_replaced(self, monkeypatch):
        monkeypatch.setattr(httpserver._RequestHandler, "timeout", 0.2)
        handle = start_mock()
        try:
            client = SmartHomeClient(handle.base_url, handle.token)
            client.press("bot-1")
            time.sleep(0.6)  # the mock closes the idle keep-alive connection
            client.press("bot-1")
            assert handle.presses == ["bot-1", "bot-1"]
        finally:
            handle.shutdown()

    def test_shared_client_under_thread_contention(self):
        # One client, one connection pool, more threads than cores: every
        # command is applied exactly once and no thread sees a transport error.
        handle = start_mock()
        client = SmartHomeClient(handle.base_url, handle.token)
        errors = []

        def worker():
            for _ in range(10):
                try:
                    client.press("bot-2")
                except SmartHomeTransportError as exc:
                    errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
            handle.shutdown()
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert handle.presses == ["bot-2"] * 80


class TestMockHttpSurface:
    def test_missing_authorization_is_401(self, mock_cloud):
        handle, _ = mock_cloud
        reply = requests.get(f"{handle.base_url}/v1.1/devices", timeout=5)
        assert reply.status_code == 401

    def test_response_envelope_shape(self, mock_cloud):
        handle, _ = mock_cloud
        reply = requests.get(f"{handle.base_url}/v1.1/devices",
                             headers={"Authorization": handle.token}, timeout=5)
        doc = reply.json()
        assert doc["statusCode"] == 100
        assert doc["message"] == "success"
        assert len(doc["body"]["deviceList"]) == 27

    def test_command_then_status_over_raw_http(self, mock_cloud):
        handle, _ = mock_cloud
        headers = {"Authorization": handle.token}
        reply = requests.post(
            f"{handle.base_url}/v1.1/devices/bulb-1/commands",
            json={"command": "turnOff", "parameter": "default", "commandType": "command"},
            headers=headers, timeout=5)
        assert reply.status_code == 200
        status = requests.get(f"{handle.base_url}/v1.1/devices/bulb-1/status",
                              headers=headers, timeout=5).json()
        assert status["body"]["power"] == "off"

    def test_get_body_is_consumed_on_keep_alive(self, mock_cloud):
        handle, _ = mock_cloud
        head = f"Host: x\r\nAuthorization: {handle.token}\r\n"
        with socket.create_connection(("127.0.0.1", handle.port), timeout=1.0) as sock:
            first = raw_exchange(sock, f"GET /v1.1/devices HTTP/1.1\r\n{head}"
                                       "Content-Length: 5\r\n\r\nhello")
            second = raw_exchange(sock, f"GET /v1.1/devices/bulb-1/status HTTP/1.1\r\n{head}\r\n")
        assert (first[0], second[0]) == (200, 200)
        assert json.loads(second[1])["body"]["deviceId"] == "bulb-1"

    def test_negative_content_length_is_answered_at_once(self, mock_cloud):
        handle, _ = mock_cloud
        with socket.create_connection(("127.0.0.1", handle.port), timeout=1.0) as sock:
            status, _ = raw_exchange(sock, "POST /v1.1/devices/bot-1/commands HTTP/1.1\r\n"
                                        f"Host: x\r\nAuthorization: {handle.token}\r\n"
                                        "Content-Length: -1\r\n\r\n")
        assert status == 400
        assert handle.presses == []

    @pytest.mark.parametrize("method", ["PUT", "DELETE", "PATCH", "OPTIONS"])
    def test_other_methods_are_404_and_act_on_nothing(self, mock_cloud, method):
        handle, _ = mock_cloud
        body = '{"command":"press","parameter":"default","commandType":"command"}'
        request = (f"{method} /v1.1/devices/bot-1/commands HTTP/1.1\r\n"
                   f"Host: x\r\nAuthorization: {handle.token}\r\n"
                   f"Content-Length: {len(body)}\r\n\r\n{body}")
        with socket.create_connection(("127.0.0.1", handle.port), timeout=1.0) as sock:
            status, reply = raw_exchange(sock, request)
        assert status == 404
        assert json.loads(reply)["message"] == "no such endpoint"
        assert handle.presses == []

    @pytest.mark.parametrize("body", [
        b"[" * 100_000 + b"]" * 100_000,
        b'{"command":"setBrightness","parameter":' + b"1" * 5000 + b"}",
        b'["press"]',
        b'"press"',
    ], ids=["deep-nesting", "huge-int", "array", "string"])
    def test_hostile_command_body_is_400(self, mock_cloud, body):
        handle, client = mock_cloud
        reply = requests.post(f"{handle.base_url}/v1.1/devices/bulb-1/commands", data=body,
                              headers={"Authorization": handle.token}, timeout=5)
        assert reply.status_code == 400
        assert reply.json()["message"] == "malformed command body"
        assert client.get_status("bulb-1").state == {"power": "off", "brightness": 100}

    def test_port_in_use_is_startup_error(self, mock_cloud):
        handle, _ = mock_cloud
        with pytest.raises(GatewayStartupError):
            start_mock(port=handle.port)

    @pytest.mark.parametrize("port", [70000, -1])
    def test_out_of_range_port_is_startup_error(self, port):
        with pytest.raises(GatewayStartupError):
            start_mock(port=port)

    def test_http_state_matches_oracle_replay(self, mock_cloud):
        # Drive a random command sequence over HTTP, replay the same sequence
        # through the independent oracle, then compare every device's state.
        handle, client = mock_cloud
        rng = random.Random(0x5EED)
        fixture = default_workshop_fixture()
        shadow = {d.device_id: dict(d.state) for d in fixture.devices}
        types = {d.device_id: d.device_type.value for d in fixture.devices}
        ids = list(shadow)
        for _ in range(120):
            device_id = rng.choice(ids)
            command = rng.choice(["turnOn", "turnOff", "setBrightness", "press"])
            parameter = rng.randint(1, 100) if command == "setBrightness" else "default"
            expected = oracle_apply(types[device_id], shadow[device_id], command, parameter)
            reply = requests.post(
                f"{handle.base_url}/v1.1/devices/{device_id}/commands",
                json={"command": command, "parameter": parameter, "commandType": "command"},
                headers={"Authorization": handle.token}, timeout=5)
            if expected is None:
                assert reply.status_code == 400
            else:
                assert reply.status_code == 200
                shadow[device_id] = expected
        for device_id in ids:
            assert client.get_status(device_id).state == shadow[device_id], device_id


class TestDispatch:
    def test_turn_on_through_dispatch(self, mock_cloud):
        _, client = mock_cloud
        response = dispatch(SmartHomeRequest("turn_on", ["bulb-1"]), client)
        assert response.status is ResponseStatus.OK
        assert client.get_status("bulb-1").state["power"] == "on"

    def test_denied_function(self, mock_cloud):
        _, client = mock_cloud
        response = dispatch(SmartHomeRequest("shutdown_os", []), client)
        assert response.status is ResponseStatus.NOT_FOUND
        assert response.body.code is ErrorCode.UNKNOWN_FUNCTION

    def test_arity_mismatch(self, mock_cloud):
        _, client = mock_cloud
        response = dispatch(SmartHomeRequest("turn_on", ["bulb-1", "extra"]), client)
        assert response.body.code is ErrorCode.MALFORMED_PAYLOAD

    def test_unknown_device_maps_to_404(self, mock_cloud):
        _, client = mock_cloud
        response = dispatch(SmartHomeRequest("turn_on", ["ghost-1"]), client)
        assert response.status is ResponseStatus.NOT_FOUND
        assert response.body.code is ErrorCode.DEVICE_FAULT

    def test_invalid_parameter_maps_to_400(self, mock_cloud):
        _, client = mock_cloud
        response = dispatch(
            SmartHomeRequest("set_brightness", ["bulb-1"], {"level": 999}), client)
        assert response.status is ResponseStatus.BAD_REQUEST
        assert response.body.code is ErrorCode.MALFORMED_PAYLOAD

    def test_press_on_meter_maps_to_malformed_payload(self, mock_cloud):
        _, client = mock_cloud
        response = dispatch(SmartHomeRequest("press", ["meter-1"]), client)
        assert response.body.code is ErrorCode.MALFORMED_PAYLOAD

    def test_transport_failure_is_device_fault(self):
        client = SmartHomeClient("http://127.0.0.1:1", "t", timeout_s=0.5)
        response = dispatch(SmartHomeRequest("list_devices"), client)
        assert response.status is ResponseStatus.HANDLER_ERROR
        assert response.body.code is ErrorCode.DEVICE_FAULT

    def test_dispatch_equals_direct_invocation(self, mock_cloud):
        # Oracle: calling the client method directly must give the same
        # canonical JSON as going through dispatch.
        _, client = mock_cloud
        rng = random.Random(0xD15)
        bulbs = [f"bulb-{i}" for i in range(1, 5)]
        switchable = bulbs + [f"plug-{i}" for i in range(1, 5)] + \
            [f"bot-{i}" for i in range(1, 5)] + ["humidifier-1", "circulator-1", "circulator-2"]
        everything = [d.device_id for d in client.list_devices()]
        for _ in range(150):
            req = _random_allowed_request(rng, bulbs, switchable, everything)
            via_dispatch = dispatch(req, client)
            assert via_dispatch.status is ResponseStatus.OK, via_dispatch
            direct = _call_directly(client, req)
            assert via_dispatch.body == result_to_canonical_json(direct)

    def test_fuzzed_names_never_reach_the_client(self):
        # A client pointed at a dead address: if any fuzzed name slipped the
        # allow-list, dispatch would surface a DeviceFault instead.
        client = SmartHomeClient("http://127.0.0.1:1", "t", timeout_s=0.2)
        rng = random.Random(0xF022)
        alphabet = string.ascii_letters + string.digits + "_."
        for _ in range(2000):
            name = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 24)))
            if name in ALLOW_LIST:
                continue
            response = dispatch(SmartHomeRequest(name, []), client)
            assert response.body.code is ErrorCode.UNKNOWN_FUNCTION

    def test_gateway_handler_end_to_end(self, mock_cloud):
        _, client = mock_cloud
        handler = make_gateway_handler(client)
        ok = handler('{"function_name":"turn_on","args":["plug-2"]}')
        assert ok.status is ResponseStatus.OK
        bad = handler("not json")
        assert bad.body.code is ErrorCode.MALFORMED_PAYLOAD


def _random_allowed_request(rng, bulbs, switchable, everything) -> SmartHomeRequest:
    name = rng.choice(list(ALLOW_LIST))
    if name == "list_devices":
        return SmartHomeRequest(name)
    if name == "set_brightness":
        level = rng.randint(1, 100)
        if rng.random() < 0.5:
            return SmartHomeRequest(name, [rng.choice(bulbs)], {"level": level})
        return SmartHomeRequest(name, [rng.choice(bulbs), level])
    if name == "press":
        return SmartHomeRequest(name, [rng.choice([f"bot-{i}" for i in range(1, 5)])])
    if name == "get_status":
        return SmartHomeRequest(name, [rng.choice(everything)])
    return SmartHomeRequest(name, [rng.choice(switchable)])


def _call_directly(client, req):
    table = {
        "list_devices": client.list_devices,
        "turn_on": client.turn_on,
        "turn_off": client.turn_off,
        "set_brightness": client.set_brightness,
        "press": client.press,
        "get_status": client.get_status,
    }
    return table[req.function_name](*req.args, **req.kwargs)


def test_canonical_json_of_listing_is_stable(mock_cloud):
    _, client = mock_cloud
    first = result_to_canonical_json(client.list_devices())
    second = result_to_canonical_json(client.list_devices())
    assert first == second
    assert canonical_json({"x": 1}) == '{"x":1}'
