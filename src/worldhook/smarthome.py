"""Smart-home cloud emulation: mock server, web-API client, and dispatcher.

The mock server speaks a v1.1-style REST shape over bearer-token auth::

    GET  /v1.1/devices
    POST /v1.1/devices/{id}/commands      {"command", "parameter", "commandType"}
    GET  /v1.1/devices/{id}/status

with every response wrapped as ``{"statusCode", "message", "body"}``; any other
method or path gets a 404 "no such endpoint". It runs
on :class:`worldhook.httpserver.Server`, as the gateway does. The
client is a thin typed wrapper over those endpoints, and ``dispatch`` executes
command payloads of the form ``{"function_name", "args", "kwargs"}`` against
the client through an explicit allow-list table, so nothing outside that table
is reachable from the network no matter what the payload says.
"""

from __future__ import annotations

import http.client
import inspect
import json
import re
import threading
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Mapping, Optional
from urllib.parse import quote, unquote

from .envelope import (
    ErrorCode,
    GatewayError,
    HandlerResponse,
    ResponseStatus,
    SmartHomeRequest,
    canonical_json,
    parse_smarthome_request,
)
from .httpclient import Session
from .httpserver import App, Server

DEFAULT_TOKEN = "workshop-token"
API_PREFIX = "/v1.1"


class DeviceType(Enum):
    HUB = "Hub"
    BULB = "Bulb"
    PLUG = "Plug"
    BOT = "Bot"
    LED_STRIP = "LedStrip"
    METER = "Meter"
    MOTION_SENSOR = "MotionSensor"
    CAMERA = "Camera"
    HUMIDIFIER = "Humidifier"
    CIRCULATOR = "Circulator"
    REMOTE_BUTTON = "RemoteButton"


#: Types whose state is a switchable power record.
POWER_TYPES = {DeviceType.BULB, DeviceType.PLUG, DeviceType.BOT,
               DeviceType.CIRCULATOR, DeviceType.HUMIDIFIER}


def default_state(device_type: DeviceType) -> dict:
    if device_type is DeviceType.BULB:
        return {"power": "off", "brightness": 100}
    if device_type in POWER_TYPES:
        return {"power": "off"}
    if device_type is DeviceType.METER:
        return {"temperature": 25.0, "humidity": 50, "co2": 800}
    return {}  # presence-only devices carry no mutable state


@dataclass
class SmartHomeDevice:
    device_id: str
    device_type: DeviceType
    name: str
    state: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "deviceId": self.device_id,
            "deviceType": self.device_type.value,
            "deviceName": self.name,
            **self.state,
        }


@dataclass(frozen=True)
class CommandRequest:
    command: str
    parameter: Any = "default"
    command_type: str = "command"

    def to_json_dict(self) -> dict:
        return {"command": self.command, "parameter": self.parameter,
                "commandType": self.command_type}


@dataclass(frozen=True)
class DeviceStatus:
    device_id: str
    device_type: DeviceType
    state: dict

    def to_json_dict(self) -> dict:
        return {"deviceId": self.device_id, "deviceType": self.device_type.value,
                **self.state}


@dataclass
class Fixture:
    """The mock cloud's device roster plus its bearer token."""

    token: str = DEFAULT_TOKEN
    devices: list[SmartHomeDevice] = field(default_factory=list)

    @classmethod
    def load(cls, path: str | Path) -> "Fixture":
        """Raises ValueError naming the entry and the key when an entry is malformed."""
        doc = json.loads(Path(path).read_text("utf-8"))
        entries = doc.get("devices", []) if isinstance(doc, dict) else None
        if not isinstance(entries, list):
            raise ValueError(f"{path}: expected an object with a list of devices")
        devices = []
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: device {i} is not an object: {entry!r}")
            for key in ("deviceId", "deviceType"):
                if key not in entry:
                    raise ValueError(f"{path}: device {i} lacks {key!r}")
            try:
                device_type = DeviceType(entry["deviceType"])
                devices.append(SmartHomeDevice(
                    device_id=entry["deviceId"],
                    device_type=device_type,
                    name=entry.get("name", entry["deviceId"]),
                    state=dict(entry.get("state") or default_state(device_type)),
                ))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: device {i}: {exc}") from None
        return cls(token=doc.get("token", DEFAULT_TOKEN), devices=devices)


def default_workshop_fixture(token: str = DEFAULT_TOKEN) -> Fixture:
    """The 27-device bench used in the one-day workshop setting."""
    devices: list[SmartHomeDevice] = []

    def add(count: int, prefix: str, device_type: DeviceType, label: str):
        for i in range(1, count + 1):
            devices.append(SmartHomeDevice(
                device_id=f"{prefix}-{i}",
                device_type=device_type,
                name=f"{label} {i}",
                state=default_state(device_type),
            ))

    add(2, "hub", DeviceType.HUB, "Hub")
    add(2, "camera", DeviceType.CAMERA, "Smart Camera")
    add(4, "motion", DeviceType.MOTION_SENSOR, "Motion Sensor")
    add(1, "meter", DeviceType.METER, "Climate Meter")
    add(1, "ledstrip", DeviceType.LED_STRIP, "LED Strip")
    add(4, "bulb", DeviceType.BULB, "Smart Bulb")
    add(4, "plug", DeviceType.PLUG, "Smart Plug")
    add(4, "bot", DeviceType.BOT, "Press Bot")
    add(1, "humidifier", DeviceType.HUMIDIFIER, "Humidifier")
    add(2, "button", DeviceType.REMOTE_BUTTON, "Remote Button")
    add(2, "circulator", DeviceType.CIRCULATOR, "Circulator")
    return Fixture(token=token, devices=devices)


# -- command transition table -------------------------------------------------

class CommandError(Exception):
    """Command is invalid for the device type or carries a bad parameter."""


def apply_command(device_type: DeviceType, state: dict, command: str,
                  parameter: Any = "default") -> dict:
    """Apply one command to a state record, returning the new record.

    turnOn/turnOff flip power on switchable devices; setBrightness (bulbs)
    sets 1..100 and implies power on; press (bots) is a momentary actuation
    with no lasting state change.
    """
    if command in ("turnOn", "turnOff"):
        if device_type not in POWER_TYPES:
            raise CommandError(f"{command} not supported by {device_type.value}")
        return {**state, "power": "on" if command == "turnOn" else "off"}
    if command == "setBrightness":
        if device_type is not DeviceType.BULB:
            raise CommandError(f"setBrightness not supported by {device_type.value}")
        if isinstance(parameter, bool) or not isinstance(parameter, int) or not 1 <= parameter <= 100:
            raise CommandError(f"brightness must be an integer in [1, 100], got {parameter!r}")
        return {**state, "power": "on", "brightness": parameter}
    if command == "press":
        if device_type is not DeviceType.BOT:
            raise CommandError(f"press not supported by {device_type.value}")
        return dict(state)
    raise CommandError(f"unknown command {command!r}")


# -- mock cloud server ---------------------------------------------------------

_DEVICES_PATH = re.compile(rf"^{API_PREFIX}/devices/?$")
_STATUS_PATH = re.compile(rf"^{API_PREFIX}/devices/([^/]+)/status/?$")
_COMMANDS_PATH = re.compile(rf"^{API_PREFIX}/devices/([^/]+)/commands/?$")


class _MockState:
    def __init__(self, fixture: Fixture):
        self.lock = threading.Lock()
        self.token = fixture.token
        self.devices: dict[str, SmartHomeDevice] = {}
        for dev in fixture.devices:
            if dev.device_id in self.devices:
                raise ValueError(f"duplicate device id {dev.device_id!r} in fixture")
            self.devices[dev.device_id] = SmartHomeDevice(
                dev.device_id, dev.device_type, dev.name, dict(dev.state))
        self.presses: list[str] = []  # device ids, in actuation order


def _reply(http_status: int, message: str, body: Any) -> tuple[int, bytes]:
    doc = {"statusCode": 100 if http_status == 200 else http_status,
           "message": message, "body": body}
    return http_status, json.dumps(doc, ensure_ascii=False).encode("utf-8")


def _mock_app(state: _MockState) -> App:
    """The mock cloud as an app for :class:`~worldhook.httpserver.Server`."""

    def app(method: str, path: str, headers: Mapping[str, str], body: bytes) -> tuple[int, bytes]:
        if headers.get("Authorization") != state.token:
            return _reply(401, "unauthorized", {})
        if method not in ("GET", "POST"):  # a PUT must never act as a command
            return _reply(404, "no such endpoint", {})
        if method == "GET":
            if _DEVICES_PATH.match(path):
                with state.lock:
                    listing = [dev.to_json_dict() for dev in state.devices.values()]
                return _reply(200, "success", {"deviceList": listing})
            status_match = _STATUS_PATH.match(path)
            if not status_match:
                return _reply(404, "no such endpoint", {})
            device_id = unquote(status_match.group(1))
            with state.lock:
                dev = state.devices.get(device_id)
                if dev is None:
                    return _reply(404, f"device {device_id!r} not found", {})
                status = {"deviceId": dev.device_id, "deviceType": dev.device_type.value,
                          **dev.state}
            return _reply(200, "success", status)
        command_match = _COMMANDS_PATH.match(path)
        if not command_match:
            return _reply(404, "no such endpoint", {})
        device_id = unquote(command_match.group(1))
        try:
            doc = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError):  # includes bad UTF-8 and over-long int literals
            doc = None
        if not isinstance(doc, dict) or "command" not in doc:
            return _reply(400, "malformed command body", {})
        with state.lock:
            dev = state.devices.get(device_id)
            if dev is None:
                return _reply(404, f"device {device_id!r} not found", {})
            try:
                dev.state = apply_command(dev.device_type, dev.state, doc["command"],
                                          doc.get("parameter", "default"))
            except CommandError as exc:
                return _reply(400, str(exc), {})
            if doc["command"] == "press":
                state.presses.append(device_id)
            status = {"deviceId": dev.device_id, "deviceType": dev.device_type.value,
                      **dev.state}
        return _reply(200, "success", status)

    return app


@dataclass
class MockServerHandle:
    port: int
    token: str
    _state: _MockState
    _server: Server

    @property
    def base_url(self) -> str:
        return f"http://127.0.0.1:{self.port}"

    @property
    def presses(self) -> list[str]:
        with self._state.lock:
            return list(self._state.presses)

    def shutdown(self) -> None:
        self._server.stop_listening()
        self._server.close()


def start_mock(fixture: Optional[Fixture] = None, port: int = 0) -> MockServerHandle:
    """Start the in-memory mock cloud; port 0 picks an ephemeral port.

    Raises GatewayStartupError when the port cannot be bound.
    """
    fixture = fixture if fixture is not None else default_workshop_fixture()
    state = _MockState(fixture)
    server = Server(_mock_app(state), port, "worldhook-mock-cloud")
    return MockServerHandle(port=server.port, token=fixture.token, _state=state, _server=server)


# -- client --------------------------------------------------------------------

class SmartHomeError(Exception):
    """Base class for client-side API failures."""


class SmartHomeAuthError(SmartHomeError):
    pass


class SmartHomeNotFoundError(SmartHomeError):
    pass


class SmartHomeCommandError(SmartHomeError):
    pass


class SmartHomeTransportError(SmartHomeError):
    pass


class SmartHomeClient:
    """Typed client for the cloud API; immutable after configuration."""

    def __init__(self, base_url: str, token: str, timeout_s: float = 5.0):
        self.base_url = base_url.rstrip("/")
        self.token = token
        self.timeout_s = timeout_s
        self._session = Session()

    def _request(self, method: str, path: str, payload: Optional[dict] = None) -> Any:
        url = self.base_url + path
        headers = {"Authorization": self.token}
        body = None
        try:
            if payload is not None:
                headers["Content-Type"] = "application/json"
                body = json.dumps(payload, allow_nan=False).encode("utf-8")
            response = self._session.request(method, url, body, headers, self.timeout_s)
        except (ValueError, OSError, http.client.HTTPException) as exc:
            raise SmartHomeTransportError(f"{method} {url}: {exc}") from exc
        try:
            doc = json.loads(response.text)
        except ValueError as exc:
            raise SmartHomeTransportError(f"non-JSON reply from {url}") from exc
        message = doc.get("message", "")
        if response.status_code == 401:
            raise SmartHomeAuthError(message or "unauthorized")
        if response.status_code == 404:
            raise SmartHomeNotFoundError(message or "not found")
        if response.status_code == 400:
            raise SmartHomeCommandError(message or "invalid command")
        if response.status_code != 200:
            raise SmartHomeError(f"unexpected status {response.status_code}: {message}")
        return doc.get("body")

    @staticmethod
    def _status_from(body: dict) -> DeviceStatus:
        state = {k: v for k, v in body.items() if k not in ("deviceId", "deviceType")}
        return DeviceStatus(body["deviceId"], DeviceType(body["deviceType"]), state)

    def list_devices(self) -> list[SmartHomeDevice]:
        body = self._request("GET", f"{API_PREFIX}/devices")
        devices = []
        for entry in body.get("deviceList", []):
            state = {k: v for k, v in entry.items()
                     if k not in ("deviceId", "deviceType", "deviceName")}
            devices.append(SmartHomeDevice(entry["deviceId"], DeviceType(entry["deviceType"]),
                                           entry.get("deviceName", ""), state))
        return devices

    def get_status(self, device_id: str) -> DeviceStatus:
        path = f"{API_PREFIX}/devices/{quote(str(device_id), safe='')}/status"
        return self._status_from(self._request("GET", path))

    def send_command(self, device_id: str, cmd: CommandRequest) -> DeviceStatus:
        path = f"{API_PREFIX}/devices/{quote(str(device_id), safe='')}/commands"
        body = self._request("POST", path, cmd.to_json_dict())
        return self._status_from(body)

    def turn_on(self, device_id: str) -> DeviceStatus:
        return self.send_command(device_id, CommandRequest("turnOn"))

    def turn_off(self, device_id: str) -> DeviceStatus:
        return self.send_command(device_id, CommandRequest("turnOff"))

    def set_brightness(self, device_id: str, level: int) -> DeviceStatus:
        return self.send_command(device_id, CommandRequest("setBrightness", level))

    def press(self, device_id: str) -> DeviceStatus:
        return self.send_command(device_id, CommandRequest("press"))


# -- reflective dispatch through the allow-list ---------------------------------

#: The only client functions reachable via payload dispatch. An explicit table,
#: not attribute lookup: names outside it cannot reach the client at all.
ALLOW_LIST: dict[str, Any] = {
    "list_devices": SmartHomeClient.list_devices,
    "turn_on": SmartHomeClient.turn_on,
    "turn_off": SmartHomeClient.turn_off,
    "set_brightness": SmartHomeClient.set_brightness,
    "press": SmartHomeClient.press,
    "get_status": SmartHomeClient.get_status,
}


def result_to_canonical_json(result: Any) -> str:
    """Canonical JSON text of a client result (status, device, or list)."""
    if isinstance(result, list):
        return canonical_json([item.to_json_dict() for item in result])
    return canonical_json(result.to_json_dict())


def dispatch(req: SmartHomeRequest, client: SmartHomeClient) -> HandlerResponse:
    """Execute one parsed smart-home request against the client.

    Unknown names never touch the client; argument mismatches are rejected
    before the call; transport and device failures map to structured errors.
    """
    func = ALLOW_LIST.get(req.function_name)
    if func is None:
        return HandlerResponse.from_error(GatewayError(
            ErrorCode.UNKNOWN_FUNCTION,
            f"function {req.function_name!r} is not in the allow-list"))
    try:
        inspect.signature(func).bind(client, *req.args, **req.kwargs)
    except TypeError as exc:
        return HandlerResponse.from_error(GatewayError(
            ErrorCode.MALFORMED_PAYLOAD,
            f"bad arguments for {req.function_name}: {exc}"))
    try:
        result = func(client, *req.args, **req.kwargs)
    except SmartHomeNotFoundError as exc:
        return HandlerResponse.from_error(
            GatewayError(ErrorCode.DEVICE_FAULT, str(exc)), ResponseStatus.NOT_FOUND)
    except SmartHomeCommandError as exc:
        return HandlerResponse.from_error(
            GatewayError(ErrorCode.MALFORMED_PAYLOAD, str(exc)))
    except SmartHomeError as exc:
        return HandlerResponse.from_error(GatewayError(ErrorCode.DEVICE_FAULT, str(exc)))
    return HandlerResponse.ok(result_to_canonical_json(result))


def make_gateway_handler(client: SmartHomeClient):
    """A gateway handler that treats each payload as a smart-home request."""
    def handler(payload: str) -> HandlerResponse:
        parsed = parse_smarthome_request(payload)
        if isinstance(parsed, GatewayError):
            return HandlerResponse.from_error(parsed)
        return dispatch(parsed, client)
    return handler
