"""Reply oracles. Each check returns None for a correct reply, else a reason.

The oracles are written from the documented device and cloud behaviour, not
from the program's code, so a reply the program gets wrong is caught here.
"""

from __future__ import annotations

import json
from urllib.parse import urlsplit

from inputs import ROSTER


def _response_text(status: int, body: bytes):
    """The OK reply's response string, or (None, reason)."""
    if status != 200:
        return None, f"status {status}, expected 200: {body[:200]!r}"
    try:
        doc = json.loads(body)
    except ValueError:
        return None, f"reply is not JSON: {body[:200]!r}"
    if not isinstance(doc, dict) or not isinstance(doc.get("response"), str):
        return None, f"reply has no response string: {body[:200]!r}"
    return doc["response"], None


def _error_code(status: int, body: bytes, want_status: int, want_code: str):
    if status != want_status:
        return f"status {status}, expected {want_status}: {body[:200]!r}"
    try:
        code = json.loads(body)["error"]["code"]
    except (ValueError, KeyError, TypeError):
        return f"reply is not an error document: {body[:200]!r}"
    return None if code == want_code else f"error code {code}, expected {want_code}"


# -- device routes -------------------------------------------------------------

def device_reply(route: str, payload: str) -> str:
    """What a fresh or running device answers, for every route but doorbell."""
    if route == "fan":
        return "Running" if payload == "on" else "Stopped"
    if route == "gpio":
        return "High" if payload == "on" else "Low"
    if route == "lamp":
        return str(min(100, 20 * int(payload.strip())))
    if route == "piano":
        return f"{110.0 * 2.0 ** (int(payload.strip()) / 12.0):.2f}"
    raise ValueError(f"no stateless oracle for route {route!r}")


def check_device(request: dict, status: int, body: bytes):
    """Check one device-route reply. Doorbell counts are checked as a set later."""
    if not request["requestId"]:
        return _error_code(status, body, 400, "MalformedEnvelope")
    text, reason = _response_text(status, body)
    if reason:
        return reason
    route = request["route"]
    if route == "doorbell":
        return None if text.isdigit() and int(text) >= 1 else f"chime count {text!r}"
    payload = json.loads(request["body"])["request"]
    want = device_reply(route, payload)
    return None if text == want else f"{route} {payload!r} -> {text!r}, expected {want!r}"


def check_chimes(counts: list[int]) -> int:
    """Doorbell replies from all connections must form exactly 1..N.

    Returns how many replies are missing from or extra to that set.
    """
    want = set(range(1, len(counts) + 1))
    got = set(counts)
    return len(want - got) + (len(counts) - len(got & want))


# -- smart-home default route --------------------------------------------------

class SmartHomeModel:
    """One connection's view of the cloud: exact for the half of the roster it
    writes to, shape only for the other connection's half."""

    def __init__(self, conn: int):
        self.state = {d["deviceId"]: dict(d["state"]) for d in ROSTER}
        self.types = {d["deviceId"]: d["deviceType"] for d in ROSTER}
        self.own = {d["deviceId"] for d in ROSTER[conn::2]}

    def status(self, device_id: str) -> dict:
        return {"deviceId": device_id, "deviceType": self.types[device_id],
                **self.state[device_id]}

    def check(self, request: dict, status: int, body: bytes):
        payload = json.loads(json.loads(request["body"])["request"])
        name, args, kwargs = payload["function_name"], payload["args"], payload["kwargs"]
        call = _bind(name, args, kwargs)
        if call is None:
            return _error_code(status, body, 404, "UnknownFunction")
        if call is False:
            return _error_code(status, body, 400, "MalformedPayload")
        text, reason = _response_text(status, body)
        if reason:
            return reason
        try:
            result = json.loads(text)
        except ValueError:
            return f"{name}: response is not JSON: {text[:200]!r}"
        if name == "list_devices":
            return self._check_roster(result)
        device_id = call["device_id"]
        state = self.state[device_id]
        if name == "turn_on":
            state["power"] = "on"
        elif name == "turn_off":
            state["power"] = "off"
        elif name == "set_brightness":
            state.update(power="on", brightness=call["level"])
        want = self.status(device_id)
        return None if result == want else f"{name} {device_id}: {result!r}, expected {want!r}"

    def _check_roster(self, listing):
        if not isinstance(listing, list) or len(listing) != len(ROSTER):
            return f"list_devices: {len(listing) if isinstance(listing, list) else listing!r}" \
                   f" entries, expected {len(ROSTER)}"
        for entry, device in zip(listing, ROSTER):
            device_id = device["deviceId"]
            head = {"deviceId": device_id, "deviceType": device["deviceType"],
                    "deviceName": device["name"]}
            if {k: entry.get(k) for k in head} != head:
                return f"list_devices: entry {entry!r}, expected {head!r}"
            state = {k: v for k, v in entry.items() if k not in head}
            if device_id in self.own:
                if state != self.state[device_id]:
                    return f"list_devices: {device_id} state {state!r}"
            elif set(state) != set(device["state"]) or (
                    "power" in state and state["power"] not in ("on", "off")):
                return f"list_devices: {device_id} state shape {state!r}"
        return None


_SIGNATURES = {
    "list_devices": (),
    "get_status": ("device_id",),
    "turn_on": ("device_id",),
    "turn_off": ("device_id",),
    "press": ("device_id",),
    "set_brightness": ("device_id", "level"),
}


def _bind(name: str, args: list, kwargs: dict):
    """Bound arguments of an allow-listed call; None if unknown, False if unbindable."""
    params = _SIGNATURES.get(name)
    if params is None:
        return None
    if len(args) > len(params):
        return False
    bound = dict(zip(params, args))
    for key, value in kwargs.items():
        if key not in params or key in bound:
            return False
        bound[key] = value
    if set(bound) != set(params):
        return False
    return bound


# -- world replay ------------------------------------------------------------------

class _StubReply:
    def __init__(self, text: str):
        self.status_code = 200
        self.text = json.dumps({"response": text}, separators=(",", ":"))

    def json(self):
        return json.loads(self.text)


class StubSession:
    """Answers world callouts from in-process devices, without HTTP.

    The device state lives across scenario chunks, as it does in the gateway.
    ``replies`` maps each envelope's requestId to the reply it got, which the
    request-log order check uses.
    """

    def __init__(self):
        self.chimes = 0
        self.replies: dict[str, str] = {}

    def post(self, url, data=None, headers=None, timeout=None):
        route = urlsplit(url).path.rstrip("/").rsplit("/", 1)[-1]
        envelope = json.loads(data)
        if route == "doorbell":
            self.chimes += 1
            text = str(self.chimes)
        else:
            text = device_reply(route, envelope["request"])
        self.replies[envelope["requestId"]] = text
        return _StubReply(text)


def diff_reports(got, want) -> int:
    """Count calls whose record differs between two world reports.

    A difference outside the call records (the summary counts) counts as one.
    """
    calls = sum(1 for a, b in zip(got.calls, want.calls) if a != b)
    calls += abs(len(got.calls) - len(want.calls))
    if calls == 0 and got.to_json() != want.to_json():
        return 1
    return calls


# -- request log against device event log ------------------------------------------------

def _event_text(state) -> str:
    if isinstance(state, dict):
        return str(state.get("level"))
    if isinstance(state, float):
        return f"{state:.2f}"
    return str(state)


def order_violations(log_lines: list[dict], events: list[dict], replies: dict[str, str],
                     routes) -> int:
    """Positions where a device's event order disagrees with the request log.

    For each device key, the 200 records of its route in request-log arrival
    order must line up with the device's events in event order: the n-th
    logged request's reply equals the state the n-th event produced. Swaps of
    two requests with the same reply cannot be seen, so this is a lower bound.
    """
    by_route: dict[str, list[str]] = {r: [] for r in routes}
    for rec in sorted(log_lines, key=lambda r: r["arrivalOrder"]):
        route = rec.get("route")
        if route in by_route and rec.get("dispatched") and rec.get("status") == 200:
            by_route[route].append(replies.get(rec.get("requestId"), "?"))
    by_key: dict[str, list[str]] = {r: [] for r in routes}
    for ev in sorted(events, key=lambda e: (e["deviceKey"], e["order"])):
        if ev["deviceKey"] in by_key:
            by_key[ev["deviceKey"]].append(_event_text(ev["state"]))
    violations = 0
    for route in routes:
        logged, applied = by_route[route], by_key[route]
        violations += sum(1 for a, b in zip(logged, applied) if a != b)
        violations += abs(len(logged) - len(applied))
    return violations
