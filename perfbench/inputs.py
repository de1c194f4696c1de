"""Seeded input generators for the three workloads.

Every generator is a pure function of the workload seed: the same seed gives
byte-identical request bodies and scenarios, which ``run.py`` writes out
before the timed phase so the program under test only ever receives inputs.
"""

from __future__ import annotations

import json
import random

DEVICE_ROUTES = ("fan", "doorbell", "lamp", "piano", "gpio")
HOT_ROUTE = "doorbell"  # about half the device mix, so both connections contend on it
MALFORMED_SHARE = 0.05
SMARTHOME_TOKEN = "bench-token"

# The workshop roster: (id prefix, wire type, display label, count, initial state).
_ROSTER_GROUPS = (
    ("hub", "Hub", "Hub", 2, {}),
    ("camera", "Camera", "Smart Camera", 2, {}),
    ("motion", "MotionSensor", "Motion Sensor", 4, {}),
    ("meter", "Meter", "Climate Meter", 1, {"temperature": 25.0, "humidity": 50, "co2": 800}),
    ("ledstrip", "LedStrip", "LED Strip", 1, {}),
    ("bulb", "Bulb", "Smart Bulb", 4, {"power": "off", "brightness": 100}),
    ("plug", "Plug", "Smart Plug", 4, {"power": "off"}),
    ("bot", "Bot", "Press Bot", 4, {"power": "off"}),
    ("humidifier", "Humidifier", "Humidifier", 1, {"power": "off"}),
    ("button", "RemoteButton", "Remote Button", 2, {}),
    ("circulator", "Circulator", "Circulator", 2, {"power": "off"}),
)
ROSTER = tuple(
    {"deviceId": f"{prefix}-{i}", "deviceType": dtype, "name": f"{label} {i}",
     "state": dict(state)}
    for prefix, dtype, label, count, state in _ROSTER_GROUPS
    for i in range(1, count + 1)
)
POWER_TYPES = {"Bulb", "Plug", "Bot", "Humidifier", "Circulator"}

# Function names outside the gateway's allow-list (404) and calls whose
# arguments do not bind (400); neither reaches the cloud.
UNKNOWN_FUNCTIONS = ("reboot", "delete_device", "send_command", "_request", "__init__")


def _dumps(doc) -> str:
    return json.dumps(doc, ensure_ascii=False, separators=(",", ":"))


def _rng(seed: int, *parts) -> random.Random:
    return random.Random(":".join(str(p) for p in (seed, *parts)))


def _malformed_body(rng: random.Random, rid: str) -> str:
    kind = rng.randrange(5)
    if kind == 0:
        return '{"request": "on", "requestId": '  # truncated JSON
    if kind == 1:
        return '["on"]'
    if kind == 2:
        return _dumps({"requestId": rid, "itemId": "fan"})
    if kind == 3:
        return _dumps({"request": 5, "requestId": rid})
    return _dumps({"request": "on", "requestId": rid, "timestampMs": -1})


def device_requests(seed: int, conn: int, count: int) -> list[dict]:
    """One connection's device callouts: ``{"route", "body", "requestId"}``.

    ``requestId`` is "" for malformed bodies, which must get a 400.
    """
    rng = _rng(seed, "device", conn)
    others = [r for r in DEVICE_ROUTES if r != HOT_ROUTE]
    out = []
    for i in range(count):
        route = HOT_ROUTE if rng.random() < 0.5 else rng.choice(others)
        rid = f"d{seed}-{conn}-{i}"
        if rng.random() < MALFORMED_SHARE:
            out.append({"route": route, "body": _malformed_body(rng, rid), "requestId": ""})
            continue
        if route in ("fan", "gpio"):
            payload = rng.choice(("on", "off"))
        elif route == "lamp":
            payload = str(rng.randint(0, 10))
        elif route == "piano":
            payload = str(rng.randint(0, 44))
        else:
            payload = "ring"
        body = _dumps({"request": payload, "requestId": rid, "worldId": "bench",
                       "itemId": route, "userId": f"u{rng.randint(1, 50)}",
                       "timestampMs": i})
        out.append({"route": route, "body": body, "requestId": rid})
    return out


def _call(name: str, args: list, kwargs: dict | None = None) -> str:
    return _dumps({"function_name": name, "args": args, "kwargs": kwargs or {}})


def _device_arg(rng: random.Random, device_id: str, extra: dict | None = None):
    """Positional or keyword form of the same call, chosen by the seed."""
    if rng.random() < 0.2:
        return [], {"device_id": device_id, **(extra or {})}
    return [device_id, *(extra or {}).values()], {}


def smarthome_requests(seed: int, conn: int, count: int) -> list[dict]:
    """One connection's smart-home callouts on the default route.

    Each connection writes only to its own half of the roster, so its replies
    are predictable whatever the other connection does. Every request carries
    a distinct ``itemId``, as distinct items of a large world would.
    """
    rng = _rng(seed, "smarthome", conn)
    own = ROSTER[conn::2]
    power = [d["deviceId"] for d in own if d["deviceType"] in POWER_TYPES]
    bulbs = [d["deviceId"] for d in own if d["deviceType"] == "Bulb"]
    bots = [d["deviceId"] for d in own if d["deviceType"] == "Bot"]
    ids = [d["deviceId"] for d in own]
    out = []
    for i in range(count):
        r = rng.random()
        if r < 0.15:
            payload = _call("turn_on", *_device_arg(rng, rng.choice(power)))
        elif r < 0.30:
            payload = _call("turn_off", *_device_arg(rng, rng.choice(power)))
        elif r < 0.40:
            payload = _call("set_brightness", *_device_arg(
                rng, rng.choice(bulbs), {"level": rng.randint(1, 100)}))
        elif r < 0.50:
            payload = _call("press", *_device_arg(rng, rng.choice(bots)))
        elif r < 0.75:
            payload = _call("get_status", *_device_arg(rng, rng.choice(ids)))
        elif r < 0.90:
            payload = _call("list_devices", [])
        elif r < 0.95:
            payload = _call(rng.choice(UNKNOWN_FUNCTIONS), [rng.choice(ids)])
        else:
            payload = rng.choice((
                _call("turn_on", []),
                _call("set_brightness", [rng.choice(bulbs)]),
                _call("get_status", [rng.choice(ids), "extra"]),
                _call("press", [rng.choice(bots)], {"force": True}),
                _call("list_devices", ["all"]),
            ))
        rid = f"s{seed}-{conn}-{i}"
        body = _dumps({"request": payload, "requestId": rid, "worldId": "bench",
                       "itemId": f"item-{seed}-{conn}-{i}", "userId": f"u{conn}",
                       "timestampMs": i})
        out.append({"route": "", "body": body, "requestId": rid})
    return out


def smarthome_fixture() -> dict:
    """The mock cloud's fixture file: the roster above behind the bench token."""
    return {"token": SMARTHOME_TOKEN, "devices": [dict(d) for d in ROSTER]}


# -- world scenarios ---------------------------------------------------------

WORLD_USERS = 6
RATE_LIMIT = {"maxCalls": 5, "windowMs": 1000}
# Every chunk holds one burst of each size. Bursts are spaced further apart
# than the limiter window, so each chunk drops exactly sum(max(0, b - 5)) =
# 15 of 55 calls (27%), whatever the seed.
BURST_SIZES = tuple(range(1, 11))
_BURST_GAP_MS = 1100
_CLICK_GAP_MS = 40


def _world_items(rng: random.Random) -> list[dict]:
    notes = [str(n) for n in rng.sample(range(45), 8)]
    return [
        {"itemId": "fan-switch", "kind": "Clickable",
         "script": {"targetRoute": "/fan", "payloadTemplate": ["on", "off"]}},
        {"itemId": "gpio-button", "kind": "Clickable",
         "script": {"targetRoute": "/gpio", "payloadTemplate": ["on", "off"]}},
        {"itemId": "piano-key", "kind": "Clickable",
         "script": {"targetRoute": "/piano", "payloadTemplate": notes}},
        {"itemId": "doorbell-mat", "kind": "FloorRegion",
         "script": {"targetRoute": "/doorbell", "payloadTemplate": "ring"}},
        {"itemId": "lamp-floor", "kind": "FloorRegion",
         "script": {"targetRoute": "/lamp", "payloadTemplate": "$user_count"}},
    ]


def world_chunk(seed: int, index: int) -> dict:
    """Scenario chunk ``index`` of a replay: users join, click and walk in bursts."""
    rng = _rng(seed, "world", index)
    users = [f"u{n}" for n in range(1, WORLD_USERS + 1)]
    items = _world_items(rng)
    events = [{"tMs": 10 * n, "action": "Join", "userId": u} for n, u in enumerate(users)]
    connected = list(users)
    t = 100
    sizes = list(BURST_SIZES)
    rng.shuffle(sizes)
    for size in sizes:
        # Users come and go, so the lamp sees every presence count from 1 up.
        if len(connected) > 1 and rng.random() < 0.4:
            gone = connected.pop(rng.randrange(len(connected)))
            events.append({"tMs": t, "action": "Leave", "userId": gone})
        elif len(connected) < len(users) and rng.random() < 0.4:
            back = rng.choice([u for u in users if u not in connected])
            connected.append(back)
            events.append({"tMs": t, "action": "Join", "userId": back})
        user = rng.choice(connected)
        for _ in range(size):
            item = rng.choice(items)
            action = "Click" if item["kind"] == "Clickable" else "EnterRegion"
            events.append({"tMs": t, "action": action, "userId": user,
                           "itemId": item["itemId"]})
            t += _CLICK_GAP_MS
        t += _BURST_GAP_MS
    return {"seed": rng.getrandbits(31), "rateLimit": dict(RATE_LIMIT),
            "users": [{"userId": u} for u in users], "items": items, "events": events}
