"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they pass.
Each test asserts every sub-condition at its stated tolerance; a failing
condition names itself in the assertion message.
"""

import random
import string
import threading
import time
from pathlib import Path

import requests

from worldhook import (
    DeviceRegistry,
    GatewayConfig,
    HandlerRegistration,
    SmartHomeClient,
    SmartHomeRequest,
    TokenRegistry,
    TunnelMode,
    decode_envelope,
    default_workshop_fixture,
    dispatch,
    encode_envelope,
    make_gateway_handler,
    open_tunnel,
    run,
    run_scenario,
    start_mock,
)
from worldhook.devices import FanState
from worldhook.envelope import ErrorCode, ResponseStatus
from worldhook.smarthome import ALLOW_LIST, result_to_canonical_json
from worldhook.world import load_scenario

from conftest import GatewayEnv, post_trigger
from test_envelope import random_envelope
from test_smarthome import _call_directly, _random_allowed_request

FIXTURES = Path(__file__).parent.parent / "src" / "worldhook" / "fixtures"


def check(num: int, name: str, conditions: list) -> None:
    ok = all(bool(c) for _, c in conditions)
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {name}")
    for description, condition in conditions:
        assert condition, f"criterion {num} ({name}): {description}"


def test_criterion_01_fan_end_to_end():
    env = GatewayEnv()
    started = time.monotonic()
    try:
        scenario = load_scenario(FIXTURES / "fan_3users.json")
        run_scenario(scenario, env.public_url)
        elapsed = time.monotonic() - started
        fan = env.device("fan")
        records = env.records
        arrived = [r.envelope.request for r in records]
        # oracle: apply commands in arrival order (last-command rule)
        expected = FanState.RUNNING if arrived and arrived[-1] == "on" else FanState.STOPPED
        check(1, "end-to-end fan scenario", [
            ("request log has exactly 3 entries", len(records) == 3),
            ("clicks arrived as on/off/on", arrived == ["on", "off", "on"]),
            ("fan final state is Running", fan.state is FanState.RUNNING),
            ("final state matches arrival-order oracle", fan.state is expected),
            ("fan event log equals arrival order",
             [e.command for e in fan.event_log] == arrived),
            ("event orders are 0,1,2", [e.order for e in fan.event_log] == [0, 1, 2]),
            ("runtime under 5 s", elapsed < 5.0),
        ])
    finally:
        env.close()


def test_criterion_02_offline_owner_doorbell():
    env = GatewayEnv()
    started = time.monotonic()
    try:
        scenario = load_scenario(FIXTURES / "doorbell_offline_owner.json")
        report = run_scenario(scenario, env.public_url)
        elapsed = time.monotonic() - started
        owner_declared = any(is_owner for _, is_owner in scenario.users)
        user_ids = {r.envelope.user_id for r in env.records}
        check(2, "offline-owner doorbell", [
            ("scenario declares an owner who never joins",
             owner_declared and "owner" not in user_ids),
            ("two region entries chimed twice", env.device("doorbell").chime_count == 2),
            ("both callouts forwarded", report.forwarded_calls == 2),
            ("runtime under 5 s", elapsed < 5.0),
        ])
    finally:
        env.close()


def test_criterion_03_presence_lamp():
    env = GatewayEnv()
    started = time.monotonic()
    try:
        lamp = env.device("lamp")
        brightness_at_zero = lamp.brightness
        scenario = load_scenario(FIXTURES / "presence_10users.json")
        report = run_scenario(scenario, env.public_url)
        elapsed = time.monotonic() - started
        trace = [int(r) for r in report.responses_for("dome")]
        expected = [min(100, 20 * k) for k in range(1, 11)]
        check(3, "presence lamp", [
            ("brightness before any user is 0", brightness_at_zero == 0),
            ("trace equals min(100, 20k) per step", trace == expected),
            ("trace is non-decreasing", all(a <= b for a, b in zip(trace, trace[1:]))),
            ("runtime under 5 s", elapsed < 5.0),
        ])
    finally:
        env.close()


def test_criterion_04_piano_endpoints():
    from worldhook.devices import ToneSpeaker
    speaker = ToneSpeaker()
    low = speaker.play(0)
    high = speaker.play(44)
    octave_errors = [abs(speaker.play(n + 12) - 2 * speaker.play(n)) for n in range(0, 33)]
    check(4, "piano endpoints and octaves", [
        ("lowest note is 110.00 Hz within 0.01", abs(low - 110.00) <= 0.01),
        ("highest note is 1396.91 Hz within 0.01", abs(high - 1396.91) <= 0.01),
        ("tone(n+12) = 2*tone(n) within 0.01 Hz for n in [0, 32]",
         max(octave_errors) <= 0.01),
    ])


def test_criterion_05_envelope_round_trip_fuzz():
    rng = random.Random(0xACCE)
    failures = 0
    for _ in range(1000):
        env = random_envelope(rng)
        if decode_envelope(encode_envelope(env)) != env:
            failures += 1
    check(5, "envelope round-trip fuzz (1000 samples)", [
        ("zero round-trip failures", failures == 0),
    ])


MALFORMED_BODIES = [
    b"not json",
    b'{"request": 42}',
    b"{}",
    b"[1,2,3]",
    b'"just a string"',
    b'{"request":"ok","timestampMs":"soon"}',
    b'{"request":"ok","userId":123}',
    b'{"request":"trunc',
    b"\xff\xfe\x00garbage",
    b'{"request":"ok","timestampMs":-1}',
]


def test_criterion_06_resilience():
    registration = HandlerRegistration().register_default(lambda p: p)
    handle = run(GatewayConfig(), registration)
    conditions = []
    try:
        for i, body in enumerate(MALFORMED_BODIES):
            reply = requests.post(handle.trigger_url, data=body, timeout=5)
            doc = reply.json()
            conditions.append(
                (f"malformed body {i} yields structured 4xx/5xx",
                 400 <= reply.status_code < 600 and "error" in doc))
            follow_up = post_trigger(handle.trigger_url, f"after-{i}")
            conditions.append(
                (f"valid request after body {i} succeeds", follow_up.status_code == 200))
        conditions.append(("server thread is still alive", handle._thread.is_alive()))
        final = post_trigger(handle.trigger_url, "final")
        conditions.append(("server still answers at the end", final.status_code == 200))
        check(6, "resilience against malformed bodies", conditions)
    finally:
        handle.shutdown()


def test_criterion_07_dispatch_oracle_equivalence():
    mock = start_mock()
    try:
        client = SmartHomeClient(mock.base_url, mock.token)
        rng = random.Random(0x0D1C)
        bulbs = [f"bulb-{i}" for i in range(1, 5)]
        switchable = bulbs + [f"plug-{i}" for i in range(1, 5)] + \
            [f"bot-{i}" for i in range(1, 5)] + \
            ["humidifier-1", "circulator-1", "circulator-2"]
        everything = [d.device_id for d in client.list_devices()]
        mismatches = 0
        for _ in range(500):
            req = _random_allowed_request(rng, bulbs, switchable, everything)
            via_dispatch = dispatch(req, client)
            direct = _call_directly(client, req)
            if via_dispatch.status is not ResponseStatus.OK or \
                    via_dispatch.body != result_to_canonical_json(direct):
                mismatches += 1

        alphabet = string.ascii_letters + string.digits + "_."
        dead_client = SmartHomeClient("http://127.0.0.1:1", "t", timeout_s=0.2)
        rejected = 0
        fuzzed = 0
        while fuzzed < 10_000:
            name = "".join(rng.choice(alphabet) for _ in range(rng.randrange(1, 32)))
            if name in ALLOW_LIST:
                continue
            fuzzed += 1
            response = dispatch(SmartHomeRequest(name, []), dead_client)
            if response.body.code is ErrorCode.UNKNOWN_FUNCTION:
                rejected += 1
        check(7, "dispatch-oracle equivalence and allow-list fuzz", [
            ("500 randomized requests match direct invocation", mismatches == 0),
            ("all 10000 fuzzed names return UnknownFunction", rejected == 10_000),
        ])
    finally:
        mock.shutdown()


def test_criterion_08_smarthome_end_to_end():
    mock = start_mock()
    registry = DeviceRegistry.default()
    registration = HandlerRegistration().register_devices(registry)
    client = SmartHomeClient(mock.base_url, mock.token)
    registration.register_default(make_gateway_handler(client))
    tokens = TokenRegistry()
    handle = run(GatewayConfig(), registration, tokens)
    endpoint = open_tunnel(TunnelMode.LOOPBACK, handle.port, registry=tokens)
    try:
        scenario = load_scenario(FIXTURES / "smarthome_bulb.json")
        report = run_scenario(scenario, endpoint.public_url)
        status = client.get_status("bulb-1")
        roster = client.list_devices()
        fixture = default_workshop_fixture()
        check(8, "smart-home end-to-end", [
            ("world click was forwarded", report.forwarded_calls == 1),
            ("bulb-1 shows power on via GET status", status.state.get("power") == "on"),
            ("default fixture lists exactly 27 devices", len(roster) == 27),
            ("fixture definition also has 27", len(fixture.devices) == 27),
        ])
    finally:
        handle.shutdown()
        mock.shutdown()


def test_criterion_09_concurrent_serialization():
    env = GatewayEnv()
    started = time.monotonic()
    try:
        rng = random.Random(0xC0C0)
        commands = [rng.choice(["on", "off"]) for _ in range(100)]
        barrier = threading.Barrier(100)
        errors = []

        def fire(command):
            try:
                barrier.wait(timeout=20)
                reply = post_trigger(env.trigger_url + "/fan", command, timeout=25)
                if reply.status_code != 200:
                    errors.append(reply.status_code)
            except Exception as exc:  # noqa: BLE001 - collected for the report
                errors.append(repr(exc))

        threads = [threading.Thread(target=fire, args=(c,)) for c in commands]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
        elapsed = time.monotonic() - started

        fan = env.device("fan")
        events = fan.event_log
        log_records = env.records
        arrived = [r.envelope.request for r in log_records]
        # oracle: sequential application of the arrival order
        expected = FanState.RUNNING if arrived and arrived[-1] == "on" else FanState.STOPPED
        check(9, "100 concurrent posts serialize per device key", [
            ("no transport or server errors", errors == []),
            ("device event log holds all 100 commands", len(events) == 100),
            ("device orders are gap-free 0..99",
             [e.order for e in events] == list(range(100))),
            ("request log holds all 100 entries", len(log_records) == 100),
            ("request log arrival order is gap-free",
             [r.arrival_order for r in log_records] == list(range(100))),
            ("device log equals request log arrival order",
             [e.command for e in events] == arrived),
            ("final state equals sequential oracle", fan.state is expected),
            ("runtime under 30 s", elapsed < 30.0),
        ])
    finally:
        env.close()


def test_criterion_10_deterministic_replay():
    scenario = load_scenario(FIXTURES / "fan_3users.json")
    reports = []
    for _ in range(2):
        env = GatewayEnv()
        try:
            reports.append(run_scenario(scenario, env.public_url).to_json().encode("utf-8"))
        finally:
            env.close()
    check(10, "deterministic replay", [
        ("two runs with one seed are byte-identical", reports[0] == reports[1]),
    ])
