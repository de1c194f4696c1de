import json
import random
from pathlib import Path

import pytest

from worldhook.devices import FanState
from worldhook.world import (
    Action,
    AttachedScript,
    ItemKind,
    RateLimiter,
    ScenarioError,
    ScenarioParseError,
    World,
    WorldItem,
    load_scenario,
    make_template_script,
    parse_scenario,
    run_scenario,
)

FIXTURES = Path(__file__).parent.parent / "src" / "worldhook" / "fixtures"


def scenario_doc(**overrides):
    doc = {
        "seed": 1,
        "rateLimit": {"maxCalls": 5, "windowMs": 1000},
        "users": [{"userId": "u1"}],
        "items": [{"itemId": "fan", "kind": "Clickable",
                   "script": {"targetRoute": "/fan", "payloadTemplate": "on"}}],
        "events": [{"tMs": 0, "action": "Join", "userId": "u1"},
                   {"tMs": 10, "action": "Click", "userId": "u1", "itemId": "fan"}],
    }
    doc.update(overrides)
    return doc


class TestScenarioParsing:
    def test_fan_fixture_shape(self):
        scenario = load_scenario(FIXTURES / "fan_3users.json")
        actions = [e.action for e in scenario.events]
        assert actions.count(Action.JOIN) == 3
        assert actions.count(Action.CLICK) == 3
        assert scenario.items[0].item_id == "fan"

    def test_empty_event_list_is_valid(self):
        scenario = parse_scenario(json.dumps(scenario_doc(events=[])))
        assert scenario.events == []

    def test_time_going_backwards_is_an_error(self):
        doc = scenario_doc(events=[
            {"tMs": 100, "action": "Join", "userId": "u1"},
            {"tMs": 50, "action": "Click", "userId": "u1", "itemId": "fan"},
        ])
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario(json.dumps(doc))
        assert excinfo.value.event_index == 1

    def test_bad_json_reports_line(self):
        with pytest.raises(ScenarioParseError) as excinfo:
            parse_scenario('{\n  "seed": 1,\n  broken\n}')
        assert excinfo.value.line == 3

    def test_undeclared_user_rejected(self):
        doc = scenario_doc(events=[{"tMs": 0, "action": "Join", "userId": "ghost"}])
        with pytest.raises(ScenarioParseError):
            parse_scenario(json.dumps(doc))

    def test_undeclared_item_rejected(self):
        doc = scenario_doc(events=[
            {"tMs": 0, "action": "Join", "userId": "u1"},
            {"tMs": 1, "action": "Click", "userId": "u1", "itemId": "ghost"},
        ])
        with pytest.raises(ScenarioParseError):
            parse_scenario(json.dumps(doc))

    def test_action_kind_mismatch_rejected(self):
        doc = scenario_doc(events=[
            {"tMs": 0, "action": "Join", "userId": "u1"},
            {"tMs": 1, "action": "EnterRegion", "userId": "u1", "itemId": "fan"},
        ])
        with pytest.raises(ScenarioParseError):
            parse_scenario(json.dumps(doc))

    def test_unknown_action_rejected(self):
        doc = scenario_doc(events=[{"tMs": 0, "action": "Teleport", "userId": "u1"}])
        with pytest.raises(ScenarioParseError):
            parse_scenario(json.dumps(doc))


class TestRateLimiter:
    def test_allows_up_to_max_in_window(self):
        limiter = RateLimiter(max_calls=5, window_ms=1000)
        results = [limiter.allow("u", 100) for _ in range(10)]
        assert results == [True] * 5 + [False] * 5
        assert limiter.dropped_by_user == {"u": 5}

    def test_window_slides(self):
        limiter = RateLimiter(max_calls=2, window_ms=100)
        assert limiter.allow("u", 0)
        assert limiter.allow("u", 10)
        assert not limiter.allow("u", 50)
        assert limiter.allow("u", 100)  # the call at t=0 has left the window

    def test_users_are_independent(self):
        limiter = RateLimiter(max_calls=1, window_ms=1000)
        assert limiter.allow("a", 0)
        assert limiter.allow("b", 0)
        assert not limiter.allow("a", 1)


class TestWorldActions:
    def test_disconnected_user_click_emits_nothing(self, device_gateway):
        world = World()
        world.add_user("u1")
        world.add_item(WorldItem(
            "fan", ItemKind.CLICKABLE,
            make_template_script(device_gateway.trigger_url + "/fan", "on")))
        world.interact("u1", "fan")  # not connected: silently nothing
        assert world.calls == []
        assert len(device_gateway.handle.request_log) == 0

    def test_unknown_item_raises(self):
        world = World()
        world.join("u1")
        with pytest.raises(ScenarioError):
            world.interact("u1", "ghost")

    def test_click_on_floor_region_raises(self, device_gateway):
        world = World()
        world.join("u1")
        world.add_item(WorldItem(
            "mat", ItemKind.FLOOR_REGION,
            make_template_script(device_gateway.trigger_url + "/doorbell", "ding")))
        with pytest.raises(ScenarioError):
            world.interact("u1", "mat")
        world.enter_region("u1", "mat")
        assert device_gateway.device("doorbell").chime_count == 1

    def test_entry_by_disconnected_user_has_no_effect(self, device_gateway):
        world = World()
        world.add_user("u1")  # never joins
        world.add_item(WorldItem(
            "mat", ItemKind.FLOOR_REGION,
            make_template_script(device_gateway.trigger_url + "/doorbell", "ding")))
        world.enter_region("u1", "mat")
        assert world.calls == []
        assert device_gateway.device("doorbell").chime_count == 0

    def test_response_callback_gets_response_string(self, device_gateway):
        seen = []
        script = AttachedScript(
            target_url=device_gateway.trigger_url + "/fan",
            on_event=lambda ctx: "on",
            on_response=seen.append,
        )
        world = World()
        world.join("u1")
        world.add_item(WorldItem("fan", ItemKind.CLICKABLE, script))
        world.interact("u1", "fan")
        assert seen == ["Running"]

    def test_error_body_message_is_delivered(self, device_gateway):
        seen = []
        script = AttachedScript(
            target_url=device_gateway.trigger_url + "/lamp",
            on_event=lambda ctx: "not-a-number",
            on_response=seen.append,
        )
        world = World()
        world.join("u1")
        world.add_item(WorldItem("lamp", ItemKind.CLICKABLE, script))
        world.interact("u1", "lamp")
        assert len(seen) == 1 and "not a user count" in seen[0]


class TestRunScenario:
    def test_fan_last_write_wins(self, device_gateway):
        scenario = load_scenario(FIXTURES / "fan_3users.json")
        report = run_scenario(scenario, device_gateway.public_url)
        assert report.forwarded_calls == 3
        fan = device_gateway.device("fan")
        # Oracle: replay the gateway's arrival order through the last-command rule.
        arrived = [r.envelope.request for r in device_gateway.records]
        expected = FanState.RUNNING if arrived[-1] == "on" else FanState.STOPPED
        assert fan.state is expected
        assert [e.command for e in fan.event_log] == arrived

    def test_owner_offline_doorbell(self, device_gateway):
        scenario = load_scenario(FIXTURES / "doorbell_offline_owner.json")
        report = run_scenario(scenario, device_gateway.public_url)
        assert device_gateway.device("doorbell").chime_count == 2
        # the owner never connected; all envelopes carry guest ids
        user_ids = {r.envelope.user_id for r in device_gateway.records}
        assert user_ids == {"guest1", "guest2"}
        assert report.final_connected_users == 2

    def test_presence_trace(self, device_gateway):
        scenario = load_scenario(FIXTURES / "presence_10users.json")
        report = run_scenario(scenario, device_gateway.public_url)
        assert report.responses_for("dome") == \
            [str(min(100, 20 * k)) for k in range(1, 11)]

    def test_client_context_fidelity(self, device_gateway):
        scenario = load_scenario(FIXTURES / "fan_3users.json")
        run_scenario(scenario, device_gateway.public_url)
        records = device_gateway.records
        assert [r.envelope.user_id for r in records] == ["u1", "u2", "u3"]
        assert all(r.envelope.item_id == "fan" for r in records)

    def test_rate_limited_calls_drop_silently(self, device_gateway):
        doc = scenario_doc(
            rateLimit={"maxCalls": 5, "windowMs": 1000},
            events=[{"tMs": 0, "action": "Join", "userId": "u1"}] + [
                {"tMs": 10, "action": "Click", "userId": "u1", "itemId": "fan"}
                for _ in range(10)
            ],
        )
        report = run_scenario(parse_scenario(json.dumps(doc)), device_gateway.public_url)
        assert report.forwarded_calls == 5
        assert report.dropped_calls == 5
        assert report.dropped_by_user == {"u1": 5}
        assert len(device_gateway.handle.request_log) == 5

    def test_rate_limit_soundness_from_report_timeline(self, device_gateway):
        # Replay the report's forwarded timeline per user and check every
        # sliding window stays within the limit.
        doc = scenario_doc(
            rateLimit={"maxCalls": 3, "windowMs": 200},
            events=[{"tMs": 0, "action": "Join", "userId": "u1"}] + [
                {"tMs": t, "action": "Click", "userId": "u1", "itemId": "fan"}
                for t in [10, 20, 30, 40, 150, 220, 230, 250, 300, 500]
            ],
        )
        report = run_scenario(parse_scenario(json.dumps(doc)), device_gateway.public_url)
        forwarded = [c.t_ms for c in report.calls if c.outcome == "forwarded"]
        for i, start in enumerate(forwarded):
            in_window = [t for t in forwarded if start <= t < start + 200]
            assert len(in_window) <= 3
        assert report.forwarded_calls + report.dropped_calls == 10

    def test_deterministic_replay_is_byte_identical(self):
        # Two fresh gateway+device environments, same scenario and seed.
        from conftest import GatewayEnv
        scenario = load_scenario(FIXTURES / "fan_3users.json")
        reports = []
        for _ in range(2):
            env = GatewayEnv()
            try:
                reports.append(run_scenario(scenario, env.public_url).to_json().encode())
            finally:
                env.close()
        assert reports[0] == reports[1]

    def test_gateway_down_marks_all_failed(self):
        scenario = load_scenario(FIXTURES / "fan_3users.json")
        report = run_scenario(scenario, "http://127.0.0.1:1", call_timeout_s=0.5)
        assert report.failed_calls == 3
        assert report.forwarded_calls == 0

    def test_non_ascii_route_is_percent_encoded(self, device_gateway):
        doc = scenario_doc(items=[{"itemId": "fan", "kind": "Clickable",
                                   "script": {"targetRoute": "/f\u00e4n x",
                                              "payloadTemplate": "on"}}])
        report = run_scenario(parse_scenario(json.dumps(doc)), device_gateway.trigger_url)
        (call,) = report.calls
        assert (call.outcome, call.status) == ("forwarded", 404)
        assert call.response == "no route for '/trigger/f%C3%A4n%20x'"

    @pytest.mark.parametrize("url", ["127.0.0.1:{port}/trigger", "ftp://127.0.0.1/x",
                                     "http:///x", "https://127.0.0.1:{port}/trigger",
                                     "http://a..b/trigger"])
    def test_unusable_gateway_url_marks_all_failed(self, device_gateway, url):
        scenario = load_scenario(FIXTURES / "fan_3users.json")
        report = run_scenario(scenario, url.format(port=device_gateway.handle.port))
        assert report.failed_calls == 3
        assert report.forwarded_calls == 0

    def test_random_click_sequences_follow_arrival_order_oracle(self, device_gateway):
        # Derived oracle: final fan state = last forwarded command rule applied
        # to the request log's arrival order.
        rng = random.Random(0x1A57)
        payload_cycle = ["on", "off", "off", "on", "on"]
        doc = scenario_doc(
            users=[{"userId": f"u{i}"} for i in range(1, 4)],
            items=[{"itemId": "fan", "kind": "Clickable",
                    "script": {"targetRoute": "/fan", "payloadTemplate": payload_cycle}}],
            rateLimit={"maxCalls": 100, "windowMs": 1000},
            events=(
                [{"tMs": 0, "action": "Join", "userId": f"u{i}"} for i in range(1, 4)]
                + [{"tMs": 10 + 10 * n, "action": "Click",
                    "userId": f"u{rng.randint(1, 3)}", "itemId": "fan"}
                   for n in range(12)]
            ),
        )
        run_scenario(parse_scenario(json.dumps(doc)), device_gateway.public_url)
        arrived = [r.envelope.request for r in device_gateway.records]
        fan = device_gateway.device("fan")
        assert fan.state is (FanState.RUNNING if arrived[-1] == "on" else FanState.STOPPED)


class TestTemplates:
    def test_list_template_cycles(self):
        script = make_template_script("http://x", ["on", "off"])
        ctx = lambda i: type("C", (), {"user_id": "u", "item_id": "it",
                                       "user_count": 1, "click_index": i})
        assert [script.on_event(ctx(i)) for i in range(4)] == ["on", "off", "on", "off"]

    def test_variables_substituted(self):
        script = make_template_script("http://x", "${user_id}:${user_count}")
        ctx = type("C", (), {"user_id": "ava", "item_id": "it",
                             "user_count": 4, "click_index": 0})
        assert script.on_event(ctx) == "ava:4"

    def test_json_payload_passes_through(self):
        raw = '{"function_name": "turn_on", "args": ["bulb-1"]}'
        script = make_template_script("http://x", raw)
        ctx = type("C", (), {"user_id": "u", "item_id": "i",
                             "user_count": 1, "click_index": 0})
        assert script.on_event(ctx) == raw
