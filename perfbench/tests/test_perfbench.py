"""The benchmark's own tests: seeded inputs, oracles, span analysis, metric names.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parents[1]
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import ORACLE_URL, WORKLOADS, percentile  # noqa: E402
from worldhook.world import parse_scenario, run_scenario  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))


# -- seeded generators -------------------------------------------------------------

@pytest.mark.parametrize("gen", [inputs.device_requests, inputs.smarthome_requests])
def test_same_seed_gives_same_requests(gen):
    assert gen(7, 0, 300) == gen(7, 0, 300)
    assert gen(7, 0, 300) != gen(8, 0, 300)
    assert gen(7, 0, 300) != gen(7, 1, 300)


def test_same_seed_gives_same_scenario():
    assert json.dumps(inputs.world_chunk(7, 3)) == json.dumps(inputs.world_chunk(7, 3))
    assert inputs.world_chunk(7, 3) != inputs.world_chunk(8, 3)
    assert inputs.world_chunk(7, 3) != inputs.world_chunk(7, 4)


def test_device_mix_shape():
    reqs = inputs.device_requests(3, 0, 4000)
    hot = sum(r["route"] == inputs.HOT_ROUTE for r in reqs) / len(reqs)
    malformed = sum(not r["requestId"] for r in reqs) / len(reqs)
    assert 0.45 < hot < 0.55
    assert 0.03 < malformed < 0.07
    assert len({r["requestId"] for r in reqs if r["requestId"]}) == len(reqs) - sum(
        not r["requestId"] for r in reqs)


def test_smarthome_items_are_distinct_and_writes_stay_in_own_half():
    for conn in (0, 1):
        reqs = inputs.smarthome_requests(3, conn, 2000)
        items = {json.loads(r["body"])["itemId"] for r in reqs}
        assert len(items) == len(reqs)
        own = {d["deviceId"] for d in inputs.ROSTER[conn::2]}
        for r in reqs:
            call = json.loads(json.loads(r["body"])["request"])
            if call["function_name"] in ("turn_on", "turn_off", "set_brightness", "press") \
                    and call["args"] + list(call["kwargs"].values()):
                device = (call["args"] or [call["kwargs"].get("device_id")])[0]
                assert device in own


def test_world_chunk_drops_a_fixed_share():
    stub = oracles.StubSession()
    report = run_scenario(parse_scenario(json.dumps(inputs.world_chunk(5, 0))), ORACLE_URL,
                          session=stub)
    assert len(report.calls) == 55
    assert report.dropped_calls == 15
    assert report.failed_calls == 0


# -- oracles reject wrong replies --------------------------------------------------------

def _ok(text: str) -> bytes:
    return json.dumps({"response": text}).encode()


def _err(code: str) -> bytes:
    return json.dumps({"error": {"code": code, "message": "", "request_id": ""}}).encode()


def _device(route: str, payload: str) -> dict:
    return {"route": route, "requestId": "r1", "body": json.dumps({"request": payload})}


@pytest.mark.parametrize("route,payload,right,wrong", [
    ("fan", "on", "Running", "Stopped"),
    ("fan", "off", "Stopped", "Running"),
    ("gpio", "on", "High", "Low"),
    ("lamp", "3", "60", "50"),
    ("lamp", "9", "100", "180"),
    ("piano", "0", "110.00", "110.0"),
    ("piano", "44", "1396.91", "1396.90"),
])
def test_device_oracle(route, payload, right, wrong):
    request = _device(route, payload)
    assert oracles.check_device(request, 200, _ok(right)) is None
    assert oracles.check_device(request, 200, _ok(wrong))
    assert oracles.check_device(request, 500, _ok(right))


def test_malformed_envelope_oracle():
    request = {"route": "fan", "requestId": "", "body": "[]"}
    assert oracles.check_device(request, 400, _err("MalformedEnvelope")) is None
    assert oracles.check_device(request, 400, _err("MalformedPayload"))
    assert oracles.check_device(request, 200, _ok("Stopped"))


def test_doorbell_counts_must_form_one_to_n():
    assert oracles.check_chimes([2, 1, 3]) == 0
    assert oracles.check_chimes([1, 2, 2]) > 0
    assert oracles.check_chimes([1, 3]) > 0


def _smarthome(name: str, args: list, kwargs=None) -> dict:
    payload = json.dumps({"function_name": name, "args": args, "kwargs": kwargs or {}})
    return {"route": "", "requestId": "r1", "body": json.dumps({"request": payload})}


def _roster(model: oracles.SmartHomeModel) -> list[dict]:
    return [{"deviceId": d["deviceId"], "deviceType": d["deviceType"], "deviceName": d["name"],
             **model.state[d["deviceId"]]} for d in inputs.ROSTER]


def test_smarthome_oracle_tracks_own_devices():
    model = oracles.SmartHomeModel(0)
    on = _smarthome("turn_on", ["bulb-1"])
    good = _ok(json.dumps({"deviceId": "bulb-1", "deviceType": "Bulb",
                           "power": "on", "brightness": 100}))
    assert model.check(on, 200, good) is None
    stale = _ok(json.dumps({"deviceId": "bulb-1", "deviceType": "Bulb",
                            "power": "off", "brightness": 100}))
    assert oracles.SmartHomeModel(0).check(on, 200, stale)
    status = _smarthome("get_status", [], {"device_id": "bulb-1"})
    assert model.check(status, 200, stale)
    assert model.check(status, 200, good) is None


def test_smarthome_oracle_checks_roster_and_rejections():
    model = oracles.SmartHomeModel(1)
    listing = _smarthome("list_devices", [])
    roster = _roster(model)
    assert model.check(listing, 200, _ok(json.dumps(roster))) is None
    assert model.check(listing, 200, _ok(json.dumps(roster[:-1])))
    assert model.check(listing, 200, _ok(json.dumps(roster[1:] + roster[:1])))
    unknown = _smarthome("reboot", ["hub-1"])
    assert model.check(unknown, 404, _err("UnknownFunction")) is None
    assert model.check(unknown, 400, _err("MalformedPayload"))
    bad_args = _smarthome("set_brightness", ["bulb-2"])
    assert model.check(bad_args, 400, _err("MalformedPayload")) is None
    assert model.check(bad_args, 404, _err("UnknownFunction"))


def test_world_oracle_rejects_a_changed_reply():
    scenario = parse_scenario(json.dumps(inputs.world_chunk(9, 0)))
    want = run_scenario(scenario, ORACLE_URL, session=oracles.StubSession())
    same = run_scenario(scenario, ORACLE_URL, session=oracles.StubSession())
    assert oracles.diff_reports(same, want) == 0

    class OffByOne(oracles.StubSession):
        def post(self, url, data=None, headers=None, timeout=None):
            reply = super().post(url, data, headers, timeout)
            if url.endswith("/doorbell") and self.chimes == 2:
                reply.text = json.dumps({"response": "7"})
            return reply

    wrong = run_scenario(scenario, ORACLE_URL, session=OffByOne())
    assert oracles.diff_reports(wrong, want) == 1


def test_order_violations_compare_log_and_event_order():
    log = [{"arrivalOrder": i, "route": "doorbell", "dispatched": True, "status": 200,
            "requestId": rid} for i, rid in enumerate(["a", "b", "c"])]
    replies = {"a": "1", "b": "2", "c": "3"}
    events = [{"deviceKey": "doorbell", "order": i, "command": "ring", "state": i + 1}
              for i in range(3)]
    assert oracles.order_violations(log, events, replies, ["doorbell"]) == 0
    swapped = {"a": "2", "b": "1", "c": "3"}
    assert oracles.order_violations(log, events, swapped, ["doorbell"]) == 2
    assert oracles.order_violations(log, events[:2], replies, ["doorbell"]) == 1


# -- span analysis ----------------------------------------------------------------------

def test_self_time_subtracts_the_union_of_children():
    req = {"rid": "r", "route": "", "spans": [
        (1, 0, "root", 0.0, 10.0),
        (2, 1, "a", 1.0, 4.0),
        (3, 1, "b", 3.0, 5.0),   # overlaps a: the union is 1..5
        (4, 2, "a.child", 1.5, 2.0),
    ]}
    total, own = spans.durations([req])
    assert total["root"] == [10.0]
    assert own["root"] == [6.0]
    assert own["a"] == [2.5]
    assert spans.durations([req], window=(5.0, 9.0)) == ({}, {})


def test_tracer_nests_spans_and_carries_them_across_threads():
    import threading

    tracer = spans.Tracer()
    leaf = tracer.wrap("leaf", lambda x: x + 1)

    def root(x):
        box = []
        carried = tracer.carry(leaf)  # taken on the request's thread
        thread = threading.Thread(target=lambda: box.append(carried(x)))
        thread.start()
        thread.join(5)
        return box[0]

    assert tracer.wrap("root", root, root=True)(1) == 2
    assert leaf(1) == 2  # outside a request: no span
    (req,) = tracer.requests
    names = {s[2]: s for s in req.spans}
    assert names["leaf"][1] == names["root"][0]


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 95) == 5
    assert percentile([], 50) == 0.0


# -- metric names and the contract ------------------------------------------------------------

def test_metric_names_match_benchmark_json():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace,names", [(0, run.END_TO_END), (1, run.PER_LAYER)])
def test_printed_metrics_match_benchmark_json(trace, names):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "device_callouts", "--seed", "1",
         "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert out.returncode == 0, out.stderr
    result = _last_json(out.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1
    assert list(result["metrics"]) == list(names)
    for name, entry in result["metrics"].items():
        assert entry["unit"] == names[name]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "device_callouts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout


def test_retained_kb_is_the_slope_of_rss_over_requests():
    from workloads import retained_kb

    assert retained_kb([(0, 1000), (100, 1100), (200, 1200)]) == pytest.approx(1.0)
    assert retained_kb([(5, 1000), (5, 1200)]) == 0.0
