import json
import re
import signal
import socket
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest
import requests

from worldhook import cli
from worldhook.devices import EventFile
from conftest import GatewayEnv

URL_LINE = re.compile(r"^http://127\.0\.0\.1:\d+/[A-Za-z0-9]{16}$")
FIXTURES = Path(cli.FIXTURES_DIR)


def start_cli(*args):
    return subprocess.Popen(
        [sys.executable, "-m", "worldhook", *args],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, bufsize=1)


def read_line(proc, timeout=10.0):
    deadline = time.monotonic() + timeout
    line = proc.stdout.readline()
    while not line and time.monotonic() < deadline:
        time.sleep(0.05)
        line = proc.stdout.readline()
    return line.rstrip("\n")


class TestServe:
    def test_prints_url_serves_and_exits_zero_on_sigint(self):
        proc = start_cli("serve", "--port", "0")
        try:
            url = read_line(proc)
            assert URL_LINE.match(url), url
            reply = requests.post(url, data=b'{"request":"hi"}', timeout=5)
            assert reply.status_code == 200
            assert reply.json() == {"response": "hi"}
            # device routes are wired too
            assert requests.post(url + "/fan", data=b'{"request":"on"}',
                                 timeout=5).json() == {"response": "Running"}
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err

    def test_occupied_port_exits_2(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            proc = start_cli("serve", "--port", str(port))
            out, err = proc.communicate(timeout=10)
            assert proc.returncode == 2
            assert "startup error" in err
        finally:
            blocker.close()

    def test_sigterm_also_shuts_down_cleanly(self):
        proc = start_cli("serve", "--port", "0")
        try:
            assert URL_LINE.match(read_line(proc))
        finally:
            proc.send_signal(signal.SIGTERM)
            _, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err

    def test_seeded_serve_is_reproducible(self):
        urls = []
        for _ in range(2):
            proc = start_cli("serve", "--port", "0", "--seed", "7")
            try:
                urls.append(read_line(proc).rsplit("/", 1)[1])
            finally:
                proc.send_signal(signal.SIGINT)
                proc.communicate(timeout=10)
        assert urls[0] == urls[1]

    def test_jsonl_request_log_lines(self):
        proc = start_cli("serve", "--port", "0", "--log-format", "jsonl")
        try:
            url = read_line(proc)
            posters = [threading.Thread(target=requests.post, args=(url,),
                                        kwargs={"data": b'{"request":"hello"}', "timeout": 5})
                       for _ in range(16)]
            for t in posters:
                t.start()
            for t in posters:
                t.join(10)
            assert not any(t.is_alive() for t in posters)
        finally:
            proc.send_signal(signal.SIGINT)
            out, _ = proc.communicate(timeout=10)
        docs = [json.loads(line) for line in out.splitlines()]
        assert all(isinstance(doc, dict) for doc in docs)
        assert [doc["arrivalOrder"] for doc in docs] == list(range(16))
        assert all(doc["status"] == 200 and doc["request"] == "hello" for doc in docs)

    def test_text_request_log_lines_after_burst_and_sigint(self):
        proc = start_cli("serve", "--port", "0", "--log-format", "text")
        try:
            url = read_line(proc)

            def burst():
                with requests.Session() as session:
                    for _ in range(8):
                        session.post(url + "/fan", data=b'{"request":"on","userId":"u1"}',
                                     timeout=5)

            posters = [threading.Thread(target=burst) for _ in range(8)]
            for t in posters:
                t.start()
            for t in posters:
                t.join(10)
            assert not any(t.is_alive() for t in posters)
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        lines = out.splitlines()
        assert len(lines) == 64
        pattern = re.compile(r"^#(\d+) 200 route=fan user=u1 \d+\.\dms$")
        assert all(pattern.match(line) for line in lines), lines
        assert [int(pattern.match(line).group(1)) for line in lines] == list(range(64))

    def test_closed_stdout_fails_no_request(self):
        proc = start_cli("serve", "--port", "0", "--log-format", "jsonl")
        try:
            url = read_line(proc)
            proc.stdout.close()  # the reader of serve's request log goes away
            with requests.Session() as session:
                replies = [session.post(url + "/fan", data=b'{"request":"on"}', timeout=5)
                           for _ in range(5)]
            assert [r.status_code for r in replies] == [200] * 5
            assert all(r.json() == {"response": "Running"} for r in replies)
        finally:
            proc.send_signal(signal.SIGINT)
            proc.wait(timeout=10)
        with proc.stderr:
            err = proc.stderr.read()
        assert proc.returncode == 0, err
        assert "5 request log lines not written" in err

    def test_event_log_streams_each_keys_events_in_request_log_order(self, tmp_path):
        event_log = tmp_path / "events.jsonl"
        proc = start_cli("serve", "--port", "0", "--log-format", "jsonl",
                         "--event-log", str(event_log))
        try:
            url = read_line(proc)

            def burst(route, payloads):
                with requests.Session() as session:
                    for payload in payloads:
                        session.post(f"{url}/{route}", data=json.dumps({"request": payload}),
                                     timeout=5)

            posters = [threading.Thread(target=burst, args=("fan", ["on", "off"] * 5))
                       for _ in range(4)]
            posters += [threading.Thread(target=burst,
                                         args=("piano", [str(10 * t + j) for j in range(10)]))
                        for t in range(4)]
            for t in posters:
                t.start()
            for t in posters:
                t.join(10)
            assert not any(t.is_alive() for t in posters)
            streamed = event_log.read_text().splitlines()  # full batches, before shutdown
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert len(streamed) == EventFile.BATCH
        events = [json.loads(line) for line in event_log.read_text().splitlines()]
        assert len(events) == 80
        assert all(sorted(doc) == ["command", "deviceKey", "order", "state"] for doc in events)
        logged = [json.loads(line) for line in out.splitlines()]
        assert all(doc["status"] == 200 for doc in logged)
        for key in ("fan", "piano"):
            mine = [doc for doc in events if doc["deviceKey"] == key]
            assert [doc["order"] for doc in mine] == list(range(40))
            assert ([doc["command"] for doc in mine]
                    == [doc["request"] for doc in logged if doc["route"] == key])

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="needs /dev/full")
    def test_unwritable_event_log_fails_no_request(self):
        proc = start_cli("serve", "--port", "0", "--event-log", "/dev/full")
        try:
            url = read_line(proc)
            with requests.Session() as session:
                replies = [session.post(url + "/fan", data=b'{"request":"on"}', timeout=5)
                           for _ in range(3)]
            assert [r.status_code for r in replies] == [200] * 3
        finally:
            proc.send_signal(signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err
        assert "event log: 3 device event lines not written" in err

    @pytest.mark.parametrize("devices, names", [
        ([{"kind": "Fan"}], "'device_key'"),
        ([1], "device 0 is not an object"),
    ])
    def test_malformed_device_file_exits_2(self, tmp_path, capsys, devices, names):
        config = tmp_path / "devices.json"
        config.write_text(json.dumps({"devices": devices}))
        assert cli.main(["serve", "--port", "0", "--devices", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {config}: ") and names in err


class TestMockSmarthome:
    def test_serves_roster_until_interrupted(self):
        proc = start_cli("mock-smarthome", "--port", "0")
        try:
            base = read_line(proc)
            assert re.match(r"^http://127\.0\.0\.1:\d+$", base)
            reply = requests.get(f"{base}/v1.1/devices",
                                 headers={"Authorization": "workshop-token"}, timeout=5)
            assert len(reply.json()["body"]["deviceList"]) == 27
        finally:
            proc.send_signal(signal.SIGINT)
            out, err = proc.communicate(timeout=10)
        assert proc.returncode == 0, err

    def test_custom_fixture_file(self, tmp_path):
        fixture_path = tmp_path / "empty.json"
        fixture_path.write_text(json.dumps({"token": "t", "devices": []}))
        proc = start_cli("mock-smarthome", "--port", "0", "--fixture", str(fixture_path))
        try:
            base = read_line(proc)
            reply = requests.get(f"{base}/v1.1/devices",
                                 headers={"Authorization": "t"}, timeout=5)
            assert reply.json()["body"]["deviceList"] == []
        finally:
            proc.send_signal(signal.SIGINT)
            proc.communicate(timeout=10)

    def test_malformed_fixture_file_exits_2(self, tmp_path, capsys):
        fixture_path = tmp_path / "bad.json"
        fixture_path.write_text(json.dumps({"devices": [{"deviceType": "Bulb"}]}))
        assert cli.main(["mock-smarthome", "--port", "0", "--fixture", str(fixture_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {fixture_path}: ") and "'deviceId'" in err

    def test_occupied_port_exits_2(self):
        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        blocker.listen(1)
        port = blocker.getsockname()[1]
        try:
            proc = start_cli("mock-smarthome", "--port", str(port))
            _, err = proc.communicate(timeout=10)
            assert proc.returncode == 2
            assert "startup error" in err
        finally:
            blocker.close()

    def test_out_of_range_port_exits_2(self, capsys):
        assert cli.main(["mock-smarthome", "--port", "70000"]) == 2
        assert "startup error" in capsys.readouterr().err


class TestWorldRun:
    def test_against_live_gateway(self, capsys):
        env = GatewayEnv()
        try:
            code = cli.main(["world-run",
                             "--scenario", str(FIXTURES / "fan_3users.json"),
                             "--gateway-url", env.public_url])
        finally:
            env.close()
        out = capsys.readouterr().out
        assert code == 0
        assert "forwarded=3" in out

    def test_gateway_down_exits_1(self, capsys):
        code = cli.main(["world-run",
                         "--scenario", str(FIXTURES / "fan_3users.json"),
                         "--gateway-url", "http://127.0.0.1:1"])
        out = capsys.readouterr().out
        assert code == 1
        assert "failed=3" in out

    def test_malformed_scenario_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{\n  "users": broken\n}')
        code = cli.main(["world-run", "--scenario", str(bad),
                         "--gateway-url", "http://127.0.0.1:1"])
        err = capsys.readouterr().err
        assert code == 2
        assert "line 2" in err

    def test_jsonl_report(self, capsys):
        env = GatewayEnv()
        try:
            code = cli.main(["world-run", "--log-format", "jsonl",
                             "--scenario", str(FIXTURES / "piano_endpoints.json"),
                             "--gateway-url", env.public_url])
        finally:
            env.close()
        lines = capsys.readouterr().out.strip().splitlines()
        assert code == 0
        docs = [json.loads(line) for line in lines]
        assert docs[0]["response"] == "110.00"
        assert docs[-1]["forwardedCalls"] == 2


class TestDemos:
    @pytest.mark.parametrize("name", ["fan", "doorbell", "presence-lamp", "piano", "smarthome"])
    def test_demo_passes(self, name, capsys):
        assert cli.main(["demo", name]) == 0
        out = capsys.readouterr().out
        assert "FAILED" not in out

    def test_smarthome_demo_runs_without_requests(self):
        code = ("import sys\n"
                "sys.modules['requests'] = sys.modules['urllib3'] = None\n"
                "from worldhook import cli\n"
                "sys.exit(cli.main(['demo', 'smarthome']))\n")
        done = subprocess.run([sys.executable, "-c", code], capture_output=True,
                              text=True, timeout=60)
        assert done.returncode == 0, done.stderr

    def test_piano_demo_prints_endpoints(self, capsys):
        cli.main(["demo", "piano"])
        out = capsys.readouterr().out
        assert "110.00" in out and "1396.91" in out

    def test_fan_demo_reports_final_stop(self, capsys):
        cli.main(["demo", "fan"])
        out = capsys.readouterr().out
        assert "fan final state is Stopped" in out


class TestConfigResolution:
    def test_env_fallback_and_flag_override(self, monkeypatch):
        monkeypatch.setenv("MG_ROUTE_PREFIX", "/hook")
        monkeypatch.setenv("MG_PORT", "4242")
        args = cli.build_parser().parse_args(["serve"])
        cli._resolve_common(args)
        assert args.route_prefix == "/hook"
        assert args.port == 4242

        args = cli.build_parser().parse_args(["serve", "--route-prefix", "/other"])
        cli._resolve_common(args)
        assert args.route_prefix == "/other"

    def test_defaults_without_env(self, monkeypatch):
        for name in ("MG_PORT", "MG_ROUTE_PREFIX", "MG_SEED"):
            monkeypatch.delenv(name, raising=False)
        args = cli.build_parser().parse_args(["serve"])
        cli._resolve_common(args)
        assert args.port == 0
        assert args.route_prefix == "/trigger"
        assert args.seed is None

    @pytest.mark.parametrize("argv, name", [
        (["serve"], "MG_PORT"),
        (["serve"], "MG_SEED"),
        (["demo", "fan"], "MG_PORT"),
        (["demo", "fan"], "MG_SEED"),
        (["mock-smarthome"], "MG_PORT"),
    ])
    def test_malformed_integer_env_is_configuration_error(self, argv, name, monkeypatch,
                                                          capsys):
        monkeypatch.setenv(name, "abc")
        assert cli.main(argv) == 2
        assert f"configuration error: {name}" in capsys.readouterr().err

    def test_world_run_ignores_variables_of_flags_it_lacks(self, monkeypatch):
        monkeypatch.setenv("MG_PORT", "abc")
        monkeypatch.setenv("MG_SEED", "x")
        code = cli.main(["world-run", "--scenario", str(FIXTURES / "fan_3users.json"),
                         "--gateway-url", "http://127.0.0.1:1"])
        assert code == 1  # the replay ran; every call failed against the closed port

    @pytest.mark.parametrize("argv", [
        ["serve", "--tunnel-mode", "external"],
        ["demo", "fan", "--tunnel-mode", "loopback"],
        ["world-run", "--port", "1", "--scenario", "s.json", "--gateway-url", "http://x"],
        ["world-run", "--seed", "1", "--scenario", "s.json", "--gateway-url", "http://x"],
        ["mock-smarthome", "--route-prefix", "/x"],
        ["mock-smarthome", "--log-format", "jsonl"],
    ])
    def test_flags_a_subcommand_does_not_read_are_rejected(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args(argv)
        assert excinfo.value.code == 2

    def test_missing_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.build_parser().parse_args([])
        assert excinfo.value.code == 2
