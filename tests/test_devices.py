import json
import os
import random
import sys
import threading
from decimal import Decimal, getcontext

import pytest

from worldhook.devices import (
    DeviceEvent,
    DeviceFaultError,
    DeviceRegistry,
    Doorbell,
    EventFile,
    Fan,
    FanState,
    Level,
    PresenceLamp,
    ToneSpeaker,
    VirtualGpioBank,
    presence_brightness,
)


def expected_tone_hz(note_index: int) -> float:
    """High-precision oracle: 110 * 2^(n/12) evaluated with 60-digit Decimals."""
    getcontext().prec = 60
    value = Decimal(110) * Decimal(2) ** (Decimal(note_index) / Decimal(12))
    return float(round(value, 2))


class TestGpioBank:
    def test_fresh_pins_are_low(self):
        bank = VirtualGpioBank()
        assert bank.read(0) is Level.LOW

    def test_write_high_then_read(self):
        bank = VirtualGpioBank()
        bank.write(17, Level.HIGH)
        assert bank.read(17) is Level.HIGH

    def test_off_payload_drives_low(self):
        bank = VirtualGpioBank(default_pin=17)
        bank.handle("on")
        assert bank.read(17) is Level.HIGH
        bank.handle("off")
        assert bank.read(17) is Level.LOW

    def test_out_of_range_write(self):
        bank = VirtualGpioBank()
        with pytest.raises(DeviceFaultError):
            bank.write(32, Level.HIGH)
        with pytest.raises(DeviceFaultError):
            bank.read(-1)

    def test_read_is_pure(self):
        bank = VirtualGpioBank()
        bank.write(5, Level.HIGH)
        log_len = len(bank.event_log)
        assert bank.read(5) is bank.read(5) is Level.HIGH
        assert len(bank.event_log) == log_len

    def test_pin_independence_over_random_writes(self):
        # Oracle: a plain dict mirror of every write; all 32 pins must agree
        # with it after each operation.
        rng = random.Random(0x610)
        bank = VirtualGpioBank()
        shadow = {p: Level.LOW for p in range(32)}
        for _ in range(300):
            pin = rng.randrange(32)
            level = rng.choice([Level.LOW, Level.HIGH])
            bank.write(pin, level)
            shadow[pin] = level
            assert all(bank.read(p) is shadow[p] for p in range(32))


class TestFan:
    def test_on(self):
        assert Fan().command("on") is FanState.RUNNING

    def test_off(self):
        fan = Fan()
        fan.command("on")
        assert fan.command("off") is FanState.STOPPED

    def test_exact_match_only(self):
        # Case variants are not commands; they fall into the stop branch.
        assert Fan().command("ON") is FanState.STOPPED

    def test_final_state_depends_only_on_last_command(self):
        rng = random.Random(0xFA9)
        for _ in range(50):
            commands = [rng.choice(["on", "off", "ON", "", "whirr"])
                        for _ in range(rng.randrange(1, 20))]
            fan = Fan()
            for command in commands:
                fan.command(command)
            expected = FanState.RUNNING if commands[-1] == "on" else FanState.STOPPED
            assert fan.state is expected

    def test_event_log_orders_are_gap_free(self):
        fan = Fan()
        for command in ["on", "off", "on"]:
            fan.command(command)
        assert [e.order for e in fan.event_log] == [0, 1, 2]
        assert [e.command for e in fan.event_log] == ["on", "off", "on"]


class TestDoorbell:
    def test_single_ring(self):
        assert Doorbell().ring() == 1

    def test_three_rings(self):
        bell = Doorbell()
        bell.ring(), bell.ring(), bell.ring()
        assert bell.chime_count == 3

    def test_handler_ignores_payload(self):
        bell = Doorbell()
        assert bell.handle("anything") == "1"
        assert bell.handle("") == "2"


class TestPresenceLamp:
    @pytest.mark.parametrize("users,brightness", [(0, 0), (1, 20), (3, 60), (5, 100), (10, 100)])
    def test_mapping(self, users, brightness):
        assert PresenceLamp().set_from_presence(users) == brightness

    def test_monotonic_and_idempotent(self):
        lamp = PresenceLamp()
        values = [lamp.set_from_presence(k) for k in range(0, 20)]
        assert values == sorted(values)
        assert lamp.set_from_presence(7) == lamp.set_from_presence(7)

    def test_negative_count_rejected(self):
        with pytest.raises(DeviceFaultError):
            PresenceLamp().set_from_presence(-1)

    def test_mapping_hook(self):
        lamp = PresenceLamp(mapping=lambda n: min(100, 10 * n))
        assert lamp.set_from_presence(3) == 30

    def test_default_mapping_function(self):
        assert presence_brightness(4) == 80

    def test_handler_parses_count(self):
        lamp = PresenceLamp()
        assert lamp.handle(" 3 ") == "60"
        with pytest.raises(DeviceFaultError):
            lamp.handle("many")


class TestToneSpeaker:
    def test_lowest_note(self):
        assert ToneSpeaker().play(0) == 110.00

    def test_highest_note_matches_precision_oracle(self):
        assert expected_tone_hz(44) == 1396.91
        assert ToneSpeaker().play(44) == pytest.approx(1396.91, abs=0.01)

    def test_octave_doubling(self):
        assert expected_tone_hz(12) == 220.00
        assert ToneSpeaker().play(12) == pytest.approx(220.00, abs=0.01)

    def test_every_note_matches_precision_oracle(self):
        speaker = ToneSpeaker()
        for n in range(45):
            assert speaker.play(n) == pytest.approx(expected_tone_hz(n), abs=0.005)

    def test_equal_temperament_consistency(self):
        speaker = ToneSpeaker()
        for n in range(0, 33):
            assert speaker.play(n + 12) == pytest.approx(2 * speaker.play(n), abs=0.01)

    @pytest.mark.parametrize("index", [-1, 45, 1000])
    def test_out_of_range(self, index):
        with pytest.raises(DeviceFaultError):
            ToneSpeaker().play(index)

    def test_last_freq_tracked(self):
        speaker = ToneSpeaker()
        assert speaker.last_freq_hz is None
        speaker.play(9)
        assert speaker.last_freq_hz == pytest.approx(expected_tone_hz(9))


class TestDeviceRegistry:
    def test_default_bench(self):
        registry = DeviceRegistry.default()
        assert sorted(registry.handlers()) == ["doorbell", "fan", "gpio", "lamp", "piano"]

    def test_duplicate_key_rejected(self):
        registry = DeviceRegistry()
        registry.add(Fan("fan"))
        with pytest.raises(ValueError):
            registry.add(Fan("fan"))

    def test_load_config_file(self, tmp_path):
        config = tmp_path / "devices.json"
        config.write_text(json.dumps({"devices": [
            {"device_key": "fan-a", "kind": "Fan", "params": {}},
            {"device_key": "leds", "kind": "GpioBank", "params": {"default_pin": 4}},
        ]}))
        registry = DeviceRegistry.load(config)
        assert isinstance(registry.get("fan-a"), Fan)
        assert registry.get("leds").default_pin == 4

    def test_handlers_route_payloads(self):
        registry = DeviceRegistry.default()
        handlers = registry.handlers()
        assert handlers["fan"]("on") == "Running"
        assert handlers["piano"]("12") == "220.00"

    @pytest.mark.parametrize("doc, names", [
        ({"devices": [{"kind": "Fan"}]}, "'device_key'"),
        ({"devices": [{"device_key": "f"}]}, "'kind'"),
        ({"devices": [1]}, "device 0 is not an object"),
        ({"devices": [{"device_key": "f", "kind": "Kettle"}]}, "Kettle"),
        ({"devices": [{"device_key": "f", "kind": "Fan", "params": 5}]}, "device 0"),
        ({"devices": [{"device_key": 5, "kind": "Fan"}]}, "'device_key' is not a string"),
        ({"devices": [{"device_key": "g", "kind": "GpioBank", "params": {"default_pin": 32}}]},
         "default pin 32 out of range"),
        ({"devices": {"device_key": "f"}}, "list of devices"),
    ])
    def test_malformed_config_names_the_entry(self, tmp_path, doc, names):
        config = tmp_path / "devices.json"
        config.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=names):
            DeviceRegistry.load(config)

    def test_event_log_export_schema(self, tmp_path):
        registry = DeviceRegistry.default()
        out = tmp_path / "events.jsonl"
        events = EventFile(out)
        registry.stream_events(events.write)
        registry.get("fan").command("on")
        registry.get("doorbell").ring()
        events.close()
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            assert sorted(doc) == ["command", "deviceKey", "order", "state"]
        fan_line = json.loads(lines[0])
        assert fan_line == {"deviceKey": "fan", "order": 0, "command": "on",
                            "state": "Running"}
        assert events.lost == 0


class TestEventSink:
    def test_streamed_events_continue_the_order_and_are_not_kept(self):
        registry = DeviceRegistry.default()
        fan = registry.get("fan")
        fan.command("on")
        streamed = []
        registry.stream_events(lambda key, event: streamed.append((key, event)))
        fan.command("off")
        fan.command("on")
        registry.get("piano").play(12)
        assert streamed == [("fan", DeviceEvent(1, "off", "Stopped")),
                            ("fan", DeviceEvent(2, "on", "Running")),
                            ("piano", DeviceEvent(0, "12", 220.0))]
        assert fan.event_log == [DeviceEvent(0, "on", "Running")]
        assert registry.get("piano").event_log == []

    def test_event_file_keeps_lines_whole_under_concurrent_devices(self, tmp_path):
        registry = DeviceRegistry()
        fans = [registry.add(Fan(f"fan-{i}")) for i in range(8)]
        out = tmp_path / "events.jsonl"
        events = EventFile(out)
        registry.stream_events(events.write)

        def toggle(fan):  # one thread per device, as the gateway's key workers run
            for i in range(200):
                fan.handle("on" if i % 2 else "off")

        threads = [threading.Thread(target=toggle, args=(fan,)) for fan in fans]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(10)
        finally:
            sys.setswitchinterval(interval)
            events.close()
        assert not any(t.is_alive() for t in threads)
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(docs) == 1600 and events.lost == 0
        for fan in fans:
            assert ([d["order"] for d in docs if d["deviceKey"] == fan.device_key]
                    == list(range(200)))

    def test_event_file_writes_each_full_batch_at_once(self, tmp_path):
        out = tmp_path / "events.jsonl"
        events = EventFile(out)
        fan = Fan("fan")
        fan.sink = lambda event: events.write("fan", event)
        for _ in range(EventFile.BATCH + 1):
            fan.handle("on")
        assert len(out.read_text().splitlines()) == EventFile.BATCH
        events.close()
        docs = [json.loads(line) for line in out.read_text().splitlines()]
        assert [d["order"] for d in docs] == list(range(EventFile.BATCH + 1))

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_event_file_counts_lines_it_cannot_write(self):
        events = EventFile("/dev/full")  # every write fails with ENOSPC
        fan = Fan("fan")
        fan.sink = lambda event: events.write("fan", event)
        for _ in range(EventFile.BATCH + 2):
            assert fan.handle("on") == "Running"
        assert events.lost == EventFile.BATCH
        events.close()
        assert events.lost == EventFile.BATCH + 2
        events.write("fan", DeviceEvent(EventFile.BATCH + 2, "on", "Running"))
        assert events.lost == EventFile.BATCH + 3
