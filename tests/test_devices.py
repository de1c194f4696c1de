import json
import random
from decimal import Decimal, getcontext

import pytest

from worldhook.devices import (
    DeviceFaultError,
    DeviceRegistry,
    Doorbell,
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

    def test_event_log_export_schema(self, tmp_path):
        registry = DeviceRegistry.default()
        registry.get("fan").command("on")
        registry.get("doorbell").ring()
        out = tmp_path / "events.jsonl"
        registry.write_event_logs(out)
        lines = out.read_text().splitlines()
        assert len(lines) == 2
        for line in lines:
            doc = json.loads(line)
            assert sorted(doc) == ["command", "deviceKey", "order", "state"]
        fan_line = json.loads(lines[0])
        assert fan_line == {"deviceKey": "fan", "order": 0, "command": "on",
                            "state": "Running"}
