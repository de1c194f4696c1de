"""Simulated physical endpoints: a virtual GPIO bank and four appliances.

Each applied command becomes one event (order, command, resulting state),
handed to the device's event sink the moment it is applied. The default sink
is the device's own append-only list, read through ``event_log``;
``DeviceRegistry.stream_events`` points every device at another sink instead,
such as an ``EventFile``, and then the device keeps nothing. ``order`` counts
from 0 per device, whatever the sink. Mutating operations expect external
serialization per device (the gateway provides it by device key); reads and
log snapshots are safe from any thread.
"""

from __future__ import annotations

import functools
import json
import threading
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Any, Callable

from .envelope import canonical_json

GPIO_PIN_COUNT = 32
TONE_NOTE_COUNT = 45  # semitone indexes 0..44, 110 Hz at index 0


class DeviceFaultError(Exception):
    """A device rejected a command (bad pin, bad note index, bad payload)."""


class Level(Enum):
    LOW = "Low"
    HIGH = "High"


class DeviceKind(Enum):
    FAN = "Fan"
    DOORBELL = "Doorbell"
    LAMP = "Lamp"
    TONE_SPEAKER = "ToneSpeaker"
    GPIO_BANK = "GpioBank"


class FanState(Enum):
    STOPPED = "Stopped"
    RUNNING = "Running"


@dataclass(frozen=True)
class DeviceEvent:
    """One applied command and the state it produced, in application order."""

    order: int
    command: str
    state: Any


class BaseDevice:
    """Common identity plus the event sink, by default an append-only list."""

    def __init__(self, device_key: str):
        self.device_key = device_key
        self._events: list[DeviceEvent] = []
        self._next_order = 0
        self.sink: Callable[[DeviceEvent], None] = self._events.append

    @property
    def event_log(self) -> list[DeviceEvent]:
        """The events the default sink has kept; empty once the sink is replaced."""
        return list(self._events)

    def _record(self, command: str, state: Any) -> None:
        self.sink(DeviceEvent(self._next_order, command, state))
        self._next_order += 1


class VirtualGpioBank(BaseDevice):
    """32 independent pins, all starting Low. Reads have no side effects."""

    def __init__(self, device_key: str = "gpio", default_pin: int = 17):
        if not 0 <= default_pin < GPIO_PIN_COUNT:
            raise ValueError(f"default pin {default_pin} out of range 0..{GPIO_PIN_COUNT - 1}")
        super().__init__(device_key)
        self.default_pin = default_pin
        self._pins = [Level.LOW] * GPIO_PIN_COUNT

    def write(self, pin: int, level: Level) -> None:
        if not 0 <= pin < GPIO_PIN_COUNT:
            raise DeviceFaultError(f"pin {pin} out of range 0..{GPIO_PIN_COUNT - 1}")
        self._pins[pin] = level
        self._record(f"write {pin} {level.value}", {"pin": pin, "level": level.value})

    def read(self, pin: int) -> Level:
        if not 0 <= pin < GPIO_PIN_COUNT:
            raise DeviceFaultError(f"pin {pin} out of range 0..{GPIO_PIN_COUNT - 1}")
        return self._pins[pin]

    def handle(self, payload: str) -> str:
        # Payload "on" drives the configured pin high, anything else low.
        level = Level.HIGH if payload == "on" else Level.LOW
        self.write(self.default_pin, level)
        return level.value


class Fan(BaseDevice):
    """Boolean-state fan. Exactly "on" runs it; any other payload stops it."""

    def __init__(self, device_key: str = "fan"):
        super().__init__(device_key)
        self.state = FanState.STOPPED

    def command(self, payload: str) -> FanState:
        self.state = FanState.RUNNING if payload == "on" else FanState.STOPPED
        self._record(payload, self.state.value)
        return self.state

    def handle(self, payload: str) -> str:
        return self.command(payload).value


class Doorbell(BaseDevice):
    """Counts chimes; every ring increments regardless of payload."""

    def __init__(self, device_key: str = "doorbell"):
        super().__init__(device_key)
        self.chime_count = 0

    def ring(self) -> int:
        self.chime_count += 1
        self._record("ring", self.chime_count)
        return self.chime_count

    def handle(self, payload: str) -> str:
        return str(self.ring())


def presence_brightness(user_count: int) -> int:
    """Default presence mapping: 20% per user, saturating at five users."""
    return min(100, 20 * user_count)


class PresenceLamp(BaseDevice):
    """Brightness 0..100 driven by how many users are present."""

    def __init__(self, device_key: str = "lamp",
                 mapping: Callable[[int], int] = presence_brightness):
        super().__init__(device_key)
        self.mapping = mapping
        self.brightness = 0

    def set_from_presence(self, user_count: int) -> int:
        if user_count < 0:
            raise DeviceFaultError("user count must be >= 0")
        self.brightness = self.mapping(user_count)
        self._record(str(user_count), self.brightness)
        return self.brightness

    def handle(self, payload: str) -> str:
        try:
            count = int(payload.strip())
        except ValueError:
            raise DeviceFaultError(f"payload {payload!r} is not a user count")
        return str(self.set_from_presence(count))


class ToneSpeaker(BaseDevice):
    """Equal-temperament tone output over 45 semitones starting at 110 Hz."""

    def __init__(self, device_key: str = "piano"):
        super().__init__(device_key)
        self.last_freq_hz: float | None = None

    def play(self, note_index: int) -> float:
        if not 0 <= note_index < TONE_NOTE_COUNT:
            raise DeviceFaultError(
                f"note index {note_index} out of range 0..{TONE_NOTE_COUNT - 1}"
            )
        self.last_freq_hz = round(110.0 * 2.0 ** (note_index / 12.0), 2)
        self._record(str(note_index), self.last_freq_hz)
        return self.last_freq_hz

    def handle(self, payload: str) -> str:
        try:
            index = int(payload.strip())
        except ValueError:
            raise DeviceFaultError(f"payload {payload!r} is not a note index")
        return f"{self.play(index):.2f}"


_DEVICE_TYPES = {
    DeviceKind.FAN: Fan,
    DeviceKind.DOORBELL: Doorbell,
    DeviceKind.LAMP: PresenceLamp,
    DeviceKind.TONE_SPEAKER: ToneSpeaker,
    DeviceKind.GPIO_BANK: VirtualGpioBank,
}


def make_device(device_key: str, kind: DeviceKind | str, params: dict | None = None) -> BaseDevice:
    kind = DeviceKind(kind)
    params = dict(params or {})
    if kind is DeviceKind.GPIO_BANK:
        return VirtualGpioBank(device_key, default_pin=int(params.get("default_pin", 17)))
    return _DEVICE_TYPES[kind](device_key)


class DeviceRegistry:
    """Named collection of devices, loadable from a JSON config file.

    Config format: ``{"devices": [{"device_key", "kind", "params"}, ...]}``
    (a bare list is accepted too). Each device's ``handle`` method is the
    payload-string entry point the gateway routes to.
    """

    def __init__(self):
        self._devices: dict[str, BaseDevice] = {}

    def add(self, device: BaseDevice) -> BaseDevice:
        if device.device_key in self._devices:
            raise ValueError(f"duplicate device key {device.device_key!r}")
        self._devices[device.device_key] = device
        return device

    def get(self, device_key: str) -> BaseDevice:
        return self._devices[device_key]

    def handlers(self) -> dict[str, Callable[[str], str]]:
        """Device key to payload handler, ready to register as gateway routes."""
        return {key: dev.handle for key, dev in self._devices.items()}

    def stream_events(self, sink: Callable[[str, DeviceEvent], None]) -> None:
        """Hand each device's later events to ``sink(device_key, event)``, keeping none."""
        for key, device in self._devices.items():
            device.sink = functools.partial(sink, key)

    @classmethod
    def load(cls, path: str | Path) -> "DeviceRegistry":
        """Raises ValueError naming the entry and the key when an entry is malformed."""
        doc = json.loads(Path(path).read_text("utf-8"))
        entries = doc.get("devices") if isinstance(doc, dict) else doc
        if not isinstance(entries, list):
            raise ValueError(f"{path}: expected a list of devices")
        registry = cls()
        for i, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"{path}: device {i} is not an object: {entry!r}")
            for key in ("device_key", "kind"):
                if key not in entry:
                    raise ValueError(f"{path}: device {i} lacks {key!r}")
            if not isinstance(entry["device_key"], str):
                raise ValueError(f"{path}: device {i}: 'device_key' is not a string")
            try:
                registry.add(make_device(entry["device_key"], entry["kind"], entry.get("params")))
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: device {i}: {exc}") from None
        return registry

    @classmethod
    def default(cls) -> "DeviceRegistry":
        """The built-in demo bench: fan, doorbell, lamp, piano, and gpio."""
        registry = cls()
        registry.add(Fan("fan"))
        registry.add(Doorbell("doorbell"))
        registry.add(PresenceLamp("lamp"))
        registry.add(ToneSpeaker("piano"))
        registry.add(VirtualGpioBank("gpio"))
        return registry


class EventFile:
    """A device event sink that writes JSON lines to a file, in application order.

    Each line is ``{"command","deviceKey","order","state"}``. Events are taken
    under one lock, so the file is in application order across devices, and
    they reach the file in batches of ``BATCH`` lines, one write each, and the
    rest at ``close``: a write per event would cost each device command a
    system call. The events of a batch that the file refuses (an ``OSError``
    or a short write), and any event that arrives after ``close``, are counted
    in ``lost``, not raised, so they fail no request.
    """

    BATCH = 64

    def __init__(self, path: str | Path):
        self._file = open(path, "wb", buffering=0)
        self._lock = threading.Lock()
        self._batch: list[tuple[str, DeviceEvent]] = []
        self.lost = 0

    def write(self, device_key: str, event: DeviceEvent) -> None:
        with self._lock:
            if self._file.closed:
                self.lost += 1
                return
            self._batch.append((device_key, event))
            if len(self._batch) >= self.BATCH:
                self._write_batch()

    def close(self) -> None:
        with self._lock:
            self._write_batch()
            self._file.close()

    def _write_batch(self) -> None:
        data = "".join(canonical_json({
            "deviceKey": key,
            "order": event.order,
            "command": event.command,
            "state": event.state,
        }) + "\n" for key, event in self._batch).encode("utf-8")
        try:
            if self._file.write(data) != len(data):  # a short write leaves a torn line
                self.lost += len(self._batch)
        except OSError:
            self.lost += len(self._batch)
        self._batch.clear()
