"""Deterministic simulated multi-user world driving the gateway over HTTP.

A scenario file scripts the world: users join and leave, click items, and walk
onto floor regions, all on a virtual millisecond clock. Item scripts run in
the triggering client's context, so every callout carries that user's id, and
a per-user sliding-window rate limiter drops (never blocks) excess calls,
fire-and-forget style. Callouts are issued synchronously in event order, which
makes a replay with a fixed seed a pure function of the scenario file: two
runs produce byte-identical reports.

Scenario JSON::

    {"seed": 7,
     "rateLimit": {"maxCalls": 5, "windowMs": 1000},
     "users": [{"userId": "u1", "isOwner": false}],
     "items": [{"itemId": "fan", "kind": "Clickable",
                "script": {"targetRoute": "/fan", "payloadTemplate": ["on", "off"]}}],
     "events": [{"tMs": 0, "action": "Join", "userId": "u1"},
                {"tMs": 100, "action": "Click", "userId": "u1", "itemId": "fan"}]}

``payloadTemplate`` is a ``string.Template`` ($-substitution over user_id,
item_id, user_count, click_index); a list of templates is cycled per fired
event. JSON payloads pass through untouched since ``$`` is the only marker.
"""

from __future__ import annotations

import http.client
import json
import random
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from string import Template
from typing import Any, Callable, Optional

from .envelope import TriggerEnvelope, canonical_json, encode_envelope
from .httpclient import Response, Session

DEFAULT_MAX_CALLS = 5
DEFAULT_WINDOW_MS = 1000


class ScenarioError(Exception):
    """A world action that cannot be performed (unknown item, wrong kind)."""


class ScenarioParseError(ScenarioError):
    """Scenario file violates the schema; carries line/event position."""

    def __init__(self, message: str, line: Optional[int] = None,
                 event_index: Optional[int] = None):
        where = []
        if line is not None:
            where.append(f"line {line}")
        if event_index is not None:
            where.append(f"event {event_index}")
        super().__init__(f"{message} ({', '.join(where)})" if where else message)
        self.line = line
        self.event_index = event_index


class Action(Enum):
    JOIN = "Join"
    LEAVE = "Leave"
    CLICK = "Click"
    ENTER_REGION = "EnterRegion"


class ItemKind(Enum):
    CLICKABLE = "Clickable"
    FLOOR_REGION = "FloorRegion"


@dataclass
class SimulatedUser:
    user_id: str
    connected: bool = False


@dataclass(frozen=True)
class TriggerContext:
    """What an item script sees when its event fires."""

    action: Action
    user_id: str
    item_id: str
    t_ms: int
    user_count: int
    click_index: int


@dataclass
class AttachedScript:
    """Client-side behavior of an item: emit a payload, observe the reply."""

    target_url: str
    on_event: Callable[[TriggerContext], Optional[str]]
    on_response: Callable[[str], None] = lambda response: None


@dataclass
class WorldItem:
    item_id: str
    kind: ItemKind
    script: AttachedScript
    fired_count: int = 0


@dataclass(frozen=True)
class ScenarioEvent:
    t_ms: int
    action: Action
    user_id: str
    item_id: str = ""


@dataclass(frozen=True)
class ItemSpec:
    item_id: str
    kind: ItemKind
    target_route: str
    payload_template: Any  # str, or list of str cycled per fired event


@dataclass(frozen=True)
class Scenario:
    seed: int
    max_calls: int
    window_ms: int
    users: list[tuple[str, bool]]  # (user_id, is_owner)
    items: list[ItemSpec]
    events: list[ScenarioEvent]


class RateLimiter:
    """Sliding-window limiter on virtual time, per user; excess calls drop."""

    def __init__(self, max_calls: int = DEFAULT_MAX_CALLS,
                 window_ms: int = DEFAULT_WINDOW_MS):
        if max_calls < 1 or window_ms < 1:
            raise ValueError("max_calls and window_ms must be >= 1")
        self.max_calls = max_calls
        self.window_ms = window_ms
        self._forwarded: dict[str, deque] = {}
        self.dropped_by_user: dict[str, int] = {}

    def allow(self, user_id: str, t_ms: int) -> bool:
        window = self._forwarded.setdefault(user_id, deque())
        while window and window[0] <= t_ms - self.window_ms:
            window.popleft()
        if len(window) < self.max_calls:
            window.append(t_ms)
            return True
        self.dropped_by_user[user_id] = self.dropped_by_user.get(user_id, 0) + 1
        return False


@dataclass(frozen=True)
class CallRecord:
    """One attempted callout: forwarded (got a reply), dropped, or failed."""

    seq: int
    t_ms: int
    user_id: str
    item_id: str
    request: str
    outcome: str  # "forwarded" | "dropped" | "failed"
    status: Optional[int] = None
    response: Optional[str] = None

    def to_json_dict(self) -> dict:
        return {"seq": self.seq, "tMs": self.t_ms, "userId": self.user_id,
                "itemId": self.item_id, "request": self.request,
                "outcome": self.outcome, "status": self.status,
                "response": self.response}


@dataclass(frozen=True)
class WorldReport:
    seed: int
    forwarded_calls: int
    dropped_calls: int
    failed_calls: int
    dropped_by_user: dict
    final_connected_users: int
    calls: list[CallRecord]

    def to_json_dict(self) -> dict:
        return {
            "seed": self.seed,
            "forwardedCalls": self.forwarded_calls,
            "droppedCalls": self.dropped_calls,
            "failedCalls": self.failed_calls,
            "droppedByUser": self.dropped_by_user,
            "finalConnectedUsers": self.final_connected_users,
            "calls": [c.to_json_dict() for c in self.calls],
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_dict())

    def render_text(self) -> str:
        lines = [
            f"seed={self.seed} forwarded={self.forwarded_calls} "
            f"dropped={self.dropped_calls} failed={self.failed_calls} "
            f"connected={self.final_connected_users}"
        ]
        for c in self.calls:
            lines.append(
                f"  [{c.seq}] t={c.t_ms}ms {c.user_id} -> {c.item_id} "
                f"request={c.request!r} {c.outcome}"
                + (f" status={c.status} response={c.response!r}"
                   if c.outcome == "forwarded" else "")
            )
        return "\n".join(lines)

    def responses_for(self, item_id: str) -> list[Optional[str]]:
        return [c.response for c in self.calls
                if c.item_id == item_id and c.outcome == "forwarded"]


class World:
    """Users, items, the virtual clock, and the callout path to the gateway."""

    def __init__(self, *, world_id: str = "world", seed: int = 0,
                 limiter: Optional[RateLimiter] = None,
                 session: Optional[Session] = None,
                 call_timeout_s: float = 10.0):
        self.world_id = world_id
        self.seed = seed
        self.users: dict[str, SimulatedUser] = {}
        self.items: dict[str, WorldItem] = {}
        self.t_ms = 0
        self.limiter = limiter or RateLimiter()
        self.calls: list[CallRecord] = []
        self._rng = random.Random(seed)
        self._session = session or Session()
        self._call_timeout_s = call_timeout_s

    # -- construction -------------------------------------------------------

    def add_user(self, user_id: str) -> SimulatedUser:
        user = SimulatedUser(user_id, connected=False)
        self.users[user_id] = user
        return user

    def add_item(self, item: WorldItem) -> WorldItem:
        self.items[item.item_id] = item
        return item

    # -- world actions --------------------------------------------------------

    def join(self, user_id: str) -> None:
        if user_id not in self.users:
            self.add_user(user_id)
        self.users[user_id].connected = True

    def leave(self, user_id: str) -> None:
        if user_id in self.users:
            self.users[user_id].connected = False

    def connected_count(self) -> int:
        return sum(1 for u in self.users.values() if u.connected)

    def interact(self, user_id: str, item_id: str) -> None:
        """A user clicks a clickable item; fires in that user's context."""
        item = self.items.get(item_id)
        if item is None:
            raise ScenarioError(f"unknown item {item_id!r}")
        if item.kind is not ItemKind.CLICKABLE:
            raise ScenarioError(f"item {item_id!r} is not clickable")
        self._fire(Action.CLICK, user_id, item)

    def enter_region(self, user_id: str, item_id: str) -> None:
        """A user steps onto a floor region; fires once per entry."""
        item = self.items.get(item_id)
        if item is None:
            raise ScenarioError(f"unknown region {item_id!r}")
        if item.kind is not ItemKind.FLOOR_REGION:
            raise ScenarioError(f"item {item_id!r} is not a floor region")
        self._fire(Action.ENTER_REGION, user_id, item)

    def _fire(self, action: Action, user_id: str, item: WorldItem) -> None:
        user = self.users.get(user_id)
        if user is None or not user.connected:
            return  # events cannot originate from disconnected users
        context = TriggerContext(
            action=action,
            user_id=user_id,
            item_id=item.item_id,
            t_ms=self.t_ms,
            user_count=self.connected_count(),
            click_index=item.fired_count,
        )
        item.fired_count += 1
        payload = item.script.on_event(context)
        if payload is None:
            return
        self.call_external(user, item.script, payload, item_id=item.item_id)

    def call_external(self, user: SimulatedUser, script: AttachedScript,
                      payload: str, item_id: str = "") -> CallRecord:
        """POST the payload to the script's preset URL from the user's context.

        Rate-limited calls are dropped silently (counted in the report);
        transport failures are recorded, never raised. On completion the
        response string, or the error body's message, goes to ``on_response``.
        """
        seq = len(self.calls)
        if not user.connected:
            record = CallRecord(seq, self.t_ms, user.user_id, item_id, payload, "dropped")
            self.calls.append(record)
            return record
        if not self.limiter.allow(user.user_id, self.t_ms):
            record = CallRecord(seq, self.t_ms, user.user_id, item_id, payload, "dropped")
            self.calls.append(record)
            return record
        env = TriggerEnvelope(
            request=payload,
            request_id=f"r{seq:05d}-{self._rng.getrandbits(48):012x}",
            world_id=self.world_id,
            item_id=item_id,
            user_id=user.user_id,
            timestamp_ms=self.t_ms,
        )
        try:
            reply = self._session.post(
                script.target_url,
                data=encode_envelope(env),
                headers={"Content-Type": "application/json; charset=utf-8"},
                timeout=self._call_timeout_s,
            )
        except (OSError, http.client.HTTPException):
            record = CallRecord(seq, self.t_ms, user.user_id, item_id, payload, "failed")
            self.calls.append(record)
            return record
        response_text = _extract_response_text(reply)
        record = CallRecord(seq, self.t_ms, user.user_id, item_id, payload,
                            "forwarded", reply.status_code, response_text)
        self.calls.append(record)
        script.on_response(response_text)
        return record

    def report(self) -> WorldReport:
        outcomes = [c.outcome for c in self.calls]
        return WorldReport(
            seed=self.seed,
            forwarded_calls=outcomes.count("forwarded"),
            dropped_calls=outcomes.count("dropped"),
            failed_calls=outcomes.count("failed"),
            dropped_by_user=dict(sorted(self.limiter.dropped_by_user.items())),
            final_connected_users=self.connected_count(),
            calls=list(self.calls),
        )


def _extract_response_text(reply: Response) -> str:
    try:
        doc = json.loads(reply.text)
    except ValueError:
        return reply.text
    if isinstance(doc, dict):
        if isinstance(doc.get("response"), str):
            return doc["response"]
        error = doc.get("error")
        if isinstance(error, dict):
            return str(error.get("message", ""))
    return reply.text


# -- scenario files -------------------------------------------------------------

def make_template_script(target_url: str, payload_template: Any) -> AttachedScript:
    """Script that renders its payload template on every fired event."""
    templates = payload_template if isinstance(payload_template, list) else [payload_template]
    if not templates:
        templates = [""]

    def on_event(context: TriggerContext) -> str:
        raw = templates[context.click_index % len(templates)]
        return Template(raw).safe_substitute(
            user_id=context.user_id,
            item_id=context.item_id,
            user_count=context.user_count,
            click_index=context.click_index,
        )

    return AttachedScript(target_url=target_url, on_event=on_event)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario JSON; raises ScenarioParseError with position."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioParseError(f"not valid JSON: {exc.msg}", line=exc.lineno) from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario must be a JSON object")

    rate = doc.get("rateLimit") or {}
    users: list[tuple[str, bool]] = []
    seen_users: set[str] = set()
    for i, entry in enumerate(doc.get("users", [])):
        user_id = entry.get("userId")
        if not isinstance(user_id, str) or not user_id:
            raise ScenarioParseError(f"users[{i}] lacks a userId")
        if user_id in seen_users:
            raise ScenarioParseError(f"duplicate userId {user_id!r}")
        seen_users.add(user_id)
        users.append((user_id, bool(entry.get("isOwner", False))))

    items: list[ItemSpec] = []
    item_kinds: dict[str, ItemKind] = {}
    for i, entry in enumerate(doc.get("items", [])):
        item_id = entry.get("itemId")
        if not isinstance(item_id, str) or not item_id:
            raise ScenarioParseError(f"items[{i}] lacks an itemId")
        if item_id in item_kinds:
            raise ScenarioParseError(f"duplicate itemId {item_id!r}")
        try:
            kind = ItemKind(entry.get("kind"))
        except ValueError:
            raise ScenarioParseError(
                f"items[{i}] has unknown kind {entry.get('kind')!r}") from None
        script = entry.get("script") or {}
        items.append(ItemSpec(
            item_id=item_id,
            kind=kind,
            target_route=script.get("targetRoute", ""),
            payload_template=script.get("payloadTemplate", ""),
        ))
        item_kinds[item_id] = kind

    events: list[ScenarioEvent] = []
    previous_t = None
    for i, entry in enumerate(doc.get("events", [])):
        t_ms = entry.get("tMs")
        if isinstance(t_ms, bool) or not isinstance(t_ms, int) or t_ms < 0:
            raise ScenarioParseError("tMs must be a non-negative integer", event_index=i)
        if previous_t is not None and t_ms < previous_t:
            raise ScenarioParseError(
                f"tMs {t_ms} goes backwards (previous {previous_t})", event_index=i)
        previous_t = t_ms
        try:
            action = Action(entry.get("action"))
        except ValueError:
            raise ScenarioParseError(
                f"unknown action {entry.get('action')!r}", event_index=i) from None
        user_id = entry.get("userId", "")
        if user_id not in seen_users:
            raise ScenarioParseError(f"undeclared userId {user_id!r}", event_index=i)
        item_id = entry.get("itemId", "")
        if action in (Action.CLICK, Action.ENTER_REGION):
            if item_id not in item_kinds:
                raise ScenarioParseError(f"undeclared itemId {item_id!r}", event_index=i)
            wanted = ItemKind.CLICKABLE if action is Action.CLICK else ItemKind.FLOOR_REGION
            if item_kinds[item_id] is not wanted:
                raise ScenarioParseError(
                    f"action {action.value} targets a {item_kinds[item_id].value} item",
                    event_index=i)
        events.append(ScenarioEvent(t_ms, action, user_id, item_id))

    return Scenario(
        seed=int(doc.get("seed", 0)),
        max_calls=int(rate.get("maxCalls", DEFAULT_MAX_CALLS)),
        window_ms=int(rate.get("windowMs", DEFAULT_WINDOW_MS)),
        users=users,
        items=items,
        events=events,
    )


def load_scenario(path: str | Path) -> Scenario:
    return parse_scenario(Path(path).read_text("utf-8"))


def build_world(scenario: Scenario, gateway_url: str, *,
                session: Optional[Session] = None,
                call_timeout_s: float = 10.0) -> World:
    """Instantiate a world with the scenario's users and template items."""
    world = World(
        seed=scenario.seed,
        limiter=RateLimiter(scenario.max_calls, scenario.window_ms),
        session=session,
        call_timeout_s=call_timeout_s,
    )
    for user_id, _ in scenario.users:
        world.add_user(user_id)
    base = gateway_url.rstrip("/")
    for spec in scenario.items:
        script = make_template_script(base + spec.target_route, spec.payload_template)
        world.add_item(WorldItem(spec.item_id, spec.kind, script))
    return world


def run_scenario(scenario: Scenario, gateway_url: str, *,
                 world: Optional[World] = None,
                 session: Optional[Session] = None,
                 call_timeout_s: float = 10.0) -> WorldReport:
    """Replay a scenario against a gateway URL and return the world report.

    Events execute in t_ms order on the virtual clock. The world never raises
    for gateway failures; unreachable gateways simply mark calls failed.
    """
    if world is None:
        world = build_world(scenario, gateway_url,
                            session=session, call_timeout_s=call_timeout_s)
    for event in scenario.events:
        world.t_ms = event.t_ms
        if event.action is Action.JOIN:
            world.join(event.user_id)
        elif event.action is Action.LEAVE:
            world.leave(event.user_id)
        elif event.action is Action.CLICK:
            world.interact(event.user_id, event.item_id)
        else:
            world.enter_region(event.user_id, event.item_id)
    return world.report()
