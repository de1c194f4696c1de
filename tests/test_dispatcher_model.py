"""A stateful model of ``RequestDispatcher`` under interleavings.

Handlers block on ``threading.Event`` gates that the model sets, over two or
three device keys with a queue depth of two or three and a short deadline.
Rules submit a request, release a handler, let every pending deadline pass,
and fill one key's queue; the invariants are the dispatcher's contract:

- each request gets exactly one reply and one record;
- per key, log order equals the order the handlers ran in, and a worker logs
  a request only after its handler returned (or its deadline passed);
- a request answered "timed out waiting for device" never ran its handler;
- "queue full" is answered only when the key holds ``per_device_queue_depth``
  jobs, and no key ever holds more;
- once everything is released, ``_pending`` is empty, nothing is in flight
  and no ``worldhook-device`` thread of the model's dispatcher is left.

Only the model's thread submits and releases, and a release waits for the
released request's reply, so the only events between two rules are
deadlines passing. The rules therefore know, before each submission, an upper
bound on the key's occupancy at the moment the dispatcher decides.

Runs are reduced from Hypothesis's default 100 examples of up to 50 steps to
12 examples of up to 12 steps: a step that lets a deadline pass sleeps for
it, and this keeps the whole model under about 20 s on a 2-core box. Each
example uses at most ``MAX_CLIENTS`` client threads plus one worker per key.
"""

import json
import threading
import time

from hypothesis import HealthCheck, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from worldhook.gateway import GatewayConfig, HandlerRegistration, RequestDispatcher

TIMEOUT_MS = 200
MAX_CLIENTS = 10  # requests that may wait for a reply at once
GATE_LIMIT_S = 10.0  # a handler never blocks longer, whatever the dispatcher does
JOIN_S = 10.0

QUEUE_FULL = "device queue full"
WITHDRAWN = "timed out waiting for device"
HANDLER_TIMED_OUT = "handler timed out"


def wait_until(predicate, timeout: float = 5.0) -> bool:
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(0.002)
    return True


def device_threads() -> set:
    return {t for t in threading.enumerate() if t.name == "worldhook-device" and t.is_alive()}


class DispatcherModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.lock = threading.Lock()
        self.gates: dict[str, threading.Event] = {}
        self.key_of: dict[str, str] = {}
        self.runs: dict[str, list[str]] = {}  # key -> rids in the order their handlers started
        self.returned: set[str] = set()  # rids whose handler returned
        self.replies: dict[str, list[tuple[int, dict]]] = {}
        self.records: list = []
        self.clients: dict[str, threading.Thread] = {}
        self.seen_entries: dict[int, tuple] = {}  # queue entries already seen, kept alive
        self.errors: list[str] = []
        self.device_threads_before = device_threads()

    @initialize(keys=st.integers(2, 3), depth=st.integers(2, 3))
    def start(self, keys, depth):
        self.keys = [f"k{i}" for i in range(keys)]
        self.depth = depth
        registration = HandlerRegistration()
        for key in self.keys:
            self.runs[key] = []
            registration.register_route(key, self._handler_for(key))
        self.dispatcher = RequestDispatcher(
            GatewayConfig(per_device_queue_depth=depth, handler_timeout_ms=TIMEOUT_MS),
            registration)
        self.dispatcher.request_log.add_listener(self._on_record)

    # -- the device side ----------------------------------------------------

    def _handler_for(self, key):
        def handler(rid: str) -> str:
            with self.lock:
                self.runs[key].append(rid)
            self.gates[rid].wait(GATE_LIMIT_S)
            with self.lock:
                self.returned.add(rid)
            return rid
        return handler

    def _on_record(self, record) -> None:
        rid = record.request_id
        with self.lock:
            self.records.append(record)
            if record.dispatched and record.response_status == 200 and rid not in self.returned:
                self.errors.append(f"{rid} was logged before its handler returned")

    # -- the client side ----------------------------------------------------

    def _call(self, key: str, rid: str) -> None:
        body = json.dumps({"request": rid, "requestId": rid}).encode()
        status, reply = self.dispatcher.handle_request(body, f"/trigger/{key}")
        with self.lock:
            self.replies.setdefault(rid, []).append((status, json.loads(reply)))

    def _queued(self, key: str) -> list:
        with self.dispatcher._pending_lock:
            return list(self.dispatcher._pending.get(key, ()))

    def _occupancy(self, key: str) -> int:
        """Jobs the key holds: the one in its worker's hands plus those queued."""
        with self.dispatcher._pending_lock:
            pending = self.dispatcher._pending.get(key)
            return 0 if pending is None else 1 + len(pending)

    def _outstanding(self) -> int:
        return sum(t.is_alive() for t in self.clients.values())

    def _message(self, rid: str) -> str:
        status, doc = self.replies[rid][0]
        return doc["error"]["message"] if status != 200 else ""

    def _submit(self, key: str) -> str:
        """Submit one request and wait until the dispatcher has decided on it."""
        rid = f"r{len(self.gates)}"
        self.gates[rid] = threading.Event()
        self.key_of[rid] = key
        # Between this read and the dispatcher's decision, jobs can only leave.
        occupancy = self._occupancy(key)
        client = threading.Thread(target=self._call, args=(key, rid), name="model-client")
        self.clients[rid] = client
        client.start()

        def decided() -> bool:
            with self.lock:
                if rid in self.replies or rid in self.runs[key]:
                    return True
            return any(id(entry) not in self.seen_entries for entry in self._queued(key))

        assert wait_until(decided, JOIN_S), f"{rid} was neither queued, run nor answered"
        for entry in self._queued(key):
            self.seen_entries[id(entry)] = entry
        with self.lock:
            full = rid in self.replies and QUEUE_FULL in self._message(rid)
        if full:
            assert occupancy == self.depth, f"{rid}: queue full at occupancy {occupancy}"
        return rid

    # -- rules ----------------------------------------------------------------

    @precondition(lambda self: self._outstanding() < MAX_CLIENTS)
    @rule(data=st.data())
    def submit(self, data):
        self._submit(data.draw(st.sampled_from(self.keys), label="key"))

    @precondition(lambda self: any(not g.is_set() for g in self.gates.values()))
    @rule(data=st.data())
    def release(self, data):
        rid = data.draw(st.sampled_from(sorted(r for r, g in self.gates.items() if not g.is_set())),
                        label="rid")
        self.gates[rid].set()
        # Its reply comes when its handler returns, or at its deadline if it is still queued.
        self.clients[rid].join(JOIN_S)
        assert not self.clients[rid].is_alive(), f"{rid} got no reply after its release"
        if rid in self.runs[self.key_of[rid]]:
            assert wait_until(lambda: rid in self.returned, JOIN_S)

    @rule()
    def pass_deadline(self):
        time.sleep(TIMEOUT_MS / 1000.0 * 1.25)
        for rid, client in self.clients.items():
            client.join(JOIN_S)
            assert not client.is_alive(), f"{rid} has no reply after its deadline"

    @precondition(lambda self: self._outstanding() + self.depth + 1 <= MAX_CLIENTS)
    @rule(data=st.data())
    def fill_queue(self, data):
        key = data.draw(st.sampled_from(self.keys), label="key")
        for _ in range(self.depth + 1):
            rid = self._submit(key)
            with self.lock:
                if rid in self.replies and QUEUE_FULL in self._message(rid):
                    return

    # -- invariants -----------------------------------------------------------

    @invariant()
    def contract_holds(self):
        if not hasattr(self, "dispatcher"):
            return
        for key in self.keys:
            assert self._occupancy(key) <= self.depth
        with self.lock:
            assert not self.errors, self.errors
            for rid, replies in self.replies.items():
                assert len(replies) == 1, (rid, replies)
                if WITHDRAWN in self._message(rid):
                    assert rid not in self.runs[self.key_of[rid]], f"withdrawn {rid} ran"
            rids = [r.request_id for r in self.records]
            assert len(rids) == len(set(rids)), rids
            for key in self.keys:
                # A job the worker has taken may be logged as timed out before its
                # handler starts; such a record is checked once the run is over.
                started = set(self.runs[key])
                logged = [r.request_id for r in self.records
                          if r.dispatched and r.route == key and r.request_id in started]
                assert logged == self.runs[key][:len(logged)], (key, logged, self.runs[key])

    def teardown(self):
        if not hasattr(self, "dispatcher"):
            return
        for gate in self.gates.values():
            gate.set()
        for rid, client in self.clients.items():
            client.join(JOIN_S)
            assert not client.is_alive(), f"{rid} has no reply after everything was released"
        assert wait_until(lambda: not self.dispatcher._pending)
        assert wait_until(lambda: device_threads() <= self.device_threads_before)
        assert self.dispatcher._inflight == 0
        self.contract_holds()
        with self.lock:
            assert sorted(self.replies) == sorted(self.gates)
            assert sorted(r.request_id for r in self.records) == sorted(self.gates)
            for key in self.keys:
                logged = [r.request_id for r in self.records if r.dispatched and r.route == key]
                assert logged == self.runs[key]
            for rid in self.gates:
                status, doc = self.replies[rid][0]
                ran = rid in self.runs[self.key_of[rid]]
                assert ran == (status == 200 or HANDLER_TIMED_OUT in self._message(rid)), \
                    (rid, status, doc)


TestDispatcherModel = DispatcherModel.TestCase
TestDispatcherModel.settings = settings(
    max_examples=12, stateful_step_count=12, deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
