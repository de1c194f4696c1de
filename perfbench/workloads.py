"""The three workloads: setup, timed phase, oracle checks and metrics.

Every workload runs the real processes: ``worldhook serve`` (and, for
``smarthome_cloud``, ``worldhook mock-smarthome``) on loopback, driven from
this process. With tracing off a run sets the servers up ``SETUP_REPEATS``
times, keeps the last set and measures it. With tracing on it measures an
untraced phase and a traced phase of half the run time each, so that
``trace.overhead_ratio`` compares the two.
"""

from __future__ import annotations

import gc
import json
import statistics
from pathlib import Path
from time import perf_counter, sleep

from worldhook.world import build_world, parse_scenario, run_scenario

import inputs
import oracles
import servers
import spans
from client import ClosedLoop

SETUP_REPEATS = 7
WARMUP_S = 1.0
RSS_INTERVAL_S = 0.25
CONNECTIONS = 2
# Inputs are generated for up to this many callouts per connection and second
# of run time, far above the program's rate today; a run that uses them all
# up stops early and reports over the time it ran.
MAX_RATE_PER_CONNECTION = 1000
WORLD_CHUNKS_PER_SECOND = 50
ORACLE_URL = "http://oracle.invalid"

ECHO_PROBE = (json.dumps({"request": "ping", "requestId": "probe"}).encode(), b'{"response":"ping"}')
SMARTHOME_PROBE = (
    json.dumps({"request": json.dumps({"function_name": "get_status", "args": ["hub-1"]}),
                "requestId": "probe"}).encode(),
    json.dumps({"response": '{"deviceId":"hub-1","deviceType":"Hub"}'},
               separators=(",", ":")).encode(),
)


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile, q in [0, 100]."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def retained_kb(points: list[tuple[int, int]]) -> float:
    """KB of gateway RSS kept per request: the least-squares slope of
    (requests completed, VmRSS in kB) samples taken through the timed window."""
    if len({n for n, _ in points}) < 2:
        return 0.0
    return statistics.linear_regression([n for n, _ in points], [kb for _, kb in points]).slope


class Stack:
    """The server processes of one phase."""

    def __init__(self, gateway: servers.Proc, mock: servers.Proc | None, setup_s: float,
                 event_log: Path, spans_path: Path | None):
        self.gateway = gateway
        self.mock = mock
        self.setup_s = setup_s
        self.event_log = event_log
        self.spans_path = spans_path

    def stop(self) -> None:
        code = self.gateway.stop()
        if self.mock is not None:
            self.mock.stop()
        if code != 0:
            raise RuntimeError(f"gateway exited {code}: "
                               f"{self.gateway.stderr_path.read_text()[-2000:]}")

    def events(self) -> list[dict]:
        if not self.event_log.exists():
            return []
        return [json.loads(line) for line in self.event_log.read_text("utf-8").splitlines()
                if line.strip()]


class Bench:
    """One invocation: the checkout, its run directory, and the options."""

    def __init__(self, root: Path, run_dir: Path, seed: int, seconds: float, trace: bool):
        self.root = root
        self.run_dir = run_dir
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self._procs: list[servers.Proc] = []
        self._stacks = 0

    def close(self) -> None:
        """Stop every process this run started that is still running."""
        for proc in self._procs:
            proc.stop()

    def _spawn(self, argv, tag) -> servers.Proc:
        proc = servers.Proc(argv, self.root, self.run_dir, tag)
        self._procs.append(proc)
        return proc

    def start(self, *, smarthome: bool, traced: bool) -> Stack:
        """Spawn the servers; setup time runs from the first spawn to a correct 200."""
        self._stacks += 1
        tag = f"s{self._stacks}"
        event_log = self.run_dir / f"{tag}.events.jsonl"
        spans_path = self.run_dir / f"{tag}.spans.jsonl" if traced else None
        start = perf_counter()
        mock = None
        if smarthome:
            mock = self._spawn(servers.mock_argv(self.run_dir / "fixture.json"), tag + "-mock")
            mock.wait_url()
        gateway = self._spawn(servers.serve_argv(
            seed=self.seed, event_log=event_log, spans_out=spans_path,
            smarthome_url=mock.url if mock else "", token=inputs.SMARTHOME_TOKEN), tag)
        url = gateway.wait_url()
        body, want = SMARTHOME_PROBE if smarthome else ECHO_PROBE
        servers.wait_ready(url, body, want)
        return Stack(gateway, mock, perf_counter() - start, event_log, spans_path)

    def setups(self, *, smarthome: bool) -> tuple[Stack, float]:
        """Set up ``SETUP_REPEATS`` times; keep the last stack, return the median time."""
        times = []
        for i in range(SETUP_REPEATS):
            stack = self.start(smarthome=smarthome, traced=False)
            times.append(stack.setup_s)
            if i < SETUP_REPEATS - 1:
                stack.stop()
        return stack, statistics.median(times)

    def write_inputs(self, name: str, lines) -> None:
        """Write the generated inputs out, then freeze them out of the garbage
        collector: a full collection over them takes tens of milliseconds,
        long enough to change the kernel's delayed-ACK timing for the callouts
        around it."""
        with open(self.run_dir / name, "w", encoding="utf-8") as out:
            for line in lines:
                out.write(line + "\n")
        gc.collect()
        gc.freeze()


class Outcome:
    """What one workload run found: counts, end-to-end metrics, per-layer metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self.e2e: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.order_violations = 0
        self.e2e_samples = 0

    def fail(self, reason: str, count: int = 1) -> None:
        self.failed += count
        if len(self.reasons) < 10:
            self.reasons.append(reason)


# -- HTTP closed-loop workloads ---------------------------------------------------

class Phase:
    """One timed closed-loop phase against a stack."""

    def __init__(self, stack: Stack, per_connection, seconds: float):
        begin = perf_counter()
        self.window = (begin + WARMUP_S, begin + WARMUP_S + seconds)
        loop = ClosedLoop(stack.gateway.url, per_connection, self.window[1]).start()
        sleep(max(0.0, self.window[0] - perf_counter()))
        rss = []
        while loop.running():
            rss.append((loop.completed(), servers.rss_kb(stack.gateway.pid)))
            sleep(RSS_INTERVAL_S)
        self.samples = loop.join()
        rss.append((loop.completed(), servers.rss_kb(stack.gateway.pid)))
        self.per_connection = loop.samples
        self.retained_kb = retained_kb(rss)
        self.measured = [s for s in self.samples if s.start >= self.window[0]]

    def latencies(self) -> list[float]:
        return [s.latency_ms for s in self.measured]

    def throughput(self) -> float:
        if not self.measured:
            return 0.0
        return len(self.measured) / (max(s.end for s in self.measured) - self.window[0])

    def replies(self) -> dict[str, str]:
        """requestId to response string, for every 200 reply."""
        out = {}
        for s in self.samples:
            if s.status == 200 and s.request["requestId"]:
                out[s.request["requestId"]] = json.loads(s.body)["response"]
        return out


def _check_device_phase(phase: Phase, outcome: Outcome) -> None:
    chimes = []
    for s in phase.samples:
        outcome.attempted += 1
        reason = oracles.check_device(s.request, s.status, s.body) if s.status else \
            f"transport: {s.body.decode()}"
        if reason:
            outcome.fail(reason)
        elif s.request["route"] == "doorbell" and s.request["requestId"]:
            chimes.append(int(json.loads(s.body)["response"]))
    bad = oracles.check_chimes(chimes)
    if bad:
        outcome.fail(f"doorbell replies are not 1..{len(chimes)}: {bad} off", bad)


def _check_smarthome_phase(phase: Phase, outcome: Outcome) -> None:
    for conn, samples in enumerate(phase.per_connection):
        model = oracles.SmartHomeModel(conn)
        for s in samples:
            outcome.attempted += 1
            reason = model.check(s.request, s.status, s.body) if s.status else \
                f"transport: {s.body.decode()}"
            if reason:
                outcome.fail(reason)


def _end_to_end(outcome: Outcome, setup_s: float, throughput: float,
                latencies: list[float], retained_kb: float) -> None:
    outcome.e2e = {
        "setup_s": setup_s,
        "throughput_rps": throughput,
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "retained_kb_per_req": retained_kb,
    }
    outcome.e2e_samples = len(latencies)


def _status_counts(outcome: Outcome, log_lines: list[dict]) -> None:
    for status in (200, 400, 404, 500):
        outcome.layers[f"gateway.status_{status}"] = sum(
            1 for rec in log_lines if rec.get("status") == status)


def http_workload(bench: Bench, *, smarthome: bool) -> Outcome:
    gen = inputs.smarthome_requests if smarthome else inputs.device_requests
    count = int((bench.seconds + WARMUP_S) * MAX_RATE_PER_CONNECTION)
    per_connection = [gen(bench.seed, c, count) for c in range(CONNECTIONS)]
    bench.write_inputs("inputs.jsonl", (json.dumps({"conn": c, **r}, ensure_ascii=False)
                                        for c, reqs in enumerate(per_connection)
                                        for r in reqs))
    if smarthome:
        (bench.run_dir / "fixture.json").write_text(
            json.dumps(inputs.smarthome_fixture(), indent=1), "utf-8")
    check = _check_smarthome_phase if smarthome else _check_device_phase
    routes = () if smarthome else inputs.DEVICE_ROUTES
    outcome = Outcome()

    if not bench.trace:
        stack, setup_s = bench.setups(smarthome=smarthome)
        phase = Phase(stack, per_connection, bench.seconds)
        stack.stop()
        check(phase, outcome)
        outcome.order_violations = oracles.order_violations(
            stack.gateway.log_lines(), stack.events(), phase.replies(), routes)
        _end_to_end(outcome, setup_s, phase.throughput(), phase.latencies(), phase.retained_kb)
        return outcome

    half = bench.seconds / 2
    plain = bench.start(smarthome=smarthome, traced=False)
    untraced = Phase(plain, per_connection, half)
    plain.stop()
    traced_stack = bench.start(smarthome=smarthome, traced=True)
    traced = Phase(traced_stack, per_connection, half)
    traced_stack.stop()
    for phase in (untraced, traced):
        check(phase, outcome)
    log_lines = plain.gateway.log_lines()
    _status_counts(outcome, log_lines)
    outcome.order_violations = oracles.order_violations(
        log_lines, plain.events(), untraced.replies(), routes)
    client_ms = {s.request["requestId"]: s.latency_ms for s in traced.measured
                 if s.status and s.request["requestId"]}
    _layers(outcome, spans.load(traced_stack.spans_path), traced.window, client_ms,
            percentile(untraced.latencies(), 50), percentile(traced.latencies(), 50))
    return outcome


# -- per-layer metrics from spans -------------------------------------------------------

# metric name -> (span name, which durations, percentile, scale from seconds)
_SPAN_METRICS = {
    "gateway.handle_us": ("gateway.handle", "total", 50, 1e6),
    "gateway.handle_us.p95": ("gateway.handle", "total", 95, 1e6),
    "gateway.dispatch_self_us": ("gateway.handle", "self", 50, 1e6),
    "gateway.resolve_us": ("gateway.resolve", "total", 50, 1e6),
    "gateway.log_append_us": ("gateway.log_append", "total", 50, 1e6),
    "tunnel.is_active_us": ("tunnel.is_active", "total", 50, 1e6),
    "envelope.decode_us": ("envelope.decode", "total", 50, 1e6),
    "envelope.serialize_us": ("envelope.serialize", "total", 50, 1e6),
    "envelope.encode_us": ("envelope.encode", "total", 50, 1e6),
    "envelope.parse_smarthome_us": ("envelope.parse_smarthome", "total", 50, 1e6),
    "devices.handle_us": ("devices.handle", "total", 50, 1e6),
    "smarthome.client_ms": ("smarthome.client", "total", 50, 1e3),
    "smarthome.dispatch_self_us": ("smarthome.dispatch", "self", 50, 1e6),
    "world.post_ms": ("world.post", "total", 50, 1e3),
    "world.call_self_us": ("world.call", "self", 50, 1e6),
    "world.limiter_us": ("world.limiter", "total", 50, 1e6),
}


def _layers(outcome: Outcome, requests: list[dict], window, client_ms: dict[str, float],
            untraced_p50: float, traced_p50: float) -> None:
    """Per-layer metrics; a layer the workload does not reach reads 0."""
    total, own = spans.durations(requests, window)
    for metric, (name, kind, q, scale) in _SPAN_METRICS.items():
        values = (total if kind == "total" else own).get(name, [])
        outcome.layers[metric] = percentile(values, q) * scale
    handle_ms = {}
    default_route = 0
    for req in requests:
        root = next((s for s in req["spans"] if s[1] == 0), None)
        if root and root[2] == "gateway.handle" and window[0] <= root[3] <= window[1]:
            handle_ms[req["rid"]] = (root[4] - root[3]) * 1e3
            default_route += req["route"] == ""
    http_ms = [ms - handle_ms[rid] for rid, ms in client_ms.items() if rid in handle_ms]
    outcome.layers["gateway.http_ms"] = percentile(http_ms, 50)
    outcome.layers["smarthome.cloud_call_ratio"] = \
        len(total.get("smarthome.client", [])) / default_route if default_route else 0.0
    outcome.layers["gateway.order_violations"] = outcome.order_violations
    outcome.layers["trace.overhead_ratio"] = traced_p50 / untraced_p50 if untraced_p50 else 0.0
    outcome.layers.setdefault("world.drop_ratio", 0.0)


# -- world replay ------------------------------------------------------------------------

class WorldPhase:
    """Replay scenario chunks against a stack until the time is up.

    Chunk 0 warms up. After the timed loop, each chunk is replayed again
    through the stub session, whose in-process devices carry state across
    chunks as the gateway's do, and the two reports must be byte-identical.
    """

    def __init__(self, stack: Stack, chunks: list[str], seconds: float, outcome: Outcome,
                 tracer: spans.Tracer | None = None):
        self.latencies: list[float] = []
        self.forwarded = self.dropped = self.calls = 0
        replay_s = 0.0
        rss = []
        self.window = (0.0, 0.0)
        replayed = []
        for index, text in enumerate(chunks):
            if index == 1:
                begin = perf_counter()
                self.window = (begin, begin + seconds)
            elif index > 1 and perf_counter() >= self.window[1]:
                break
            if index > 0:
                rss.append((self.forwarded, servers.rss_kb(stack.gateway.pid)))
            scenario = parse_scenario(text)
            world = build_world(scenario, stack.gateway.url)
            if tracer is not None:
                spans.attach_world(tracer, world)
            else:
                world.call_external = _timed(world.call_external, self.latencies, index > 0)
            start = perf_counter()
            report = run_scenario(scenario, stack.gateway.url, world=world)
            elapsed = perf_counter() - start
            replayed.append((scenario, report))
            if index > 0:
                replay_s += elapsed
                self.forwarded += report.forwarded_calls
                self.dropped += report.dropped_calls
                self.calls += len(report.calls)
        rss.append((self.forwarded, servers.rss_kb(stack.gateway.pid)))
        self.throughput = self.forwarded / replay_s if replay_s else 0.0
        self.retained_kb = retained_kb(rss)

        self.stub = oracles.StubSession()
        for index, (scenario, report) in enumerate(replayed):
            want = run_scenario(scenario, ORACLE_URL, session=self.stub)
            outcome.attempted += sum(1 for c in report.calls if c.outcome != "dropped")
            bad = oracles.diff_reports(report, want)
            if bad:
                outcome.fail(f"world report of chunk {index} differs from the oracle "
                             f"in {bad} calls", bad)


def _timed(call_external, out: list[float], keep: bool):
    def timed(*args, **kwargs):
        start = perf_counter()
        record = call_external(*args, **kwargs)
        if keep and record.outcome == "forwarded":
            out.append((perf_counter() - start) * 1000.0)
        return record
    return timed


def world_workload(bench: Bench) -> Outcome:
    count = 1 + int((bench.seconds + WARMUP_S) * WORLD_CHUNKS_PER_SECOND)
    texts = [json.dumps(inputs.world_chunk(bench.seed, i)) for i in range(count)]
    bench.write_inputs("scenario.jsonl", texts)
    outcome = Outcome()

    if not bench.trace:
        stack, setup_s = bench.setups(smarthome=False)
        phase = WorldPhase(stack, texts, bench.seconds, outcome)
        stack.stop()
        outcome.order_violations = oracles.order_violations(
            stack.gateway.log_lines(), stack.events(), phase.stub.replies, inputs.DEVICE_ROUTES)
        _end_to_end(outcome, setup_s, phase.throughput, phase.latencies, phase.retained_kb)
        return outcome

    half = bench.seconds / 2
    plain = bench.start(smarthome=False, traced=False)
    untraced = WorldPhase(plain, texts, half, outcome)
    plain.stop()
    traced_stack = bench.start(smarthome=False, traced=True)
    tracer = spans.Tracer()
    spans.install_world(tracer)
    try:
        traced = WorldPhase(traced_stack, texts, half, outcome, tracer)
    finally:
        tracer.unpatch()
    traced_stack.stop()
    log_lines = plain.gateway.log_lines()
    _status_counts(outcome, log_lines)
    outcome.order_violations = oracles.order_violations(
        log_lines, plain.events(), untraced.stub.replies, inputs.DEVICE_ROUTES)
    world_requests = [{"rid": r.rid, "route": r.route, "spans": r.spans}
                      for r in tracer.requests]
    client_ms = {}
    for req in world_requests:
        root = next(s for s in req["spans"] if s[1] == 0)
        if req["rid"] and traced.window[0] <= root[3] <= traced.window[1]:
            client_ms[req["rid"]] = (root[4] - root[3]) * 1e3
    traced_p50 = percentile(list(client_ms.values()), 50)
    outcome.layers["world.drop_ratio"] = traced.dropped / traced.calls if traced.calls else 0.0
    _layers(outcome, spans.load(traced_stack.spans_path) + world_requests, traced.window,
            client_ms, percentile(untraced.latencies, 50), traced_p50)
    return outcome


WORKLOADS = {
    "device_callouts": lambda bench: http_workload(bench, smarthome=False),
    "smarthome_cloud": lambda bench: http_workload(bench, smarthome=True),
    "world_replay": world_workload,
}
