"""Command-line entry point wiring the gateway, tunnel, devices, and world.

Subcommands::

    worldhook serve            run the gateway behind a loopback tunnel
    worldhook demo NAME        run a built-in end-to-end scenario and check it
    worldhook mock-smarthome   run the mock smart-home cloud
    worldhook world-run        replay a scenario file against a gateway URL

Exit codes: 0 success, 1 scenario/check failure, 2 configuration or startup
error. ``serve`` and ``mock-smarthome`` print their public URL as the first
stdout line and serve until interrupted.

Each subcommand takes only the flags it reads. Flags override environment
variables (MG_PORT, MG_ROUTE_PREFIX, SMARTHOME_BASE_URL, SMARTHOME_TOKEN,
MG_SEED), which override built-in defaults; a subcommand reads only the
variables of its own flags.
"""

from __future__ import annotations

import argparse
import os
import random
import signal
import sys
import time
from pathlib import Path
from typing import Optional

from .devices import DeviceRegistry, Doorbell, EventFile, Fan, PresenceLamp
from .envelope import canonical_json
from .gateway import (
    GatewayConfig,
    GatewayStartupError,
    HandlerRegistration,
    RegistrationError,
    RequestRecord,
    run,
)
from .smarthome import (
    DEFAULT_TOKEN,
    Fixture,
    SmartHomeClient,
    default_workshop_fixture,
    make_gateway_handler,
    start_mock,
)
from .tunnel import TokenRegistry, TunnelMode, close_tunnel, open_tunnel
from .world import ScenarioParseError, WorldReport, load_scenario, run_scenario

FIXTURES_DIR = Path(__file__).parent / "fixtures"
DEMO_NAMES = ("fan", "doorbell", "presence-lamp", "piano", "smarthome")

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_CONFIG = 2


def _env_int(name: str, fallback: Optional[int]) -> Optional[int]:
    raw = os.environ.get(name)
    if not raw:
        return fallback
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}") from None


# The environment fallback of each shared flag, by its argparse dest.
_ENV_FALLBACKS = {
    "port": lambda: _env_int("MG_PORT", 0),
    "route_prefix": lambda: os.environ.get("MG_ROUTE_PREFIX", "/trigger"),
    "smarthome_base_url": lambda: os.environ.get("SMARTHOME_BASE_URL"),
    "smarthome_token": lambda: os.environ.get("SMARTHOME_TOKEN", DEFAULT_TOKEN),
    "seed": lambda: _env_int("MG_SEED", None),
}


def _resolve_common(args: argparse.Namespace) -> None:
    """Apply flag > environment > default precedence to the flags ``args`` has.

    Raises ValueError when an integer variable that is read does not parse.
    """
    for dest, fallback in _ENV_FALLBACKS.items():
        if dest in vars(args) and vars(args)[dest] is None:
            setattr(args, dest, fallback())


def _token_registry(seed: Optional[int]) -> TokenRegistry:
    return TokenRegistry(rng=random.Random(seed) if seed is not None else None)


def _serve_until_interrupted(ready_line: str) -> None:
    """Print ``ready_line``, then block until SIGINT/SIGTERM; both exit cleanly.

    The SIGTERM handler goes in before the line is printed, and the print sits
    inside the ``try``, so a signal sent as soon as the line is read still ends
    the loop cleanly instead of killing the process or escaping the cleanup.
    """
    def _interrupt(signum, frame):
        raise KeyboardInterrupt

    signal.signal(signal.SIGTERM, _interrupt)
    try:
        print(ready_line, flush=True)
        while True:
            time.sleep(0.2)
    except KeyboardInterrupt:
        pass


def _record_line(record: RequestRecord, log_format: str) -> str:
    if log_format == "jsonl":
        doc = {
            "arrivalOrder": record.arrival_order,
            "requestId": record.request_id,
            "route": record.route,
            "status": record.response_status,
            "latencyMs": round(record.latency_ms, 3),
            "dispatched": record.dispatched,
        }
        if record.envelope is not None:
            doc["request"] = record.envelope.request
            doc["userId"] = record.envelope.user_id
            doc["itemId"] = record.envelope.item_id
        return canonical_json(doc)
    origin = record.envelope.user_id if record.envelope else "-"
    return (f"#{record.arrival_order} {record.response_status} "
            f"route={record.route or 'default'} user={origin or '-'} "
            f"{record.latency_ms:.1f}ms")


def _print_report(report: WorldReport, log_format: str) -> None:
    if log_format == "jsonl":
        for call in report.calls:
            print(canonical_json(call.to_json_dict()))
        summary = report.to_json_dict()
        summary.pop("calls")
        print(canonical_json(summary))
    else:
        print(report.render_text())


# -- serve ----------------------------------------------------------------------

def cmd_serve(args: argparse.Namespace) -> int:
    registry = DeviceRegistry.load(args.devices) if args.devices else DeviceRegistry.default()
    registration = HandlerRegistration().register_devices(registry)
    if args.smarthome_base_url:
        client = SmartHomeClient(args.smarthome_base_url, args.smarthome_token)
        registration.register_default(make_gateway_handler(client))
    else:
        registration.register_default(lambda payload: payload)  # echo

    # serve keeps no device events: they go to the event file, or nowhere.
    events = EventFile(args.event_log) if args.event_log else None
    registry.stream_events(events.write if events else lambda device_key, event: None)
    try:
        _serve_gateway(args, registration)
    finally:
        if events:
            events.close()
            if events.lost:
                print(f"event log: {events.lost} device event lines not written",
                      file=sys.stderr)
    return EXIT_OK


def _serve_gateway(args: argparse.Namespace, registration: HandlerRegistration) -> None:
    """Run the gateway behind a loopback tunnel, printing its request log, until interrupted."""
    tokens = _token_registry(args.seed)
    handle = run(GatewayConfig(bind_port=args.port, route_prefix=args.route_prefix),
                 registration, tokens)
    endpoint = open_tunnel(TunnelMode.LOOPBACK, handle.port, registry=tokens)
    unwritten = 0  # lines lost to a closed stdout; listeners run under the log's lock

    def print_record(record: RequestRecord) -> None:
        # A closed stdout must not fail the request: count the line, and point
        # fd 1 at the null device so that no later write or flush raises.
        nonlocal unwritten
        if unwritten:
            unwritten += 1
            return
        try:
            sys.stdout.write(_record_line(record, args.log_format) + "\n")  # one write per line
            sys.stdout.flush()
        except OSError:
            unwritten += 1
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)

    handle.request_log.add_listener(print_record)
    try:
        _serve_until_interrupted(endpoint.public_url)
    finally:
        close_tunnel(endpoint, registry=tokens)
        handle.shutdown()
        sys.stdout.flush()
        if unwritten:
            print(f"stdout closed: {unwritten} request log lines not written", file=sys.stderr)


# -- mock smart-home cloud --------------------------------------------------------

def cmd_mock_smarthome(args: argparse.Namespace) -> int:
    if args.fixture:
        fixture = Fixture.load(args.fixture)
    else:
        fixture = default_workshop_fixture(args.smarthome_token)
    handle = start_mock(fixture, args.port)
    try:
        _serve_until_interrupted(handle.base_url)
    finally:
        handle.shutdown()
        sys.stdout.flush()
    return EXIT_OK


# -- scenario replay ---------------------------------------------------------------

def cmd_world_run(args: argparse.Namespace) -> int:
    scenario = load_scenario(args.scenario)
    report = run_scenario(scenario, args.gateway_url)
    _print_report(report, args.log_format)
    return EXIT_OK if report.failed_calls == 0 else EXIT_CHECK_FAILED


# -- demos --------------------------------------------------------------------------

def _run_demo_scenario(args, fixture_name: str, registration: HandlerRegistration):
    """Gateway + loopback tunnel + scenario replay; returns (report, cleanup)."""
    tokens = _token_registry(args.seed)
    handle = run(GatewayConfig(bind_port=args.port, route_prefix=args.route_prefix),
                 registration, tokens)
    endpoint = open_tunnel(TunnelMode.LOOPBACK, handle.port, registry=tokens)
    scenario = load_scenario(FIXTURES_DIR / fixture_name)
    report = run_scenario(scenario, endpoint.public_url)

    def cleanup():
        close_tunnel(endpoint, registry=tokens)
        handle.shutdown()

    return report, cleanup


def _finish_demo(args, report: WorldReport, checks: list[tuple[str, bool]]) -> int:
    _print_report(report, args.log_format)
    for description, ok in checks:
        print(f"check {'ok' if ok else 'FAILED'}: {description}")
    failures = [d for d, ok in checks if not ok]
    if failures:
        print(f"demo failed: {failures[0]}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    return EXIT_OK


def cmd_demo(args: argparse.Namespace) -> int:
    registry = DeviceRegistry.default()
    registration = HandlerRegistration().register_devices(registry)
    mock = None
    cleanup = None
    try:
        if args.name == "fan":
            report, cleanup = _run_demo_scenario(args, "demo_fan.json", registration)
            fan: Fan = registry.get("fan")
            commands = [e.command for e in fan.event_log]
            checks = [
                ("all 4 clicks forwarded", report.forwarded_calls == 4),
                ("fan applied on/off/on/off", commands == ["on", "off", "on", "off"]),
                ("fan final state is Stopped", fan.state.value == "Stopped"),
            ]
        elif args.name == "doorbell":
            report, cleanup = _run_demo_scenario(args, "doorbell_offline_owner.json", registration)
            bell: Doorbell = registry.get("doorbell")
            checks = [
                ("both entries forwarded", report.forwarded_calls == 2),
                ("chime count equals entry events", bell.chime_count == 2),
            ]
        elif args.name == "presence-lamp":
            report, cleanup = _run_demo_scenario(args, "presence_10users.json", registration)
            lamp: PresenceLamp = registry.get("lamp")
            trace = [int(r) for r in report.responses_for("dome")]
            expected = [min(100, 20 * k) for k in range(1, 11)]
            checks = [
                ("brightness trace follows 20% per user with saturation", trace == expected),
                ("trace is non-decreasing", all(a <= b for a, b in zip(trace, trace[1:]))),
                ("lamp holds the final brightness", lamp.brightness == expected[-1]),
            ]
        elif args.name == "piano":
            report, cleanup = _run_demo_scenario(args, "piano_endpoints.json", registration)
            tones = report.responses_for("piano-key")
            print(f"piano endpoints: {' '.join(tones)}")
            checks = [
                ("lowest key plays 110.00 Hz", tones[:1] == ["110.00"]),
                ("highest key plays 1396.91 Hz", tones[1:2] == ["1396.91"]),
            ]
        elif args.name == "smarthome":
            if args.smarthome_base_url:
                client = SmartHomeClient(args.smarthome_base_url, args.smarthome_token)
            else:
                mock = start_mock(default_workshop_fixture(args.smarthome_token))
                client = SmartHomeClient(mock.base_url, mock.token)
            registration.register_default(make_gateway_handler(client))
            report, cleanup = _run_demo_scenario(args, "smarthome_bulb.json", registration)
            status = client.get_status("bulb-1")
            checks = [
                ("click forwarded to the cloud", report.forwarded_calls == 1),
                ("bulb-1 is powered on", status.state.get("power") == "on"),
                ("roster lists 27 devices", len(client.list_devices()) == 27),
            ]
        else:  # unreachable; argparse restricts choices
            raise ValueError(args.name)
        code = _finish_demo(args, report, checks)
    finally:
        if cleanup is not None:
            cleanup()
        if mock is not None:
            mock.shutdown()
    return code


# -- argument parsing ------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="worldhook",
        description="Event-trigger gateway bridging virtual worlds and IoT-style devices.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_gateway_flags(p: argparse.ArgumentParser) -> None:
        """The flags of the subcommands that run a gateway: serve and demo."""
        p.add_argument("--port", type=int, default=None, help="bind port (0 = ephemeral)")
        p.add_argument("--route-prefix", default=None, help="default trigger route")
        p.add_argument("--smarthome-base-url", default=None)
        p.add_argument("--smarthome-token", default=None)
        p.add_argument("--seed", type=int, default=None, help="seed for run tokens")
        p.add_argument("--log-format", default="text", choices=("text", "jsonl"))

    p_serve = sub.add_parser("serve", help="run the gateway behind a tunnel")
    add_gateway_flags(p_serve)
    p_serve.add_argument("--devices", default=None, help="device registry JSON file")
    p_serve.add_argument("--event-log", default=None,
                         help="write device events here as events are applied, "
                              "64 lines at a time (JSON lines)")
    p_serve.set_defaults(func=cmd_serve)

    p_demo = sub.add_parser("demo", help="run a built-in end-to-end scenario")
    p_demo.add_argument("name", choices=DEMO_NAMES)
    add_gateway_flags(p_demo)
    p_demo.set_defaults(func=cmd_demo)

    p_mock = sub.add_parser("mock-smarthome", help="run the mock smart-home cloud")
    p_mock.add_argument("--port", type=int, default=None, help="bind port (0 = ephemeral)")
    p_mock.add_argument("--smarthome-token", default=None, help="token of the default fixture")
    p_mock.add_argument("--fixture", default=None, help="fixture JSON file")
    p_mock.set_defaults(func=cmd_mock_smarthome)

    p_world = sub.add_parser("world-run", help="replay a scenario file")
    p_world.add_argument("--scenario", required=True, help="scenario JSON file")
    p_world.add_argument("--gateway-url", required=True, help="gateway base URL")
    p_world.add_argument("--log-format", default="text", choices=("text", "jsonl"))
    p_world.set_defaults(func=cmd_world_run)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _resolve_common(args)
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        return args.func(args)
    except ScenarioParseError as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (GatewayStartupError, RegistrationError) as exc:
        print(f"startup error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FileNotFoundError, ValueError) as exc:  # ValueError includes JSONDecodeError
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
