"""Start and stop ``worldhook serve`` and ``worldhook mock-smarthome``.

Each process runs from the checkout's ``src/`` tree, writes its stdout (the
public URL, then one jsonl line per request) to a file in the run directory,
and is stopped with SIGINT, as an operator stops it.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path
from urllib.parse import urlsplit

HERE = Path(__file__).resolve().parent
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 15.0


class Proc:
    """One spawned worldhook process and the files it writes."""

    def __init__(self, argv: list[str], root: Path, run_dir: Path, tag: str):
        self.tag = tag
        self.stdout_path = run_dir / f"{tag}.out"
        self.stderr_path = run_dir / f"{tag}.err"
        env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONUNBUFFERED="1")
        with open(self.stdout_path, "wb") as out, open(self.stderr_path, "wb") as err:
            self.proc = subprocess.Popen(argv, cwd=root, env=env, stdout=out, stderr=err,
                                         stdin=subprocess.DEVNULL)
        self.url = ""

    @property
    def pid(self) -> int:
        return self.proc.pid

    def wait_url(self) -> str:
        """Block until the process prints its URL as the first stdout line."""
        deadline = time.monotonic() + START_TIMEOUT_S
        while time.monotonic() < deadline:
            text = self.stdout_path.read_bytes()
            if b"\n" in text:
                self.url = text.split(b"\n", 1)[0].decode().strip()
                return self.url
            if self.proc.poll() is not None:
                break
            time.sleep(0.001)
        self.stop()
        raise RuntimeError(f"{self.tag} printed no URL: {self.stderr_path.read_text()[-2000:]}")

    def stop(self) -> int:
        """SIGINT, then wait; kill only if it does not exit in time."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        return self.proc.returncode

    def log_lines(self) -> list[dict]:
        """The jsonl request-log records after the URL line.

        ``serve`` prints each record and its newline in two writes, so two
        handler threads can put two records on one line; each is still whole.
        """
        text = self.stdout_path.read_text("utf-8").split("\n", 1)[-1]
        decoder = json.JSONDecoder()
        records, pos = [], 0
        while True:
            while pos < len(text) and text[pos].isspace():
                pos += 1
            if pos >= len(text):
                return records
            record, pos = decoder.raw_decode(text, pos)
            records.append(record)


def serve_argv(*, seed: int, event_log: Path, smarthome_url: str = "",
               token: str = "", spans_out: Path | None = None) -> list[str]:
    args = ["serve", "--port", "0", "--seed", str(seed), "--log-format", "jsonl",
            "--event-log", str(event_log)]
    if smarthome_url:
        args += ["--smarthome-base-url", smarthome_url, "--smarthome-token", token]
    if spans_out is None:
        return [sys.executable, "-m", "worldhook", *args]
    return [sys.executable, str(HERE / "traced_serve.py"), "--spans", str(spans_out), "--", *args]


def mock_argv(fixture: Path) -> list[str]:
    return [sys.executable, "-m", "worldhook", "mock-smarthome", "--port", "0",
            "--fixture", str(fixture)]


def post(url: str, body: bytes, timeout: float = 10.0) -> tuple[int, bytes]:
    """One POST on a fresh connection, for probes."""
    parts = urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=timeout)
    try:
        conn.request("POST", parts.path or "/", body,
                     {"Content-Type": "application/json; charset=utf-8"})
        reply = conn.getresponse()
        return reply.status, reply.read()
    finally:
        conn.close()


def wait_ready(url: str, body: bytes, want: bytes) -> None:
    """POST the probe until it gets a 200 with exactly the expected body."""
    deadline = time.monotonic() + START_TIMEOUT_S
    last = None
    while time.monotonic() < deadline:
        try:
            last = post(url, body)
            if last == (200, want):
                return
        except OSError as exc:
            last = exc
        time.sleep(0.001)
    raise RuntimeError(f"no correct reply from {url}: {last!r}")


def rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmRSS for pid {pid}")
