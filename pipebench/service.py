"""service-mixed: the analysis service as a child process, two clients.

The server is ``python -m repro serve`` on an ephemeral port with a
fresh sqlite store inside the checkout; traced runs start
``serve_traced.py`` instead, which installs the span wrappers first.
Two keep-alive HTTP/1.1 connections run a closed loop over the seeded
plan: each sends its next request only after the previous reply.
"""

from __future__ import annotations

import bisect
import http.client
import json
import os
import re
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import hostspeed
from plan import CATALOG
from reference import check_verdict
from spans import COUNTERS, Recorder, clock, counter_total

#: the service's default verification trials (``repro serve --trials``).
SERVICE_TRIALS = 120
#: warm-up miss seeds: plan seeds are below 2**31, so these never collide.
WARM_SEED_BASE = 1 << 31
#: client connections (the host has 2 CPUs; the server needs one).
CONNECTIONS = 2
#: seconds between two timings of the speed kernel while requests run.
KERNEL_EVERY = 0.5
#: seconds the server may take to print its address.
START_TIMEOUT = 120.0

_READY = re.compile(rb"repro service on http://[\d.]+:(\d+)")

class Server:
    """One server process and its temporary store; :meth:`stop` always
    ends the process and removes the store."""

    def __init__(self, root: Path, workdir: Path, spans_out: Optional[Path] = None) -> None:
        self.root = root
        self.workdir = workdir
        self.spans_out = spans_out
        self.proc: Optional[subprocess.Popen] = None
        self.store: Optional[str] = None
        self.port = 0

    def start(self) -> None:
        self.workdir.mkdir(exist_ok=True)
        self.store = tempfile.mkdtemp(prefix="store-", dir=self.workdir)
        if self.spans_out is None:
            command = [sys.executable, "-m", "repro", "serve", "--port", "0",
                       "--store-backend", "sqlite"]
        else:
            launcher = Path(__file__).with_name("serve_traced.py")
            command = [sys.executable, str(launcher), "--spans-out", str(self.spans_out)]
        command += ["--cache-dir", self.store]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self.root / "src"), env.get("PYTHONPATH")])
        )
        self.proc = subprocess.Popen(
            command, cwd=self.root, env=env, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE
        )
        deadline = clock() + START_TIMEOUT
        while True:
            remaining = deadline - clock()
            if remaining <= 0:
                raise RuntimeError("server not ready after %.0fs" % START_TIMEOUT)
            if not select.select([self.proc.stdout], [], [], remaining)[0]:
                continue
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError("server exited with code %s" % self.proc.wait())
            match = _READY.search(line)
            if match:
                self.port = int(match.group(1))
                return

    def stop(self) -> None:
        try:
            if self.proc is not None and self.proc.poll() is None:
                # repro serve stops cleanly on SIGINT; the traced launcher
                # writes its spans on SIGTERM.
                self.proc.send_signal(signal.SIGINT if self.spans_out is None else signal.SIGTERM)
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            if self.proc is not None and self.proc.stdout is not None:
                self.proc.stdout.close()
            if self.store is not None:
                shutil.rmtree(self.store, ignore_errors=True)


class Client:
    """One keep-alive connection speaking JSON."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=120)

    def call(self, method: str, path: str, payload: Optional[dict] = None) -> Tuple[int, bytes]:
        body = None if payload is None else json.dumps(payload).encode()
        headers = {} if body is None else {"Content-Type": "application/json"}
        try:
            self.conn.request(method, path, body=body, headers=headers)
            response = self.conn.getresponse()
            return response.status, response.read()
        except (OSError, http.client.HTTPException):
            self.conn.close()  # reconnect on the next call
            raise

    def close(self) -> None:
        self.conn.close()


def check_response(
    table: Dict[str, dict], request: list, status: int, body: bytes, fill: bool = False
) -> List[str]:
    """Mismatches between one service reply and the reference table."""
    if status != 200:
        return ["%s: HTTP %d %s" % (request[0], status, body[:200])]
    reply = json.loads(body)
    if request[0] == "batch":
        results = reply.get("results", [])
        if [row.get("name") for row in results] != list(CATALOG):
            return ["batch: entries %r" % [row.get("name") for row in results]]
        problems = []
        for row in results:
            problems += check_verdict(
                table[row["name"]],
                SERVICE_TRIALS,
                {
                    "ok": row.get("status") == "ok",
                    "error": row.get("error"),
                    "failure": row.get("failure"),
                    "verified_trials": row.get("verified_trials"),
                    "succeeded": row.get("succeeded"),
                    "steps": row.get("steps"),
                },
            )
        hits = reply.get("cache", {}).get("hits")
        if hits != (0 if fill else len(CATALOG)):
            problems.append("batch: %r store hits" % hits)
        return problems
    _, name, seed = request
    problems = check_verdict(table[name], SERVICE_TRIALS, reply)
    if reply.get("name") != name or reply.get("seed") != seed:
        problems.append("verify %s: reply for %r seed %r" % (name, reply.get("name"), reply.get("seed")))
    return problems


def _payload(request: list) -> dict:
    if request[0] == "batch":
        return {}
    return {"name": request[1], "seed": request[2]}


def start_server(
    table: Dict[str, dict], root: Path, workdir: Path, spans_out: Optional[Path] = None
):
    """Start, fill the store with one full batch, run one warm-up pass.

    Returns (server, problems); the server is stopped again if set-up
    raises.
    """
    server = Server(root, workdir, spans_out)
    try:
        server.start()
        client = Client(server.port)
        try:
            fill = ["batch"]
            problems = check_response(table, fill, *client.call("POST", "/batch", {}), fill=True)
            warm = [["batch"]] * 17 + [
                ["verify", name, WARM_SEED_BASE + i] for i, name in enumerate(CATALOG[:3])
            ]
            for request in warm:
                problems += check_response(table, request, *client.call("POST", "/" + request[0], _payload(request)))
        finally:
            client.close()
    except BaseException:
        server.stop()
        raise
    return server, problems


def stats(port: int) -> Dict[str, int]:
    client = Client(port)
    try:
        status, body = client.call("GET", "/stats")
    finally:
        client.close()
    if status != 200:
        raise RuntimeError("GET /stats: HTTP %d" % status)
    snapshot = json.loads(body)
    counts = {name: counter_total(snapshot, name) for name in COUNTERS}
    counts["timeouts"] = counter_total(snapshot, "repro_service_requests_total", status="504")
    return counts


def drive(
    table: Dict[str, dict],
    port: int,
    plan: List[list],
    deadline: Optional[float] = None,
    recorder: Optional[Recorder] = None,
):
    """Run ``plan`` (until ``deadline``, if given) on the connections.

    Every KERNEL_EVERY seconds the main thread pauses the connections:
    they start no new request, the ones in flight finish, and with the
    client idle and the server waiting the speed kernel is timed, so it
    neither competes with the clients for the interpreter lock nor
    holds up their reads.  Pauses are left out of the run: completion
    times and ``elapsed`` are on a clock that stops while paused, and
    the deadline moves on by each pause.  Returns (records, elapsed,
    kernel timings) with one ``(kind, latency, problems, completed at)``
    record per request, kind ``hit`` or ``miss``, and ``(time, kernel
    seconds)`` timings on the same clock.
    """
    gate = threading.Condition()
    state = {"cursor": 0, "busy": 0, "paused": False, "pauses": 0.0}
    records: List[Tuple[str, float, List[str], float]] = []

    def active() -> float:
        """The run clock: wall time less the pauses so far."""
        return clock() - state["pauses"]

    def connection() -> None:
        client = Client(port)
        try:
            while True:
                with gate:
                    while state["paused"]:
                        gate.wait()
                    index = state["cursor"]
                    if index >= len(plan) or (deadline is not None and active() >= deadline):
                        return
                    state["cursor"] += 1
                    state["busy"] += 1
                request = plan[index]
                payload = _payload(request)
                kind = "hit" if request[0] == "batch" else "miss"
                token = None
                if recorder is not None:
                    token = recorder.begin("service.request", rid="req-%d" % index)
                    payload = dict(payload, rid=token[3], parent=token[0])
                start = clock()
                try:
                    reply = client.call("POST", "/" + request[0], payload)
                except (OSError, http.client.HTTPException) as error:
                    reply = error
                latency = clock() - start
                if token is not None:
                    recorder.end(token)
                try:
                    problems = (
                        check_response(table, request, *reply)
                        if isinstance(reply, tuple) else [repr(reply)]
                    )
                except Exception as error:  # noqa: BLE001 - a malformed reply fails the request
                    problems = ["%s: %s: %s" % (request[0], type(error).__name__, error)]
                with gate:
                    records.append((kind, latency, problems, active()))
                    state["busy"] -= 1
                    gate.notify_all()
        finally:
            client.close()

    kernels = [(active(), hostspeed.kernel_seconds())]
    started = active()
    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    for thread in threads:
        thread.start()
    while any(thread.is_alive() for thread in threads):
        time.sleep(KERNEL_EVERY)
        with gate:
            state["paused"] = True
            while state["busy"]:
                gate.wait()
            paused = clock()
            kernels.append((active(), hostspeed.kernel_seconds()))
            state["pauses"] += clock() - paused
            state["paused"] = False
            gate.notify_all()
    for thread in threads:
        thread.join()
    elapsed = active() - started
    kernels.append((active(), hostspeed.kernel_seconds()))
    return records, elapsed, kernels


def request_scales(records, kernels) -> List[float]:
    """Reference-host scale of each request: from the kernel timings on
    either side of its completion."""
    times = [moment for moment, _ in kernels]
    scales = []
    for _, _, _, done in records:
        after = min(bisect.bisect_left(times, done), len(times) - 1)
        scales.append(hostspeed.scale(kernels[max(after - 1, 0)][1], kernels[after][1]))
    return scales
