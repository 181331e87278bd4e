"""The pipeline benchmark: one entry point for every workload.

    python3 pipebench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 pipebench/run.py --self-test

Run from anywhere; the program is imported from ``src/`` next to this
directory.  An untraced run (``--trace 0``) prints every end-to-end
metric by name with its unit, then one JSON line with the metrics named
in ``BENCHMARK.json``, scaled to the reference host (:mod:`hostspeed`).
A traced run (``--trace 1``) runs a fixed slice of the plan untraced,
then with span wrappers, then (in process) once more with the
program's counters on; it prints the per-layer self-time table, the
unattributed share, the tracing overhead and the JSON line of
per-layer metrics, and writes a Chrome trace under ``.pipebench/``.
Exit status: 0 when every output was correct, 1 when an output check
failed, 2 when the program source is missing or set-up fails.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence

import hostspeed
from plan import codegen_plan, digest, service_plan, verdict_plan
from reference import load_table
from spans import Recorder, Tracer, clock, self_by_name, total_by_name, write_chrome_trace

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".pipebench"

WORKLOADS = ("catalog-cold", "verify-deep", "service-mixed", "codegen-corpus")
TRIALS = {"catalog-cold": 120, "verify-deep": 4800}
#: set-ups per untraced run; setup_s is their median.
SETUP_REPS = 3
#: plan sizes: far more than the longest allowed run consumes.
PLAN_ROUNDS = {"catalog-cold": 400, "verify-deep": 40}
PLAN_REQUESTS = 20000
PLAN_PASSES = 600
#: completions per throughput window of the service workload.
SERVICE_WINDOW = 40
#: seconds of measured work between two timings of the speed kernel.
SAMPLE_EVERY = 0.25
LAYERS = ("isdl", "transform", "analysis", "lint", "semantics", "provenance",
          "service", "codegen", "machines")
#: spans whose self time no layer below them accounts for: the op
#: itself in process; on the service, the client side with HTTP and
#: queueing (``service.request``) and the endpoint handler's own code.
UNATTRIBUTED = ("bench.op", "service.request", "service.handler")


class SetupError(RuntimeError):
    """Set-up failed: no measurement is possible."""


# ---------------------------------------------------------------------------
# measurement helpers


def measure(op, rounds: Sequence[Sequence], seconds: Optional[float] = None,
            recorder: Optional[Recorder] = None, count: bool = False):
    """Run whole rounds of ops: all of ``rounds``, or until ``seconds``;
    ``count`` asks each op to add the program's counters to its counts.

    The speed kernel is timed between ops once SAMPLE_EVERY seconds of
    work have passed, and the ops in between are scaled to the reference
    host by the timings on either side of them.  Returns (latencies,
    scales, failures, windows, elapsed seconds): one reference-host
    scale per op, and one (ops, seconds, reference seconds) window per
    completed round.
    """
    latencies: List[float] = []
    walls: List[float] = []
    scales: List[float] = []
    failures: List[List[str]] = []
    bounds: List[tuple] = []
    before = hostspeed.kernel_seconds()
    pending = 0
    started = since = clock()
    for round_ops in rounds:
        if seconds is not None and bounds and clock() - started >= seconds:
            break
        first = len(latencies)
        for args in round_ops:
            token = recorder.begin("bench.op", rid="op-%d" % len(latencies)) if recorder else None
            start = clock()
            try:
                latency, problems = op(args, count)
            except Exception as error:  # noqa: BLE001 - a failed op, not a crash
                latency, problems = clock() - start, ["%s: %s" % (type(error).__name__, error)]
            finally:
                if token is not None:
                    recorder.end(token)
            end = clock()
            latencies.append(latency)
            walls.append(end - start)
            if problems:
                failures.append(problems)
            pending += 1
            if end - since >= SAMPLE_EVERY:
                after = hostspeed.kernel_seconds()
                scales += [hostspeed.scale(before, after)] * pending
                before, pending, since = after, 0, clock()
        bounds.append((first, len(latencies)))
    elapsed = clock() - started
    if pending:
        scales += [hostspeed.scale(before, hostspeed.kernel_seconds())] * pending
    windows = [
        (stop - first, sum(walls[first:stop]),
         sum(wall * factor for wall, factor in zip(walls[first:stop], scales[first:stop])))
        for first, stop in bounds
    ]
    return latencies, scales, failures, windows, elapsed


def bracketed(call) -> tuple:
    """(result, measured seconds, reference-host scale) of ``call``,
    scaled by the kernel timed on either side of it."""
    before = hostspeed.kernel_seconds()
    started = clock()
    outcome = call()
    seconds = clock() - started
    return outcome, seconds, hostspeed.scale(before, hostspeed.kernel_seconds())


def percentile(values: Sequence[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def latency_line(name: str, values: Sequence[float], q: int) -> str:
    value = percentile(values, q)
    beyond = sum(1 for sample in values if sample > value)
    return "  %-16s %10.3f ms   (%d samples, %d beyond)" % (name, value * 1000, len(values), beyond)


def setup_probes(workload: str, seed: int, count: int) -> List[float]:
    """Reference-host set-up times of ``count`` fresh processes."""
    times = []
    for _ in range(count):
        out = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", workload, "--seed",
             str(seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if out.returncode != 0:
            raise SetupError("set-up probe failed: %s" % out.stderr.strip()[-500:])
        times.append(json.loads(out.stdout.strip().splitlines()[-1])["setup_s"])
    return times


def in_process_workload(workload: str, seed: int):
    """(workload object, rounds of op arguments) for an in-process workload."""
    from inproc import CodegenWorkload, VerdictWorkload

    table = load_table()
    if workload == "codegen-corpus":
        plan = codegen_plan(seed, PLAN_PASSES)
        return CodegenWorkload(plan["programs"]), plan["passes"], digest(plan)
    rounds = verdict_plan(seed, PLAN_ROUNDS[workload])
    return VerdictWorkload(TRIALS[workload], table), rounds, digest(rounds)


def traced_slice(workload: str, seconds: float) -> int:
    """Rounds, passes or requests one phase of a traced run covers.

    Depends on the run length only, so two traced runs with one seed do
    exactly the same work and their exact counts must agree.
    """
    phase = max(1, round(seconds / 3))
    return {
        "catalog-cold": max(1, phase // 2),
        "verify-deep": max(1, phase // 10),
        "service-mixed": 20 * phase,
        "codegen-corpus": phase,
    }[workload]


# ---------------------------------------------------------------------------
# untraced runs: end-to-end metrics


def run_in_process(args) -> dict:
    workload, rounds, plan_digest = in_process_workload(args.workload, args.seed)
    problems, seconds, scale = bracketed(workload.setup)
    setups = [seconds * scale] + setup_probes(args.workload, args.seed, SETUP_REPS - 1)
    latencies, scales, failures, windows, elapsed = measure(
        workload.op, rounds, args.seconds)
    done = len(windows)
    what = "program" if args.workload == "codegen-corpus" else "verdict"
    print("%s seed=%d plan=%s %s=%d ops=%d failed=%d elapsed=%.2fs" % (
        args.workload, args.seed, plan_digest[:16],
        "passes" if what == "program" else "rounds", done, len(latencies),
        len(failures), elapsed))
    print(rate_line(what + "s_per_s", windows, "rounds" if what == "verdict" else "passes"))
    print(latency_line(what + "_p50_ms", latencies, 50))
    print(latency_line(what + "_p90_ms", latencies, 90))
    if what == "program":
        counts = workload.counts
        print("  %-16s %10d cycles (per corpus pass of %d programs)" % (
            "sim_cycles", counts["sim_cycles"] // done, len(workload.programs)))
        if counts["sim_cycles"] % done:
            problems.append("sim_cycles differ between passes")
    return finish(latencies, scales, failures, problems, setups, windows)


def run_service(args) -> dict:
    from service import drive, request_scales, start_server

    table = load_table()
    plan = service_plan(args.seed, PLAN_REQUESTS)
    problems: List[str] = []
    setups: List[float] = []
    server = None
    try:
        for _ in range(SETUP_REPS):
            if server is not None:
                server.stop()
                server = None
            (server, found), seconds, scale = bracketed(lambda: start_server(table, ROOT, WORKDIR))
            setups.append(seconds * scale)
            problems += found
        records, elapsed, kernels = drive(
            table, server.port, plan, deadline=clock() + args.seconds)
    finally:
        if server is not None:
            server.stop()
    latencies = [latency for _, latency, _, _ in records]
    failures = [found for _, _, found, _ in records if found]
    hits = [latency for kind, latency, _, _ in records if kind == "hit"]
    misses = [latency for kind, latency, _, _ in records if kind == "miss"]
    scales = request_scales(records, kernels)
    windows = completion_windows(records, scales, elapsed)
    print("service-mixed seed=%d plan=%s requests=%d (hits %d, misses %d) failed=%d "
          "elapsed=%.2fs" % (args.seed, digest(plan)[:16], len(records), len(hits),
                             len(misses), len(failures), elapsed))
    print(rate_line("requests_per_s", windows, "windows of %d requests" % SERVICE_WINDOW))
    print(latency_line("hit_p50_ms", hits, 50))
    print(latency_line("hit_p99_ms", hits, 99))
    print(latency_line("miss_p50_ms", misses, 50))
    print(latency_line("miss_p90_ms", misses, 90))
    return finish(latencies, scales, failures, problems, setups, windows)


def completion_windows(records, scales: List[float], elapsed: float) -> List[tuple]:
    """(requests, seconds, reference seconds) for each run of
    SERVICE_WINDOW consecutive completions; a shorter tail is dropped."""
    done = sorted(zip((record[3] for record in records), scales))
    windows = []
    for index in range(0, len(done) - SERVICE_WINDOW, SERVICE_WINDOW):
        seconds = done[index + SERVICE_WINDOW][0] - done[index][0]
        factor = statistics.fmean(f for _, f in done[index + 1:index + SERVICE_WINDOW + 1])
        windows.append((SERVICE_WINDOW, seconds, seconds * factor))
    return windows or [(len(done), elapsed, elapsed * statistics.fmean(scales))]


def rate_line(name: str, windows, unit: str) -> str:
    rates = [ops / seconds for ops, seconds, _ in windows]
    return "  %-16s %10.3f 1/s  (median of %d %s)" % (name, statistics.median(rates), len(rates), unit)


def finish(latencies, scales, failures, problems, setups, windows) -> dict:
    """The end-to-end metrics, scaled to the reference host."""
    report_problems(problems, failures)
    scaled = [latency * scale for latency, scale in zip(latencies, scales)]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (statistics.median(ops / scaled for ops, _, scaled in windows), "1/s"),
        "op_p50_ms": (percentile(scaled, 50) * 1000, "ms"),
        "op_p90_ms": (percentile(scaled, 90) * 1000, "ms"),
    }
    print("  reference-host figures (measured times x %.3f, the median scale):" % (
        statistics.median(scales)))
    print("  %-16s %10.4f s    (median of %s)" % (
        "setup_s", metrics["setup_s"][0], ", ".join("%.3f" % s for s in setups)))
    for name in ("ops_per_s", "op_p50_ms", "op_p90_ms"):
        value, unit = metrics[name]
        print("  %-16s %10.4f %s" % (name, value, unit))
    return result(latencies, failures, problems, metrics)


def report_problems(problems: List[str], failures: List[List[str]]) -> None:
    for line in (problems + [found[0] for found in failures])[:10]:
        print("pipebench: check failed: %s" % line, file=sys.stderr)


def result(latencies, failures, problems, metrics) -> dict:
    return {
        "correct": not failures and not problems,
        "attempted": len(latencies),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


# ---------------------------------------------------------------------------
# traced runs: per-layer metrics


def ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def layer_metrics(spans, ops: int, counts: Dict[str, int], extra: Dict[str, float]) -> Dict[str, float]:
    own = self_by_name(spans)
    total = total_by_name(spans)

    def per_op(name: str) -> float:
        return own.get(name, 0.0) * 1000 / ops

    steps = counts.get("repro_analysis_steps_total", 0)
    trials = counts.get("repro_verify_trials_total", 0)
    executed = counts.get("instructions_executed", 0)
    values = {
        "isdl.build_ms": per_op("isdl.build"),
        "isdl.digest_ms": per_op("isdl.digest"),
        "isdl.parse_cache_hit_ratio": ratio(
            counts.get("repro_parse_cache_hits_total", 0),
            counts.get("repro_parse_cache_misses_total", 0)),
        "transform.script_ms": per_op("transform.script"),
        "transform.steps": steps,
        "transform.us_per_step": own.get("transform.script", 0.0) * 1e6 / steps if steps else 0.0,
        "analysis.match_ms": per_op("analysis.match"),
        "analysis.runner_self_ms": per_op("analysis.run_batch"),
        "analysis.serialize_ms": per_op("analysis.serialize"),
        "lint.gate_ms": per_op("lint.gate"),
        "lint.cache_hit_ratio": ratio(
            counts.get("repro_lint_cache_hits_total", 0),
            counts.get("repro_lint_cache_misses_total", 0)),
        "semantics.verify_ms": per_op("semantics.verify"),
        "semantics.compile_ms": per_op("semantics.compile"),
        "semantics.compile_cache_hit_ratio": ratio(
            counts.get("repro_compile_cache_hits_total", 0),
            counts.get("repro_compile_cache_misses_total", 0)),
        "semantics.trials": trials,
        "semantics.trials_per_s": (
            trials / total["semantics.verify"] if total.get("semantics.verify") else 0.0),
        "semantics.vector_fallbacks": counts.get("repro_vector_fallback_total", 0),
        "provenance.lookup_ms": per_op("provenance.lookup"),
        "provenance.write_ms": per_op("provenance.write"),
        "provenance.hit_ratio": ratio(
            counts.get("repro_provenance_store_hits_total", 0),
            counts.get("repro_provenance_store_misses_total", 0)),
        "provenance.writes": counts.get("repro_provenance_store_writes_total", 0),
        "service.handler_ms": per_op("service.handler"),
        "service.queue_wait_ms": extra.get("queue_wait_ms", 0.0),
        "service.self_ms": per_op("service.request"),
        "service.rejected": counts.get("repro_service_rejected_total", 0),
        "service.timeouts": counts.get("timeouts", 0),
        "codegen.backend_build_ms": extra.get("backend_build_ms", 0.0),
        "codegen.compile_ms": per_op("codegen.compile"),
        "codegen.asm_instructions": counts.get("asm_instructions", 0),
        "codegen.exotic_share": ratio(
            counts.get("exotic_emitted", 0),
            counts.get("exotic_asked", 0) - counts.get("exotic_emitted", 0)),
        "machines.simulate_ms": per_op("machines.simulate"),
        "machines.instructions_executed": executed,
        "machines.ns_per_instruction": (
            own.get("machines.simulate", 0.0) * 1e9 / executed if executed else 0.0),
        "machines.sim_cycles": counts.get("sim_cycles", 0),
        "trace.overhead_pct": extra["overhead_pct"],
        "trace.unattributed_share": sum(
            own.get(name, 0.0) for name in UNATTRIBUTED) / sum(
            total.get(root, 0.0) for root in ("bench.op", "service.request")),
    }
    return values


def print_layer_table(spans, ops: int, values: Dict[str, float]) -> None:
    own = self_by_name(spans)
    total = total_by_name(spans)
    wall = total.get("bench.op", 0.0) + total.get("service.request", 0.0)
    rows = []
    for layer in LAYERS:
        seconds = sum(value for name, value in own.items() if name.split(".")[0] == layer)
        rows.append((seconds, layer))
    outside = (own.get("bench.op", 0.0), "(outside layer spans)")
    print("  per-layer self time over %d ops (%.3f s of op time):" % (ops, wall))
    for seconds, layer in sorted(rows + [outside], reverse=True):
        if seconds:
            print("    %-22s %10.3f ms/op  %6.1f%%" % (
                layer, seconds * 1000 / ops, 100 * seconds / wall))
    dominant = max(rows)
    print("  dominant layer: %s (%.1f%% of op time)" % (dominant[1], 100 * dominant[0] / wall))
    print("  unattributed share: %.4f   tracing overhead: %.2f%%" % (
        values["trace.unattributed_share"], values["trace.overhead_pct"]))


def traced_in_process(args) -> dict:
    from plan import CATALOG

    workload, rounds, plan_digest = in_process_workload(args.workload, args.seed)
    rounds = rounds[: traced_slice(args.workload, args.seconds)]
    setup_recorder = Recorder()
    tracer = Tracer(setup_recorder, CATALOG)
    tracer.install()
    try:
        problems = workload.setup()
    finally:
        tracer.uninstall()
    build_ms = total_by_name(setup_recorder.spans).get("codegen.target_for", 0.0) * 1000
    plain_latencies, _, failures, windows, _ = measure(workload.op, rounds)
    plain = sum(scaled for _, _, scaled in windows)
    recorder = Recorder()
    tracer = Tracer(recorder, CATALOG)
    tracer.install()
    try:
        latencies, _, traced_failures, windows, _ = measure(
            workload.op, rounds, recorder=recorder)
        traced = sum(scaled for _, _, scaled in windows)
    finally:
        tracer.uninstall()
    # Counting switches on the program's own metrics, which cost time of
    # their own, so counts come from a third, untimed pass.
    workload.reset_counts()
    counted_latencies, _, counted_failures, _, _ = measure(workload.op, rounds, count=True)
    failures += traced_failures + counted_failures
    values = layer_metrics(
        recorder.spans, len(latencies), workload.counts,
        {"backend_build_ms": build_ms, "overhead_pct": 100 * (traced / plain - 1)},
    )
    print("%s seed=%d plan=%s traced slice: %d %s x 3 phases, %d ops" % (
        args.workload, args.seed, plan_digest[:16], len(rounds),
        "passes" if args.workload == "codegen-corpus" else "rounds", len(latencies)))
    print_layer_table(recorder.spans, len(latencies), values)
    print_exact_counts(values)
    write_trace(args, {os.getpid(): recorder.spans + setup_recorder.spans})
    report_problems(problems, failures)
    return result(plain_latencies + latencies + counted_latencies, failures, problems,
                  with_units(values))


def traced_service(args) -> dict:
    from service import drive, request_scales, start_server, stats

    table = load_table()
    plan = service_plan(args.seed, PLAN_REQUESTS)[: traced_slice(args.workload, args.seconds)]
    problems: List[str] = []
    server = None
    spans_out = WORKDIR / ("server-spans-%d.json" % os.getpid())
    try:
        server, found = start_server(table, ROOT, WORKDIR)
        problems += found
        records, plain, kernels = drive(table, server.port, plan)
        plain *= statistics.fmean(request_scales(records, kernels))
        server.stop()
        server, found = start_server(table, ROOT, WORKDIR, spans_out)
        problems += found
        before = stats(server.port)
        recorder = Recorder()
        traced_records, traced, kernels = drive(table, server.port, plan, recorder=recorder)
        traced *= statistics.fmean(request_scales(traced_records, kernels))
        after = stats(server.port)
        server_pid = server.proc.pid
        server.stop()
        server = None
        with open(spans_out) as handle:
            server_side = json.load(handle)
    finally:
        if server is not None:
            server.stop()
        if spans_out.exists():
            spans_out.unlink()
    server_spans = [tuple(span) for span in server_side["spans"] if span[5] is not None]
    waits = [wait for rid, wait in server_side["queue_waits"] if rid is not None]
    spans = recorder.spans + server_spans
    counts = {name: after[name] - before[name] for name in after}
    failures = [found for _, _, found, _ in records + traced_records if found]
    values = layer_metrics(spans, len(traced_records), counts, {
        "queue_wait_ms": 1000 * statistics.fmean(waits) if waits else 0.0,
        "overhead_pct": 100 * (traced / plain - 1),
    })
    kinds = {"req-%d" % index: request[0] for index, request in enumerate(plan)}
    hit_latency = sum(s[4] - s[3] for s in recorder.spans if kinds[s[5]] == "batch")
    hit_batch = sum(s[4] - s[3] for s in server_spans
                    if s[2] == "analysis.run_batch" and kinds.get(s[5]) == "batch")
    hit_requests = sum(1 for request in plan if request[0] == "batch")
    plan_ratio = ratio(20 * hit_requests, len(plan) - hit_requests)
    if values["provenance.hit_ratio"] != plan_ratio:
        problems.append("provenance hit ratio %.4f, the plan's %.4f" % (
            values["provenance.hit_ratio"], plan_ratio))
    print("service-mixed seed=%d plan=%s traced slice: %d requests x 2 phases" % (
        args.seed, digest(plan)[:16], len(plan)))
    print_layer_table(spans, len(traced_records), values)
    print("  hits: %.3f ms mean latency, %.3f ms in run_batch; service-side time outside "
          "run_batch: %.1f%%" % (
              1000 * hit_latency / hit_requests, 1000 * hit_batch / hit_requests,
              100 * (1 - hit_batch / hit_latency)))
    print_exact_counts(values)
    write_trace(args, {os.getpid(): recorder.spans, server_pid: server_spans})
    report_problems(problems, failures)
    return result(records + traced_records, failures, problems, with_units(values))


def with_units(values: Dict[str, float]) -> Dict[str, tuple]:
    """Per-layer values with the units BENCHMARK.json declares; the two
    lists must name the same metrics."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    units = {metric["name"]: metric["unit"] for metric in declared}
    if set(units) != set(values):
        raise RuntimeError("per-layer metrics differ from BENCHMARK.json: %s"
                           % sorted(set(units) ^ set(values)))
    return {name: (values[name], units[name]) for name in values}


def print_exact_counts(values: Dict[str, float]) -> None:
    names = ("transform.steps", "semantics.trials", "provenance.writes",
             "machines.instructions_executed", "machines.sim_cycles")
    print("  exact counts: " + ", ".join("%s=%d" % (name, values[name]) for name in names))


def write_trace(args, processes) -> None:
    WORKDIR.mkdir(exist_ok=True)
    path = WORKDIR / ("%s-seed%d.trace.json" % (args.workload, args.seed))
    write_chrome_trace(path, processes)
    print("  chrome trace: %s" % path.relative_to(ROOT))


# ---------------------------------------------------------------------------
# self-test: planted defects must be reported


def self_test() -> int:
    from inproc import CodegenWorkload, VerdictWorkload

    table = load_table()
    planted = dict(table, mvc_pascal=dict(table["mvc_pascal"], steps=table["mvc_pascal"]["steps"] + 1))
    verdicts = VerdictWorkload(120, planted)
    setup_problems = verdicts.setup()
    _, op_problems = verdicts.op(("mvc_pascal", 11), False)
    _, control = verdicts.op(("movsb_pascal", 11), False)
    row_caught = len(setup_problems) == 1 and "mvc_pascal" in setup_problems[0] and op_problems
    print("planted wrong table row (mvc_pascal steps + 1): %s" % (
        "reported" if row_caught else "NOT reported"))

    programs = codegen_plan(1, 1)["programs"]
    good = next(p for p in programs if p["op"] == "string.move" and p["length"] == 16)
    wrong = json.loads(json.dumps(good))
    wrong["expect"]["regions"][0][1][3] ^= 1
    index = next(p for p in programs if p["op"] == "string.index" and p["length"] == 64)
    wrong_result = json.loads(json.dumps(index))
    wrong_result["expect"]["result"] += 1
    corpus = CodegenWorkload([good, wrong, index, wrong_result])
    corpus_problems = corpus.setup()
    checks = [corpus.op(i, False)[1] for i in range(4)]
    byte_caught = bool(checks[1]) and bool(checks[3]) and len(corpus_problems) == 2
    print("planted wrong reference byte and result: %s" % (
        "reported" if byte_caught else "NOT reported"))
    clean = not control and not checks[0] and not checks[2]
    print("unplanted controls: %s" % ("pass" if clean else "FAIL"))
    return 0 if row_caught and byte_caught and clean else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="pipeline benchmark")
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that planted defects are reported as failures")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("pipebench: no program source at %s" % (SRC / "repro"), file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still unwinds its finally blocks: the child server
    # and the temporary store go with it.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.setup_probe:
            workload, _, _ = in_process_workload(args.workload, args.seed)
            problems, seconds, scale = bracketed(workload.setup)
            if problems:
                raise SetupError(problems[0])
            print(json.dumps({"setup_s": seconds * scale, "measured_s": seconds}))
            return 0
        if args.trace:
            runner = traced_service if args.workload == "service-mixed" else traced_in_process
        else:
            runner = run_service if args.workload == "service-mixed" else run_in_process
        outcome = runner(args)
    except (SetupError, ImportError, OSError, RuntimeError) as error:
        print("pipebench: %s: %s" % (type(error).__name__, error), file=sys.stderr)
        return 2
    print(json.dumps(outcome))
    return 0 if outcome["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
