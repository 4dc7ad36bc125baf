#!/usr/bin/env python3
"""Time to verdict for gemcheck: the repository benchmark.

Run from the root of a checkout:

    python3 perfbench/run.py --workload rw-2r1w --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seconds 30

It builds gemcheck, the probe (perfbench/probe.ml) and the host-speed
calibration (perfbench/calib.ml) from source, runs the workload for
--seconds as a closed loop with calibrations in between, checks every
verdict against the known-answer table (perfbench/answers.py), prints a
readable summary and, as its last line, one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
--trace 0 reports the end-to-end metrics, measured with tracing off;
--trace 1 reports the per-layer metrics from a separate traced run.
--workload all runs every workload both ways and prints everything.
perfbench/README.md explains the workloads and the metrics.
"""

import argparse
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import answers  # noqa: E402
from stats import boundary_flags, median, percentile, self_times  # noqa: E402

GEMCHECK = "_build/default/bin/gemcheck.exe"
PROBE = "_build/default/perfbench/probe.exe"
CALIB = "_build/default/perfbench/calib.exe"
RUN_DIR = ".perfbench-run"

ONESHOT = {
    "rw-2r1w": ("check rw readers=2 writers=1",
                ["rw", "--readers", "2", "--writers", "1"]),
    "buffer-2p2c": ("check buffer producers=2 consumers=2",
                    ["buffer", "--producers", "2", "--consumers", "2"]),
}
WORKLOADS = list(ONESHOT) + ["serve-mix"]

# Fresh set-up-only processes per one-shot run, on top of one set-up per
# sample, so set-up time is a median over many set-ups.
SETUPS = 24
# Daemon starts per serve-mix run; the last one serves the stream.
STARTS = 15
# One client: with two, a hit's round trip depends on whether it waits
# for the daemon's runtime lock behind the other client's miss, which the
# host's scheduler decides, and two clients complete no more requests
# per second than one.
SERVE_CLIENTS = 1
# Host-speed adjustment. The host's speed drifts by tens of percent over
# minutes, for a check and for any fixed work alike. So a run also times
# fixed work (perfbench/calib.ml), CALIBRATIONS times before measuring and
# after each sample or window, and scales its timings by REFERENCE_CAL_S
# over the median calibration: a timing reads as seconds on a host where
# the calibration takes REFERENCE_CAL_S.
CALIBRATIONS = 2
REFERENCE_CAL_S = 0.15
# The serve-mix stream is sent in windows of this many seconds, with the
# calibrations between them.
WINDOW_S = 3.0
# Stream lines generated per second of measuring; well above the
# daemon's rate, so a run never runs out of requests.
LINES_PER_SECOND = 3000

END_TO_END = {
    "setup_s": "s", "latency_p50_s": "s", "latency_p90_s": "s",
    "throughput_per_s": "1/s", "peak_rss_mb": "MB",
}
PER_LAYER = {
    "logic.run_enum_s": "s", "logic.formula_eval_s": "s",
    "logic.formula_evals": "count", "logic.evals_per_run": "count",
    "check.conclude_s": "s", "check.project_s": "s",
    "check.runs_enumerated": "count", "check.run_cap_stops": "count",
    "check.run_cap_verdicts": "count",
    "lang.explore_s": "s", "lang.interp_step_s": "s", "lang.canon_key_s": "s",
    "lang.seen_table_s": "s", "lang.merge_s": "s",
    "lang.configs_explored": "count", "lang.reduced_ratio": "ratio",
    "syntax.request_parse_s": "s", "daemon.verdict_key_s": "s",
    "report.render_s": "s",
    "daemon.handler_hit_s": "s", "daemon.handler_miss_s": "s",
    "daemon.queue_s": "s", "daemon.cache_hit_ratio": "ratio",
    "daemon.evictions": "count", "daemon.explorations_shared": "count",
    "daemon.coalesced": "count",
    "trace.overhead_ratio": "ratio", "decided_ratio": "ratio",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def pinned_env():
    """The environment for every measured process: no GEM_* defaults
    (CI legs export GEM_JOBS, GEM_REDUCTION, GEM_NO_POR and
    GEM_EXACT_KEYS) and the OCaml runtime's own GC settings."""
    return {k: v for k, v in os.environ.items()
            if not k.startswith("GEM_") and k not in ("OCAMLRUNPARAM", "CAMLRUNPARAM")}


def build():
    if not (os.path.isfile("dune-project")
            and os.path.isfile("lib/daemon/runner.ml")
            and os.path.isfile("perfbench/probe.ml")):
        raise BenchError("run from the root of a gemcheck checkout")
    env = dict(os.environ, DUNE_CACHE="disabled")
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/gemcheck.exe",
                        "./perfbench/probe.exe", "./perfbench/calib.exe"],
                       env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                       text=True)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stdout[-4000:])


def run_process(args, env, timeout=120):
    """Run to completion, killing it after timeout seconds; return (exit
    code, stdout)."""
    p = subprocess.Popen(args, env=env, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL)
    watchdog = threading.Timer(timeout, p.kill)
    watchdog.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        p.wait()
    finally:
        watchdog.cancel()
    return p.returncode, out.decode("utf-8", "replace")


def peak_rss_mb(pid):
    """Peak resident set (VmHWM) of a live process, in MB. The rusage of
    its exit is no good: Python spawns with vfork, and the kernel then
    counts the spawning process's own peak as the child's."""
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise BenchError(f"no VmHWM for process {pid}")


def calibrate(env, cals):
    """Time the calibration's fixed work CALIBRATIONS times, each in a
    fresh process, appending the seconds to cals."""
    for _ in range(CALIBRATIONS):
        code, out = run_process([CALIB], env)
        try:
            seconds = float(out)
        except ValueError:
            seconds = 0.0
        if code != 0 or not seconds > 0:
            raise BenchError("calibration failed")
        cals.append(seconds)


class Tally:
    """Operations attempted and failed, and check verdicts decided."""

    def __init__(self):
        self.attempted = self.failed = self.checks = self.decided = 0
        self.problems = []

    def add(self, line, outcome, what=""):
        self.attempted += 1
        if outcome == "failed":
            self.failed += 1
            if len(self.problems) < 5:
                self.problems.append(f"{line!r}: {what}")
        answer = answers.expected(line)
        if answer is None or answer[0] != answers.ERROR:
            self.checks += 1
        if outcome == "decided":
            self.decided += 1

    def decided_ratio(self):
        return self.decided / self.checks if self.checks else 0.0


# --- one-shot workloads ------------------------------------------------

def probe_sample(request, sample_id, env, trace=False, setup_only=False):
    args = [PROBE, "oneshot", "--request", request, "--id", str(sample_id)]
    if trace:
        args.append("--trace")
    if setup_only:
        args.append("--setup-only")
    code, out = run_process(args, env)
    if code != 0:
        return None
    try:
        return json.loads(out)
    except ValueError:
        return None


def judge_sample(tally, request, s):
    if s is None:
        tally.add(request, "failed", "probe failed")
        return None
    try:
        report = json.loads(s["report"])
        status = report["status"]
        reason = (report.get("reason") or {}).get("kind")
    except (ValueError, KeyError, TypeError, AttributeError):
        tally.add(request, "failed", "unreadable report")
        return None
    code = {"verified": 0, "falsified": 1, "inconclusive": 2}.get(status, -1)
    outcome = answers.judge(request, code, status, None)
    tally.add(request, outcome, f"status {status}")
    return reason


def oneshot_setups(request, env, trace=False):
    setups = []
    for i in range(SETUPS):
        s = probe_sample(request, -1 - i, env, trace=trace, setup_only=True)
        if s is None:
            raise BenchError(f"set-up failed: {request}")
        setups.append(s)
    return setups


def run_oneshot(name, seconds, trace):
    request, cli_args = ONESHOT[name]
    env = pinned_env()
    tally = Tally()
    setups = oneshot_setups(request, env, trace)
    samples = []  # (sample or None, traced, seconds from spawn to exit)
    cals = []
    calibrate(env, cals)
    start = time.perf_counter()
    while not samples or time.perf_counter() - start < seconds:
        traced = trace and len(samples) % 2 == 0
        t0 = time.perf_counter()
        s = probe_sample(request, len(samples), env, trace=traced)
        wall = time.perf_counter() - t0
        reason = judge_sample(tally, request, s)
        if s is not None:
            s["reason_kind"] = reason
        samples.append((s, traced, wall))
        calibrate(env, cals)
    good = [sample for sample in samples if sample[0]]
    if not good:
        raise BenchError("no sample completed")
    engines = {json.dumps(s["engine"], sort_keys=True) for s, *_ in good}
    info = {"request": request, "engine": sorted(engines), "tally": tally,
            "latencies": [s["latency_s"] for s, *_ in good], "cals": cals}
    if not trace:
        scale = REFERENCE_CAL_S / median(cals)
        lat = [s["latency_s"] * scale for s, *_ in good]
        busy = sum(wall for *_, wall in samples) * scale
        setup = [s["setup_s"] * scale for s in setups + [s for s, *_ in good]]
        metrics = {
            "setup_s": (median(setup), len(setup)),
            "latency_p50_s": (median(lat), len(lat)),
            "latency_p90_s": (percentile(lat, 90), len(lat)),
            "throughput_per_s": (len(samples) / busy, len(samples)),
            "peak_rss_mb": (median([s["peak_rss_mb"] for s, *_ in good]), len(good)),
        }
        return metrics, info
    return oneshot_layers(good, setups, cli_args, env, tally, info), info


def stats_of(sample):
    return json.loads(sample["stats"])


def deterministic_counters(st):
    """Counters that must repeat exactly from check to check."""
    sched = st["schedule"]
    return {**st["invariant"],
            "configs_explored": sched["configs_explored"],
            "configs_reduced": sched["configs_reduced"]}


def oneshot_layers(good, setups, cli_args, env, tally, info):
    traced = [s for s, t, _ in good if t]
    plain = [s for s, t, _ in good if not t]
    # Counters must repeat exactly and equal gemcheck's own --stats.
    counters = [deterministic_counters(stats_of(s)) for s in traced]
    _, out = run_process([GEMCHECK] + cli_args + ["--json", "--stats"], env)
    try:
        cli = deterministic_counters(json.loads(out.strip().splitlines()[-1]))
    except (ValueError, IndexError, KeyError):
        cli = None
    for c in counters:
        if c != counters[0] or c != cli:
            tally.add(info["request"], "failed",
                      f"counters {c} differ from gemcheck --stats {cli}")
            break
    info["counters"] = counters[0] if counters else None
    info["cli_counters"] = cli

    def per_sample(fn):
        return median([fn(s) for s in traced]) if traced else 0.0

    def span_time(sample, name, own=False):
        spans = sample["spans"]
        st = self_times(spans) if own else None
        return sum(st[sp[0]] if own else sp[4] - sp[3]
                   for sp in spans if sp[2] == name)

    def counter(sample, section, key):
        return stats_of(sample)[section][key]

    def reduced_ratio(sample):
        sched = stats_of(sample)["schedule"]
        total = sched["configs_explored"] + sched["configs_reduced"]
        return sched["configs_reduced"] / total if total else 0.0

    def evals_per_run(sample):
        inv = stats_of(sample)["invariant"]
        return inv["formula_evals"] / inv["runs_enumerated"] if inv["runs_enumerated"] else 0.0

    check_s = per_sample(lambda s: span_time(s, "check"))
    logic = per_sample(lambda s: span_time(s, "logic.run_enum") + span_time(s, "logic.formula_eval"))
    lang = per_sample(lambda s: span_time(s, "lang.explore"))
    info["layer_shares"] = {"logic": logic / check_s, "lang": lang / check_s} if check_s else {}
    setup_spans = setups + traced
    lat_plain = median([s["latency_s"] for s in plain])
    lat_traced = median([s["latency_s"] for s in traced])
    n = len(traced)
    return {
        "logic.run_enum_s": (per_sample(lambda s: span_time(s, "logic.run_enum")), n),
        "logic.formula_eval_s": (per_sample(lambda s: span_time(s, "logic.formula_eval")), n),
        "logic.formula_evals": (per_sample(lambda s: counter(s, "invariant", "formula_evals")), n),
        "logic.evals_per_run": (per_sample(evals_per_run), n),
        "check.conclude_s": (per_sample(lambda s: span_time(s, "check.conclude", own=True)), n),
        "check.project_s": (per_sample(lambda s: span_time(s, "check.project")), n),
        "check.runs_enumerated": (per_sample(lambda s: counter(s, "invariant", "runs_enumerated")), n),
        "check.run_cap_stops": (per_sample(lambda s: stats_of(s)["schedule"]["budget_stops"]["run-cap"]), n),
        "check.run_cap_verdicts": (per_sample(lambda s: 1 if s["reason_kind"] == "run-cap" else 0), n),
        "lang.explore_s": (per_sample(lambda s: span_time(s, "lang.explore", own=True)), n),
        "lang.interp_step_s": (per_sample(lambda s: span_time(s, "lang.interp_step")), n),
        "lang.canon_key_s": (per_sample(lambda s: span_time(s, "lang.canon_key")), n),
        "lang.seen_table_s": (per_sample(lambda s: span_time(s, "lang.seen_table")), n),
        "lang.merge_s": (per_sample(lambda s: span_time(s, "lang.merge")), n),
        "lang.configs_explored": (per_sample(lambda s: counter(s, "schedule", "configs_explored")), n),
        "lang.reduced_ratio": (per_sample(reduced_ratio), n),
        "syntax.request_parse_s": (median([span_time(s, "syntax.request_parse") for s in setup_spans]), len(setup_spans)),
        "daemon.verdict_key_s": (median([span_time(s, "daemon.verdict_key") for s in setup_spans]), len(setup_spans)),
        "report.render_s": (per_sample(lambda s: span_time(s, "report.render")), n),
        "daemon.handler_hit_s": (0.0, 0), "daemon.handler_miss_s": (0.0, 0),
        "daemon.queue_s": (0.0, 0), "daemon.cache_hit_ratio": (0.0, 0),
        "daemon.evictions": (0.0, 0), "daemon.explorations_shared": (0.0, 0),
        "daemon.coalesced": (0.0, 0),
        "trace.overhead_ratio": (lat_traced / lat_plain if lat_plain else 0.0, len(good)),
        "decided_ratio": (tally.decided_ratio(), tally.checks),
    }


# --- serve-mix ---------------------------------------------------------

class Daemon:
    """One `gemcheck serve` at its default cache size."""

    def __init__(self, env, sock, stats=False):
        self.sock = sock
        if os.path.exists(sock):
            os.unlink(sock)
        self.out_path = sock + ".out"
        args = [GEMCHECK, "serve", "--socket", sock] + (["--stats"] if stats else [])
        self.t0 = time.perf_counter()
        with open(self.out_path, "w") as out:
            self.proc = subprocess.Popen(args, env=env, stdout=out,
                                         stderr=subprocess.STDOUT)
        self.rss_mb = None

    def request(self, line, timeout=30):
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(timeout)
            s.connect(self.sock)
            s.sendall(line.encode() + b"\n")
            f = s.makefile("rb")
            header = json.loads(f.readline())
            body = [f.readline().decode().rstrip("\n") for _ in range(header.get("body", 0))]
            return header, body

    def wait_ready(self, timeout=20):
        """Seconds from spawn until the daemon answers ping."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                header, _ = self.request("ping", timeout=5)
                if header.get("pong"):
                    return time.perf_counter() - self.t0
            except (OSError, ValueError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                raise BenchError("daemon did not answer ping")
            time.sleep(0.0002)

    def stop(self):
        """SIGTERM (the daemon drains and exits), wait, and return its
        stdout."""
        if self.proc.returncode is None:
            try:
                self.rss_mb = peak_rss_mb(self.proc.pid)
            except (OSError, BenchError):
                pass
            try:
                self.proc.send_signal(signal.SIGTERM)
            except OSError:
                pass
            watchdog = threading.Timer(30, self.proc.kill)
            watchdog.start()
            try:
                self.proc.wait()
            finally:
                watchdog.cancel()
        with open(self.out_path) as f:
            return f.read()


def serve_stream(env, seed, seconds, run_dir, stats=False, layers=False,
                 setup_starts=1, cals=None):
    """Start the daemon setup_starts times (keeping the last), send the
    seeded stream for seconds, stop it. Given a list cals, the stream goes
    in windows of about WINDOW_S seconds, with calibrations before the
    first window and after each appended to cals. Returns (setups, lines,
    result, daemon); each record in result carries its window's index."""
    sock = os.path.join(run_dir, "s.sock")
    setups = []
    daemon = None
    try:
        for i in range(setup_starts):
            daemon = Daemon(env, sock, stats=stats)
            setups.append(daemon.wait_ready())
            if i < setup_starts - 1:
                daemon.stop()
                daemon = None
        lines = answers.stream(seed, max(64, int(seconds * LINES_PER_SECOND)))
        path = os.path.join(run_dir, "stream.txt")
        with open(path, "w") as f:
            f.writelines(line + "\n" for line, _ in lines)
        windows = 1 if cals is None else max(1, round(seconds / WINDOW_S))
        if cals is not None:
            calibrate(env, cals)
        records, first = [], 0
        for w in range(windows):
            args = [PROBE, "serve", "--socket", sock, "--lines", path,
                    "--first", str(first), "--clients", str(SERVE_CLIENTS),
                    "--seconds", repr(seconds / windows)]
            if layers and w == windows - 1:
                args.append("--layers")
            code, out = run_process(args, env)
            if code != 0:
                raise BenchError("serve probe failed")
            result = json.loads(out)
            records += [r + [w] for r in result["records"]]
            first = result["next"]
            if cals is not None:
                calibrate(env, cals)
        result["records"] = records
        if stats:
            _, body = daemon.request("stats")
            result["cache_stats"] = json.loads(body[0])
        daemon_out = daemon.stop()
        if stats:
            result["daemon_stats"] = json.loads(daemon_out.strip().splitlines()[-1])
        return setups, lines, result, daemon
    finally:
        if daemon is not None:
            daemon.stop()


def serve_records(lines, result, tally):
    """Judge every reply; return the measured requests (after warm-up)
    as dicts."""
    out = []
    for i, t0, t1, header, status, kind, err, w in result["records"]:
        line, cls = lines[i]
        h = None
        if header is not None:
            try:
                h = json.loads(header)
            except ValueError:
                h = None
        if h is None:
            tally.add(line, "failed", err or "unreadable header")
            continue
        outcome = answers.judge(line, h.get("code"), status, h.get("error"))
        tally.add(line, outcome, f"code {h.get('code')} status {status} error {h.get('error')}")
        if cls != "warmup":
            out.append({"cls": cls, "w": w, "t0": t0, "t1": t1, "rt": t1 - t0,
                        "cache": h.get("cache"), "kind": kind,
                        "handler": h.get("elapsed_ms", 0.0) / 1000})
    return out


def serve_latency(reqs):
    """Round trips, and requests completed per second of the windows'
    spans."""
    windows = {}
    for r in reqs:
        windows.setdefault(r["w"], []).append(r)
    busy = sum(max(r["t1"] for r in rs) - min(r["t0"] for r in rs)
               for rs in windows.values())
    return [r["rt"] for r in reqs], len(reqs) / busy


def run_serve(seed, seconds, trace):
    env = pinned_env()
    run_dir = os.path.join(RUN_DIR, str(os.getpid()))
    os.makedirs(run_dir, exist_ok=True)
    tally = Tally()
    # The daemon resolves its engine defaults as the probe does, in the
    # same environment.
    s = probe_sample(answers.HOT[0], -1, env, setup_only=True)
    if s is None:
        raise BenchError("set-up failed")
    info = {"request": "serve-mix stream", "tally": tally,
            "engine": [json.dumps(s["engine"], sort_keys=True)]}
    try:
        if not trace:
            cals = []
            setups, lines, result, daemon = serve_stream(
                env, seed, seconds, run_dir, setup_starts=STARTS, cals=cals)
            reqs = serve_records(lines, result, tally)
            if not reqs:
                raise BenchError("no request measured")
            if daemon.rss_mb is None:
                raise BenchError("no peak RSS for the daemon")
            scale = REFERENCE_CAL_S / median(cals)
            lat, rate = serve_latency(reqs)
            lat = [x * scale for x in lat]
            shares, flags = boundary_flags([r["cls"] for r in reqs], lat, (50, 90))
            info.update(class_shares=shares, flags=flags, cals=cals,
                        exhausted=result["exhausted"])
            return {
                "setup_s": (median(setups) * scale, len(setups)),
                "latency_p50_s": (median(lat), len(lat)),
                "latency_p90_s": (percentile(lat, 90), len(lat)),
                "throughput_per_s": (rate / scale, len(lat)),
                "peak_rss_mb": (daemon.rss_mb, 1),
            }, info
        # Traced run: half untraced (for the overhead ratio), half with
        # the daemon's telemetry on.
        _, lines, plain, _ = serve_stream(env, seed, seconds / 2, run_dir)
        plain_lat, _ = serve_latency(serve_records(lines, plain, tally))
        _, lines, result, _ = serve_stream(env, seed, seconds / 2, run_dir,
                                           stats=True, layers=True)
        reqs = serve_records(lines, result, tally)
        if not reqs:
            raise BenchError("no request measured")
        info["exhausted"] = result["exhausted"]
        return serve_layers(reqs, result, median(plain_lat), tally, info), info
    finally:
        for name in ("stream.txt", "s.sock", "s.sock.out"):
            try:
                os.unlink(os.path.join(run_dir, name))
            except OSError:
                pass
        try:
            os.rmdir(run_dir)
        except OSError:
            pass


def serve_layers(reqs, result, plain_p50, tally, info):
    st = result["daemon_stats"]
    inv, sched, tm = st["invariant"], st["schedule"], st["timings"]
    served = result["served"]
    per = 1 / served

    def phase_s(name):
        return tm[name]["total_ns"] * 1e-9 * per

    # Spans per request: the client's round trip, and inside it the
    # handler time the daemon reports; the round trip's self time is the
    # time spent queueing and on the socket.
    spans = []
    for k, r in enumerate(reqs):
        root, child = 2 * k + 1, 2 * k + 2
        spans.append((root, 0, "serve.round_trip", r["t0"], r["t1"], False))
        spans.append((child, root, "daemon.handler", r["t1"] - r["handler"], r["t1"], False))
    own = self_times(spans)
    queue = [own[2 * k + 1] for k in range(len(reqs))]
    hits = [r["handler"] for r in reqs if r["cache"] == "hit"]
    misses = [r["handler"] for r in reqs if r["cache"] == "miss"]
    serve = sched["serve"]
    handled = serve["cache_hits"] + serve["cache_misses"] + serve["requests_coalesced"]
    verdicts = result["cache_stats"]["verdicts"]
    total = sched["configs_explored"] + sched["configs_reduced"]
    layers = result["layers"]
    run_caps = sum(1 for r in reqs if r["kind"] == "run-cap")
    lat = [r["rt"] for r in reqs]
    return {
        "logic.run_enum_s": (phase_s("run_enum"), served),
        "logic.formula_eval_s": (phase_s("formula_eval"), served),
        "logic.formula_evals": (inv["formula_evals"] * per, served),
        "logic.evals_per_run": (inv["formula_evals"] / inv["runs_enumerated"]
                                if inv["runs_enumerated"] else 0.0, served),
        "check.conclude_s": (0.0, 0),
        "check.project_s": (phase_s("project"), served),
        "check.runs_enumerated": (inv["runs_enumerated"] * per, served),
        "check.run_cap_stops": (sched["budget_stops"]["run-cap"] * per, served),
        "check.run_cap_verdicts": (run_caps / len(reqs), len(reqs)),
        "lang.explore_s": (0.0, 0),
        "lang.interp_step_s": (phase_s("interp_step"), served),
        "lang.canon_key_s": (phase_s("canon_key"), served),
        "lang.seen_table_s": (phase_s("seen_table"), served),
        "lang.merge_s": (phase_s("merge"), served),
        "lang.configs_explored": (sched["configs_explored"] * per, served),
        "lang.reduced_ratio": (sched["configs_reduced"] / total if total else 0.0, served),
        "syntax.request_parse_s": (layers["request_parse_s"], layers["parsed"]),
        "daemon.verdict_key_s": (layers["verdict_key_s"], layers["keyed"]),
        "report.render_s": (layers["render_s"], layers["rendered"]),
        "daemon.handler_hit_s": (median(hits), len(hits)),
        "daemon.handler_miss_s": (median(misses), len(misses)),
        "daemon.queue_s": (median(queue), len(queue)),
        "daemon.cache_hit_ratio": (serve["cache_hits"] / handled if handled else 0.0, handled),
        "daemon.evictions": (verdicts["evictions"] * per, served),
        "daemon.explorations_shared": (serve["explorations_shared"] * per, served),
        "daemon.coalesced": (serve["requests_coalesced"] * per, served),
        "trace.overhead_ratio": (median(lat) / plain_p50 if plain_p50 else 0.0, len(lat)),
        "decided_ratio": (tally.decided_ratio(), tally.checks),
    }


# --- output ------------------------------------------------------------

def measure(workload, seed, seconds, trace):
    if workload == "serve-mix":
        return run_serve(seed, seconds, trace)
    return run_oneshot(workload, seconds, trace)


def summary(workload, trace, metrics, info, units):
    tally = info["tally"]
    print(f"== {workload} ({'traced, per-layer' if trace else 'untraced, end-to-end'})")
    print(f"   request: {info['request']}; engine: {', '.join(info['engine'])}")
    print(f"   attempted {tally.attempted}, failed {tally.failed}; "
          f"decided_ratio {tally.decided_ratio():.3f} over {tally.checks} checks")
    for p in tally.problems:
        print(f"   FAILED {p}")
    for name, (value, n) in metrics.items():
        print(f"   {name:28s} {value:14.6g} {units[name]:6s} n={n}")
    if "cals" in info:
        cals = info["cals"]
        print(f"   host speed: calibration median {median(cals):.4f} s over {len(cals)}, "
              f"range {min(cals):.4f}-{max(cals):.4f} s (reference {REFERENCE_CAL_S} s)")
    if "latencies" in info:
        print("   per-check latency, unscaled (s): "
              + " ".join(f"{x:.3f}" for x in info["latencies"]))
    if info.get("layer_shares"):
        print("   share of check time: " + ", ".join(
            f"{k} {v:.1%}" for k, v in info["layer_shares"].items()))
    if "counters" in info:
        print(f"   counters per check: {info['counters']} (gemcheck --stats: {info['cli_counters']})")
    if "flags" in info:
        print("   request classes: " + ", ".join(
            f"{k} {v:.1%}" for k, v in info["class_shares"].items()))
        for p, b in info["flags"]:
            print(f"   WARNING p{p} lies within 5 points of a class boundary at {b:.1%}")
    if info.get("exhausted"):
        print("   WARNING the stream ran out before the time was up")


def result_line(runs):
    correct = all(info["tally"].failed == 0 for _, info in runs)
    attempted = sum(info["tally"].attempted for _, info in runs)
    failed = sum(info["tally"].failed for _, info in runs)
    return {"correct": correct, "attempted": max(attempted, 1), "failed": failed}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    try:
        build()
        if a.workload == "all":
            runs, metrics = [], {}
            for w in WORKLOADS:
                for trace in (0, 1):
                    m, info = measure(w, a.seed, a.seconds, trace)
                    summary(w, trace, m, info, PER_LAYER if trace else END_TO_END)
                    runs.append((m, info))
                    metrics.update({f"{w}.{k}": {"value": v, "unit": (PER_LAYER if trace else END_TO_END)[k]}
                                    for k, (v, _) in m.items()})
        else:
            units = PER_LAYER if a.trace else END_TO_END
            m, info = measure(a.workload, a.seed, a.seconds, a.trace)
            summary(a.workload, a.trace, m, info, units)
            runs = [(m, info)]
            metrics = {k: {"value": v, "unit": units[k]} for k, (v, _) in m.items()}
    except BenchError as e:
        log(f"perfbench: {e}")
        return 2
    sys.stdout.flush()
    print(json.dumps({**result_line(runs), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
