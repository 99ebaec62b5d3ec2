#!/usr/bin/env python3
"""Benchmark driver for the admission service and the Table I campaign.

Run from the root of a checkout:

    python3 perfbench/run.py --workload serve-single --seed 1 --seconds 11 --trace 0

It builds the program from source (Release, under .bench_build/), runs one
workload, checks the outputs, and prints one JSON result line last:
`{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}`.
With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are the per-layer metrics, taken from a live session
with server metrics on plus the traced in-process replay (pb_trace).
`--selftest` checks the load driver's open-loop timing and exits.

Workloads (see README.md for why each exists and what it predicts):
  serve-single   sjs_serve, one AdmissionServer thread, V-Dover, journal on
  serve-sharded  sjs_serve --shards=2, SUBMIT plus QUERY for acked tickets
  serve-fleet    sjs_serve --cluster=4, threshold rental, SUBMIT only
  mc-table1      the paper's Table I campaign through mc::run_monte_carlo
"""
import argparse
import contextlib
import json
import math
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                     "perfbench")
OUT = os.path.join(ROOT, ".bench_out")

SETUP_LAUNCHES = 9     # set-up is timed this many times per run; median kept
EARLY_SETUPS = 4       # throwaway launches before the real one; the rest after
SERVER_WAIT_S = 60.0   # a drained server must exit within this long
ACCEL = 9000.0         # virtual seconds per wall second (pb::kAccel, stream.hpp)
MISSED_MS = 1e9        # a latency quantile that failures push past every sample
HOP_S = 0.05           # a timed replay moves to the next core this often

# Each serve workload: the stream of stream.hpp's serve_spec — warm-up and
# nominal phase at 20k requests/s, then one 1.5 s step per ladder rate
# (requests/second).
SERVE = {
    "serve-single": {
        "serve_args": ["--c-lo=1", "--c-hi=35"],
        "replays": ["."],
        "ladder": [63000, 100000, 126000, 159000, 200000],
        "query_share": 0.0,
    },
    "serve-sharded": {
        "serve_args": ["--c-lo=1", "--c-hi=35", "--shards=2"],
        "replays": ["shard0", "shard1"],
        "ladder": [126000, 159000, 200000, 252000, 316000],
        "query_share": 0.25,
    },
    "serve-fleet": {
        "serve_args": ["--cluster=4", "--rental=threshold"],
        "replays": None,  # one cluster bundle
        "ladder": [63000, 100000, 126000, 159000, 200000],
        "query_share": 0.0,
    },
}
PAPER_RUN_JOBS = 2000.0  # expected jobs in one Table I run (paper Sec. IV)
REFERENCE = os.path.join(HERE, "reference", "mc_table1.json")


class Failure(Exception):
    """The benchmark cannot produce a result (missing sources, build error)."""


def log(msg):
    print(msg, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise Failure("no program sources under %s/src; run from a checkout"
                      % ROOT)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=subprocess.DEVNULL)
    subprocess.run(["cmake", "--build", BUILD, "-j4", "--target",
                    "sjs_serve_cli", "sjs_sim_cli", "pb_load", "pb_mc",
                    "pb_trace"], check=True, stdout=subprocess.DEVNULL)


def binary(name):
    sub = {"sjs_serve": "sjs_tools", "sjs_sim": "sjs_tools"}.get(name, "")
    return os.path.join(BUILD, sub, name)


def read_line(proc, prefix, timeout):
    """Reads proc's stdout until a line starting with `prefix`. Returns
    (line, text read after it); line is None on EOF or timeout."""
    fd = proc.stdout.fileno()
    buf = b""
    end = time.monotonic() + timeout
    while time.monotonic() < end:
        ready, _, _ = select.select([fd], [], [], max(0.0, end - time.monotonic()))
        if not ready:
            break
        chunk = os.read(fd, 4096)
        if not chunk:
            break
        buf += chunk
        lines = buf.decode(errors="replace").split("\n")
        for i, line in enumerate(lines[:-1]):
            if line.startswith(prefix):
                return line, "\n".join(lines[i + 1:])
    return None, ""


def reap(proc, timeout):
    """Waits for proc; returns (returncode, peak RSS in MB). Kills it after
    `timeout` seconds (SIGTERM, then SIGKILL) — the kill is then visible as
    a non-zero code."""
    end = time.monotonic() + timeout
    sent_term = False
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage.ru_maxrss / 1024.0
        if time.monotonic() > end:
            # os.kill, not Popen.send_signal: the latter polls, and a poll
            # that reaps the child loses its resource usage.
            os.kill(proc.pid, signal.SIGKILL if sent_term else signal.SIGTERM)
            sent_term = True
            end = time.monotonic() + 5.0
        time.sleep(0.005)


DRIVER_SLOT = 1           # core index of the load driver
SERVER_SLOTS = [3, 0, 2]  # core indices of the server's threads, in turn


def cpus():
    """The cores this process may use, sorted; empty below 4 (no pinning,
    no hopping)."""
    mine = sorted(os.sched_getaffinity(0))
    return mine if len(mine) >= 4 else []


def start(argv, cores, **kwargs):
    """Popen with the child born on `cores`: this process moves there for
    the spawn, so the child inherits the mask without a preexec_fn (which
    would force Python's slow spawn path, and set-up times include it) and
    without a migration after it started."""
    saved = os.sched_getaffinity(0)
    if cores:
        os.sched_setaffinity(0, cores)
    try:
        return subprocess.Popen(argv, cwd=ROOT, **kwargs)
    finally:
        os.sched_setaffinity(0, saved)


# Keeps one core busy at the lowest priority. A core that idles is given
# back to the host, and waking it again costs a host-level reschedule whose
# delay follows the host's load; with this spinner on the server's core a
# wake-up is an ordinary in-guest preemption (a SCHED_IDLE task yields at
# once to any normal task), so latency measures the server, not the host.
SPINNER = ("import os\n"
           "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
           "while True:\n"
           "    pass\n")


class Hopper:
    """While active, moves each thread in `placement` ({tid: core index})
    one core on every HOP_S, so that the threads keep distinct cores (as
    placed) but each visits every core. On a shared host a neighbour's load
    slows one core at a time — by up to 40%, for seconds — so work pinned to
    one core times that core's neighbour as much as the program; hopping
    spreads every run over all cores alike. No-op below 4 cores."""

    def __init__(self, placement):
        self.cpus = sorted(os.sched_getaffinity(0))
        self.placement = placement if len(self.cpus) >= 4 else {}
        self.done = threading.Event()
        self.mover = threading.Thread(target=self._hop)

    def __enter__(self):
        self.mover.start()
        return self

    def __exit__(self, *exc):
        self.done.set()
        self.mover.join()

    def _hop(self):
        k = 0
        while not self.done.wait(HOP_S):
            k += 1
            for tid, base in self.placement.items():
                try:
                    os.sched_setaffinity(
                        tid, {self.cpus[(base + k) % len(self.cpus)]})
                except OSError:
                    pass  # the thread has exited


@contextlib.contextmanager
def spinning(cores):
    """One SPINNER per core of `cores` while active. Timed work that hops
    (Hopper) needs them on every core: without them each hop lands on an
    idle core, and a replay spent up to a fifth of its wall time waiting for
    the host to wake the core it was moved to."""
    spinners = [start([sys.executable, "-c", SPINNER], {c})
                for c in sorted(cores)]
    try:
        yield
    finally:
        for proc in spinners:
            proc.kill()
        for proc in spinners:
            proc.wait()


def launch_timed(argv, ready_prefix, cores=frozenset()):
    """Starts argv and times launch → the ready line. Returns (proc, line,
    seconds); line is None when the process never became ready, and
    proc.rest holds what the process printed after it so far."""
    t0 = time.perf_counter()
    proc = start(argv, cores, stdout=subprocess.PIPE)
    line, proc.rest = read_line(proc, ready_prefix, 60.0)
    return proc, line, time.perf_counter() - t0


def throwaway_setups(argv_for, ready_prefix, cores, ks):
    """Launches argv_for(k) for each k in ks, each stopped once ready, and
    returns their set-up times. A run times EARLY_SETUPS of them before its
    real launch and the rest after its work: launches in a row agree within
    a few per cent, but the level drifts with the host, so the median
    samples two moments of the run."""
    times = []
    for k in ks:
        proc, line, dt = launch_timed(argv_for(k), ready_prefix, cores)
        if line is not None:
            os.kill(proc.pid, signal.SIGTERM)
        reap(proc, 10.0)
        proc.stdout.close()
        if line is None:
            raise Failure("set-up launch %d never became ready" % k)
        times.append(dt)
    return times


def launch_real(argv_for, ready_prefix, cores, what):
    """The timed throwaway launches before the run, then the real launch.
    Returns (proc, ready line, set-up times so far)."""
    times = throwaway_setups(argv_for, ready_prefix, cores,
                             range(EARLY_SETUPS))
    proc, line, dt = launch_timed(argv_for(None), ready_prefix, cores)
    if line is None:
        reap(proc, 0.0)
        raise Failure("%s never became ready" % what)
    return proc, line, times + [dt]


def late_setups(argv_for, ready_prefix, cores, times):
    """The rest of the run's set-up launches; returns the median of all."""
    times = times + throwaway_setups(argv_for, ready_prefix, cores,
                                     range(EARLY_SETUPS, SETUP_LAUNCHES - 1))
    return statistics.median(times)


# --- serve workloads ---------------------------------------------------------

def parse_server_log(text):
    out = {"metrics": {}}
    for line in text.splitlines():
        s = line.strip()
        if s.startswith("server: "):
            parts = [p.strip() for p in s[len("server: "):].split(",")]
            for p in parts:
                num, name = p.split(" ", 1)
                out["server_" + name] = int(num)
        elif s.startswith("drained: cluster"):
            out["rental_cost"] = float(s.split("rental cost ")[1].split(",")[0])
        elif ": " in s and (s.startswith("server.") or s.startswith("trace.")
                            or s.startswith("cluster.")):
            key, val = s.split(": ", 1)
            try:
                out["metrics"][key] = float(val)
            except ValueError:
                pass
    return out


def outcome_rows(path):
    completed = expired = 0
    with open(path) as f:
        next(f)
        for line in f:
            status = line.split(",", 2)[1]
            if status == "completed":
                completed += 1
            elif status == "expired":
                expired += 1
    return completed, expired


def files_equal(a, b):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        return fa.read() == fb.read()


def stream_args(name, seed, seconds):
    """Stream options pb_load and pb_trace share, so that both build the
    same requests."""
    cfg = SERVE[name]
    return ["--seed=%d" % seed, "--seconds=%g" % seconds,
            "--ladder=" + ",".join(str(r) for r in cfg["ladder"]),
            "--query-share=%g" % cfg["query_share"]]


def run_serve(name, seed, seconds, trace):
    cfg = SERVE[name]
    cores = cpus()
    threads = 3 if name == "serve-sharded" else 1  # acceptor + 2 shards
    driver_cores = {cores[DRIVER_SLOT]} if cores else set()
    server_cores = {cores[k] for k in SERVER_SLOTS[:threads]} if cores else set()
    work = os.path.join(OUT, "%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    journal = os.path.join(work, "journal")

    def serve_argv(k):
        j = journal if k is None else journal + "-setup%d" % k
        argv = [binary("sjs_serve"), "--port=0", "--journal=" + j,
                "--accel=%g" % ACCEL] + cfg["serve_args"]
        return argv + (["--metrics"] if trace else [])

    server, line, setup_times = launch_real(serve_argv, "LISTENING ",
                                            server_cores, "sjs_serve")
    port = int(line.split()[1])
    problems = []
    result_path = os.path.join(work, "load.json")
    load_argv = [binary("pb_load"), "--port=%d" % port,
                 "--out=" + result_path] + stream_args(name, seed, seconds)
    t_load = time.perf_counter()
    load = None
    # Spinners hold every core while the load runs (not during set-up,
    # which is timed as launched): the driver and the server's threads each
    # keep a core of their own but hop across all of them.
    try:
        with spinning(cores):
            load = start(load_argv, driver_cores)
            placement = {load.pid: DRIVER_SLOT}
            tids = sorted(int(t) for t in
                          os.listdir("/proc/%d/task" % server.pid))
            placement.update(zip(tids, SERVER_SLOTS))
            with Hopper(placement):
                load.wait(timeout=seconds + 90)
    except BaseException:
        if load is not None and load.poll() is None:
            load.kill()
            load.wait()
        reap(server, 0.0)  # never leave the server running
        raise
    t_drain = time.perf_counter()
    code, rss_mb = reap(server, SERVER_WAIT_S)
    t_replay = time.perf_counter()
    server_text = server.rest + server.stdout.read().decode(errors="replace")
    server.stdout.close()
    if load.returncode != 0 or not os.path.exists(result_path):
        raise Failure("pb_load failed (exit %d)" % load.returncode)
    with open(result_path) as f:
        res = json.load(f)
    aborts = 0
    if code != 0:
        aborts = 1
        problems.append("sjs_serve exited abnormally (code %d)" % code)
    srv = parse_server_log(server_text)

    # Accounting must close on both sides of the wire.
    if not res["accounting_ok"]:
        problems.append("driver accounting does not close")
    if not res["drain_acked"] or res["closed_early"] or res["gave_up"]:
        problems.append("session did not drain cleanly")
    for key, mine in (("submitted", res["submits"]),
                      ("accepted", res["accepted"]),
                      ("rejected", res["rejected"]), ("shed", res["shed"]),
                      ("completed", res["completed"]),
                      ("expired", res["expired"])):
        theirs = srv.get("server_" + key)
        if theirs != mine:
            problems.append("server %s %s != driver %s" % (key, theirs, mine))

    # Replay every journal through sjs_sim and byte-compare outcomes.csv.
    bundles = ([journal] if cfg["replays"] is None else
               [os.path.normpath(os.path.join(journal, r))
                for r in cfg["replays"]])
    replay_s = 0.0
    completed_rows = expired_rows = 0
    for b in bundles:
        live = os.path.join(b, "outcomes.csv")
        if not os.path.exists(live):
            problems.append("no outcomes.csv in %s" % b)
            continue
        mine = os.path.join(work, "replay-%s.csv" % os.path.basename(b))
        argv = [binary("sjs_sim"), "--outcomes-csv=" + mine]
        if cfg["replays"] is None:
            argv.append("--cluster-bundle=" + b)
        else:
            argv += ["--bundle=" + b, "--scheduler=V-Dover"]
        with spinning(cores):
            t0 = time.perf_counter()
            rep = start(argv, set(cores[:1]), stdout=subprocess.DEVNULL)
            with Hopper({rep.pid: 0}):
                rep.wait()
            replay_s += time.perf_counter() - t0
        if rep.returncode != 0 or not files_equal(live, mine):
            problems.append("replay of %s differs from the live outcomes" % b)
        c, e = outcome_rows(live)
        completed_rows += c
        expired_rows += e
    log("wall: load %.1f s, drain %.1f s, replay %.1f s" % (
        t_drain - t_load, t_replay - t_drain, replay_s))
    if (completed_rows, expired_rows) != (res["completed"], res["expired"]):
        problems.append("journal outcomes %d/%d != notifications %d/%d" % (
            completed_rows, expired_rows, res["completed"], res["expired"]))

    nominal = res["phases"][1]
    # A quantile the failures push past every sample (requests never sent or
    # never answered because the server died) reads as null; report it as a
    # latency no healthy run reaches.
    for key in ("p50_win_ms", "p99_win_ms"):
        if nominal[key] is None:
            nominal[key] = MISSED_MS
    if res["lag_ms_p99"] is None:
        res["lag_ms_p99"] = MISSED_MS
    log("%s: %d requests, %d failed (failed_frac %.6f), %d lost replies, "
        "knee %.0f/s%s" % (
            name, res["requests"], res["failed"],
            res["failed"] / max(1, res["requests"]), res["lost_replies"],
            res["knee_rate"],
            " (capped at the ladder top)" if res["knee_capped"] else ""))
    log("  nominal %.0f/s: %d samples; p50 %s ms, p99 %s ms (median over "
        "0.5 s windows); pooled p50 %s ms, p99 %s ms" % (
            nominal["rate"], nominal["n"], fmt(nominal["p50_win_ms"]),
            fmt(nominal["p99_win_ms"]), fmt(nominal["p50_ms"]),
            fmt(nominal["p99_ms"])))
    if res["queries"]:
        log("  nominal SUBMIT p50 %s / p99 %s ms, QUERY p50 %s / p99 %s ms; "
            "%d queries, %d unknown, %d retargeted" % (
                fmt(nominal["submit_p50_ms"]), fmt(nominal["submit_p99_ms"]),
                fmt(nominal["query_p50_ms"]), fmt(nominal["query_p99_ms"]),
                res["queries"], res["query_unknown"],
                res["retargeted_queries"]))
    for ph in res["phases"][2:]:
        log("  step %7.0f/s: p50 %s ms, p99 %s ms, lag p99 %.3f ms, "
            "within %g ms %.4f (score %+.3f), refused or failed %d%s" % (
                ph["rate"], fmt(ph["p50_ms"]), fmt(ph["p99_ms"]),
                ph["lag_p99_ms"] or float("nan"), res["limit_ms"], ph["within"],
                ph["score"], ph["failed"],
                "" if ph["pass"] else "  (misses the limit)"))
    if "rental_cost" in srv:
        log("  fleet_rental_cost %.6f cost (at drain)" % srv["rental_cost"])
    for p in problems:
        log("CHECK FAILED: " + p)

    setup_s = late_setups(serve_argv, "LISTENING ", server_cores,
                          setup_times)
    e2e = {
        "setup_s": (setup_s, "s"),
        "reply_p50_ms": (nominal["p50_win_ms"], "ms"),
        "max_rate_submits_per_s": (res["knee_rate"], "1/s"),
        "captured_value_pct": (
            100.0 * nominal["completed_value"] / nominal["submitted_value"],
            "%"),
        # Replay throughput in Table-I-sized runs (2000 jobs) per second, so
        # that journals of different lengths compare.
        "sim_runs_per_s": ((completed_rows + expired_rows) / PAPER_RUN_JOBS
                           / max(replay_s, 1e-9), "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    layer = {}
    if trace:
        layer = serve_layers(res, srv, aborts)
    if not problems:
        shutil.rmtree(work, ignore_errors=True)
    return {"correct": not problems, "attempted": res["requests"],
            "failed": res["failed"], "e2e": e2e, "layer": layer}


def fmt(v):
    return "inf" if v is None else "%.4f" % v


def serve_layers(res, srv, aborts):
    m = srv["metrics"]
    accepted = max(1.0, m.get("server.jobs_accepted", 0.0))
    notes = m.get("trace.note", 0.0)
    layer = {
        "serve.event_loop.write_overflows": (m.get("server.write_overflows", 0.0), "count"),
        "serve.event_loop.write_buffer_peak": (m.get("server.write_buffer_peak", 0.0), "bytes"),
        "serve.server.jobs_shed": (m.get("server.jobs_shed", 0.0), "count"),
        "serve.server.in_flight_peak": (m.get("server.in_flight_peak", 0.0), "count"),
        "serve.server.trace_notes_per_job": (notes / accepted, "ratio"),
        "cluster.rental_cost": (srv.get("rental_cost", 0.0), "cost"),
        "driver.reply_p99_ms": (res["phases"][1]["p99_win_ms"], "ms"),
        "driver.lag_ms_p99": (res["lag_ms_p99"], "ms"),
        "driver.lost_replies": (res["lost_replies"], "count"),
        "driver.server_aborts": (aborts, "count"),
        "driver.requests": (res["requests"], "count"),
    }
    return layer


def idle_serve_layers(requests, row_p99_ms):
    """mc-table1 runs no server and no load generator: the live-session
    counts are zero by construction, and its reply p99 is the row call's."""
    layer = serve_layers({"lag_ms_p99": 0.0, "lost_replies": 0,
                          "requests": requests,
                          "phases": [None, {"p99_win_ms": row_p99_ms}]},
                         {"metrics": {}}, 0)
    return layer


# --- mc-table1 ---------------------------------------------------------------

def run_mc(seed, seconds, trace):
    cores = cpus()

    def argv_for(k):
        argv = [binary("pb_mc"), "--seed=%d" % seed, "--seconds=%g" % seconds]
        return argv + (["--setup-only"] if k is not None else [])

    work_core = {cores[SERVER_SLOTS[0]]} if cores else set()
    proc, line, setup_times = launch_real(argv_for, "READY", work_core, "pb_mc")
    row_sims, live_runs = (int(x) for x in line.split()[1:3])
    # Read to EOF before reaping, so a long campaign never blocks on a full
    # pipe; every finished row and live unit is on its own line.
    with spinning(cores), Hopper({proc.pid: SERVER_SLOTS[0]}):
        text = proc.rest + proc.stdout.read().decode(errors="replace")
    proc.stdout.close()
    code, rss_mb = reap(proc, seconds + 120)
    rows, live = [], []
    last = None
    for l in text.splitlines():
        if l.startswith("ROW "):
            rows.append([float(x) for x in l.split()[1:]])
            last = "ROW"
        elif l.startswith("LIVE "):
            live.append([float(x) for x in l.split()[1:]])
            last = "LIVE"
    problems = []
    failed = 0
    if code != 0:
        # The unit in flight died with the process: its simulations failed.
        # Rows and live units alternate, a row first.
        failed = live_runs if last == "ROW" else row_sims
        problems.append("pb_mc exited abnormally (code %d) after %d rows and "
                        "%d live units" % (code, len(rows), len(live)))
    elif not live:
        problems.append("pb_mc ran no live unit")
    mismatched = sum(1 for r in live if r[2] != 1)
    if mismatched:
        failed += mismatched * live_runs
        problems.append("%d live units differ from their batch replay"
                        % mismatched)
    ref = start([binary("pb_mc"), "--reference"], frozenset(),
                stdout=subprocess.PIPE)
    ref_text = ref.communicate()[0].decode(errors="replace")
    if ref.returncode != 0:
        problems.append("reference campaign exited abnormally (code %d)"
                        % ref.returncode)
    else:
        problems += compare_reference(json.loads(ref_text))

    row_ms = [r[0] for r in rows]
    elapsed = sum(row_ms) / 1e3
    sims = sum(r[1] for r in rows)
    vdover_pct = statistics.mean(r[2] for r in rows) if rows else 0.0
    live_jobs = sum(r[0] for r in live)
    live_s = sum(r[1] for r in live)
    live_rate = live_jobs / live_s if live_s else 0.0
    log("mc-table1: %d rows, %d simulations in %.2f s; %d live units, "
        "%d runs in %.2f s; %d failed; V-Dover captured %.3f%%" % (
            len(rows), sims, elapsed, len(live), len(live) * live_runs,
            live_s, failed, vdover_pct))
    for p in problems:
        log("CHECK FAILED: " + p)
    attempted = int(sims) + len(live) * live_runs + (failed if code else 0)
    setup_s = late_setups(argv_for, "READY", work_core, setup_times)
    e2e = {
        "setup_s": (setup_s, "s"),
        "reply_p50_ms": (quantile(row_ms, 0.50), "ms"),
        # Live V-Dover engine: submits absorbed per wall second of the live
        # units.
        "max_rate_submits_per_s": (live_rate, "1/s"),
        "captured_value_pct": (vdover_pct, "%"),
        "sim_runs_per_s": (sims / elapsed if elapsed else 0.0, "1/s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    layer = (idle_serve_layers(attempted, quantile(row_ms, 0.99))
             if trace else {})
    return {"correct": not problems, "attempted": attempted,
            "failed": failed, "e2e": e2e, "layer": layer}


def quantile(values, q):
    """Nearest-rank quantile, the rule the C++ tools use; 0 when empty."""
    if not values:
        return 0.0
    v = sorted(values)
    return v[min(len(v) - 1, max(0, math.ceil(q * len(v)) - 1))]


def compare_reference(got):
    """The fixed reference campaign must reproduce the stored per-cell
    captured % and combined replay digests exactly."""
    with open(REFERENCE) as f:
        want = json.load(f)
    problems = []
    for lam, row in want.items():
        mine = got.get(lam)
        if mine is None:
            problems.append("reference row lambda=%s missing" % lam)
            continue
        for sched, pct in row["captured_pct"].items():
            if abs(mine["captured_pct"].get(sched, -1.0) - pct) > 1e-9:
                problems.append("lambda=%s %s captured %% %r != %r" % (
                    lam, sched, mine["captured_pct"].get(sched), pct))
            if mine["digest"].get(sched) != row["digest"][sched]:
                problems.append("lambda=%s %s digest %s != %s" % (
                    lam, sched, mine["digest"].get(sched), row["digest"][sched]))
    return problems


# --- traced replay -----------------------------------------------------------

def traced_layers(name, seed, seconds):
    """Runs pb_trace (the in-process replay with spans) on the workload's
    stream and returns its per-layer metrics."""
    work = os.path.join(OUT, "trace-%s-%d" % (name, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    out = os.path.join(work, "layers.json")
    argv = [binary("pb_trace"), "--workload=" + name, "--out=" + out,
            "--spans=" + os.path.join(work, "spans.tsv")]
    argv += (stream_args(name, seed, seconds) if name in SERVE
             else ["--seed=%d" % seed])
    proc = subprocess.run(argv, cwd=ROOT, timeout=170)
    if proc.returncode != 0:
        raise Failure("pb_trace failed (exit %d)" % proc.returncode)
    with open(out) as f:
        layers = json.load(f)
    shutil.rmtree(work, ignore_errors=True)
    return {k: (v["value"], v["unit"]) for k, v in layers.items()}


def selftest():
    return subprocess.run([binary("pb_load"), "--selftest"], cwd=ROOT,
                          timeout=60).returncode == 0


def declared_metrics(trace):
    """Metric names BENCHMARK.json declares for this mode (None when the
    file is absent), so the printed set cannot drift from the declared one."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.exists(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(list(SERVE) + ["mc-table1"]))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        build()
        if args.selftest:
            return 0 if selftest() else 1
        if args.workload is None:
            ap.error("--workload is required")
        if args.workload in SERVE:
            run = run_serve(args.workload, args.seed, args.seconds, args.trace)
        else:
            run = run_mc(args.seed, args.seconds, args.trace)
        metrics = run["e2e"]
        correct = run["correct"]
        if args.trace:
            metrics = dict(run["layer"])
            metrics.update(traced_layers(args.workload, args.seed, args.seconds))
            ok = selftest()
            correct = correct and ok
    except (Failure, subprocess.CalledProcessError,
            subprocess.TimeoutExpired, OSError) as e:
        print("benchmark failed: %s" % e, file=sys.stderr)
        return 1
    declared = declared_metrics(args.trace)
    if declared is not None and declared != set(metrics):
        print("benchmark failed: metrics %s differ from BENCHMARK.json %s" % (
            sorted(set(metrics) ^ declared), "per_layer" if args.trace
            else "end_to_end"), file=sys.stderr)
        return 1
    for k, (v, unit) in sorted(metrics.items()):
        log("%-40s %14.6g %s" % (k, v, unit))
    print(json.dumps({"correct": bool(correct), "attempted": int(run["attempted"]),
                      "failed": int(run["failed"]),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
