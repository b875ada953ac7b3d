#!/usr/bin/env python3
"""qturbo benchmark: whole user-visible operations, timed end to end, with
an in-process traced replay that splits them layer by layer.

Run from the repository root:

    python3 perfbench/run.py --workload oneshot|serve|sweep \
        --seed N --seconds S --trace 0|1

The script builds the CLI and the replay probe with dune, generates every
input from the seed, runs the workload's closed loop over as many blocks
of operations as take about S seconds on the reference machine,
checks the outputs, and prints one JSON object as its last line: the
end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
The line before it is a provenance record (cores, OCaml version, source
revision, seed, sample counts).  See perfbench/README.md.
"""

import argparse
import hashlib
import json
import multiprocessing
import os
import random
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time

CLI = os.path.join("_build", "default", "bin", "qturbo_cli.exe")
PROBE = os.path.join("_build", "default", "perfbench", "probe", "probe.exe")
WORK = ".perfbench"
HELD_OUT_SEED = 20261017  # kept back for confirming later claims
BATCH_DOMAINS = "2"
SETUP_REPEATS = 15
OP_TIMEOUT = 120.0


class BenchError(Exception):
    pass


def child_env():
    env = dict(os.environ)
    env["QTURBO_DOMAINS"] = "1"
    for k in ("QTURBO_FAULTS", "QTURBO_PLAN_STORE", "QTURBO_LINT_CACHE",
              "QTURBO_VERIFY_KERNELS"):
        env.pop(k, None)
    return env


ENV = child_env()


# ---- inputs ---------------------------------------------------------------

def strat(rng, lo, hi, k):
    """k stratified draws from [lo, hi] in random order (one per stratum),
    so every round of a workload sees the same spread of coefficients."""
    vals = [round(lo + (i + rng.random()) * (hi - lo) / k, 4) for i in range(k)]
    rng.shuffle(vals)
    return vals


def coeffs(rng, k):
    """k (J, h, t_tar) triples.  The bands are narrow on purpose: a repeated
    shape only needs new coefficients to be a cache or store hit, and the
    quality metrics (T_sim, error) then vary little from seed to seed."""
    return zip(strat(rng, 0.9, 1.1, k), strat(rng, 0.6, 0.8, k),
               strat(rng, 0.9, 1.3, k))


ONESHOT_POOL = (
    [("rydberg", m, n) for m in ("ising-chain", "ising-cycle", "kitaev")
     for n in (3, 13, 23, 43, 63, 93)]
    # ising-cycle+ needs at least 5 qubits
    + [("rydberg", "ising-cycle+", n) for n in (13, 23, 43, 63, 93)]
    + [("heisenberg", m, n) for m in ("ising-chain", "kitaev", "heis-chain")
       for n in (3, 13, 23, 43, 63, 93)]
    + [("iontrap", m, n) for m in ("ising-chain", "heis-chain")
       for n in (3, 13, 23, 43)]
)
ONESHOT_LARGE = [("rydberg", "ising-cycle", 300), ("rydberg", "ising-cycle", 1000)]

# A run executes a fixed number of blocks, set by --seconds and the time
# one block takes on the reference machine (2 cores, see README.md), so
# both commits of a comparison do the same work.  Every block of a
# workload has the same mix of shapes; the seed draws their order and
# coefficients.
BLOCK_SECONDS = {"oneshot": 4.5, "serve": 0.8, "sweep": 6.5}
# Sweep blocks whose static jobs are replayed for their T_sim.
SWEEP_QUALITY_BLOCKS = 2

SERVE_POOL = (
    [("rydberg", m, n) for m in ("ising-cycle", "kitaev", "ising-chain")
     for n in (23, 43, 93)]
    + [("heisenberg", "heis-chain", 93), ("iontrap", "ising-chain", 43)]
)


def compile_op(shape, c, kind="compile"):
    backend, model, n = shape
    j, h, t = c
    return {"kind": kind, "backend": backend, "model": model, "n": n,
            "j": j, "h": h, "t_tar": t}


def gen_oneshot(rng, blocks):
    """Blocks of 51 CLI compiles: the 49-shape pool in a shuffled order
    (each shape once per block, so its repeats in later blocks are store
    hits with new coefficients) and one n=300 and one n=1000 large-N
    ising-cycle."""
    ops = []
    for b in range(blocks):
        pool = ONESHOT_POOL + ONESHOT_LARGE
        block = [compile_op(s, c) for s, c in zip(rng.sample(pool, len(pool)),
                                                    coeffs(rng, len(pool)))]
        for op in block:
            op["block"] = b
            op["quality"] = True
        ops += block
    return ops


def gen_serve_client(rng, blocks):
    """Blocks of 12 daemon requests: every pool shape compiled once (with
    show_pulse) and one check of a random pool shape."""
    ops = []
    for b in range(blocks):
        block = [compile_op(s, c) for s, c in zip(
            rng.sample(SERVE_POOL, len(SERVE_POOL)),
            coeffs(rng, len(SERVE_POOL)))]
        block.insert(rng.randrange(len(block) + 1),
                     compile_op(rng.choice(SERVE_POOL),
                                next(iter(coeffs(rng, 1))), kind="check"))
        for op in block:
            op["block"] = b
            op["quality"] = op["kind"] == "compile"
        ops += block
    return ops


def seg_range(rng, count):
    """The --sweep-t range of a TD sweep: `count` t_tar from [0.9, 1.1] up
    to 0.3-0.5 us above it."""
    a = round(rng.uniform(0.9, 1.1), 4)
    if count == 1:
        return "%r" % a
    return "%r:%r:%d" % (a, round(a + rng.uniform(0.3, 0.5), 4), count)


def gen_sweep(rng, blocks):
    """Blocks of 6 sweep processes, half time-dependent segment sweeps
    (segments 4,8,16,32 x drawn t_tar) and half static 16-job --jobs
    grids.  Sorted by latency, the two n=93 static sweeps sit in the middle
    of every block, so the median lands inside one class of operation."""
    ops = []
    for b in range(blocks):
        block = [
            {"kind": "sweep_td", "backend": "rydberg", "device": "aquila",
             "model": "mis-chain", "n": 24, "segments": "4,8,16,32",
             "sweep_t": seg_range(rng, 2)},
            {"kind": "sweep_td", "backend": "rydberg", "device": "aquila",
             "model": "mis-chain", "n": 48, "segments": "4,8,16,32",
             "sweep_t": seg_range(rng, 1)},
            {"kind": "sweep_td", "backend": "iontrap", "model": "qaoa-chain",
             "n": 32, "segments": "4,8,16,32",
             "sweep_t": seg_range(rng, 4)},
        ]
        for backend, model, n in (("rydberg", "ising-cycle", 93),
                                  ("rydberg", "ising-cycle", 93),
                                  ("iontrap", "ising-chain", 43)):
            block.append({"kind": "sweep_static", "backend": backend,
                          "model": model, "n": n,
                          "jobs": [list(c) for c in coeffs(rng, 16)]})
        rng.shuffle(block)
        for op in block:
            op["block"] = b
            op["quality"] = b < SWEEP_QUALITY_BLOCKS
        ops += block
    return ops


def n_blocks(workload, seconds):
    floor = SWEEP_QUALITY_BLOCKS if workload == "sweep" else 1
    return max(floor, int(round(seconds / BLOCK_SECONDS[workload])))


def generate(workload, seed, seconds):
    rng = random.Random("%s/%d" % (workload, seed))
    blocks = n_blocks(workload, seconds)
    if workload == "oneshot":
        clients = [gen_oneshot(rng, blocks)]
    elif workload == "serve":
        clients = [gen_serve_client(rng, blocks), gen_serve_client(rng, blocks)]
    else:
        clients = [gen_sweep(rng, blocks)]
    next_id = 0
    for ci, ops in enumerate(clients):
        for op in ops:
            op["id"] = next_id
            op["client"] = ci
            next_id += 1
            if workload == "serve":
                op["req"] = request_line(op)
    return clients


def n_jobs(op):
    if op["kind"] == "sweep_static":
        return len(op["jobs"])
    if op["kind"] == "sweep_td":
        ts = op["sweep_t"].split(":")
        return len(op["segments"].split(",")) * (int(ts[2]) if len(ts) == 3 else 1)
    return 1


def request_line(op):
    req = {"op": op["kind"], "model": op["model"], "n": op["n"],
           "backend": op["backend"], "j": op["j"], "h": op["h"],
           "t_tar": op["t_tar"]}
    if op["kind"] == "compile":
        req["show_pulse"] = True
    return json.dumps(req, separators=(",", ":"))


def cli_args(op, work, store):
    k = op["kind"]
    if k == "compile":
        args = ["compile", "--json", "--show-pulse", "-m", op["model"],
                "-n", str(op["n"]), "-b", op["backend"], "-j", repr(op["j"]),
                "--field", repr(op["h"]), "-t", repr(op["t_tar"])]
        if store:
            args += ["--plan-store", store]
        return args
    args = ["sweep", "--json", "--batch-domains", BATCH_DOMAINS,
            "-m", op["model"], "-n", str(op["n"]), "-b", op["backend"]]
    if op.get("device"):
        args += ["-d", op["device"]]
    if k == "sweep_td":
        return args + ["--sweep-segments", op["segments"],
                       "--sweep-t", op["sweep_t"]]
    return args + ["--jobs", jobs_path(op, work)]


def jobs_path(op, work):
    return os.path.join(work, "jobs-%d.txt" % op["id"])


def write_jobs_files(ops, work):
    for op in ops:
        if op["kind"] == "sweep_static":
            with open(jobs_path(op, work), "w") as f:
                f.writelines("%r %r %r\n" % tuple(c) for c in op["jobs"])


# ---- processes ------------------------------------------------------------

def run_cli(args):
    """Spawn one qturbo process; (exit code, stdout, seconds, peak RSS MB)."""
    t0 = time.perf_counter()
    p = subprocess.Popen([CLI] + args, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL, env=ENV)
    timer = threading.Timer(OP_TIMEOUT, p.kill)
    timer.start()
    try:
        out = p.stdout.read()
        p.stdout.close()
        _, status, ru = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    dt = time.perf_counter() - t0
    # reaped by wait4 (for the child's own rusage); tell Popen so
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, out.decode("utf-8", "replace").strip(), dt, ru.ru_maxrss / 1024.0


def sock_request(path, line):
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    s.settimeout(OP_TIMEOUT)
    try:
        s.connect(path)
        s.sendall(line.encode() + b"\n")
        with s.makefile("rb") as f:
            resp = f.readline()
    finally:
        s.close()
    if not resp.endswith(b"\n"):
        raise BenchError("daemon closed the connection without a response")
    return resp.decode("utf-8", "replace").strip()


class Daemon:
    def __init__(self, work, tag):
        self.path = os.path.join(work, "d%s.sock" % tag)
        self.proc = subprocess.Popen(
            [CLI, "serve", "--socket", self.path, "--no-plan-store"],
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=ENV)
        deadline = time.monotonic() + 60
        while True:
            try:
                if json.loads(sock_request(self.path, '{"op":"ping"}'))["ok"]:
                    return
            except (OSError, ValueError, KeyError, BenchError):
                pass
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise BenchError("qturbo serve did not come up")
            time.sleep(0.005)

    def vm_hwm_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.proc.poll() is None:
            try:
                sock_request(self.path, '{"op":"shutdown"}')
            except (OSError, BenchError):
                pass
            try:
                self.proc.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()


def run_probe(args):
    p = subprocess.run([PROBE] + args, capture_output=True, text=True,
                       env=ENV, timeout=150)
    if p.returncode != 0:
        raise BenchError("probe %s failed: %s" % (args[0], p.stderr[-2000:]))
    return [json.loads(l) for l in p.stdout.splitlines() if l.strip()]


def write_jsonl(path, rows):
    with open(path, "w") as f:
        for r in rows:
            f.write(json.dumps(r, separators=(",", ":")) + "\n")


# ---- workload loops ------------------------------------------------------------

class Result:
    def __init__(self, op, exit_code, out, seconds, source):
        self.op, self.exit, self.out, self.seconds = op, exit_code, out, seconds
        self.source = source


def loop_cli(ops, work, store):
    """One client, closed loop: each operation is a fresh process."""
    results, peak = [], 0.0
    t0 = time.perf_counter()
    for op in ops:
        code, out, dt, rss = run_cli(cli_args(op, work, store))
        peak = max(peak, rss)
        results.append(Result(op, code, out, dt, "cli"))
    return results, time.perf_counter() - t0, peak


def serve_client(ops, path, out_path):
    rows = []
    for op in ops:
        s = time.perf_counter()
        try:
            resp, code = sock_request(path, op["req"]), 0
        except (OSError, BenchError) as e:
            resp, code = str(e), 1
        rows.append({"id": op["id"], "exit": code, "s": time.perf_counter() - s,
                     "out": resp})
    write_jsonl(out_path, rows)


def loop_serve(clients, path, work):
    """Two clients, closed loop, one connection per request.  Each client
    is a process of its own, so neither waits on the other's interpreter."""
    ctx = multiprocessing.get_context("fork")
    outs = [os.path.join(work, "client-%d.jsonl" % ci) for ci in range(len(clients))]
    procs = [ctx.Process(target=serve_client, args=(ops, path, out))
             for ops, out in zip(clients, outs)]
    t0 = time.perf_counter()
    for p in procs:
        p.start()
    for p in procs:
        p.join()
    elapsed = time.perf_counter() - t0
    if any(p.exitcode != 0 for p in procs):
        raise BenchError("a serve client failed")
    by_id = {op["id"]: op for ops in clients for op in ops}
    results = []
    for out in outs:
        with open(out) as f:
            for line in f:
                r = json.loads(line)
                results.append(Result(by_id[r["id"]], r["exit"], r["out"], r["s"],
                                      "daemon"))
    return results, elapsed


# ---- checks ----------------------------------------------------------------

def check_outputs(results, work, name):
    """Strict-parse every output with the program's own JSON parser and
    classify every job; returns {op id: record}."""
    rows = [{"id": r.op["id"], "source": r.source, "out": r.out}
            for r in results if r.exit == 0]
    path = os.path.join(work, name)
    write_jsonl(path, rows)
    return {rec["id"]: rec for rec in run_probe(["check", path])}


def job_outcomes(r, rec):
    """Per-job (failed?, reason, t_sim hex, rel hex) for one operation."""
    k = n_jobs(r.op)
    if r.exit != 0:
        return [(True, "exit-%d" % r.exit, None, None)] * k
    if rec is None or not rec.get("parsed"):
        return [(True, "unparsed", None, None)] * k
    if "daemon_error" in rec:
        return [(True, "daemon-error", None, None)] * k
    jobs = rec["jobs"]
    if len(jobs) != k:
        return [(True, "job-count", None, None)] * k
    return [(j["fail"] is not None, j["fail"], j["t_sim"], j["rel"]) for j in jobs]


def hexval(h):
    return float.fromhex(h) if isinstance(h, str) and h != "nonfinite" else None


def quantile(values, q):
    qs = statistics.quantiles(values, n=100, method="inclusive")
    return qs[q - 1]


def source_digest():
    h = hashlib.sha256()
    for root in ("bin", "lib", "dune-project"):
        paths = [root] if os.path.isfile(root) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(root) for f in fs)
        for p in sorted(paths):
            h.update(p.encode())
            with open(p, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_rev():
    """HEAD of the checkout, or None when it is not a git work tree of its
    own (a copy nested in some other repository does not count)."""
    try:
        p = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"],
                           capture_output=True, text=True, timeout=10)
    except OSError:
        return None
    lines = p.stdout.split()
    if p.returncode != 0 or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath("."):
        return None
    return lines[1]


# ---- the benchmark ----------------------------------------------------------------

def build():
    if not (os.path.isfile("dune-project") and os.path.isdir("lib")
            and os.path.isdir("bin")):
        raise BenchError("run from the root of a qturbo checkout")
    # no shared dune cache: the build reads and writes only the checkout
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/qturbo_cli.exe",
                        "./perfbench/probe/probe.exe"],
                       capture_output=True, text=True,
                       env=dict(os.environ, DUNE_CACHE="disabled"))
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr[-4000:])


def median_setup(fn, times):
    vals = []
    for i in range(times):
        t0 = time.perf_counter()
        fn(i)
        vals.append(time.perf_counter() - t0)
    return statistics.median(vals)


class Bench:
    def __init__(self, args):
        self.args = args
        self.w = args.workload
        self.work = os.path.join(WORK, "%s-%d" % (self.w, args.seed))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.mismatches = []
        self.samples = {}

    def mismatch(self, msg):
        self.mismatches.append(msg)

    # -- set-up ------------------------------------------------------------

    def setup_oneshot(self):
        """An empty plan-store directory and one warm-up process."""
        def once(i):
            d = os.path.join(self.work, "setup-store-%d" % i)
            os.makedirs(d)
            code, _, _, _ = run_cli(["compile", "--json", "-m", "ising-chain",
                                     "-n", "3", "--plan-store", d])
            if code != 0:
                raise BenchError("warm-up compile failed")
        s = median_setup(once, SETUP_REPEATS)
        self.store = os.path.join(self.work, "store")
        os.makedirs(self.store)
        return s

    def setup_sweep(self):
        """The generated --jobs files and one warm-up sweep process."""
        def once(i):
            write_jobs_files(self.clients[0], self.work)
            code, _, _, _ = run_cli(["sweep", "--json", "-m", "ising-chain",
                                     "-n", "13", "--sweep-t", "1.0:2.0:4"])
            if code != 0:
                raise BenchError("warm-up sweep failed")
        self.store = None
        return median_setup(once, SETUP_REPEATS)

    def warm_ops(self):
        c = [1.0, 1.0, 1.0]
        return [dict(compile_op(s, c), id=-1 - i, req=request_line(compile_op(s, c)))
                for i, s in enumerate(SERVE_POOL)]

    def setup_serve(self):
        """Daemon start, ready on ping, every pool shape compiled once."""
        self.daemon = None

        def once(i):
            if self.daemon:
                self.daemon.stop()
            self.daemon = Daemon(self.work, str(i))
            for op in self.warm_ops():
                if not json.loads(sock_request(self.daemon.path, op["req"]))["ok"]:
                    raise BenchError("warm-up request failed")
        return median_setup(once, 3)

    # -- run ---------------------------------------------------------------

    def run(self):
        a = self.args
        seconds = a.seconds / 2.0 if a.trace else float(a.seconds)
        self.clients = generate(self.w, a.seed, seconds)
        again = generate(self.w, a.seed, seconds)
        if json.dumps(again) != json.dumps(self.clients):
            self.mismatch("generator is not deterministic for one seed")
        all_ops = [op for ops in self.clients for op in ops]
        write_jsonl(os.path.join(self.work, "ops.jsonl"), all_ops)
        write_jsonl(os.path.join(self.work, "warm.jsonl"), self.warm_ops())
        try:
            if self.w == "serve":
                setup = self.setup_serve()
                results, elapsed = loop_serve(self.clients, self.daemon.path,
                                              self.work)
                peak = self.daemon.vm_hwm_mb()
            else:
                setup = (self.setup_oneshot() if self.w == "oneshot"
                         else self.setup_sweep())
                results, elapsed, peak = loop_cli(self.clients[0], self.work,
                                                  self.store)
            write_jsonl(os.path.join(self.work, "latencies.jsonl"),
                        [{"id": r.op["id"], "exit": r.exit, "ms": r.seconds * 1e3}
                         for r in results])
            records = check_outputs(results, self.work, "outs.jsonl")
            self.results = results
            self.records = records
            if a.trace:
                metrics = self.layer_metrics()
            else:
                metrics = self.end_to_end(results, records, elapsed, peak, setup)
        finally:
            if self.w == "serve" and self.daemon:
                self.daemon.stop()
            # keep the inputs, latencies and spans; drop the bulky outputs
            for name in os.listdir(self.work):
                path = os.path.join(self.work, name)
                if name.startswith(("store", "replay-store", "setup-store")):
                    shutil.rmtree(path, ignore_errors=True)
                elif name.startswith(("outs", "client-")):
                    os.remove(path)
        return metrics

    # -- end to end ------------------------------------------------------------

    def end_to_end(self, results, records, elapsed, peak, setup):
        lat = [r.seconds * 1000.0 for r in results]
        self.count_jobs(results, records)
        compiled = sum(n_jobs(r.op) for r in results
                       if r.op["kind"] != "check" and r.exit == 0)
        quality = {r.op["id"]: job_outcomes(r, records.get(r.op["id"]))
                   for r in results if r.op["quality"]}
        t_sim, rels = 0.0, []
        self.identity_checks(results, records)
        for oid, outs in sorted(quality.items()):
            replayed = self.replayed.get(oid)
            for k, (bad, _, ts, rel) in enumerate(outs):
                if bad:
                    continue
                if ts is None and replayed:
                    ts = replayed[k]["t_sim"]
                if hexval(ts) is None or hexval(rel) is None:
                    self.mismatch("op %d: no T_sim for a successful job" % oid)
                    continue
                t_sim += hexval(ts)
                rels.append(hexval(rel))
        if not rels:
            raise BenchError("no successful job in the quality set")
        self.samples = {"latency": len(lat), "quality_jobs": len(rels),
                        "loop_seconds": round(elapsed, 3),
                        "setup": 3 if self.w == "serve" else SETUP_REPEATS}
        return {
            "latency_p50_ms": statistics.median(lat),
            "latency_p90_ms": quantile(lat, 90),
            "jobs_per_s": compiled / elapsed,
            "ok_share": (self.attempted - self.failed) / self.attempted,
            "t_sim_total_us": t_sim,
            "rel_err_mean_pct": statistics.fmean(rels),
            "peak_rss_mb": peak,
            "setup_s": setup,
        }

    # -- identity ----------------------------------------------------------------

    def replay(self, ids, trace, socket_path=None):
        args = ["replay", "--ops", os.path.join(self.work, "ops.jsonl"),
                "--ids", ",".join(str(i) for i in ids), "--trace", str(trace),
                "--spans", os.path.join(self.work, "spans.json")]
        if self.w == "serve":
            args += ["--warm", os.path.join(self.work, "warm.jsonl")]
        if self.w == "oneshot":
            args += ["--store", os.path.join(self.work, "replay-store")]
        if socket_path:
            args += ["--socket", socket_path]
        rows = run_probe(args)
        summary = rows[-1]
        self.mismatches += summary["mismatches"]
        self.ocaml = summary["ocaml"]
        return {r["id"]: r for r in rows[:-1]}, summary

    def compare_replay(self, replayed, records):
        for oid, rep in replayed.items():
            rec = records.get(oid)
            if rec is None or "digest" not in rec:
                continue
            if rec["digest"] != rep["digest"]:
                self.mismatch("op %d: replay output differs from the program's" % oid)
            for a, b in zip(rec["jobs"], rep["jobs"]):
                if a["rel"] != b["rel"] or (a["t_sim"] is not None
                                            and a["t_sim"] != b["t_sim"]):
                    self.mismatch("op %d: replay T_sim/error differs" % oid)

    def identity_checks(self, results, records):
        by_id = {r.op["id"]: r for r in results}
        # replay: the program's outputs against the in-process calls
        replayed, _ = self.replay(replay_ids(self.w, results), 0)
        self.compare_replay(replayed, records)
        self.replayed = {oid: r["jobs"] for oid, r in replayed.items()}
        ops = [by_id[oid].op for oid in rerun_ids(self.w, results)]
        # determinism: the same operations executed again
        if self.w == "serve":
            again = [Result(op, 0, sock_request(self.daemon.path, op["req"]), 0.0,
                            "daemon") for op in ops]
        else:
            again = [self.cli_result(op, self.store) for op in ops]
        self.compare_outputs(again, records, "outs-again.jsonl",
                             "second execution differs")
        # parity: daemon responses against the CLI for the same jobs
        if self.w == "serve":
            self.compare_outputs([self.cli_result(op, None) for op in ops], records,
                                 "outs-cli.jsonl", "daemon and CLI outputs differ")

    def cli_result(self, op, store):
        code, out, _, _ = run_cli(cli_args(op, self.work, store))
        return Result(op, code, out, 0.0, "cli")

    def compare_outputs(self, results, records, name, what):
        recs = check_outputs(results, self.work, name)
        for r in results:
            oid = r.op["id"]
            if recs.get(oid, {}).get("digest") != records.get(oid, {}).get("digest"):
                self.mismatch("op %d: %s" % (oid, what))

    # -- per layer ---------------------------------------------------------------

    def layer_metrics(self):
        results, records = self.results, self.records
        ids = trace_ids(self.w, results)
        load = None
        stop = threading.Event()
        if self.w == "serve":
            # the second connection keeps the daemon busy while the probe's
            # requests measure round trips behind it
            def other():
                while not stop.is_set():
                    for op in self.clients[1]:
                        if stop.is_set():
                            break
                        sock_request(self.daemon.path, op["req"])
            load = threading.Thread(target=other)
            load.start()
        try:
            rows, summary = self.replay(ids, 1, self.daemon.path if load else None)
        finally:
            stop.set()
            if load:
                load.join()
        self.compare_replay(rows, records)
        by_id = {r.op["id"]: r for r in results}
        over = [by_id[i].seconds * 1000.0 - rows[i]["wall_ms"]
                for i in ids if self.w != "serve"]
        layers = dict(summary["layers"])
        layers["process.overhead_ms"] = statistics.median(over) if over else 0.0
        self.samples = {"replayed_ops": len(ids)}
        self.count_jobs(results, records)
        return layers

    def count_jobs(self, results, records):
        self.attempted = self.failed = 0
        for r in results:
            outs = job_outcomes(r, records.get(r.op["id"]))
            self.attempted += len(outs)
            self.failed += sum(1 for o in outs if o[0])


def replay_ids(w, results):
    if w == "oneshot":
        return [r.op["id"] for r in results[:12]]
    if w == "serve":
        return [r.op["id"] for r in results if r.op["block"] == 0]
    # static sweeps of the quality blocks (`sweep --json` prints no per-job
    # T_sim, so the replay supplies it) and the first n=24 TD sweep
    td = [r.op["id"] for r in results if r.op["block"] == 0
          and r.op["kind"] == "sweep_td" and r.op["n"] == 24]
    return sorted(td + [r.op["id"] for r in results if r.op["quality"]
                        and r.op["kind"] == "sweep_static"])


def rerun_ids(w, results):
    if w == "sweep":
        return [r.op["id"] for r in results if r.op["block"] == 0
                and r.op["kind"] == "sweep_static" and r.op["backend"] == "iontrap"]
    firsts = [r for r in results if r.op["kind"] == "compile"]
    return [r.op["id"] for r in firsts[:3]]


def trace_ids(w, results):
    if w == "oneshot":
        # the first block misses the store for every shape, the second hits
        return [r.op["id"] for r in results if r.op["block"] <= 1]
    if w == "serve":
        return [r.op["id"] for r in results if r.op["client"] == 0][:24]
    return [r.op["id"] for r in results if r.op["block"] == 0]


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=["oneshot", "serve", "sweep"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()
    try:
        with open("BENCHMARK.json") as f:
            spec = json.load(f)["per_layer" if a.trace else "end_to_end"]
        build()
        bench = Bench(a)
        metrics = bench.run()
        units = {m["name"]: m["unit"] for m in spec}
        if set(units) != set(metrics):
            raise BenchError("metrics differ from BENCHMARK.json: %s"
                             % sorted(set(units) ^ set(metrics)))
    except (BenchError, OSError, ValueError, subprocess.SubprocessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 1
    record = {
        "workload": a.workload, "seed": a.seed, "held_out_seed": HELD_OUT_SEED,
        "trace": a.trace, "seconds": a.seconds,
        "cores": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "ocaml": bench.ocaml,
        "git_rev": git_rev(), "source_sha256_16": source_digest(),
        "QTURBO_DOMAINS": ENV["QTURBO_DOMAINS"],
        "batch_domains": int(BATCH_DOMAINS),
        "samples": bench.samples,
        "mismatches": bench.mismatches,
    }
    print(json.dumps({"record": record}))
    out = {
        "correct": not bench.mismatches,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
