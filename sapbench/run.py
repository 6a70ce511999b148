#!/usr/bin/env python3
"""The sapkit benchmark: one workload against a real sapd, one JSON result.

Run from the repository root:

    python3 sapbench/run.py --workload solve_cold --seed 1 --seconds 10 --trace 0

Builds `sapkit_cli` and the `sapbench` load generator from source into
.bench_build/ (Release), then, on a 4-core budget:

  1. set-up, SETUPS times: start `sapkit_cli serve` on a fresh journal
     directory and wait for its "listening" line; `sapbench warm` solves the
     hit pool (all misses, journaled); SIGTERM, restart on that journal
     (recovery runs before "listening"); `sapbench hits` asks for the pool
     again (all hits, the same bytes). setup_s is the median total.
  2. `sapbench load` drives the last server with the workload's fixed,
     seeded request list and gates every answer.
  3. rss_mb is the server's VmHWM; SIGTERM must drain it with exit code 0.

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones (the load plus the traced in-process replay, whose spans go
to .bench_out/). The last stdout line is the JSON result; everything else
goes to stderr. Exits non-zero when a correctness check fails. See
sapbench/README.md.
"""
import argparse
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
OUT = os.path.join(ROOT, ".bench_out")
CLI = os.path.join(BUILD, "sapkit", "examples", "sapkit_cli")
BENCH = os.path.join(BUILD, "sapbench")
SETUPS = 5
# The same server for every workload: 4 solver threads in one shard (one
# work-conserving queue, so the closed loops measure solving, not shard
# imbalance), the cache on, journal persistence in a temp directory.
SERVER_FLAGS = ["--threads", "4", "--shards", "1", "--queue", "64",
                "--cache-entries", "4096"]


class Failure(Exception):
    """A correctness or harness failure: no result is valid."""


def log(*parts):
    print("run.py:", *parts, file=sys.stderr, flush=True)


def on_sigterm(signum, frame):
    raise Failure("terminated by signal %d" % signum)


def build():
    for required in ("CMakeLists.txt", os.path.join("src", "CMakeLists.txt"),
                     os.path.join("examples", "sapkit_cli.cpp")):
        if not os.path.isfile(os.path.join(ROOT, required)):
            raise Failure("no sapkit sources here (missing %s); run from the "
                          "repository root" % required)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = "Ninja" if shutil.which("ninja") else "Unix Makefiles"
        subprocess.run(["cmake", "-S", os.path.join(ROOT, "sapbench"), "-B",
                        BUILD, "-G", generator, "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, timeout=300)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(os.cpu_count() or 4)],
                   check=True, stdout=sys.stderr, timeout=840)


def last_json_line(text):
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        raise Failure("no output")
    return json.loads(lines[-1])


def run_bench(args, timeout):
    proc = subprocess.run([BENCH] + args, stdout=subprocess.PIPE,
                          stderr=sys.stderr, text=True, timeout=timeout)
    result = last_json_line(proc.stdout)
    if proc.returncode != 0 or not result.get("correct"):
        raise Failure("sapbench %s: %s" % (args[0], result.get("reason")))
    return result


class Server:
    """One `sapkit_cli serve` process persisting its cache to `journal`."""

    def __init__(self, journal):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [CLI, "serve", "--port", "0"] + SERVER_FLAGS +
            ["--cache-persist-path", journal],
            stdout=subprocess.PIPE, stderr=sys.stderr, text=True)
        ready, _, _ = select.select([self.proc.stdout], [], [], 60)
        line = self.proc.stdout.readline() if ready else ""
        self.ready_s = time.perf_counter() - start
        if "listening on" not in line:
            self.stop()
            raise Failure("sapd did not start: %r" % line)
        self.port = int(line.strip().rsplit(":", 1)[1])

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise Failure("no VmHWM for sapd")

    def stop(self):
        """SIGTERM, then wait for the drain; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        return self.proc.returncode


def set_up(journal):
    """One set-up; returns (server, seconds, recover_s, hit_ms)."""
    server = Server(journal)
    try:
        warm = run_bench(["warm", "--port", str(server.port)], 120)
        if server.stop() != 0:
            raise Failure("sapd did not drain cleanly after the warm-up")
        fresh_s = server.ready_s
        server = Server(journal)
        hits = run_bench(["hits", "--port", str(server.port)], 120)
    except BaseException:
        server.stop()
        raise
    if hits["digest"] != warm["digest"]:
        server.stop()
        raise Failure("answers replayed from the journal differ from the "
                      "fresh ones")
    seconds = fresh_s + warm["seconds"] + server.ready_s + hits["seconds"]
    return server, seconds, server.ready_s, hits["hit_ms"]


def measure(opts):
    os.makedirs(OUT, exist_ok=True)
    setup_s, recover_s, hit_ms = [], [], []
    server = None
    journal_dir = None
    try:
        for _ in range(SETUPS):
            if server is not None and server.stop() != 0:
                raise Failure("sapd did not drain cleanly after set-up")
            server = None
            if journal_dir is not None:
                shutil.rmtree(journal_dir, ignore_errors=True)
            journal_dir = tempfile.mkdtemp(prefix="sapd-", dir=OUT)
            server, seconds, recover, hit = set_up(
                os.path.join(journal_dir, "journal"))
            setup_s.append(seconds)
            recover_s.append(recover)
            hit_ms.append(hit)
        load_args = ["load", "--workload", opts.workload,
                     "--seed", str(opts.seed), "--seconds", str(opts.seconds),
                     "--corpus-seed", str(opts.corpus_seed),
                     "--port", str(server.port)]
        if opts.trace:
            load_args += ["--spans", os.path.join(
                OUT, "spans-%s-seed%d.json" % (opts.workload, opts.seed))]
        load = run_bench(load_args, 160)
        rss_mb = server.peak_rss_mb()
    finally:
        code = server.stop() if server is not None else 0
        if journal_dir is not None:
            shutil.rmtree(journal_dir, ignore_errors=True)
    if code != 0:
        raise Failure("sapd exited with %s after SIGTERM" % code)
    load["e2e"]["setup_s"] = statistics.median(setup_s)
    load["e2e"]["rss_mb"] = rss_mb
    load["layers"]["service.hit_ms"] = statistics.median(hit_ms)
    load["layers"]["service.journal.recover_ms"] = (
        1e3 * statistics.median(recover_s))
    return load


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["solve_cold", "certify_cold"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--corpus-seed", type=int, default=5000,
                        help="E6 corpus base seed of the cold workloads "
                             "(hold-out: 7000)")
    opts = parser.parse_args()
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec_file:
            spec = json.load(spec_file)
        build()
        load = measure(opts)
    except (Failure, subprocess.SubprocessError, OSError, ValueError) as error:
        log("FAILED:", error)
        return 1

    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    source = load["layers"] if opts.trace else load["e2e"]
    metrics = {}
    for metric in wanted:
        if metric["name"] not in source:
            log("FAILED: metric %s was not measured" % metric["name"])
            return 1
        metrics[metric["name"]] = {"value": source[metric["name"]],
                                   "unit": metric["unit"]}
        log("%-34s %16.6f %s" % (metric["name"], source[metric["name"]],
                                 metric["unit"]))
    log("tail_ms is p%g of %d requests" % (load["tail_pct"],
                                           load["attempted"]))
    print(json.dumps({"correct": True, "attempted": load["attempted"],
                      "failed": load["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
