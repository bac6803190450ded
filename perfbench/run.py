#!/usr/bin/env python3
"""Batch-mining benchmark for `tpm mine` (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout. The first run builds tpm twice into
.bench_build/ (observability on, and -DTPM_OBS_DISABLED=ON), and with each
build this directory's tpm_trace and spawn_job; later runs reuse them.

--trace 0 times `tpm mine` jobs run as child processes, one after another
(a closed loop with one client), and prints the end-to-end metrics.
--trace 1 runs the same jobs in-process with a span around each layer call
and prints the per-layer metrics. Either way every job's output is checked
against a reference made by a second algorithm, and the last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BUILD = ROOT / ".bench_build"
DEFAULT_SEED = 101
BASE_SEED = 101  # QUEST seed of the base database; see README.md
SETUP_REPS = 9   # set-up is repeated this often; setup_s is the median
MIN_JOBS = 3     # every timed series has at least this many jobs

# Every workload mines a QUEST database with C8 (8 intervals per sequence on
# average) and N200 (200 symbols). README.md says why each one is here.
WORKLOADS = {
    "endpoint-breadth": {
        "sequences": 32000, "ext": "csv", "type": "endpoint",
        "minsup": 0.005, "threads": 3, "steal": False, "top": 0,
        "reference": "tprefixspan",
    },
    "coincidence-depth": {
        "sequences": 4000, "ext": "tpmb", "type": "coincidence",
        "minsup": 0.01, "threads": 1, "steal": False, "top": 0,
        "reference": "ctminer",
    },
    "coincidence-top10": {
        "sequences": 4000, "ext": "tpmb", "type": "coincidence",
        "minsup": 0.01, "threads": 3, "steal": True, "top": 10,
        "reference": "ctminer",
    },
}

# Counts that must repeat exactly between runs of the same code on the same
# input; a difference is reported on stderr and in trace.unstable_counts.
EXACT_COUNTS = [
    "miner.nodes", "miner.candidates", "miner.states", "miner.patterns",
    "miner.prune.pair_hits", "miner.prune.postfix_hits",
    "miner.prune.validity_hits", "obs.flight_events", "scheduler.units",
    "analysis.patterns_kept",
]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def fail(msg):
    log(msg)
    sys.exit(1)


def sha256_file(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def median(values):
    return statistics.median(values) if values else 0.0


# --------------------------------------------------------------------------
# Build


def run_logged(cmd, logfile):
    with open(logfile, "ab") as out:
        out.write(("$ " + " ".join(map(str, cmd)) + "\n").encode())
        out.flush()
        code = subprocess.call([str(c) for c in cmd], stdout=out,
                               stderr=subprocess.STDOUT)
    if code != 0:
        tail = Path(logfile).read_text(errors="replace").splitlines()[-30:]
        fail("build step failed: " + " ".join(map(str, cmd)) + "\n" +
             "\n".join(tail))


def build():
    """Builds (or refreshes) both variants; returns their binaries."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no tpm source tree at {ROOT}; run from a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    BUILD.mkdir(exist_ok=True)
    logfile = BUILD / "build.log"
    jobs = str(min(4, os.cpu_count() or 1))
    binaries = {}
    for variant, obs_off in (("obs-on", "OFF"), ("obs-off", "ON")):
        tpm_dir = BUILD / f"tpm-{variant}"
        trace_dir = BUILD / f"trace-{variant}"
        if not (tpm_dir / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", ROOT, "-B", tpm_dir,
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DTPM_OBS_DISABLED={obs_off}",
                        "-DTPM_WERROR=OFF", "-DTPM_BUILD_TESTS=OFF",
                        "-DTPM_BUILD_BENCHMARKS=OFF",
                        "-DTPM_BUILD_EXAMPLES=OFF",
                        "-DTPM_BUILD_FUZZERS=OFF"], logfile)
        run_logged(["cmake", "--build", tpm_dir, "--target", "tpm",
                    "-j", jobs], logfile)
        if not (trace_dir / "CMakeCache.txt").exists():
            run_logged(["cmake", "-S", BENCH_DIR, "-B", trace_dir,
                        "-DCMAKE_BUILD_TYPE=Release",
                        f"-DTPM_OBS_DISABLED={obs_off}",
                        f"-DTPM_SOURCE_DIR={ROOT}",
                        f"-DTPM_BUILD_DIR={tpm_dir}"], logfile)
        run_logged(["cmake", "--build", trace_dir, "-j", jobs], logfile)
        binaries[variant] = {"tpm": tpm_dir / "tools" / "tpm",
                             "trace": trace_dir / "tpm_trace",
                             "spawn_job": trace_dir / "spawn_job"}
    return binaries


# --------------------------------------------------------------------------
# Child processes


def run_child(argv, stdout_path, stderr_path):
    """Runs argv to completion with its output in files; returns its exit
    code."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        return subprocess.call([str(a) for a in argv], stdout=out, stderr=err)


def check_call(argv, work, what):
    code = run_child(argv, work / "child.out", work / "child.err")
    if code != 0:
        err = (work / "child.err").read_text(errors="replace")
        fail(f"{what} exited {code}: {err.strip()}")


# --------------------------------------------------------------------------
# Set-up and references


def relabel(src, dst, seed):
    """Writes the database `src` (CSV) to `dst` with its symbols renamed by
    a seed-drawn permutation. Symbols keep their codes, which are interned in
    first-appearance order, so the search is the same for every seed; the
    input and output bytes are not. README.md says why nothing else varies."""
    header, *rows = Path(src).read_text().splitlines()
    symbols = sorted({row.split(",", 2)[1] for row in rows})
    # Names of one width keep the input and output sizes the same too.
    names = [f"S{i:03d}" for i in range(len(symbols))]
    random.Random(seed).shuffle(names)
    rename = dict(zip(symbols, names))
    out = [header]
    for row in rows:
        seq, event, times = row.split(",", 2)
        out.append(f"{seq},{rename[event]},{times}")
    Path(dst).write_text("\n".join(out) + "\n")


def setup(tpm, wl, seed, work):
    """Makes the workload input SETUP_REPS times; returns
    (input path, interval count, median seconds)."""
    base, csv = work / "base.csv", work / "input.csv"
    path = work / f"input.{wl['ext']}"
    times, digests = [], set()
    for _ in range(SETUP_REPS):
        start = time.perf_counter()
        check_call([tpm, "generate", "--kind=quest",
                    f"--sequences={wl['sequences']}", "--symbols=200",
                    "--avg-intervals=8", f"--seed={BASE_SEED}",
                    f"--output={base}"], work, "tpm generate")
        relabel(base, csv, seed)
        if path != csv:
            check_call([tpm, "convert", csv, path], work, "tpm convert")
        times.append(time.perf_counter() - start)
        digests.add(sha256_file(path))
    if len(digests) != 1:
        fail("set-up wrote different bytes for the same seed")
    intervals = len(csv.read_text().splitlines()) - 1  # minus the header
    return path, intervals, statistics.median(times)


def top_k_lines(text, k):
    """TopKBySupport over a canonically sorted output: support descending,
    ties in canonical order (the order the full output already has)."""
    lines = text.splitlines(keepends=True)
    ranked = sorted(lines, key=lambda line: -int(line.split("\t", 1)[0]))
    return "".join(ranked[:k])


def reference(tpm, name, wl, input_path, work):
    """The expected output digest, made by the workload's second algorithm.

    The default-seed digests are recorded in references.json; other inputs
    are mined once per checkout and cached under .bench_build/refs/."""
    input_digest = sha256_file(input_path)
    recorded = json.loads((BENCH_DIR / "references.json").read_text())
    rec = recorded.get(name)
    if rec is not None and rec["input_sha256"] == input_digest:
        return rec
    refs = BUILD / "refs"
    refs.mkdir(exist_ok=True)
    cached = refs / f"{name}-{input_digest[:16]}.json"
    if cached.exists():
        return json.loads(cached.read_text())

    # CTMiner runs on 3 threads with --steal; serially it takes about 25 s
    # here. It shares the scheduler with P-TPMiner but not the projection,
    # so the check stays independent of the search under test.
    full = refs / f"{wl['reference']}-{wl['minsup']}-{input_digest[:16]}.txt"
    if not full.exists():
        log(f"computing the {wl['reference']} reference for {name}")
        argv = [tpm, "mine", input_path, f"--type={wl['type']}",
                f"--minsup={wl['minsup']}", f"--algo={wl['reference']}",
                f"--output={full}.tmp"]
        if wl["reference"] == "ctminer":
            argv += ["--threads=3", "--steal"]
        check_call(argv, work, "reference mine")
        os.replace(f"{full}.tmp", full)
    text = full.read_text()
    if wl["top"] > 0:
        text = top_k_lines(text, wl["top"])
    rec = {"input_sha256": input_digest,
           "lines": text.count("\n"),
           "output_sha256": hashlib.sha256(text.encode()).hexdigest()}
    cached.write_text(json.dumps(rec, indent=1) + "\n")
    return rec


# --------------------------------------------------------------------------
# End-to-end run (--trace 0)


def mine_argv(tpm, wl, input_path, output):
    argv = [tpm, "mine", input_path, f"--type={wl['type']}",
            f"--minsup={wl['minsup']}", f"--threads={wl['threads']}",
            f"--output={output}"]
    if wl["steal"]:
        argv.append("--steal")
    if wl["top"] > 0:
        argv.append(f"--top={wl['top']}")
    return argv


def cli_job(binaries, wl, input_path, ref, work):
    """One `tpm mine` child process; returns (ok, wall s, cpu s, rss MB)."""
    output = work / "job.out"
    output.unlink(missing_ok=True)
    launched = subprocess.run(
        [str(a) for a in [binaries["obs-on"]["spawn_job"], work / "job.stdout",
                          work / "job.stderr"] +
         mine_argv(binaries["obs-on"]["tpm"], wl, input_path, output)],
        stdout=subprocess.PIPE, check=True)
    job = json.loads(launched.stdout)
    ok = job["exit"] == 0 and output.exists() and \
        sha256_file(output) == ref["output_sha256"]
    if not ok:
        log(f"job failed: exit {job['exit']}, see {work / 'job.stderr'}")
    return (ok, job["wall_s"], job["user_s"] + job["sys_s"],
            job["maxrss_kb"] / 1024.0)


def end_to_end(binaries, wl, input_path, intervals, ref, work, seconds,
               setup_s):
    # Closed loop, one client: the next job starts when the last one ended.
    # Set-up has just run tpm and written the input, so both are cached.
    jobs = []
    start = time.perf_counter()
    while len(jobs) < MIN_JOBS or time.perf_counter() - start < seconds:
        jobs.append(cli_job(binaries, wl, input_path, ref, work))
    elapsed = time.perf_counter() - start
    ok = [j for j in jobs if j[0]]
    failed = len(jobs) - len(ok)
    metrics = {
        "job_s": (median([j[1] for j in jobs]), "s"),
        "intervals_per_s": (intervals * len(ok) / elapsed, "1/s"),
        "cpu_s": (median([j[2] for j in jobs]), "s"),
        "peak_rss_mb": (median([j[3] for j in jobs]), "MB"),
        "job_ok_ratio": (len(ok) / len(jobs), "ratio"),
        "setup_s": (setup_s, "s"),
    }
    log(f"{len(jobs)} jobs in {elapsed:.2f} s, {failed} failed")
    return len(jobs), failed, metrics


# --------------------------------------------------------------------------
# Traced run (--trace 1)


def trace_job(binaries, variant, wl, input_path, ref, work):
    """One job in tpm_trace, with the probes when observability is on.
    Returns (ok, job record, spans)."""
    output, spans_out = work / "trace.out", work / "spans.json"
    output.unlink(missing_ok=True)
    argv = [binaries[variant]["trace"], f"--input={input_path}",
            f"--type={wl['type']}", f"--minsup={wl['minsup']}",
            f"--threads={wl['threads']}", f"--output={output}",
            f"--spans-out={spans_out}"]
    if wl["steal"]:
        argv.append("--steal")
    if wl["top"] > 0:
        argv.append(f"--top={wl['top']}")
    if variant == "obs-on":
        argv.append("--probes")
    code = run_child(argv, work / "trace.stdout", work / "trace.stderr")
    if code != 0:
        err = (work / "trace.stderr").read_text(errors="replace").strip()
        log(f"tpm_trace ({variant}) exited {code}: {err}")
        return False, None, []
    if sha256_file(output) != ref["output_sha256"]:
        log(f"tpm_trace ({variant}) wrote the wrong output")
        return False, None, []
    return (True, json.loads((work / "trace.stdout").read_text()),
            json.loads(spans_out.read_text()))


def self_times(spans):
    """{span name: self seconds} over one job's spans, plus "job.total".

    A span's self time is its duration minus what its child spans cover."""
    child_ns = {}
    for s in spans:
        if s["parent"] >= 0:
            child_ns[s["parent"]] = child_ns.get(s["parent"], 0) + \
                s["end_ns"] - s["start_ns"]
    times = {}
    for s in spans:
        dur = s["end_ns"] - s["start_ns"]
        times[s["name"]] = (dur - child_ns.get(s["id"], 0)) / 1e9
        if s["name"] == "job":
            times["job.total"] = dur / 1e9
    return times


def job_counts(job, wl):
    return {
        "miner.nodes": job["nodes"],
        "miner.candidates": job["candidates"],
        "miner.states": job["states"],
        "miner.patterns": job["patterns"],
        "miner.prune.pair_hits": job["pair_hits"],
        "miner.prune.postfix_hits": job["postfix_hits"],
        "miner.prune.validity_hits": job["validity_hits"],
        "obs.flight_events": job["flight_events"],
        "scheduler.units": job["worker_units"],
        "analysis.patterns_kept": job["lines"] if wl["top"] > 0 else 0,
    }


def unstable_counts(name, input_path, binaries, jobs, wl):
    """Compares the exact counts across this run's jobs and with the first
    run of the same binary on the same input in this checkout."""
    counts = [job_counts(j, wl) for j in jobs]
    differing = {k for c in counts[1:] for k in EXACT_COUNTS
                 if c[k] != counts[0][k]}
    key = (sha256_file(input_path)[:16] + "-" +
           sha256_file(binaries["obs-on"]["trace"])[:16])
    store = BUILD / "counts" / f"{name}-{key}.json"
    store.parent.mkdir(exist_ok=True)
    if store.exists():
        first = json.loads(store.read_text())
        differing |= {k for k in EXACT_COUNTS if first[k] != counts[0][k]}
    else:
        store.write_text(json.dumps(counts[0], indent=1) + "\n")
    for k in sorted(differing):
        log(f"count {k} differs between runs of the same code: "
            f"{sorted({c[k] for c in counts})}")
    return counts[0], len(differing)


def traced(binaries, name, wl, input_path, ref, work, seconds, seed):
    """Rounds of: one untraced `tpm mine` job, one traced job with the probes
    (observability on), one traced job with observability compiled out.
    Each ratio below compares figures taken seconds apart, so a drift in
    machine speed moves both sides of it alike."""
    cli, on, off, trace = [], [], [], []
    failed = 0
    start = time.perf_counter()
    while len(cli) < MIN_JOBS or time.perf_counter() - start < seconds:
        cli.append(cli_job(binaries, wl, input_path, ref, work))
        failed += not cli[-1][0]
        for variant, jobs in (("obs-on", on), ("obs-off", off)):
            ok, job, spans = trace_job(binaries, variant, wl, input_path, ref,
                                       work)
            failed += not ok
            if ok:
                jobs.append((job, self_times(spans)))
                trace.append({"variant": variant, "round": len(cli) - 1,
                              "spans": spans})
    attempted = 3 * len(cli)
    if not on or not off:
        return attempted, failed, {}

    # Spans were held in memory until now; one file per run.
    trace_file = BUILD / "runs" / f"{name}-seed{seed}-{time.time_ns()}.json"
    trace_file.parent.mkdir(exist_ok=True)
    trace_file.write_text(json.dumps(
        {"workload": name, "seed": seed, "jobs": trace}) + "\n")

    def layer(span, jobs=on):
        return median([t.get(span, 0.0) for _, t in jobs])

    records = [job for job, _ in on]
    mine_s = layer("miner.mine")
    serial_s = layer("scheduler.serial_mine") if wl["threads"] > 1 else mine_s
    counts, unstable = unstable_counts(name, input_path, binaries, records, wl)
    worker_nodes = [job["worker_nodes"][:wl["threads"]] for job in records]
    mb = 1024.0 * 1024.0
    metrics = {
        "io.load_s": (layer("io.load"), "s"),
        "io.write_s": (layer("io.write"), "s"),
        "core.render_s": (layer("core.render"), "s"),
        "core.repr_build_s": (layer("core.repr_build"), "s"),
        "miner.mine_s": (mine_s, "s"),
        "miner.build_s": (median([j["build_s"] for j in records]), "s"),
        "miner.search_s": (median([j["search_s"] for j in records]), "s"),
        "miner.sort_s": (layer("miner.sort"), "s"),
        "miner.states_per_s": (median([j["states"] / j["search_s"]
                                       for j in records]), "1/s"),
        "miner.yield": (counts["miner.nodes"] /
                        max(1, counts["miner.candidates"]), "ratio"),
        "miner.peak_tracked_mb": (median([j["peak_tracked_bytes"] / mb
                                          for j in records]), "MB"),
        "miner.arena_peak_mb": (median([j["arena_peak_bytes"] / mb
                                        for j in records]), "MB"),
        "scheduler.imbalance": (median([max(n) * len(n) / sum(n)
                                        for n in worker_nodes if sum(n)]),
                                "ratio"),
        "scheduler.speedup": (serial_s / mine_s, "ratio"),
        "obs.overhead": (mine_s / layer("miner.mine", off), "ratio"),
        "analysis.topk_s": (layer("analysis.topk"), "s"),
        "trace.overhead": (layer("job.total") / median([j[1] for j in cli]),
                           "ratio"),
        "trace.coverage": (min(1.0 - t["job"] / t["job.total"]
                               for _, t in on), "ratio"),
        "trace.unstable_counts": (unstable, "count"),
    }
    for k in EXACT_COUNTS:
        metrics[k] = (counts[k], "count")
    log(f"{len(cli)} rounds of untraced + traced (obs on, obs off) jobs; "
        f"spans in {trace_file.relative_to(ROOT)}")
    return attempted, failed, metrics


# --------------------------------------------------------------------------


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    wl = WORKLOADS[args.workload]

    binaries = build()
    work = BUILD / "work" / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    tpm = binaries["obs-on"]["tpm"]
    input_path, intervals, setup_s = setup(tpm, wl, args.seed, work)
    ref = reference(tpm, args.workload, wl, input_path, work)

    if args.trace:
        attempted, failed, metrics = traced(
            binaries, args.workload, wl, input_path, ref, work, args.seconds,
            args.seed)
    else:
        attempted, failed, metrics = end_to_end(
            binaries, wl, input_path, intervals, ref, work, args.seconds,
            setup_s)
    print(json.dumps({
        "correct": failed == 0 and bool(metrics),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
