#!/usr/bin/env python3
"""Campaign benchmark for the R3-DLA reproduction: the one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--held-out]

Run from the repository root. Builds the ``runner``, ``r3dla-dse`` and
``mix`` entry points from the repository's workspace, and ``perfbench/``
(a package of its own holding the traced composition and the host-speed
probe), in release mode into ``$CARGO_TARGET_DIR`` (default
``.bench_build``). Then runs the named campaign again and again, one
process per run on one worker thread, for ``--seconds`` seconds. The
probe runs beside every timed process, on the other CPU, and the host
times are scaled by its speed (see ``REF_PROBE_RATE``).

``--trace 0`` times the entry point itself and prints the end-to-end
metrics. ``--trace 1`` alternates entry-point runs with traced runs of
the composition in ``perfbench/src/campaign.rs`` and prints the
per-layer metrics from the traced ones. Every report, traced ones
included, must be byte-identical to the first entry-point run's. A
human-readable table goes to stderr; the last line of stdout is the
JSON result. Any failed check sets ``"correct": false`` and the exit
code to 1.

``--seed`` is the DSE search seed (``dse_resume``); the other campaigns
run fixed kernels. ``--held-out`` runs the campaign on ``train`` inputs,
which are generated from a different data seed than ``ref``. See
``perfbench/README.md`` for the workloads and metrics.
"""

import argparse
import collections
import json
import os
import re
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.dont_write_bytecode = True
sys.path.insert(0, str(HERE))

import stats  # noqa: E402

# BENCHMARK.json lists ``grid_ref`` and ``dse_resume``; the benchmark's
# time limit leaves no room for steady runs of the other two, which still
# run by hand.
WORKLOADS = ("grid_ref", "sampled_ref", "dse_resume", "mix_ref")
SAMPLED_SPEC = "8:10000:functional"
# How many leading suite kernels the resumed search finds cached.
DSE_SEEDED_KERNELS = 11
# Paper Fig 9a geomean speedups over the baseline core.
PAPER_SPEEDUP = {"dla": 1.12, "r3": 1.40}
CONFIGS = ("bl", "dla", "r3")
# Worker threads of every timed and traced campaign run. One, so that the
# host-speed probe has the other CPU to itself.
RUN_THREADS = 1
# Host times are reported in seconds of a reference host on which the
# probe completes this many chunks a second: a run's wall seconds times
# (the probe's chunks a second over that run / REF_PROBE_RATE). The host
# is shared and its speed drifts by up to two times over minutes; the
# probe, running over the same interval, drifts with it.
REF_PROBE_RATE = 100.0
# Seconds after the build by which the last run of an invocation must end.
RUN_LIMIT_S = 170.0
# Minimum share of the traced campaign time the layers must account for.
MIN_ATTRIBUTED = 0.90
# Spans that time a call into a layer. Everything else (the campaign
# root, the benchmark's own `bench.cell` bodies, pool phases) is the
# harness, and its wall time is unattributed.
LAYER_PREFIXES = ("workloads.", "core.", "sample.", "detail.", "dse.", "mix.")
LAYER_NAMES = ("bench.report",)


def log(msg=""):
    print(msg, file=sys.stderr, flush=True)


def child_env(**extra):
    """The environment without the simulator's fault, trace and telemetry
    switches, so every run measures the default campaign."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("R3DLA_")}
    env.update(extra)
    return env


def build():
    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates").is_dir():
        raise SystemExit(
            f"perfbench: no simulator sources next to {HERE.name}/ "
            "(run from a checkout of the repository)"
        )
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    env = child_env(CARGO_TARGET_DIR=str(target))
    for cmd in (
        ["cargo", "build", "--release", "--offline", "-p", "r3dla-bench", "-p",
         "r3dla-dse", "--bin", "runner", "--bin", "mix", "--bin", "r3dla-dse"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "Cargo.toml")],
    ):
        if subprocess.run(cmd, stdout=sys.stderr, env=env, cwd=ROOT).returncode != 0:
            raise SystemExit("perfbench: build failed")
    return target / "release"


def launch(cmd, timeout, env, stdout, stderr, probe=None):
    """Runs ``cmd`` to its end, writing its output to the two files.
    With ``probe`` (the probe binary), runs the probe beside it, from just
    before its launch until its exit. Returns (exit code, wall seconds,
    peak resident MB, probe chunks a second or None) of that process."""
    prober = None
    if probe is not None:
        prober = subprocess.Popen([str(probe)], stdin=subprocess.PIPE,
                                  stdout=subprocess.PIPE, text=True, env=env)
    try:
        t0 = time.monotonic()
        with open(stdout, "w") as out, open(stderr, "w") as err:
            proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err,
                                    env=env, cwd=ROOT)
            killer = threading.Timer(max(timeout, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
        wall = time.monotonic() - t0
        rate = None
        if prober is not None:
            chunks, seconds, _ = prober.communicate("", timeout=30)[0].split()
            rate = int(chunks) / float(seconds)
    finally:
        if prober is not None and prober.poll() is None:
            prober.kill()
            prober.wait()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024, rate


class Bench:
    def __init__(self, args, bins, work):
        self.args = args
        self.bins = bins
        self.work = work
        # The dse_resume set-up is off the clock: it may use both CPUs.
        self.setup_threads = min(2, len(os.sched_getaffinity(0)))
        self.started = time.monotonic()
        self.errors = []
        self.reference = None
        self.seed_cache = None
        self.resume_counts = None

    def fail(self, msg):
        self.errors.append(msg)
        log(f"perfbench: CHECK FAIL {msg}")

    def remaining(self):
        return RUN_LIMIT_S - (time.monotonic() - self.started)

    def scale(self):
        return ["--scale", "train"] if self.args.held_out else []

    def run_entry(self, d, cmd, env=None, timed=True):
        """Runs one process in ``d``, with the probe beside it when
        ``timed``; returns (wall, rss, stderr, host speed) or None when it
        failed. The host speed is the probe's rate over REF_PROBE_RATE."""
        probe = self.bins / "r3dla-hostprobe" if timed else None
        code, wall, rss, rate = launch(cmd, self.remaining(), env or child_env(),
                                       d / "stdout.txt", d / "stderr.txt", probe)
        err = (d / "stderr.txt").read_text()
        if code != 0:
            self.fail(f"{Path(str(cmd[0])).name} exited {code}: "
                      + " | ".join(err.strip().splitlines()[-3:]))
            return None
        return wall, rss, err, (rate / REF_PROBE_RATE if timed else None)

    def setup(self):
        """``dse_resume`` only: a fresh full search (the reference every
        resumed report must equal) and a cache holding the first kernels'
        cells, both off the clock."""
        if self.args.workload != "dse_resume":
            return
        d = self.work / "dse_setup"
        d.mkdir()
        dse = self.bins / "r3dla-dse"
        listing = subprocess.run([str(dse), "--list"], stdout=subprocess.PIPE,
                                 text=True, env=child_env(), check=True).stdout
        kernels = re.findall(r"^  (\S+) \(", listing.split("spaces:")[0], re.M)
        common = ["--threads", self.setup_threads, "--seed", self.args.seed,
                  *self.scale()]
        fresh = self.run_entry(d, [dse, *common, "--no-cache", "--out", d / "fresh.json"],
                               timed=False)
        seeded = self.run_entry(d, [dse, *common, "--cache", d / "seed_cache",
                                    "--workloads", ",".join(kernels[:DSE_SEEDED_KERNELS]),
                                    "--out", d / "seeded.json"], timed=False)
        if fresh is None or seeded is None:
            raise SystemExit("perfbench: dse_resume set-up failed")
        self.reference = (d / "fresh.json").read_bytes()
        self.seed_cache = d / "seed_cache"

    def check_report(self, report, what):
        if self.reference is None:
            self.reference = report
        elif report != self.reference:
            first = "the fresh search's" if self.seed_cache else "the first run's"
            self.fail(f"{what}: report differs from {first}")

    def check_counts(self, counts, what):
        if self.resume_counts is None:
            self.resume_counts = counts
            if not all(counts):
                self.fail(f"resumed search read {counts[0]} hits and "
                          f"{counts[1]} misses; both must be non-zero")
        elif counts != self.resume_counts:
            self.fail(f"{what}: cache hits/misses {counts} != first run's "
                      f"{self.resume_counts}")

    def untraced(self, n):
        """One run of the campaign's entry point."""
        d = self.work / f"run{n}"
        d.mkdir()
        out = d / "report.json"
        w = self.args.workload
        common = ["--threads", RUN_THREADS, *self.scale(), "--out", out]
        env = None
        if w in ("grid_ref", "sampled_ref"):
            cmd = [self.bins / "runner", *common, "--timing-out", d / "timing.json"]
            if w == "sampled_ref":
                cmd += ["--sample", SAMPLED_SPEC]
        elif w == "dse_resume":
            shutil.copytree(self.seed_cache, d / "cache")
            cmd = [self.bins / "r3dla-dse", *common, "--seed", self.args.seed,
                   "--cache", d / "cache"]
        else:
            # mix prints no timings; its telemetry sidecar (counters and
            # phase totals, no trace) carries them. Its session starts
            # once every kernel is prepared.
            cmd = [self.bins / "mix", *common]
            env = child_env(R3DLA_TELEMETRY=str(d / "telemetry.json"))
        ran = self.run_entry(d, cmd, env)
        if ran is None:
            return None
        wall, rss, err, speed = ran
        report = out.read_bytes()
        self.check_report(report, f"run {n}")
        rec = {"traced": False, "wall_s": wall, "speed": speed, "peak_rss_mb": rss,
               **summarize(json.loads(report))}
        if w in ("grid_ref", "sampled_ref"):
            timing = json.loads((d / "timing.json").read_text())
            setup = timing["prep_ms"] / 1e3
            mips = (timing["sim_mips"] if w == "grid_ref"
                    else rec["window_insts"] / timing["measure_ms"] / 1e3)
        elif w == "dse_resume":
            m = re.search(r"prepared (\d+) ms, planned \d+ ms, measured (\d+) ms "
                          r"\((\d+) cache hits, (\d+) misses\)", err)
            setup = int(m[1]) / 1e3
            mips = rec["window_insts"] / int(m[2]) / 1e3
            rec["cache_hits"], rec["cache_misses"] = int(m[3]), int(m[4])
            self.check_counts((rec["cache_hits"], rec["cache_misses"]), f"run {n}")
        else:
            tele = json.loads((d / "telemetry.json").read_text())["nondeterministic"]
            setup = wall - tele["host_wall_ms"] / 1e3
            mips = tele["aggregate_mips"]
        # Host figures in reference-host terms (REF_PROBE_RATE).
        rec["campaign_s"] = wall * speed
        rec["setup_s"] = setup * speed
        rec["sim_mips"] = mips / speed
        shutil.rmtree(d)
        return rec

    def traced(self, n):
        """One run of the traced composition."""
        d = self.work / f"run{n}"
        d.mkdir()
        cmd = [self.bins / "r3dla-perfbench", "--campaign", self.args.workload,
               "--dir", d, "--seed", self.args.seed, "--threads", RUN_THREADS]
        if self.args.held_out:
            cmd.append("--held-out")
        if self.seed_cache is not None:
            cmd += ["--cache-from", self.seed_cache]
        ran = self.run_entry(d, cmd)
        if ran is None:
            return None
        wall, speed = ran[0], ran[3]
        rec = json.loads((d / "stdout.txt").read_text().strip().splitlines()[-1])
        rec["traced"] = True
        self.check_report((d / "report.json").read_bytes(), f"traced run {n}")
        if self.seed_cache is not None:
            self.check_counts((rec["cache_hits"], rec["cache_misses"]), f"traced run {n}")
        if rec["failed"]:
            self.fail(f"traced run {n}: {rec['failed']} of {rec['cells']} cells "
                      "failed or committed no instructions")
        if not rec["breakdown_matches"]:
            self.fail(f"traced run {n}: step-by-step prepare does not "
                      "reproduce the campaign's profiles")
        rec["spans"] = [json.loads(line) for line in
                        (d / "spans.jsonl").read_text().splitlines()]
        breakdown = next(s for s in rec["spans"] if s["name"] == "breakdown")
        # Process wall time without the step-by-step prepare that follows
        # the campaign, in reference-host terms, to compare with the entry
        # point's.
        rec["campaign_s"] = (wall - (breakdown["end_ns"] - breakdown["start_ns"]) / 1e9) * speed
        shutil.rmtree(d)
        return rec

    def runs(self):
        """Campaign runs for --seconds, counted from the end of the build
        (so the ``dse_resume`` set-up is inside them): another run starts
        only if it is expected to end in time. The first run (the first
        entry-point and traced pair with --trace 1) always happens."""
        plan = [self.untraced, self.traced] if self.args.trace else [self.untraced]
        recs, longest = [], 0.0
        while len(recs) < len(plan) or (
                time.monotonic() - self.started + longest <= self.args.seconds
                and self.remaining() > 1.5 * longest):
            t = time.monotonic()
            rec = plan[len(recs) % len(plan)](len(recs))
            if rec is None:
                break
            recs.append(rec)
            longest = max(longest, time.monotonic() - t)
        return recs


def summarize(report):
    """Cells, failures, truncations and the model results of one report."""
    schema = report["schema"]
    out = {"truncated": None, "dla_speedups": [], "r3_speedups": [], "speedup_ci95": []}
    if schema == "r3dla-dse-v1":
        detailed = int(report["sample"].split(":")[1])
        trials = [t for w in report["workloads"] for t in [w["bl"], *w["ranked"]]]
        out["cells"] = sum(w["interval_sims"] for w in report["workloads"])
        out["failed"] = sum(t["intervals"] for t in trials if t.get("status", "ok") != "ok")
        out["window_insts"] = out["cells"] * detailed
        out["r3_ipcs"] = [w["r3"]["ipc_mean"] for w in report["workloads"]]
        for t in trials:
            if t.get("incumbent") in ("dla", "r3") and "speedup_mean" in t:
                out[f"{t['incumbent']}_speedups"].append(t["speedup_mean"])
                out["speedup_ci95"].append(t["speedup_ci95"])
        return out
    rows = report.get("cells", report.get("rows"))
    bad = [r for r in rows if r.get("status", "ok") != "ok" or r["mt_committed"] == 0]
    out["window_insts"] = sum(r["mt_committed"] for r in rows)
    if schema == "r3dla-bench-sample-v1":
        out["cells"] = sum(r["intervals"] for r in rows)
        out["failed"] = sum(r["intervals"] for r in bad)
        out["r3_ipcs"] = [r["ipc_mean"] for r in rows if r["config"] == "r3"]
        for r in rows:
            if r["config"] in ("dla", "r3") and "speedup_mean" in r:
                out[f"{r['config']}_speedups"].append(r["speedup_mean"])
                out["speedup_ci95"].append(r["speedup_ci95"])
        return out
    out["cells"] = len(rows)
    out["failed"] = len(bad)
    out["truncated"] = sum(r["mt_committed"] < report["window"] for r in rows)
    out["r3_ipcs"] = [r["mt_ipc"] for r in rows if r["config"] == "r3"]
    by_kernel = collections.defaultdict(dict)
    for r in rows:
        by_kernel[r["workload"]][r["config"]] = r["mt_ipc"]
    for ipc in by_kernel.values():
        for c in ("dla", "r3"):
            if "bl" in ipc and c in ipc:
                out[f"{c}_speedups"].append(ipc[c] / ipc["bl"])
    return out


def speedup_metrics(rec):
    """Model results of one run (simulated time: identical every run)."""
    out = {}
    for c in ("dla", "r3"):
        xs = rec[f"{c}_speedups"]
        out[f"{c}_speedup_geomean"] = stats.geomean(xs) if xs else None
    ci = rec["speedup_ci95"]
    out["speedup_ci95_median"] = stats.median(ci) if ci else None
    out["failed_frac"] = rec["failed"] / rec["cells"]
    out["truncated_frac"] = (rec["truncated"] / rec["cells"]
                             if rec["truncated"] is not None else None)
    return out


def end_to_end(recs):
    def med(name):
        return stats.median([r[name] for r in recs])

    return {
        "campaign_s": (med("campaign_s"), "s"),
        "setup_s": (med("setup_s"), "s"),
        "sim_mips": (med("sim_mips"), "MIPS"),
        "peak_rss_mb": (med("peak_rss_mb"), "MB"),
        "r3_ipc_geomean": (stats.geomean(recs[0]["r3_ipcs"]), "IPC"),
    }


def span_tree(spans):
    """Adds each span's duration and self thread time (its duration, times
    its width for a pool phase, minus its children's); returns each span
    id's children. A pool phase's self time is its workers' idle time."""
    kids = collections.defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    for s in spans:
        s["dur"] = s["end_ns"] - s["start_ns"]
    for s in spans:
        s["self"] = s["threads"] * s["dur"] - sum(k["dur"] for k in kids[s["id"]])
    return kids


def subtree(root, kids):
    out, stack = [], [root]
    while stack:
        s = stack.pop()
        out.append(s)
        stack.extend(kids[s["id"]])
    return out


def is_layer(name):
    return name.startswith(LAYER_PREFIXES) or name in LAYER_NAMES


def wall_shares(camp):
    """Splits the campaign's wall time among its spans: at every instant,
    equally among the innermost spans open then (one per busy thread).
    A span's share is its self time in wall terms; a worker that idles
    leaves the instant to the spans still running. Pool phases are
    transparent: they hold no time of their own."""
    by_id = {s["id"]: s for s in camp}

    def owner(s):
        p = by_id.get(s["parent"])
        while p is not None and p["threads"] > 1:
            p = by_id.get(p["parent"])
        return p

    owners = {s["id"]: (owner(s) or {}).get("id") for s in camp if s["threads"] == 1}

    def depth(sid):
        d = 0
        while owners[sid] is not None:
            sid, d = owners[sid], d + 1
        return d

    # Ends before starts at the same instant; parents open before and
    # close after their children.
    events = []
    for sid in owners:
        s = by_id[sid]
        events.append((s["start_ns"], 1, depth(sid), sid))
        events.append((s["end_ns"], 0, -depth(sid), sid))
    events.sort()
    share = collections.defaultdict(float)
    open_kids = collections.defaultdict(int)
    active, innermost = set(), set()
    last = None
    for t, starting, _, sid in events:
        if innermost and last is not None and t > last:
            dt = (t - last) / len(innermost)
            for i in innermost:
                share[i] += dt
        last = t
        o = owners[sid]
        if starting:
            active.add(sid)
            innermost.add(sid)
            if o is not None:
                open_kids[o] += 1
                innermost.discard(o)
        else:
            active.discard(sid)
            innermost.discard(sid)
            if o is not None:
                open_kids[o] -= 1
                if open_kids[o] == 0 and o in active:
                    innermost.add(o)
    return share


def per_layer(bench, recs):
    traced = [r for r in recs if r["traced"]]
    untraced = [r for r in recs if not r["traced"]]
    rec = traced[0]
    kids = span_tree(rec["spans"])
    root = next(s for s in rec["spans"] if s["name"] == "campaign")
    camp = subtree(root, kids)

    def total(name):
        return sum(s["dur"] for s in rec["spans"] if s["name"] == name) / 1e6

    m = {}
    for name in ("workloads.build", "core.dataflow", "core.profile_functional",
                 "core.profile_timing", "core.skeletons", "core.prepare",
                 "core.assemble", "sample.plan", "sample.restore", "sample.warm",
                 "sample.window", "dse.plan", "dse.cache_load", "dse.evaluate",
                 "dse.cache_store", "mix.run", "bench.report"):
        m[f"{name}_ms"] = (total(name), "ms")
    m["sample.checkpoints"] = (rec["checkpoints"], "count")
    for c in CONFIGS:
        warm = [s for s in camp if s["name"] == f"detail.{c}.warm"]
        window = [s for s in camp if s["name"] == f"detail.{c}.window"]
        ns = sum(s["dur"] for s in warm + window)
        cycles = sum(s["cycles"] for s in warm + window)
        insts = sum(s["insts"] for s in warm + window)
        m[f"detail.{c}.warm_ms"] = (sum(s["dur"] for s in warm) / 1e6, "ms")
        m[f"detail.{c}.window_ms"] = (sum(s["dur"] for s in window) / 1e6, "ms")
        m[f"detail.{c}.sim_cycles"] = (cycles, "count")
        m[f"detail.{c}.committed"] = (insts, "count")
        m[f"detail.{c}.ns_per_cycle"] = (ns / cycles if cycles else 0.0, "ns")
        m[f"detail.{c}.mips"] = (insts / ns * 1e3 if ns else 0.0, "MIPS")
        s = rec["model"].get(c)
        mt = s["mt"] if s else 0
        m[f"model.{c}.l1d_miss_rate"] = (
            s["l1d_misses"] / s["l1d_accesses"] if s and s["l1d_accesses"] else 0.0,
            "fraction")
        m[f"model.{c}.dram_lines_per_kinst"] = (
            s["dram"] / mt * 1e3 if mt else 0.0, "lines/kinst")
        m[f"model.{c}.lt_per_mt"] = (s["lt"] / mt if mt else 0.0, "ratio")
        m[f"model.{c}.reboots_per_minst"] = (
            s["reboots"] / mt * 1e6 if mt else 0.0, "1/Minst")
    cells = [s["dur"] / 1e6 for s in camp if s["name"] == "bench.cell"]
    measure = [s for s in camp if s["name"] == "bench.measure"]
    m["bench.cells"] = (rec["cells"], "count")
    m["bench.retries"] = (rec["retries"], "count")
    m["bench.cell_ms_p50"] = (stats.percentile(cells, 50), "ms")
    m["bench.cell_ms_p90"] = (stats.percentile(cells, 90), "ms")
    m["bench.pool_idle_ms"] = (sum(s["self"] for s in measure) / 1e6, "ms")
    m["dse.cache_hits"] = (rec["cache_hits"], "count")
    m["dse.cache_misses"] = (rec["cache_misses"], "count")
    m["kernel.dispatched"] = (rec["kernel_dispatched"], "count")
    m["kernel.stale_dropped"] = (rec["kernel_stale_dropped"], "count")
    overhead = (stats.median([r["campaign_s"] for r in traced])
                / stats.median([r["campaign_s"] for r in untraced]) - 1.0)
    m["obs.trace_overhead_frac"] = (overhead, "fraction")
    name_of = {s["id"]: s["name"] for s in camp}
    attributed = sum(v for sid, v in wall_shares(camp).items() if is_layer(name_of[sid]))
    m["unattributed_ms"] = ((root["dur"] - attributed) / 1e6, "ms")
    m["attributed_frac"] = (attributed / root["dur"], "fraction")
    if attributed / root["dur"] < MIN_ATTRIBUTED:
        bench.fail(f"layers account for {attributed / root['dur']:.1%} of the traced "
                   f"campaign, below {MIN_ATTRIBUTED:.0%}")
    for name, v in speedup_metrics(rec).items():
        m[name] = (v if v is not None else 0.0,
                   "fraction" if name.endswith("_frac") else "ratio")
    return m


def print_table(workload, recs, metrics):
    untraced = [r for r in recs if not r["traced"]]
    first = untraced[0]
    log(f"\n== {workload}: {len(recs)} runs "
        f"({len(recs) - len(untraced)} traced), {first['cells']} cells each ==")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in ("campaign_s", "setup_s", "sim_mips", "peak_rss_mb"):
            xs = [r[name] for r in untraced]
            tail = stats.tail_percentile(xs)
            quart = ("Q1..Q3 {:.4f}..{:.4f}; ".format(*stats.quartiles(xs)[::2])
                     if len(xs) > 1 else "")
            extra = (f"  (median of n={len(xs)}; {quart}"
                     + (f"p{tail[0]}={tail[1]:.4f}" if tail else
                        "no percentile has >=10 runs beyond it") + ")")
        log(f"  {name:32s} {value:14.6f} {unit}{extra}")
    speeds = [r["speed"] for r in untraced]
    log(f"  host wall seconds (unscaled)     "
        f"{stats.median([r['wall_s'] for r in untraced]):14.6f} s  (median); "
        f"host speed {stats.median(speeds):.4f} of the reference "
        f"(range {min(speeds):.4f}..{max(speeds):.4f})")
    model = speedup_metrics(first)
    trunc = ("n/a (the report does not show per-interval truncation)"
             if first["truncated"] is None else
             f"{model['truncated_frac']:.4f} ({first['truncated']}/{first['cells']}: "
             "windows cut short by program halt)")
    log(f"  failed_frac {model['failed_frac']:.4f} ({first['failed']}/{first['cells']}), "
        f"truncated_frac {trunc}")
    if "cache_hits" in first:
        log(f"  cache hits/misses {first['cache_hits']}/{first['cache_misses']}")
    for c in ("dla", "r3"):
        v = model[f"{c}_speedup_geomean"]
        if v is None:
            log(f"  {c}_speedup_geomean: n/a (no bl column in this campaign's report)")
            continue
        paper = PAPER_SPEEDUP[c]
        log(f"  {c}_speedup_geomean {v:.4f}  paper Fig 9a {paper:.2f}  "
            f"gap {v - paper:+.4f}")
    ci = model["speedup_ci95_median"]
    log("  speedup_ci95_median " + (f"{ci:.4f}" if ci is not None else
                                     "n/a (full windows, not sampled)"))
    log("  The simulator is unvalidated against hardware: the gaps above are to "
        "the paper's numbers, not to a measured machine.")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--held-out", action="store_true",
                    help="run on train inputs (a data seed not used for tuning)")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be non-negative")

    bins = build()
    work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        bench = Bench(args, bins, work)
        bench.setup()
        recs = bench.runs()
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass

    untraced = [r for r in recs if not r["traced"]]
    if not untraced or (args.trace and len(untraced) == len(recs)):
        raise SystemExit("perfbench: no complete run to report")
    e2e = end_to_end(untraced)
    metrics = per_layer(bench, recs) if args.trace else e2e
    print_table(args.workload, recs, {**e2e, **metrics} if args.trace else e2e)
    correct = not bench.errors
    result = {
        "correct": correct,
        "attempted": sum(r["cells"] for r in recs),
        "failed": sum(r["failed"] for r in recs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
