#!/usr/bin/env python3
"""End-to-end benchmark of `tin-cli run`, with a per-layer ledger.

Run from the root of the repository:

    python3 perfbench/run.py --workload btc-fifo-seq --seed 42 --seconds 30 --trace 0
    python3 perfbench/run.py --self-test

It builds the release `tin-cli` and this directory's `tin-perfbench`
package offline, generates the workload's trace from the seed, times
`tin-cli run` as a child process for `--seconds` seconds (times scaled
to a quiet host by a calibration loop run beside each invocation), checks
every output, and prints one JSON object as the last line of stdout: the
end-to-end metrics with `--trace 0`, the per-layer ledger with `--trace 1`.
README.md beside this file explains the workloads and metrics.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Each workload is one `tin-cli run` job; sizes come from the scale profile
# and do not depend on the seed. README.md says which layer each isolates,
# and why `btc-fifo-2sh` is runnable by name but not in BENCHMARK.json.
WORKLOADS = {
    "btc-fifo-seq": {"kind": "bitcoin", "scale": "medium", "policy": "fifo", "shards": 1,
                     "sharded_reference": "btc-fifo-2sh"},
    "btc-fifo-2sh": {"kind": "bitcoin", "scale": "small", "policy": "fifo", "shards": 2},
    "ctu-prop-seq": {"kind": "ctu", "scale": "small", "policy": "prop_sparse", "shards": 1},
    "ctu-prop-drill": {
        "kind": "ctu", "scale": "small", "policy": "prop_sparse", "shards": 1,
        "checkpoint_every": 14000, "crash_at": 49000,
    },
}

# Timed rounds per run, at least. Past that, a run starts another round
# only if it should end within `--seconds`, judged by the median round so
# far; so the drill (≈25 s per round, calibrations included) makes one round.
MIN_ROUNDS = 3
MIN_DRILL_ROUNDS = 1
# Set-up samples per run: one every SETUP_EVERY rounds (on `btc-fifo-seq`
# set-up is about half a pass, and the passes are the noisier figures),
# then more until there are this many or the extra ones took this long.
SETUP_EVERY = 3
SETUP_SAMPLES = 15
SETUP_TOP_UP_S = 2.0
# Repetitions of the traced in-process path (`--trace 1`).
LAYER_REPS = 3
DRILL_LAYER_REPS = 1
# Host-speed normalisation (README.md): every timed invocation and set-up
# sample runs between two runs of the `calibrate` loop, and its times are
# scaled by this many seconds over the mean of the two loop times. It is
# about the loop's time on the 2-vCPU box the benchmark was written on when
# that box was quiet, so reported times are seconds on that box, quiet.
CALIBRATION_REF_S = 0.2
# Loop runs per calibration (their median is used). The drill's
# invocations take 7-11 s, so one 0.2 s loop is a poor sample of the host
# speed around them.
CALIBRATION_REPS = 1
DRILL_CALIBRATION_REPS = 5
# A run must end within 180 s of its build: children still running this
# long after the build are killed.
RUN_DEADLINE_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


class Invocation:
    """One finished child process: exit code, output, wall, CPU and RSS."""

    def __init__(self, args, rc, stdout, stderr, wall_s, cpu_s, rss_bytes):
        self.args = args
        self.rc = rc
        self.stdout = stdout
        self.stderr = stderr
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_bytes = rss_bytes


def spawn(args, cwd, deadline):
    """Run `args` in `cwd` to completion, killing it at `deadline`
    (a `time.perf_counter()` value). Wall time is spawn to exit; CPU time
    and peak RSS come from the child's own rusage."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        started = time.perf_counter()
        child = subprocess.Popen(args, cwd=cwd, stdout=out, stderr=err)
        timer = threading.Timer(max(0.0, deadline - started), child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - started
        child.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Invocation(
            args, child.returncode, out.read().decode(), err.read().decode(), wall,
            usage.ru_utime + usage.ru_stime, usage.ru_maxrss * 1024,
        )


def key_values(text):
    """Parse the `key value` lines the tin-perfbench binaries print."""
    pairs = (line.split(" ", 1) for line in text.splitlines() if line.strip())
    return {k: v for k, v in pairs}


class Tally:
    """Counts `tin-cli` invocations and the ones that failed a check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def check(self, inv, expect_rc_zero, sums, reference=None, stderr_has=None, files=()):
        """Count `inv`; it fails on an unexpected exit code, a stdout that
        differs from `reference` or whose `interactions` / `total quantity`
        lines differ from `sums`, a missing stderr message, or a missing
        file. Returns True if it passed."""
        self.attempted += 1
        problems = []
        if (inv.rc == 0) != expect_rc_zero:
            problems.append(f"exit code {inv.rc}")
        if expect_rc_zero:
            report = {}
            for line in inv.stdout.splitlines():
                name, sep, value = line.partition(":")
                if sep:
                    report[name.strip()] = value.strip()
            if report.get("interactions") != sums["interactions"]:
                problems.append(f"interactions {report.get('interactions')!r} != {sums['interactions']}")
            if report.get("total quantity") != sums["total_quantity"]:
                problems.append(
                    f"total quantity {report.get('total quantity')!r} != {sums['total_quantity']}")
            if reference is not None and inv.stdout != reference:
                problems.append("stdout differs from the reference output")
        if stderr_has is not None and stderr_has not in inv.stderr:
            problems.append(f"stderr lacks {stderr_has!r}")
        problems.extend(f"missing {f}" for f in files if not os.path.exists(f))
        if problems:
            self.failed += 1
            self.reasons.append(f"{' '.join(inv.args[1:3])}: {'; '.join(problems)}")
        return not problems


def self_test():
    """A stdout with one changed digit must be counted as failed, not
    dropped: once where it differs from the reference run, once where the
    changed digit is in a sum and there is no reference."""
    good = ("policy          : FIFO\ninteractions    : 3\ntotal quantity  : 6.0000\n"
            "top vertices by buffered quantity:\n  7: buffered 2.5000 from 1 origins [7 100%]\n")
    sums = {"interactions": "3", "total_quantity": "6.0000"}
    changed_row = good.replace("2.5000", "2.5001")
    changed_sum = good.replace("6.0000", "6.0001")
    tally = Tally()

    def passed(stdout, reference):
        return tally.check(Invocation(["tin-cli", "run", "t"], 0, stdout, "", 1.0, 1.0, 1),
                           True, sums, reference)

    ok = (passed(good, good) and not passed(changed_row, good)
          and not passed(changed_sum, None))
    return ok and (tally.attempted, tally.failed) == (3, 2)


def build():
    """Build the release `tin-cli` and `tin-perfbench` offline; returns the
    directory holding the binaries, or None if a build failed."""
    env = dict(os.environ)
    target = os.path.join(ROOT, env.get("CARGO_TARGET_DIR", ".bench_build"))
    env["CARGO_TARGET_DIR"] = target
    for args in (["cargo", "build", "--release", "--offline", "-q", "-p", "tin-cli"],
                 ["cargo", "build", "--release", "--offline", "-q",
                  "--manifest-path", os.path.join("perfbench", "Cargo.toml")]):
        try:
            done = subprocess.run(args, cwd=ROOT, env=env, stdout=sys.stderr, timeout=880)
        except (OSError, subprocess.TimeoutExpired) as err:
            log(f"build failed: {err}")
            return None
        if done.returncode != 0:
            log(f"build failed: {' '.join(args)}")
            return None
    return os.path.join(target, "release")


class Bench:
    def __init__(self, workload, seed, seconds, bins, work):
        self.name = workload
        self.w = WORKLOADS[workload]
        self.seed = seed
        self.seconds = seconds
        self.bins = bins
        self.cli = os.path.join(bins, "tin-cli")
        self.ledger = os.path.join(bins, "tin-perfbench")
        self.alloc_peak = os.path.join(bins, "alloc_peak")
        self.calibrate = os.path.join(bins, "calibrate")
        self.last_calibration = None
        self.calibrations = []
        self.work = work
        self.trace = os.path.join(work, f"{workload}-seed{seed}.csv")
        self.ckdir = os.path.join(work, "checkpoints")
        self.tally = Tally()
        self.ledger_ok = True
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def spawn(self, args):
        self.last_calibration = None
        return spawn(args, self.work, self.deadline)

    def calibration(self):
        reps = DRILL_CALIBRATION_REPS if "crash_at" in self.w else CALIBRATION_REPS
        inv = spawn([self.calibrate, "--reps", str(reps)], self.work, self.deadline)
        value = key_values(inv.stdout).get("calibration_s") if inv.rc == 0 else None
        if value is None:
            log(f"calibrate failed: {inv.stderr.strip()}")
            raise SystemExit(1)
        self.calibrations.append(float(value))
        return float(value)

    def scaled(self, measure):
        """Run `measure()` between two host-speed calibrations. Returns its
        result and the factor that turns its times into seconds on the
        quiet reference box. The calibration after one measurement is the
        one before the next, unless another process ran in between."""
        before = self.last_calibration or self.calibration()
        result = measure()
        after = self.calibration()
        self.last_calibration = after
        return result, CALIBRATION_REF_S * 2 / (before + after)

    def run_ledger(self, job, *args):
        inv = self.spawn([self.ledger, job, *args])
        if inv.rc != 0:
            self.ledger_ok = False
            log(f"tin-perfbench {job} failed: {inv.stderr.strip()}")
            return {}
        return key_values(inv.stdout)

    def workload_args(self):
        return ["--policy", self.w["policy"], "--shards", str(self.w["shards"])]

    def generate(self):
        # Generation is outside every timing; only the written file reaches
        # the program.
        facts = self.run_ledger("gen", "--kind", self.w["kind"], "--scale", self.w["scale"],
                                "--seed", str(self.seed), "--out", self.trace)
        if not facts:
            raise SystemExit(1)
        self.input = {k: int(facts[k]) for k in ("bytes", "vertices", "interactions")}
        self.sums = {"interactions": facts["interactions"],
                     "total_quantity": facts["total_quantity"]}
        log(f"{self.name} seed {self.seed}: {self.input['interactions']} interactions, "
            f"{self.input['vertices']} vertices, {self.input['bytes']} bytes")

    def cli_run(self, *extra):
        args = [self.cli, "run", self.trace, "--policy", self.w["policy"]]
        if self.w["shards"] > 1:
            args += ["--shards", str(self.w["shards"])]
        return self.spawn(args + list(extra))

    def setup_sample(self):
        args = ["setup", "--trace", self.trace, *self.workload_args()]
        if "crash_at" in self.w:
            args += ["--checkpoint-dir", self.ckdir,
                     "--checkpoint-every", str(self.w["checkpoint_every"])]
        facts, scale = self.scaled(lambda: self.run_ledger(*args))
        shutil.rmtree(self.ckdir, ignore_errors=True)
        value = facts.get("setup_s")
        return float(value) * scale if value is not None else None

    def one_pass(self, reference):
        """One `tin-cli run` job, checked. Returns (pass dict, stdout); its
        times are scaled to the quiet reference box, except `raw_wall`."""
        if "crash_at" not in self.w:
            inv, scale = self.scaled(self.cli_run)
            self.tally.check(inv, True, self.sums, reference)
            return {"processed": self.input["interactions"], "wall": inv.wall_s * scale,
                    "cpu": inv.cpu_s * scale, "rss": inv.rss_bytes,
                    "answer_wall": inv.wall_s * scale, "raw_wall": inv.wall_s}, inv.stdout
        every, crash_at = self.w["checkpoint_every"], self.w["crash_at"]
        flags = ["--checkpoint-dir", self.ckdir, "--checkpoint-every", str(every)]
        shutil.rmtree(self.ckdir, ignore_errors=True)
        crash, crash_scale = self.scaled(lambda: self.cli_run(*flags, "--crash-at", str(crash_at)))
        kept = [os.path.join(self.ckdir, f"ckpt-{k:012}.tin")
                for k in range(every, crash_at + 1, every)]
        self.tally.check(crash, False, self.sums,
                         stderr_has=f"injected crash at interaction {crash_at}", files=kept)
        resume, resume_scale = self.scaled(lambda: self.cli_run(*flags, "--resume"))
        self.tally.check(resume, True, self.sums, reference)
        shutil.rmtree(self.ckdir, ignore_errors=True)
        return {"processed": crash_at, "wall": crash.wall_s * crash_scale,
                "cpu": crash.cpu_s * crash_scale + resume.cpu_s * resume_scale,
                "rss": max(crash.rss_bytes, resume.rss_bytes),
                "answer_wall": resume.wall_s * resume_scale,
                "raw_wall": crash.wall_s + resume.wall_s}, resume.stdout

    def passes(self):
        """The untraced part of every run: an untimed reference run, then
        timed passes for `--seconds`, with a set-up sample every
        SETUP_EVERY rounds; each pass and sample sits between calibrations."""
        reference = None
        drill = "crash_at" in self.w
        if self.w["shards"] > 1 or drill:
            # The sharded run and the resumed drill must print exactly what
            # a plain sequential run of the same trace prints.
            seq = self.spawn([self.cli, "run", self.trace, "--policy", self.w["policy"]])
            self.tally.check(seq, True, self.sums)
            reference = seq.stdout
        else:
            # Untimed warm-up; its output is the reference for every pass.
            reference = self.one_pass(None)[1]
        rounds, setups, durations = [], [], []
        min_rounds = MIN_DRILL_ROUNDS if drill else MIN_ROUNDS
        started = time.perf_counter()
        while len(rounds) < min_rounds or (
                time.perf_counter() - started + statistics.median(durations) <= self.seconds):
            round_started = time.perf_counter()
            if len(rounds) % SETUP_EVERY == 0:
                setup = self.setup_sample()
                if setup is not None:
                    setups.append(setup)
            rounds.append(self.one_pass(reference)[0])
            durations.append(time.perf_counter() - round_started)
        # A set-up sample is a single short process, so it is noisier than a
        # pass: top the samples up while that stays cheap.
        topped = time.perf_counter()
        while len(setups) < SETUP_SAMPLES and time.perf_counter() - topped < SETUP_TOP_UP_S:
            setup = self.setup_sample()
            if setup is None:
                break
            setups.append(setup)
        self.rounds, self.setups = rounds, setups
        walls = sorted(r["raw_wall"] for r in rounds)
        log(f"{len(rounds)} timed rounds in {time.perf_counter() - started:.1f} s; "
            f"pass wall min {walls[0]:.3f} s, median {statistics.median(walls):.3f} s, "
            f"max {walls[-1]:.3f} s")
        log("pass walls: " + " ".join(f"{w:.4f}" for w in walls))
        log("calibrations: " + " ".join(f"{c:.4f}" for c in self.calibrations))
        log("scaled set-up samples: " + " ".join(f"{x:.4f}" for x in setups))

    def pass_wall(self):
        """Median unscaled pass wall, the base the in-process ledger (which
        is not scaled) reconciles to."""
        return statistics.median(r["raw_wall"] for r in self.rounds)

    def end_to_end(self):
        return {
            "interactions_per_s": (
                statistics.median(r["processed"] / r["wall"] for r in self.rounds), "1/s"),
            "setup_s": (statistics.median(self.setups) if self.setups else 0.0, "s"),
            "cpu_s": (statistics.median(r["cpu"] for r in self.rounds), "s"),
            "peak_rss_bytes": (statistics.median(r["rss"] for r in self.rounds), "bytes"),
            "resume_s": (statistics.median(r["answer_wall"] for r in self.rounds), "s"),
        }

    def layer_metrics(self):
        """The traced in-process run, turned into layer metrics; returns them
        with the lookup of median seconds per span name."""
        spans = os.path.join(ROOT, ".bench_out", f"{self.name}-seed{self.seed}.trace.json")
        os.makedirs(os.path.dirname(spans), exist_ok=True)
        drill = "crash_at" in self.w
        args = ["layers", "--trace", self.trace, *self.workload_args(),
                "--reps", str(DRILL_LAYER_REPS if drill else LAYER_REPS), "--trace-out", spans]
        if drill:
            shutil.rmtree(self.ckdir, ignore_errors=True)
            args += ["--checkpoint-dir", self.ckdir,
                     "--checkpoint-every", str(self.w["checkpoint_every"]),
                     "--crash-at", str(self.w["crash_at"])]
        facts = self.run_ledger(*args)
        alloc = {}
        if drill and facts:
            copy = os.path.join(self.work, "alloc-peak")
            inv = self.spawn([self.alloc_peak, "--from", self.ckdir, "--to", copy])
            shutil.rmtree(copy, ignore_errors=True)
            if inv.rc != 0:
                self.ledger_ok = False
                log(f"alloc_peak failed: {inv.stderr.strip()}")
            alloc = key_values(inv.stdout)
        shutil.rmtree(self.ckdir, ignore_errors=True)
        if not facts:
            raise SystemExit(1)
        # The traced run must report what the CLI reports.
        for key in ("interactions", "total_quantity"):
            if facts.get(key) != self.sums[key]:
                self.ledger_ok = False
                log(f"traced run: {key} {facts.get(key)} != {self.sums[key]}")
        log(f"span trace written to {os.path.relpath(spans, ROOT)}")

        with open(spans) as f:
            events = json.load(f)["traceEvents"]
        reps = sorted({e["tid"] for e in events})
        per_rep = {}
        for e in events:
            per_rep.setdefault(e["name"], dict.fromkeys(reps, 0.0))[e["tid"]] += e["dur"] / 1e6

        def s(name):
            return statistics.median(per_rep[name].values()) if name in per_rep else 0.0

        n = self.input["interactions"]
        kernel = s("kernel")
        kernel_interactions = int(facts["kernel_interactions"])
        shard = s("shard.plain")
        wavefront = s("wavefront")
        batches = int(facts["wavefront.batches_total"])
        ingests = 2 if drill else 1
        m = {
            "ingest.s": (s("ingest"), "s"),
            "ingest.mb_per_s": (ingests * self.input["bytes"] / s("ingest") / 1e6, "MB/s"),
            "engine.s": (s("engine"), "s"),
            "engine.overhead_s": (s("engine") - kernel, "s"),
            "engine.peak_footprint_bytes": (int(facts["engine.peak_footprint_bytes"]), "bytes"),
            "kernel.s": (kernel, "s"),
            "kernel.ns_per_interaction": (kernel / kernel_interactions * 1e9, "ns"),
            "wavefront.s": (wavefront, "s"),
            "wavefront.batches_total": (batches, "count"),
            "wavefront.mean_batch_interactions": (n / batches if batches else 0.0, "count"),
            "shard.s": (shard, "s"),
            "shard.transport_wait_s": (shard - kernel - wavefront if shard else 0.0, "s"),
            "shard.healing_s": (s("shard.healing") - shard if shard else 0.0, "s"),
            "shard.obs_s": (s("shard.cli") - s("shard.healing") if shard else 0.0, "s"),
            "shard.cross_shard_ratio": (int(facts["cross_shard_interactions"]) / n, "ratio"),
            "shard.vs_sequential_ratio": (shard / s("engine") if shard else 0.0, "ratio"),
            "checkpoint.capture_s": (s("checkpoint.capture"), "s"),
            "checkpoint.encode_s": (s("checkpoint.encode"), "s"),
            "checkpoint.save_s": (s("checkpoint.save"), "s"),
            "checkpoint.bytes": (int(facts["checkpoint.bytes"]), "bytes"),
            "checkpoint.load_s": (s("checkpoint.load"), "s"),
            "checkpoint.restore_s": (s("checkpoint.restore"), "s"),
            "checkpoint.alloc_peak_bytes": (int(alloc.get("checkpoint.alloc_peak_bytes", 0)),
                                            "bytes"),
            "report.s": (s("report"), "s"),
        }
        return m, s

    def per_layer(self):
        """The layer ledger plus the whole-run metrics of the traced run."""
        m, s = self.layer_metrics()
        reference = self.w.get("sharded_reference")
        if reference:
            # The 2-shard workload's wall time is too noisy on a 2-vCPU box to
            # be a workload of record (README.md), so its shard and wavefront
            # layers are measured here, in process, on its own trace.
            ref = Bench(reference, self.seed, self.seconds, self.bins, self.work)
            ref.deadline = self.deadline
            ref.generate()
            ref_metrics, _ = ref.layer_metrics()
            self.ledger_ok = self.ledger_ok and ref.ledger_ok
            m.update({k: v for k, v in ref_metrics.items()
                      if k.startswith(("shard.", "wavefront."))})
        # The layers on the CLI's path; the others are references that
        # split them (the kernel runs inside the engine loop or the shards,
        # and healing snapshots are captures inside `shard.healing_s`).
        if self.w["shards"] > 1:
            on_path = ["ingest", "shard.cli", "report"]
        else:
            on_path = ["ingest", "engine", "checkpoint.capture", "checkpoint.save",
                       "checkpoint.load", "checkpoint.restore", "report"]
        wall = self.pass_wall()
        m["residual_s"] = (wall - sum(s(name) for name in on_path), "s")
        m["trace.overhead_ratio"] = (s("path") / wall, "ratio")
        m["failed_ratio"] = (self.tally.failed / self.tally.attempted, "ratio")
        return m


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that a perturbed output is counted as failed, then exit")
    opts = parser.parse_args()
    if not self_test():
        log("self-test failed: a perturbed output was not counted as failed")
        return 1
    if opts.self_test:
        log("self-test passed: a stdout with one changed digit is counted as failed")
        return 0
    if opts.workload is None:
        parser.error("--workload is required")

    bins = build()
    if bins is None:
        return 1
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(dir=os.path.join(ROOT, ".bench_work"))
    try:
        bench = Bench(opts.workload, opts.seed, opts.seconds, bins, work)
        bench.generate()
        bench.passes()
        metrics = bench.per_layer() if opts.trace else bench.end_to_end()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for reason in bench.tally.reasons:
        log(f"FAILED {reason}")
    for name, (value, unit) in metrics.items():
        log(f"{name:36} {value:>20.6f} {unit}")
    result = {
        "correct": bench.tally.failed == 0 and bench.ledger_ok,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
