"""Benchmark for the securegroupcast toolkit.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` defaults to ``run_seconds`` of ``BENCHMARK.json``, the run
length every tail percentile below is chosen for.

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed.  Each workload runs in a fresh
single-threaded process as a closed loop with one client: the next
instance starts when the previous one has its verdict.  Every output is
checked against a known answer computed outside the timed region.

With ``--trace 0`` the run prints the end-to-end metrics; with ``--trace 1``
it alternates untraced and traced passes over the workload's fixed prefix
and prints the per-layer metrics.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
A result file stamped with the environment goes to ``bench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RESULTS = BENCH / "results"
DIGESTS = BENCH / "digests.json"

RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
SETUP_REPEATS = 7
MIN_BEYOND = 10          # samples a tail percentile must have beyond it
PREDICTED_SHARE = 0.5    # a predicted dominant layer holds at least this share
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare_process() -> None:
    """Pin native libraries to one thread and import the package from src/."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    os.environ.pop("SGC_ORACLE_CAP", None)   # the default oracle cap is part of the workload
    package = ROOT / "src" / "securegroupcast" / "__init__.py"
    if not package.is_file():
        sys.exit(f"error: {package.relative_to(ROOT)} not found; run from a source checkout")
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]


# -- machine speed ---------------------------------------------------------------------
#
# The CPU speed a process gets on a shared machine moves by up to 2x in
# regimes lasting minutes, more than any bound on a time metric.  So the
# timed run interleaves a fixed calibration loop with the instances,
# spending CAL_SHARE of each instance's time on it, and reports every time
# as it would read with the loop running at its reference speed: each
# window's instance times are scaled by that window's measured loop speed.
# The loop's work resembles the workload's (pure Python, or a NumPy sort
# and count like the oracle's grouping), so that both slow down alike.
# The loop is benchmark code, so a faster program still reads faster.
# Raw times go to the result file.

REFERENCE_SPEED = {"python": 50_000.0, "numpy": 1_500.0}   # chunks per second
CAL_SHARE = 0.05


def _python_chunk() -> None:
    total, table = 0, {}
    for i in range(200):
        total += i & 7
        table[i & 31] = total


def calibration_chunk(kind: str):
    """The calibration loop body of a workload's kind."""
    if kind == "python":
        return _python_chunk
    import numpy   # only after prepare_process has pinned the thread pools

    values = numpy.random.default_rng(0).integers(0, 1 << 16, 1 << 15)
    return lambda: numpy.unique(values, return_counts=True)


def calibrate(chunk, budget_s: float) -> tuple[int, float]:
    """Run calibration chunks for at least budget_s: (chunks, seconds)."""
    n = 0
    t0 = time.perf_counter()
    while True:
        chunk()
        n += 1
        elapsed = time.perf_counter() - t0
        if elapsed >= budget_s:
            return n, elapsed


def cpu_probe(chunk) -> float:
    """Calibration speed over 0.2 s, in chunks per second."""
    n, elapsed = calibrate(chunk, 0.2)
    return n / elapsed


def environment() -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpus_allowed": len(os.sched_getaffinity(0)),
            "cpu_model": cpu}


# -- running instances ------------------------------------------------------------

def call(run, request):
    from workloads import Raised

    try:
        return run(request)
    except Exception as exc:   # a crash is a counted failure, not the end of the run
        return Raised(type(exc).__name__, str(exc))


class Tally:
    """Checks each output against its known answer and keeps the counts.

    A mismatch on an input that hits a documented program defect is a
    failure like any other.  It counts as that defect only when the output
    is the defect's documented wrong answer; any other mismatch is
    unexpected and makes the run incorrect.
    """

    def __init__(self, wl):
        self.wl = wl
        self.attempted = self.failed = self.unexpected = 0
        self.defects: Counter = Counter()
        self.messages: list[str] = []
        self.prefix_out: dict[int, object] = {}

    def add(self, index: int | None, inst, out) -> None:
        """Check one output; index is its position in the stream, or None
        for outputs that are not kept for the digest."""
        self.attempted += 1
        if index is not None and index < self.wl.prefix:
            self.prefix_out[index] = out
        bad = self.wl.check(inst, out)
        if not bad:
            return
        self.failed += 1
        if inst.defect and self.wl.shows_defect(inst, out):
            self.defects[inst.defect] += 1
        else:
            self.unexpected += 1
        if len(self.messages) < 10:
            self.messages.append(f"instance {inst.id} ({inst.kind}): {'; '.join(bad)}")

    def finish_prefix(self, pool) -> None:
        """Run, untimed, any prefix instance the timed loop did not reach."""
        for i in range(self.wl.prefix):
            if i not in self.prefix_out:
                self.prefix_out[i] = call(self.wl.run, pool[i].request)

    def composition(self, pool) -> dict:
        counts: Counter = Counter()
        for i in range(self.wl.prefix):
            self.wl.compose(pool[i], self.prefix_out[i], counts)
        return dict(sorted(counts.items()))

    def digest(self, pool) -> str:
        """Hash of every output of the prefix, except those of known-defect
        inputs: their right answer is known, so fixing a defect must not
        read as a changed output."""
        items = [self.wl.canonical(pool[i], self.prefix_out[i])
                 for i in range(self.wl.prefix) if not pool[i].defect]
        text = json.dumps(items, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(text.encode()).hexdigest()


def stored_digest(workload: str, seed: int) -> str | None:
    if not DIGESTS.is_file():
        return None
    return json.loads(DIGESTS.read_text()).get(workload, {}).get(str(seed))


def percentile(ordered: list[float], pct: float) -> tuple[float, int]:
    """(value, samples beyond it) of a sorted sample, by nearest rank."""
    rank = max(math.ceil(pct / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def setup_probe(name: str) -> None:
    """Child side of setup_s: import the package and finish one instance."""
    from workloads import WORKLOADS

    WORKLOADS[name].run(json.load(sys.stdin))


def setup_seconds(wl, request) -> list[float]:
    """Wall time of fresh processes that import and finish one warm-up instance."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe", wl.name]
    payload = json.dumps(request)
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, input=payload, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed: {proc.stderr[-400:]}")
    return times


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# -- timed run ------------------------------------------------------------------------

def timed_run(wl, pool, seconds: float) -> dict:
    setup = setup_seconds(wl, pool[0].request)
    tally = Tally(wl)
    call(wl.run, pool[0].request)   # let lazy set-up finish before timing
    chunk, reference = calibration_chunk(wl.calibration), REFERENCE_SPEED[wl.calibration]
    raw, scaled, windows, raw_windows, speeds = [], [], [], [], []
    i = 0
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        window = []
        chunks, cal_s = 0, 0.0
        for _ in range(wl.window):
            inst = pool[i % len(pool)]
            t0 = time.perf_counter()
            out = call(wl.run, inst.request)
            window.append(time.perf_counter() - t0)
            tally.add(i, inst, out)
            i += 1
            n, elapsed = calibrate(chunk, CAL_SHARE * window[-1])
            chunks += n
            cal_s += elapsed
        speed = chunks / cal_s
        raw += window
        scaled += [t * speed / reference for t in window]
        raw_windows.append(sum(window))
        windows.append(raw_windows[-1] * speed / reference)
        speeds.append(speed)
    wall = time.perf_counter() - start
    tail_s, beyond = percentile(sorted(scaled), wl.tail_pct)
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        # the median window rate: a burst of load on a shared machine moves
        # one window, not the run
        "instances_per_s": (wl.window / statistics.median(windows), "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(scaled), "ms"),
        "latency_tail_ms": (1e3 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MiB"),
    }
    return {"tally": tally, "metrics": metrics,
            "extra": {"failed_ratio": tally.failed / tally.attempted,
                      "tail_percentile": wl.tail_pct, "tail_beyond": beyond,
                      "samples": len(raw), "windows": len(windows),
                      "calibration": {
                          "loop": wl.calibration, "reference_chunks_per_s": reference,
                          "median_chunks_per_s": statistics.median(speeds),
                          "min_chunks_per_s": min(speeds), "max_chunks_per_s": max(speeds)},
                      "unscaled": {
                          "instances_per_s": wl.window / statistics.median(raw_windows),
                          "latency_p50_ms": 1e3 * statistics.median(raw),
                          "latency_tail_ms": 1e3 * percentile(sorted(raw), wl.tail_pct)[0],
                          "instances_per_s_whole_run": len(raw) / wall},
                      "wall_s": wall, "setup_runs_s": setup}}


# -- traced run -----------------------------------------------------------------------

def traced_run(wl, pool, seconds: float) -> dict:
    from tracing import Tracer, layer_metrics

    tracer = Tracer(wl.predicted)
    root = tracer.span("bench.instance", wl.run)
    tally = Tally(wl)
    prefix = pool[:wl.prefix]
    for i, inst in enumerate(prefix):   # warm pass: caches, allocator, digest
        tally.add(i, inst, call(wl.run, inst.request))
    untraced_s = traced_s = 0.0
    passes = 0
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        for inst in prefix:
            tally.add(None, inst, call(wl.run, inst.request))
        untraced_s += time.perf_counter() - t0
        tracer.install()
        tracer.recording = passes == 0
        try:
            t0 = time.perf_counter()
            for inst in prefix:
                tracer.instance = inst.id
                tally.add(None, inst, call(root, inst.request))
            traced_s += time.perf_counter() - t0
        finally:
            tracer.uninstall()
        passes += 1
        if time.perf_counter() - start >= seconds:
            break
    rates = (passes * len(prefix) / untraced_s, passes * len(prefix) / traced_s)
    comp = tally.composition(pool)
    metrics = layer_metrics(tracer, wl, passes, comp, rates)
    top = sorted(((s / tracer.incl_s["bench.instance"], n) for n, s in tracer.self_s.items()),
                 reverse=True)[:8]
    share = metrics["dominant.predicted_share"][0]
    bypass = {n: tracer.calls[n] // passes for n in wl.bypass}
    return {"tally": tally, "metrics": metrics, "spans": tracer.spans,
            "extra": {"passes": passes, "instances_per_s_untraced": rates[0],
                      "instances_per_s_traced": rates[1],
                      "top_self_shares": [[n, round(s, 4)] for s, n in top],
                      "prediction": {"spans": list(wl.predicted), "share": share,
                                     "verdict": "confirmed" if share >= PREDICTED_SHARE
                                     else "refuted"},
                      "bypass": {"calls_per_pass": bypass,
                                 "verdict": "ok" if not any(bypass.values()) else "violated"}}}


# -- one workload ---------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    load_start = list(os.getloadavg())
    from workloads import WORKLOADS

    wl = WORKLOADS[name]
    chunk = calibration_chunk(wl.calibration)
    probe_start = cpu_probe(chunk)
    pool = wl.pool(seed)
    result = (traced_run if trace else timed_run)(wl, pool, seconds)
    tally = result["tally"]
    tally.finish_prefix(pool)
    digest = tally.digest(pool)
    stored = stored_digest(name, seed)
    digest_ok = stored is None or stored == digest
    correct = tally.unexpected == 0 and digest_ok
    env = environment()
    env["loadavg_start"] = load_start
    env["calibration_chunks_per_s_start_end"] = [probe_start, cpu_probe(chunk)]
    record = {
        "workload": name, "why": wl.why, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": env, "loadavg_end": list(os.getloadavg()),
        "correct": correct, "attempted": tally.attempted, "failed": tally.failed,
        "failed_ratio": tally.failed / tally.attempted,
        "known_defect_failures": dict(tally.defects), "unexpected_failures": tally.unexpected,
        "failure_samples": tally.messages,
        "digest": {"value": digest, "stored": stored,
                   "status": "none stored" if stored is None else
                   ("match" if digest_ok else "MISMATCH")},
        "composition": {"instances": wl.prefix, "counts": tally.composition(pool)},
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result["metrics"].items()},
        **result["extra"],
    }
    RESULTS.mkdir(exist_ok=True)
    stem = f"{name}-seed{seed}-{'traced' if trace else 'timed'}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if trace:
        t_first = result["spans"][0][2] if result["spans"] else 0.0
        spans = [[i, n, round(a - t_first, 7), round(b - t_first, 7), p, inst]
                 for i, n, a, b, p, inst in result["spans"]]
        (RESULTS / f"{stem}-spans.json").write_text(json.dumps(
            {"fields": ["id", "name", "start_s", "end_s", "parent", "instance"],
             "spans": spans}) + "\n")
    return record


def report_lines(record: dict) -> list[str]:
    r = record
    lines = [f"== {r['workload']} seed={r['seed']} trace={r['trace']}: "
             f"attempted {r['attempted']}, failed {r['failed']}, correct {r['correct']}",
             f"   failed_ratio {r['failed_ratio']:.4f} 1"]
    for name, m in r["metrics"].items():
        note = ""
        if name == "latency_tail_ms":
            note = (f"  (p{r['tail_percentile']:g}; {r['tail_beyond']} of "
                    f"{r['samples']} samples beyond it"
                    f"{'' if r['tail_beyond'] >= MIN_BEYOND else ', too few: run longer'})")
        lines.append(f"   {name} {m['value']:.6g} {m['unit']}{note}")
    if r["trace"]:
        pred, byp = r["prediction"], r["bypass"]
        lines.append(f"   prediction: {' + '.join(pred['spans'])} hold "
                     f"{100 * pred['share']:.1f}% of instance time -> {pred['verdict']}")
        lines.append(f"   bypass: {byp['calls_per_pass']} calls per pass -> {byp['verdict']}")
        lines.append("   top self shares: " + ", ".join(
            f"{n} {100 * s:.1f}%" for n, s in r["top_self_shares"]))
    for key, n in r["known_defect_failures"].items():
        lines.append(f"   known defect failed {n}x: {key}")
    lines.append(f"   digest {r['digest']['value'][:16]} ({r['digest']['status']}); "
                 f"composition {r['composition']['counts']}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    prepare_process()
    if args.setup_probe:
        setup_probe(args.setup_probe)
        return 0
    from workloads import WORKLOADS

    if args.workload != "all":
        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
        record = run_workload(args.workload, args.seed, args.seconds, args.trace)
        print("\n".join(report_lines(record)))
        print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                          "failed": record["failed"], "metrics": record["metrics"]}))
        return 0
    summary = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"== {name}: exit {proc.returncode}\n{proc.stderr[-800:]}")
            return 1
        print("\n".join(lines[:-1]), flush=True)
        summary[name] = json.loads(lines[-1])
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
