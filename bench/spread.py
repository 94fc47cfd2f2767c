"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 bench/spread.py --workload NAME [--seeds 1 2 3 ...]

Runs ``bench/run.py`` once per seed, one run at a time and at its default
length (``run_seconds`` of ``BENCHMARK.json``), and prints for each
end-to-end metric the median and the distance between the first and third
quartiles (statistics.quantiles, n=4) as a share of the median.  The
summary is also written to ``bench/results/spread-<workload>.json``.

With ``--record-digests`` the output digest of each run is stored in
``bench/digests.json`` under its workload and seed, so that later runs of
those seeds report a changed output as a failure.  Runs with an unexpected
failure are never recorded.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def record_digests(workload: str, seeds: list[int]) -> None:
    path = BENCH / "digests.json"
    digests = json.loads(path.read_text()) if path.is_file() else {}
    for seed in seeds:
        result = json.loads((BENCH / "results" / f"{workload}-seed{seed}-timed.json").read_text())
        if result["unexpected_failures"]:
            raise SystemExit(f"seed {seed} has unexpected failures; digest not recorded")
        digests.setdefault(workload, {})[str(seed)] = result["digest"]["value"]
    digests[workload] = dict(sorted(digests[workload].items(), key=lambda kv: int(kv[0])))
    path.write_text(json.dumps(dict(sorted(digests.items())), indent=1) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=int, nargs="+", default=list(range(1, 11)))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--trace", "0"], capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr[-800:], file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct {result['correct']} attempted {result['attempted']} "
              f"failed {result['failed']} " + " ".join(
                  f"{k}={m['value']:.5g}" for k, m in result["metrics"].items()), flush=True)
    summary = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "iqr_share": (q3 - q1) / med,
                         "values": values}
        print(f"{name:18s} median {med:.5g}  iqr/median {(q3 - q1) / med:.4f}")
    if args.record_digests:
        record_digests(args.workload, args.seeds)
    out = BENCH / "results" / f"spread-{args.workload}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps({"workload": args.workload, "seeds": args.seeds, "metrics": summary, "runs": runs},
                              indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
