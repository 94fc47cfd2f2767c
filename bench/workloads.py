"""The four benchmark workloads: seeded inputs, the timed pipeline, and the
known answer each output is checked against.

Each workload copies the request shape of one ``sgc`` command: the program
receives only generated JSON objects and Python values.  Inputs come in
fixed *cycles* of slots whose sizes are fixed per slot; the seed only
changes the random content, so the cost of a cycle moves little between
seeds.  Timed runs are made of whole throughput windows of whole cycles.

Known answers come from ``reference`` (closed forms and exact integer
ranks), never from the code under test.  Two verify-oracle slots hold
known defects of the program; they stay in the traffic and their wrong
answers are counted as failures.
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import Callable

from securegroupcast import cli, scheme, synth

import reference


@dataclass(frozen=True)
class Instance:
    id: int
    kind: str
    request: object
    expect: dict
    defect: str | None = None   # name of the known program defect this input hits


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    cycle: int                  # slots per cycle of generated inputs
    window: int                 # instances per throughput window (whole cycles)
    pool_cycles: int            # distinct cycles generated per seed
    prefix: int                 # instances digested and traced (whole cycles)
    tail_pct: float             # tail percentile reported as latency_tail_ms
    make: Callable[[random.Random, int], tuple[str, object, dict, str | None]]
    run: Callable[[object], object]
    check: Callable[[Instance, object], list[str]]
    canonical: Callable[[Instance, object], object]
    compose: Callable[[Instance, object, Counter], None]
    predicted: tuple[str, ...]  # spans predicted to hold at least half the time
    bypass: tuple[str, ...]     # spans that must not run at all
    # whether a wrong output of a known-defect input is that defect's
    # documented wrong answer, rather than some new fault
    shows_defect: Callable[[Instance, object], bool] = lambda inst, out: False
    calibration: str = "python"  # kind of calibration loop whose speed scales the times

    def pool(self, seed: int) -> list[Instance]:
        rng = random.Random(f"{self.name}:{seed}")
        out = []
        for i in range(self.cycle * self.pool_cycles):
            kind, request, expect, defect = self.make(rng, i % self.cycle)
            out.append(Instance(i, kind, request, expect, defect))
        return out


@dataclass(frozen=True)
class Raised:
    """Output of an instance whose pipeline raised."""

    type: str
    message: str


def _raised_check(inst: Instance, out) -> list[str] | None:
    want = inst.expect.get("error")
    if isinstance(out, Raised):
        if out.type == want:
            return []
        return [f"raised {out.type}: {out.message}"]
    if want is not None:
        return [f"expected {want}, got a result"]
    return None


def _json(obj):
    """JSON-ready copy with int dict keys turned into strings."""
    return json.loads(json.dumps(obj))


def _config_obj(K: int, qualified, keys: dict) -> dict:
    return {"K": K, "qualified": sorted(qualified),
            "keys": [{"subset": sorted(s), "symbols": n} for s, n in keys.items() if n]}


def _compose_report(rep: dict, counts: Counter) -> None:
    counts["reports"] += 1
    counts["recognised"] += rep["setting"] is not None
    counts["nontrivial"] += Fraction(rep["bw_lower"]) > rep["rate_upper"]


# -- sweep-2of4 -------------------------------------------------------------------

# The eight key subsets of acceptance criterion 7 (qualified pair {1, 2}).
_EIGHT = ((1,), (2,), (1, 3), (1, 4), (2, 3), (2, 4), (1, 2, 3), (1, 2, 4))


def _sweep_make(rng, slot):
    sizes = {s: rng.randint(0, 6) for s in _EIGHT}
    obj = _config_obj(4, (1, 2), sizes)
    rep = reference.bounds_report(obj)
    return "2of4", obj, {"report": rep, "rate": rep["C"], "bandwidth": rep["beta_star"]}, None


def _sweep_run(obj):
    config = cli.config_from_obj(obj)
    report = cli.bounds_report_obj(config)
    built = synth.synthesize(config)
    return report, built, scheme.verify(built)


def _sweep_check(inst, out):
    bad = _raised_check(inst, out)
    if bad is not None:
        return bad
    report, built, verdict = out
    bad = []
    if report != inst.expect["report"]:
        bad.append(f"report {report} != {inst.expect['report']}")
    if built.rate != inst.expect["rate"] or built.bandwidth != inst.expect["bandwidth"]:
        bad.append(f"rate/bandwidth {built.rate}/{built.bandwidth} != "
                   f"{inst.expect['rate']}/{inst.expect['bandwidth']}")
    if not verdict.ok:
        bad.append("verify rejected the built scheme")
    return bad


def _sweep_canonical(inst, out):
    if isinstance(out, Raised):
        return {"raised": out.type}
    report, built, verdict = out
    return {"report": report, "scheme": _json(cli.scheme_to_obj(built)),
            "verify": _json([verdict.correct, verdict.leakage])}


def _sweep_compose(inst, out, counts):
    if isinstance(out, Raised):
        return
    report, built, _ = out
    _compose_report(report, counts)
    counts[f"case {built.meta.get('case')}"] += 1


# -- bounds-wide --------------------------------------------------------------------

# (K, keys, how key subsets pick qualified members) per slot, plus two
# recognised large-K shapes.  "private" keys mostly reach one qualified
# receiver, so a larger group beats the rate in the bandwidth converse
# (bw_lower > rate_upper).  "shared" keys reach all qualified receivers or
# none, the one structure where the converse stays at the rate; it admits
# at most 2^(K-N+1) - 1 distinct subsets.  bw_converse costs about
# (K-N) 2^N (N+1) keys steps, so the key counts keep every slot near the
# same cost and the median instance is not a boundary between slot types.
_WIDE_SLOTS = (
    ("random", 13, 600, "private"), ("random", 15, 300, "shared"),
    ("random", 14, 300, "private"), ("one-eavesdropper", 12, 80, None),
    ("random", 15, 300, "private"), ("random", 14, 250, "shared"),
    ("random", 13, 600, "private"), ("symmetric", 12, None, None),
)


def _wide_random(rng, K, nkeys, style):
    N = K // 2
    qualified = rng.sample(range(1, K + 1), N)
    eaves = [k for k in range(1, K + 1) if k not in qualified]
    keys = {}
    while len(keys) < nkeys:
        if style == "private":
            j = rng.choices((0, 1, 2), weights=(1, 8, 1))[0]
            m = rng.randint(0, len(eaves))
        else:
            j = N if rng.random() < 0.7 else 0
            m = rng.randint(0, len(eaves))
        if j + m == 0:
            continue
        subset = frozenset(rng.sample(qualified, j) + rng.sample(eaves, m))
        keys.setdefault(subset, rng.randint(1, 3))
    return qualified, keys


def _wide_make(rng, slot):
    kind, K, nkeys, style = _WIDE_SLOTS[slot]
    if kind == "random":
        qualified, keys = _wide_random(rng, K, nkeys, style)
        kind = f"random-{style}"
    elif kind == "one-eavesdropper":
        e = rng.randint(1, K)
        qualified = [k for k in range(1, K + 1) if k != e]
        keys = {}
        while len(keys) < nkeys:
            subset = frozenset(rng.sample(range(1, K + 1), rng.randint(1, 4)))
            keys.setdefault(subset, rng.randint(1, 3))
    else:
        qualified = rng.sample(range(1, K + 1), K // 2)
        keys = {}
        for u in (1, 2, 3, 4):
            size = rng.randint(1, 3)
            keys.update({frozenset(c): size for c in combinations(range(1, K + 1), u)})
    obj = _config_obj(K, qualified, keys)
    return kind, obj, {"report": reference.bounds_report(obj)}, None


def _wide_run(obj):
    return cli.bounds_report_obj(cli.config_from_obj(obj))


def _wide_check(inst, out):
    bad = _raised_check(inst, out)
    if bad is not None:
        return bad
    return [] if out == inst.expect["report"] else [f"report {out} != {inst.expect['report']}"]


def _wide_canonical(inst, out):
    return {"raised": out.type} if isinstance(out, Raised) else out


def _wide_compose(inst, out, counts):
    counts[inst.kind] += 1
    if not isinstance(out, Raised):
        _compose_report(out, counts)


# -- synth-gfp ----------------------------------------------------------------------

# (builder family, K, key-count or (N, key cardinality) parameters) per
# slot.  What sets the cost is fixed per slot: the unicast receiver's key
# count, the one-eavesdropper useful key count, the symmetric (K, N, key
# cardinality), and the symbol totals.  The builders pick p from the sizes.
# Four slots of about the same cost sit in the middle of the cost order,
# so the median instance falls inside that cluster.
_SYNTH_SLOTS = (
    ("unicast", 8, (40, 20)), ("one-eavesdropper", 8, (16, 8)), ("symmetric", 7, (3, 2)),
    ("unicast", 9, (60, 70)), ("unicast", 8, (40, 30)), ("symmetric", 8, (4, 2)),
    ("unicast", 10, (80, 120)), ("one-eavesdropper", 10, (28, 12)), ("symmetric", 9, (4, 1)),
    ("symmetric", 10, (5, 2)),
)


def _keys_around(rng, K, hub, inside, outside):
    """`inside` keys that contain receiver `hub` and `outside` keys that do
    not, on random subsets, sized 1 and 2 alternately so that the symbol
    totals are fixed."""
    others = [k for k in range(1, K + 1) if k != hub]
    keys = {}
    while len(keys) < inside + outside:
        if len(keys) < inside:
            subset = frozenset([hub] + rng.sample(others, rng.randint(0, K - 2)))
        else:
            subset = frozenset(rng.sample(others, rng.randint(1, K - 2)))
        if subset not in keys:
            keys[subset] = 1 + len(keys) % 2
    return keys


def _synth_make(rng, slot):
    kind, K, (a, b) = _SYNTH_SLOTS[slot]
    if kind == "unicast":
        q = rng.randint(1, K)
        qualified = [q]
        keys = _keys_around(rng, K, q, a, b)
    elif kind == "one-eavesdropper":
        e = rng.randint(1, K)
        qualified = [k for k in range(1, K + 1) if k != e]
        # keys around e are the ones it knows; the rest carry the message
        keys = _keys_around(rng, K, e, b, a)
    else:
        qualified = rng.sample(range(1, K + 1), a)
        keys = {frozenset(c): 1 for c in combinations(range(1, K + 1), b)}
    obj = _config_obj(K, qualified, keys)
    rep = reference.bounds_report(obj)
    return kind, obj, {"rate": rep["C"], "bandwidth": rep["beta_star"]}, None


def _json_round_trip(obj):
    """The scheme file `sgc synth` writes and `sgc verify` reads back."""
    text = json.dumps(obj, indent=2)
    return text, json.loads(text)


def _synth_run(obj):
    built = synth.synthesize(cli.config_from_obj(obj))
    text, loaded = _json_round_trip(cli.scheme_to_obj(built))
    back = cli.scheme_from_obj(loaded)
    return built, back, text, scheme.verify(back)


def _synth_check(inst, out):
    bad = _raised_check(inst, out)
    if bad is not None:
        return bad
    built, back, _, verdict = out
    bad = []
    if built.rate != Fraction(inst.expect["rate"]):
        bad.append(f"rate {built.rate} != C = {inst.expect['rate']}")
    bw = inst.expect["bandwidth"]
    if bw != "unknown" and built.bandwidth != Fraction(bw):
        bad.append(f"bandwidth {built.bandwidth} != beta* = {bw}")
    if back != built:
        bad.append("scheme changed in the JSON round trip")
    if not verdict.ok:
        bad.append("verify rejected the read-back scheme")
    return bad


def _synth_canonical(inst, out):
    if isinstance(out, Raised):
        return {"raised": out.type}
    _, _, text, verdict = out
    return {"scheme": json.loads(text), "verify": _json([verdict.correct, verdict.leakage])}


def _synth_compose(inst, out, counts):
    counts[inst.kind] += 1
    if not isinstance(out, Raised):
        built = out[0]
        counts[f"builder {built.meta.get('builder')}"] += 1
        counts[f"escalations {built.meta.get('escalations')}"] += 1
        counts[f"p {built.p}"] += 1


# -- verify-oracle --------------------------------------------------------------------

_LARGE_P = 1099511627791   # a prime with p^2 > 2^63

# (kind, field, log_p of the oracle's state count) per slot.  The three
# 2^20-state slots are the heaviest requests and cost about the same, so
# the tail percentile falls inside one cluster rather than on a boundary.
# The four GF(5) slots sit in the middle of the cost order (positions 6-9
# of 14), so the median instance is the middle of several GF(5) draws
# rather than whichever single slot the seed happens to make cheaper.
_ORACLE_SLOTS = (
    ("synth-2of4", 2, 17), ("random", 5, 8), ("random", 3, 11), ("large-p-leak", _LARGE_P, 0),
    ("aligned-2of5", 2, 20), ("random", 5, 8), ("random", 3, 12), ("over-cap", 3, 15),
    ("synth-2of4", 2, 20), ("random", 5, 8), ("entry-overflow", 3, 0), ("random", 7, 7),
    ("synth-2of4", 2, 20), ("random", 5, 8),
)


def _used_columns(obj) -> int:
    p = obj["p"]
    return sum(1 for j in range(len(obj["B"][0]) if obj["B"] else 0)
               if any(row[j] % p for row in obj["B"]))


def _synth_2of4_obj(rng, m):
    """A synthesized 2-of-4 scheme with exactly 2^m oracle states."""
    while True:
        sizes = {s: rng.randint(0, 4) for s in _EIGHT}
        built = synth.synthesize(cli.config_from_obj(_config_obj(4, (1, 2), sizes)))
        obj = cli.scheme_to_obj(built)
        if built.L_W and built.L_W + _used_columns(obj) == m:
            return obj


def _random_scheme_obj(rng, p, m):
    """A random GF(p) scheme: 2 of 4 receivers qualified, a 2-symbol
    message, every key column used.

    Key segments mostly reach every qualified receiver plus a random half
    of the eavesdroppers, so roughly half the draws are secure and
    decodable and the rest leak or cannot be decoded.
    """
    K, lw = 4, 2
    qualified = sorted(rng.sample(range(1, K + 1), 2))
    eaves = [k for k in range(1, K + 1) if k not in qualified]
    layout, left = [], m - lw
    while left:
        width = min(left, rng.randint(1, 3))
        subset = {q for q in qualified if rng.random() < 0.97}
        subset |= {e for e in eaves if rng.random() < 0.4}
        if subset:
            layout.append({"subset": sorted(subset), "width": width})
            left -= width
    d = m - lw
    lx = rng.randint(lw, lw + 1)
    a = [[rng.randrange(p) for _ in range(lw)] for _ in range(lx)]
    b = [[rng.randrange(p) for _ in range(d)] for _ in range(lx)]
    for j in range(d):
        if not any(row[j] for row in b):
            b[rng.randrange(lx)][j] = rng.randrange(1, p)
    return {"p": p, "L": 1, "Lw": lw, "Lx": lx, "K": K, "qualified": qualified,
            "layout": layout, "A": a, "B": b, "meta": {}}


def _oracle_make(rng, slot):
    kind, p, m = _ORACLE_SLOTS[slot]
    defect = None
    if kind == "synth-2of4":
        obj = _synth_2of4_obj(rng, m)
    elif kind == "aligned-2of5":
        obj = cli.scheme_to_obj(synth.instance_2of5(1))
    elif kind in ("random", "over-cap"):
        obj = _random_scheme_obj(rng, p, m)
    elif kind == "large-p-leak":
        # X = [W + a s1 + c a s2 ; b s1 + c b s2]: B's columns are proportional,
        # so the empty-handed receiver 2 recovers W.  int64 elimination
        # overflows at this p and calls the scheme secure.
        defect = "large-p int64 overflow accepts a leaking scheme"
        a_, b_, c_ = (rng.randrange(1, p) for _ in range(3))
        obj = {"p": p, "L": 1, "Lw": 1, "Lx": 2, "K": 2, "qualified": [1],
               "layout": [{"subset": [1], "width": 2}], "A": [[1], [0]],
               "B": [[a_, c_ * a_ % p], [b_, c_ * b_ % p]], "meta": {}}
    else:
        # An entry >= 2^63 must be refused as a parse error (exit code 2).
        defect = "entry >= 2^63 raises OverflowError, not the parse error"
        obj = {"p": p, "L": 1, "Lw": 1, "Lx": 1, "K": 2, "qualified": [1],
               "layout": [{"subset": [1], "width": 1}],
               "A": [[(1 << 63) + rng.randrange(1 << 20)]], "B": [[1]], "meta": {}}
        return kind, obj, {"error": "ConfigError"}, defect
    correct, leakage = reference.scheme_verdict(obj)
    ok = all(correct.values()) and not any(leakage.values())
    states = p ** (obj["Lw"] + _used_columns(obj))
    expect = {"correct": correct, "leakage_symbols": leakage, "ok": ok, "p": p,
              "states": states if states <= scheme.DEFAULT_ORACLE_CAP else None}
    return kind, obj, expect, defect


def _oracle_run(obj):
    return cli.verify_report_obj(cli.scheme_from_obj(obj), want_oracle=True)


def _oracle_check(inst, out):
    bad = _raised_check(inst, out)
    if bad is not None:
        return bad
    rep, ok = out
    exp = inst.expect
    bad = [f"{key} {rep[key]} != {exp[key]}"
           for key in ("correct", "leakage_symbols", "ok") if rep[key] != exp[key]]
    if ok != exp["ok"]:
        bad.append(f"verdict {ok} != {exp['ok']}")
    orc = rep["oracle"]
    if exp["states"] is None:
        if "skipped" not in orc:
            bad.append("oracle ran over its state cap")
        return bad
    if orc.get("states") != exp["states"]:
        return bad + [f"oracle states {orc.get('states')} != {exp['states']}"]
    if orc["correct"] != exp["correct"] or orc["ok"] != exp["ok"]:
        bad.append(f"oracle verdict {orc['correct']}/{orc['ok']} disagrees")
    bits = math.log2(exp["p"])
    for e, leak in exp["leakage_symbols"].items():
        if abs(orc["leakage_bits"][e] - leak * bits) > 1e-9:
            bad.append(f"oracle leakage {orc['leakage_bits'][e]} bits != {leak} symbols")
    for k, good in exp["correct"].items():
        if orc["decode_success"][k] != (1.0 if good else 0.0):
            bad.append(f"decode success {orc['decode_success'][k]} for receiver {k}")
    return bad


def _oracle_shows_defect(inst, out):
    if inst.kind == "large-p-leak":
        return not isinstance(out, Raised) and out[0]["ok"] is True
    if inst.kind == "entry-overflow":
        return isinstance(out, Raised) and out.type == "OverflowError"
    return False


def _round_floats(x):
    if isinstance(x, float):
        return round(x, 9) + 0.0
    if isinstance(x, dict):
        return {k: _round_floats(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_round_floats(v) for v in x]
    return x


def _oracle_canonical(inst, out):
    if isinstance(out, Raised):
        return {"raised": out.type}
    return _round_floats({"report": out[0], "ok": out[1]})


def _oracle_compose(inst, out, counts):
    counts[inst.kind] += 1
    exp = inst.expect
    counts["leaking"] += any(exp.get("leakage_symbols", {}).values())
    counts["undecodable"] += not all(exp.get("correct", {}).values())
    counts["p2"] += exp.get("p") == 2
    counts["refused"] += "states" in exp and exp["states"] is None


WORKLOADS = {w.name: w for w in (
    Workload(
        name="sweep-2of4",
        why="acceptance criterion 7: thousands of ~1 ms GF(2) 2-of-4 instances; "
            "bypasses GF(p) elimination and the oracle",
        cycle=1, window=500, pool_cycles=2048, prefix=400, tail_pct=95.0,
        make=_sweep_make, run=_sweep_run, check=_sweep_check,
        canonical=_sweep_canonical, compose=_sweep_compose,
        predicted=("synth.synthesize", "keyspace.normalize_labels",
                   "keyspace.canonical_relabel", "keyspace.KeyConfig.relabeled",
                   "keyspace.entropy_of", "fmatrix.prefix_ranks.gf2"),
        bypass=("fmatrix.prefix_ranks.gfp", "scheme.oracle_verify",
                "scheme.group_stats", "fmatrix.cauchy")),
    Workload(
        name="bounds-wide",
        why="sgc bounds at K=12..15 with 80 to ~800 keys: bw_converse and "
            "entropy_of hold the time; no synth, matrix or oracle code runs",
        cycle=len(_WIDE_SLOTS), window=len(_WIDE_SLOTS), pool_cycles=6, prefix=len(_WIDE_SLOTS), tail_pct=80.0,
        make=_wide_make, run=_wide_run, check=_wide_check,
        canonical=_wide_canonical, compose=_wide_compose,
        predicted=("bounds.bw_converse",),
        bypass=("fmatrix.prefix_ranks.gf2", "fmatrix.prefix_ranks.gfp", "fmatrix.cauchy",
                "synth.synthesize", "scheme.verify", "scheme.oracle_verify")),
    Workload(
        name="synth-gfp",
        why="sgc synth then sgc verify over GF(p), p from 5 to ~180: generic GF(p) "
            "elimination, Cauchy draws and scheme JSON; no GF(2) kernel or oracle",
        cycle=len(_SYNTH_SLOTS), window=4 * len(_SYNTH_SLOTS), pool_cycles=40, prefix=len(_SYNTH_SLOTS), tail_pct=98.0,
        make=_synth_make, run=_synth_run, check=_synth_check,
        canonical=_synth_canonical, compose=_synth_compose,
        predicted=("fmatrix.prefix_ranks.gfp",),
        bypass=("fmatrix.prefix_ranks.gf2", "bounds.bw_converse",
                "scheme.oracle_verify", "scheme.group_stats")),
    Workload(
        name="verify-oracle",
        why="sgc verify --oracle on 2^17-2^20-state schemes that accept and "
            "reject, plus over-cap and two known-defect inputs",
        cycle=len(_ORACLE_SLOTS), window=len(_ORACLE_SLOTS), pool_cycles=6, prefix=len(_ORACLE_SLOTS), tail_pct=80.0,
        make=_oracle_make, run=_oracle_run, check=_oracle_check,
        canonical=_oracle_canonical, compose=_oracle_compose,
        predicted=("scheme.oracle_verify",),
        bypass=("bounds.bw_converse", "keyspace.entropy_of", "fmatrix.cauchy",
                "synth.synthesize"),
        shows_defect=_oracle_shows_defect, calibration="numpy"),
)}
