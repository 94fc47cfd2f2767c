"""Layer spans for the traced run, recorded from outside the package.

The traced run wraps public functions of every layer and rebinds each
name wherever callers look it up: modules import these names directly
(``from ..fmatrix import prefix_ranks``), so patching one module is not
enough.  The timed run installs nothing.

Each span records its name, start, end, parent span and instance id.
Self time is a span's duration minus the time its child spans cover.
Spans of the first traced pass stay in memory and are written out when
the run ends; later passes only add to the per-name totals.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

from securegroupcast import bounds, cli, fmatrix, gf, keyspace, scheme, synth

import workloads

BUILDERS = ("unicast", "multicast", "multicast_k4_bw", "groupcast_2of4",
            "instance_2of5", "symmetric")


class Tracer:
    def __init__(self, covered: tuple[str, ...]):
        self.covered = frozenset(covered)   # names whose union of spans is timed
        self.covered_s = 0.0
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.spans: list[tuple] = []
        self.recording = False
        self.instance: int | None = None
        self._stack: list[list] = []        # [span id, name, child seconds]
        self._next_id = 0
        self._restore: list[tuple] = []

    # -- spans ------------------------------------------------------------------

    def span(self, name, fn, classify=None, on_result=None, on_error=None):
        """fn wrapped in a span; classify(args) may refine the name."""
        tracer = self

        def wrapper(*args, **kwargs):
            label = classify(args) if classify else name
            frame = [tracer._next_id, label, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error:
                    on_error(tracer.counts, exc)
                raise
            finally:
                t1 = time.perf_counter()
                tracer._stack.pop()
                tracer._close(frame, t0, t1)
            if on_result:
                on_result(tracer.counts, args, result)
            return result

        return wrapper

    def counter(self, name, fn):
        """fn wrapped so that each call adds one to counts[name]; no span."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _close(self, frame, t0, t1):
        span_id, label, child_s = frame
        dur = t1 - t0
        self.calls[label] += 1
        self.self_s[label] += dur - child_s
        self.incl_s[label] += dur
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[2] += dur
        if label in self.covered and not any(f[1] in self.covered for f in self._stack):
            self.covered_s += dur
        if self.recording:
            self.spans.append((span_id, label, t0, t1,
                               parent[0] if parent else None, self.instance))

    # -- installing wrappers ------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if n == "securegroupcast" or n.startswith("securegroupcast.")]
        modules.append(workloads)
        for owner, attr, wrapper in self._targets():
            original = getattr(owner, attr)
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                self._restore.append((owner, attr, original))
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def _targets(self):
        def count(key, value_of):
            def add(counts, args, result):
                counts[key] += value_of(args, result)
            return add

        def gfp_cells(counts, args, result):
            m = args[0]
            if m.field.p != 2:
                counts["fmatrix.prefix_ranks.gfp.cells"] += m.rows * m.cols

        def built(counts, args, result):
            esc = result.meta.get("escalations", 0)
            counts["synth.build_verified.attempts"] += esc + 1
            counts["synth.escalations"] += esc

        def refused(counts, exc):
            if isinstance(exc, scheme.TooLargeError):
                counts["scheme.oracle_verify.refused"] += 1

        def json_bytes(counts, args, result):
            counts["cli.json_bytes"] += len(result[0].encode())

        def groups(args, result):
            config = args[0]
            return (config.K - config.N) * ((1 << config.N) - 1)

        s = self.span
        yield fmatrix, "prefix_ranks", s(
            None, fmatrix.prefix_ranks, on_result=gfp_cells,
            classify=lambda a: ("fmatrix.prefix_ranks.gf2" if a[0].field.p == 2
                                else "fmatrix.prefix_ranks.gfp"))
        for name in ("rref", "solve_right", "cauchy"):
            yield fmatrix, name, s(f"fmatrix.{name}", getattr(fmatrix, name))
        yield gf, "least_prime_at_least", s("gf.least_prime_at_least", gf.least_prime_at_least)
        for name in ("entropy_of", "normalize_labels", "canonical_relabel"):
            yield keyspace, name, s(f"keyspace.{name}", getattr(keyspace, name))
        yield keyspace.KeyConfig, "relabeled", s("keyspace.KeyConfig.relabeled",
                                                 keyspace.KeyConfig.relabeled)
        for name in ("report", "rate_converse", "exact_capacity"):
            yield bounds, name, s(f"bounds.{name}", getattr(bounds, name))
        yield bounds, "bw_converse", s("bounds.bw_converse", bounds.bw_converse,
                                       on_result=count("bounds.bw_converse.groups", groups))
        yield synth, "synthesize", s("synth.synthesize", synth.synthesize)
        yield synth, "build_verified", s("synth.build_verified", synth.build_verified,
                                         on_result=built)
        for name in BUILDERS:
            yield synth, name, s(f"synth.builder.{name}", getattr(synth, name))
        yield scheme, "verify", s("scheme.verify", scheme.verify)
        for name in ("verify_correctness", "verify_security"):
            yield scheme, name, self.counter("scheme.verify.receivers", getattr(scheme, name))
        yield scheme, "decoder_for", s("scheme.decoder_for", scheme.decoder_for)
        yield scheme, "oracle_verify", s(
            "scheme.oracle_verify", scheme.oracle_verify, on_error=refused,
            on_result=count("scheme.oracle_verify.states", lambda a, r: r.states))
        yield scheme, "group_stats", s("scheme.group_stats", scheme.group_stats)
        for name in ("config_from_obj", "scheme_to_obj", "scheme_from_obj",
                     "bounds_report_obj", "verify_report_obj"):
            yield cli, name, s(f"cli.{name}", getattr(cli, name))
        yield workloads, "_json_round_trip", s("cli.json", workloads._json_round_trip,
                                               on_result=json_bytes)


LAYER_SPANS = (
    "fmatrix.prefix_ranks.gf2", "fmatrix.prefix_ranks.gfp", "fmatrix.rref",
    "fmatrix.solve_right", "fmatrix.cauchy", "gf.least_prime_at_least",
    "keyspace.entropy_of", "keyspace.normalize_labels", "keyspace.canonical_relabel",
    "keyspace.KeyConfig.relabeled", "bounds.report", "bounds.rate_converse",
    "bounds.exact_capacity", "bounds.bw_converse", "synth.synthesize", "scheme.verify",
    "scheme.decoder_for", "scheme.oracle_verify", "scheme.group_stats",
    "cli.config_from_obj", "cli.scheme_to_obj", "cli.scheme_from_obj", "cli.json",
)
CALL_COUNTS = (
    "fmatrix.prefix_ranks.gf2", "fmatrix.prefix_ranks.gfp", "fmatrix.rref", "fmatrix.cauchy",
    "gf.least_prime_at_least", "keyspace.entropy_of", "scheme.verify", "scheme.decoder_for",
    "scheme.oracle_verify", "scheme.group_stats",
)
WORK_COUNTS = (
    "fmatrix.prefix_ranks.gfp.cells", "bounds.bw_converse.groups",
    "synth.build_verified.attempts", "synth.escalations", "scheme.verify.receivers",
    "scheme.oracle_verify.states", "scheme.oracle_verify.refused", "cli.json_bytes",
)


def layer_metrics(tracer, wl, passes: int, comp: dict, rates: tuple[float, float]) -> dict:
    """Per-layer metrics: calls and work counts per pass of the prefix,
    and each span's self time as a share of the traced instance time."""
    total = tracer.incl_s["bench.instance"]
    out = {}
    for name in CALL_COUNTS:
        out[f"{name}.calls"] = (tracer.calls[name] / passes, "count")
    for name in BUILDERS:
        out[f"synth.builder.{name}.calls"] = (tracer.calls[f"synth.builder.{name}"] / passes,
                                              "count")
    for name in WORK_COUNTS:
        out[name] = (tracer.counts[name] / passes, "count")
    for name in LAYER_SPANS:
        out[f"{name}.self_share"] = (tracer.self_s[name] / total, "1")
    oracle_s = tracer.incl_s["scheme.oracle_verify"]
    out["scheme.oracle_verify.states_per_s"] = (
        tracer.counts["scheme.oracle_verify.states"] / oracle_s if oracle_s else 0.0, "1/s")
    reports = comp.get("reports", 0)
    out["bounds.nontrivial_share"] = (comp.get("nontrivial", 0) / reports if reports else 0.0, "1")
    out["bounds.recognised_share"] = (comp.get("recognised", 0) / reports if reports else 0.0, "1")
    for key in ("leaking", "undecodable", "p2", "refused"):
        out[f"workload.{key}_share"] = (comp.get(key, 0) / wl.prefix, "1")
    untraced, traced = rates
    out["trace.overhead"] = (1 - traced / untraced, "1")
    out["trace.pass_s"] = (total / passes, "s")
    out["trace.unattributed_share"] = (tracer.self_s["bench.instance"] / total, "1")
    out["dominant.predicted_share"] = (tracer.covered_s / total, "1")
    out["bypass.calls"] = (sum(tracer.calls[n] for n in wl.bypass) / passes, "count")
    return out
