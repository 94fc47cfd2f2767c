"""Command-line front end and the JSON file formats.

Commands:
    sgc bounds <config.json>                  rate/bandwidth bounds report
    sgc synth  <config.json> -o <scheme.json> build + verify a scheme
    sgc verify <scheme.json> [--oracle]       re-verify a scheme file
    sgc demo   <name>                         canned instances end to end

Exit codes: 0 success, 2 parse/validation failure, 3 unsolved setting,
4 internal verification failure (builder bug), 5 verification rejection.
The environment variable SGC_ORACLE_CAP (a power of two) overrides the
exhaustive oracle's state cap.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import chain
from typing import Any

import numpy as np

from . import bounds as bounds_mod
from . import synth as synth_mod
from .fmatrix import FMatrix
from .gf import Field
from .keyspace import MAX_RECEIVERS, KeyConfig, set_of
from .scheme import (LinearScheme, TooLargeError, oracle_cap, oracle_verify, simulate,
                     verify)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_UNSOLVED = 3
EXIT_INTERNAL = 4
EXIT_REJECTED = 5


class ConfigError(ValueError):
    """A config or scheme file failed to parse or validate, or a file could
    not be read or written."""


# -- numbers and JSON ------------------------------------------------------

def number_to_json(x) -> Any:
    """Integers stay integers; non-integral rationals become 'a/b' strings."""
    if isinstance(x, Fraction):
        return int(x) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"
    return x


def _load_json(path: str) -> Any:
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"{path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    except ValueError as exc:   # json.load's one other ValueError: int()'s digit limit
        raise ConfigError(f"{path}: an integer literal is longer than "
                          f"{sys.get_int_max_str_digits()} digits, the longest sgc reads") from exc


# -- config files ----------------------------------------------------------

def _receivers_mask(receivers: Any, K: int) -> int:
    """Bitmask of a list of receiver labels, each an integer in [1..K]."""
    if type(receivers) is not list and type(receivers) is not tuple:
        raise ConfigError(f"expected a list of receivers in [1..{K}], got {receivers!r}")
    m = 0
    for k in receivers:
        if type(k) is not int or not 0 < k <= K:
            raise ConfigError(f"receiver {k!r} is not an integer in [1..{K}]")
        m |= 1 << (k - 1)
    return m


def _receiver_count(k: Any) -> int:
    if type(k) is not int or not 1 <= k <= MAX_RECEIVERS:
        raise ConfigError(f"'K' must be an integer in [1, {MAX_RECEIVERS}], got {k!r}")
    return k


def config_from_obj(obj: Any) -> KeyConfig:
    if not isinstance(obj, dict):
        raise ConfigError("config must be a JSON object")
    try:
        k = _receiver_count(obj["K"])
        qualified = obj["qualified"]
        keys = obj["keys"]
    except KeyError as exc:
        raise ConfigError(f"config missing field {exc.args[0]!r}") from exc
    if not isinstance(keys, list):
        raise ConfigError("'keys' must be a list of {subset, symbols} objects")
    try:
        qualified_mask = _receivers_mask(qualified, k)
    except ConfigError as exc:
        raise ConfigError(f"'qualified': {exc}") from None
    sizes = []
    for i, entry in enumerate(keys):
        try:
            subset = entry["subset"]
            symbols = entry["symbols"]
        except (TypeError, KeyError) as exc:
            raise ConfigError(f"keys[{i}] needs 'subset' and 'symbols'") from exc
        try:
            sizes.append((_receivers_mask(subset, k), symbols))
        except ConfigError as exc:
            raise ConfigError(f"keys[{i}].subset: {exc}") from None
    try:
        return KeyConfig.from_masks(k, qualified_mask, sizes)
    except ValueError as exc:
        raise ConfigError(f"invalid config: {exc}") from None


def config_to_obj(config: KeyConfig) -> dict:
    return {
        "K": config.K,
        "qualified": sorted(config.qualified),
        "keys": [{"subset": sorted(set_of(m)), "symbols": size}
                 for m, size in config.keys.items()],
    }


def load_config(path: str) -> KeyConfig:
    return config_from_obj(_load_json(path))


# -- scheme files ------------------------------------------------------------

def scheme_to_obj(scheme: LinearScheme) -> dict:
    if len(scheme.messages) > 1:
        raise ValueError("scheme files hold single-message schemes only")
    return {
        "p": scheme.p,
        "L": scheme.L,
        "Lw": scheme.L_W,
        "Lx": scheme.L_X,
        "K": scheme.K,
        "qualified": sorted(scheme.qualified),
        "layout": [{"subset": sorted(subset), "width": width}
                   for subset, width in scheme.layout],
        "A": scheme.A.tolist(),
        "B": scheme.B.tolist(),
        "meta": {k: v for k, v in scheme.meta.items()},
    }


def _receiver_set(receivers: Any, K: int) -> frozenset[int]:
    _receivers_mask(receivers, K)   # the labels are checked there
    return frozenset(receivers)


def _int_field(obj: dict, name: str) -> int:
    value = obj[name]
    if type(value) is not int:
        raise ConfigError(f"{name!r} must be an integer, got {value!r}")
    return value


def _matrix(field: Field, rows: Any, name: str, cols: int) -> FMatrix:
    """A list of rows of JSON integers; `[]` is a matrix with no rows and
    `cols` columns."""
    a = np.asarray(rows)
    if a.dtype.kind != "i" and a.size:   # [[], ...] comes out float64
        raise ConfigError(f"invalid scheme: {name!r} must hold integers in "
                          f"[-2^63, 2^63), got {a.dtype} entries")
    # numpy reads a bool among integers as an integer
    if a.ndim == 2 and bool in set(map(type, chain.from_iterable(rows))):
        raise ConfigError(f"invalid scheme: {name!r} must hold integers, got a boolean entry")
    return FMatrix(field, a.reshape(0, cols) if a.shape == (0,) else a)


def scheme_from_obj(obj: Any) -> LinearScheme:
    if not isinstance(obj, dict):
        raise ConfigError("scheme must be a JSON object")
    try:
        k = _receiver_count(obj["K"])
        field = Field(obj["p"])
        layout = tuple((_receiver_set(seg["subset"], k), _int_field(seg, "width"))
                       for seg in obj["layout"])
        lw, lx = _int_field(obj, "Lw"), _int_field(obj, "Lx")
        width = sum(w for _, w in layout)
        synth_mod.check_cells((lx, lw), (lx, width))
        scheme = LinearScheme(
            field=field, L=_int_field(obj, "L"), K=k,
            qualified=_receiver_set(obj["qualified"], k), layout=layout,
            A=_matrix(field, obj["A"], "A", lw), B=_matrix(field, obj["B"], "B", width),
            meta=dict(obj.get("meta", {})))
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"scheme missing field {exc.args[0]!r}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"invalid scheme: {exc}") from exc
    if scheme.L_W != lw or scheme.L_X != lx:
        raise ConfigError(f"scheme dims (Lw={scheme.L_W}, Lx={scheme.L_X}) "
                          f"disagree with declared ({lw}, {lx})")
    return scheme


def load_scheme(path: str) -> LinearScheme:
    return scheme_from_obj(_load_json(path))


# -- commands -----------------------------------------------------------------

def bounds_report_obj(config: KeyConfig) -> dict:
    rep = bounds_mod.report(config)
    out = {
        "K": config.K,
        "N": config.N,
        "rate_upper": rep.rate_upper,
        "bw_lower": number_to_json(rep.bw_lower),
        "bw_heuristic": False,   # bw_converse is exact
        "gap": rep.gap,
    }
    if rep.exact is not None:
        out["setting"] = rep.exact.setting
        out["C"] = number_to_json(rep.exact.C)
        out["beta_star"] = (number_to_json(rep.exact.beta_star)
                            if rep.exact.beta_star is not None else "unknown")
    else:
        out["setting"] = None
        out["C"] = None
        out["beta_star"] = None
    return out


def cmd_bounds(args) -> int:
    config = load_config(args.config)
    print(json.dumps(bounds_report_obj(config), indent=2))
    return EXIT_OK


def cmd_synth(args) -> int:
    config = load_config(args.config)
    try:
        scheme = synth_mod.synthesize(config, seed=args.seed)
    except synth_mod.UnsolvedSettingError as exc:
        print(f"unsolved: {exc}", file=sys.stderr)
        return EXIT_UNSOLVED
    except synth_mod.MatrixTooLargeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except synth_mod.SynthesisError as exc:
        print(f"internal verification failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    try:
        with open(args.out, "w") as fh:
            json.dump(scheme_to_obj(scheme), fh, indent=2)
            fh.write("\n")
    except OSError as exc:
        raise ConfigError(f"{args.out}: {exc.strerror or exc}") from exc
    print(json.dumps({
        "out": args.out,
        "builder": scheme.meta.get("builder"),
        "p": scheme.p,
        "L": scheme.L,
        "Lw": scheme.L_W,
        "Lx": scheme.L_X,
        "rate": number_to_json(scheme.rate),
        "bandwidth": number_to_json(scheme.bandwidth),
    }, indent=2))
    return EXIT_OK


def _oracle_cap() -> int:
    """The oracle cap from SGC_ORACLE_CAP; a malformed value is a ConfigError."""
    try:
        return oracle_cap()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def verify_report_obj(scheme: LinearScheme, want_oracle: bool) -> tuple[dict, bool]:
    rep = verify(scheme)
    out = {
        "correct": {str(k): v for k, v in rep.correct.items()},
        "leakage_symbols": {str(e): v for e, v in rep.leakage.items()},
        "ok": rep.ok,
        "oracle": None,
    }
    if want_oracle:
        cap = _oracle_cap()
        try:
            orep = oracle_verify(scheme, cap)
            out["oracle"] = {
                "states": orep.states,
                "correct": {str(k): v for k, v in orep.correct.items()},
                "decode_success": {str(k): v for k, v in orep.decode_success.items()},
                "leakage_bits": {str(e): v for e, v in orep.leakage_bits.items()},
                "ok": orep.ok,
            }
            return out, rep.ok and orep.ok
        except TooLargeError as exc:
            out["oracle"] = {"skipped": str(exc)}
            print(f"warning: oracle skipped ({exc}); algebraic result is "
                  f"authoritative", file=sys.stderr)
    return out, rep.ok


def cmd_verify(args) -> int:
    scheme = load_scheme(args.scheme)
    out, ok = verify_report_obj(scheme, args.oracle)
    print(json.dumps(out, indent=2))
    return EXIT_OK if ok else EXIT_REJECTED


# -- demos ----------------------------------------------------------------------

def demo_configs() -> dict[str, KeyConfig]:
    return {
        "ex1": KeyConfig.of(4, [1], {(1, 2): 4, (1, 3): 2, (1, 4): 1, (1, 3, 4): 3}),
        "ex2": KeyConfig.of(4, [1, 2, 3], {(1,): 1, (1, 3): 2, (2, 3): 3}),
        "ex3": KeyConfig.of(4, [1, 2], {(1,): 1, (2,): 2, (1, 3): 2, (1, 4): 3,
                                        (2, 3): 1, (2, 4): 2, (1, 2, 3): 2,
                                        (1, 2, 4): 1}),
        "ex4": KeyConfig.of(6, [1, 2, 3],
                            {subset: 1 for subset in _all_subsets(6, 3)}),
        "fig4": KeyConfig.of(5, [1, 2], {(1,): 1, (1, 2, 3): 1, (1, 4, 5): 1,
                                         (2, 4): 1, (2, 5): 1}),
    }


def _all_subsets(k: int, size: int):
    from itertools import combinations
    return list(combinations(range(1, k + 1), size))


def _demo_instance(name: str, config: KeyConfig) -> int:
    print(f"== {name}: groupcast to {sorted(config.qualified)} of {config.K} ==")
    print(json.dumps(bounds_report_obj(config), indent=2))
    scheme = synth_mod.synthesize(config, seed=0)
    print(f"scheme: builder={scheme.meta.get('builder')} p={scheme.p} L={scheme.L} "
          f"Lw={scheme.L_W} Lx={scheme.L_X} "
          f"rate={number_to_json(scheme.rate)} "
          f"bandwidth={number_to_json(scheme.bandwidth)}")
    if scheme.meta.get("groups"):
        for g in scheme.meta["groups"]:
            print(f"  group u={g['u']} i={g['i']}: rate {g['rate']}, "
                  f"bandwidth {g['bandwidth']}")
    out, ok = verify_report_obj(scheme, want_oracle=True)
    oracle = out["oracle"]
    if oracle is not None and "skipped" not in oracle:
        print(f"verify: algebraic ok={out['ok']}, oracle ok={oracle['ok']} "
              f"({oracle['states']} states)")
    else:
        print(f"verify: algebraic ok={out['ok']} (oracle skipped)")
    print(f"leakage per eavesdropper: {out['leakage_symbols']}")
    if scheme.L_W:
        transcript = simulate(scheme, seed=1)
        print(f"simulate(seed=1): all {len(transcript.decoded)} qualified "
              f"receivers decoded {list(transcript.w)}")
    return EXIT_OK if ok else EXIT_REJECTED


def _demo_region() -> int:
    cap = _oracle_cap()
    print("== region: three messages, two keyed receivers, one blind eavesdropper ==")
    sizes = (1, 1, 1)
    print(f"key sizes (L1, L2, L12) = {sizes}")
    print("achievable integer rate triples and minimum bandwidth:")
    feasible = []
    for r1 in range(0, 3):
        for r2 in range(0, 3):
            for r12 in range(0, 4):
                if synth_mod.region_violation(sizes, (r1, r2, r12)) is None:
                    feasible.append((r1, r2, r12))
    boundary = [r for r in feasible
                if any(synth_mod.region_violation(sizes, tuple(x + (1 if i == j else 0)
                       for j, x in enumerate(r))) is not None for i in range(3))]
    ok = True
    for rates in boundary:
        scheme = synth_mod.multimessage(sizes, rates)
        verified, note = verify(scheme).ok, ""
        try:
            verified = verified and oracle_verify(scheme, cap).ok
        except TooLargeError:
            note = " (oracle skipped)"
        ok = ok and verified
        print(f"  rates {rates}: bandwidth {scheme.L_X} "
              f"(= {synth_mod.min_bandwidth(sizes, rates)}), "
              f"verified={'yes' if verified else 'NO'}{note}")
    return EXIT_OK if ok else EXIT_REJECTED


def cmd_demo(args) -> int:
    if args.name == "region":
        return _demo_region()
    config = demo_configs()[args.name]
    return _demo_instance(args.name, config)


# -- entry point ---------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sgc",
        description="Secure groupcast over combinatorial keys: bounds, "
                    "scheme synthesis, exact verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_bounds = sub.add_parser("bounds", help="rate/bandwidth bounds for a config")
    p_bounds.add_argument("config")
    p_bounds.set_defaults(func=cmd_bounds)

    p_synth = sub.add_parser("synth", help="build and verify a scheme")
    p_synth.add_argument("config")
    p_synth.add_argument("-o", "--out", required=True, help="output scheme JSON")
    p_synth.add_argument("--seed", type=int, default=0)
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="verify a scheme file")
    p_verify.add_argument("scheme")
    p_verify.add_argument("--oracle", action="store_true",
                          help="also run the exhaustive counting oracle")
    p_verify.set_defaults(func=cmd_verify)

    p_demo = sub.add_parser("demo", help="run a canned instance end to end")
    p_demo.add_argument("name", choices=["ex1", "ex2", "ex3", "ex4", "fig4", "region"])
    p_demo.set_defaults(func=cmd_demo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


if __name__ == "__main__":
    sys.exit(main())
