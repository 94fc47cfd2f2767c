import contextlib
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import securegroupcast
from securegroupcast import KeyConfig, synthesize, verify
from securegroupcast.cli import (EXIT_INTERNAL, EXIT_OK, EXIT_PARSE, EXIT_REJECTED,
                                 EXIT_UNSOLVED, config_from_obj, config_to_obj,
                                 main, scheme_from_obj, scheme_to_obj, verify_report_obj)
from securegroupcast.fmatrix import ColumnRanks


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def ex3_obj():
    return {"K": 4, "qualified": [1, 2], "keys": [
        {"subset": [1], "symbols": 1}, {"subset": [2], "symbols": 2},
        {"subset": [1, 3], "symbols": 2}, {"subset": [1, 4], "symbols": 3},
        {"subset": [2, 3], "symbols": 1}, {"subset": [2, 4], "symbols": 2},
        {"subset": [1, 2, 3], "symbols": 2}, {"subset": [1, 2, 4], "symbols": 1}]}


# -- round trips -------------------------------------------------------------

def test_config_round_trip(ex3):
    assert config_from_obj(config_to_obj(ex3)) == ex3


def test_scheme_round_trip(ex3):
    scheme = synthesize(ex3)
    again = scheme_from_obj(json.loads(json.dumps(scheme_to_obj(scheme))))
    assert again == scheme


def test_scheme_round_trip_rational_setting(fig4):
    scheme = synthesize(fig4)
    again = scheme_from_obj(scheme_to_obj(scheme))
    assert again == scheme
    assert again.rate == scheme.rate


# -- bounds command ------------------------------------------------------------

def test_bounds_command_2of4(tmp_path, capsys):
    path = write(tmp_path, "c.json", ex3_obj())
    assert main(["bounds", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["C"] == 5 and out["beta_star"] == 9
    assert out["rate_upper"] == 5
    assert out["gap"] is False


def test_bounds_command_gap_topology(tmp_path, capsys):
    obj = {"K": 5, "qualified": [1, 2], "keys": [
        {"subset": [1], "symbols": 1}, {"subset": [1, 2, 3], "symbols": 1},
        {"subset": [1, 4, 5], "symbols": 1}, {"subset": [2, 4], "symbols": 1},
        {"subset": [2, 5], "symbols": 1}]}
    path = write(tmp_path, "fig4.json", obj)
    assert main(["bounds", path]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["C"] == "5/3"
    assert out["rate_upper"] == 2
    assert out["gap"] is True
    assert out["beta_star"] == "10/3"


def test_bounds_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    assert main(["bounds", str(path)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert "line 1" in err


def test_bounds_semantic_error(tmp_path):
    path = write(tmp_path, "bad.json",
                 {"K": 3, "qualified": [1], "keys": [{"subset": [9], "symbols": 1}]})
    assert main(["bounds", path]) == EXIT_PARSE


@pytest.mark.parametrize("symbols", [1.5, 2.0, True, "2"])
def test_bounds_non_integer_key_size_exit_code(tmp_path, capsys, symbols):
    obj = ex3_obj()
    obj["keys"][0]["symbols"] = symbols
    path = write(tmp_path, "bad.json", obj)
    assert main(["bounds", path]) == EXIT_PARSE
    assert "error" in capsys.readouterr().err


def _with_subset(subset):
    obj = ex3_obj()
    obj["keys"][3]["subset"] = subset
    return obj


def _with_qualified(qualified):
    obj = ex3_obj()
    obj["qualified"] = qualified
    return obj


def _with_symbols(symbols):
    obj = ex3_obj()
    obj["keys"][3]["symbols"] = symbols
    return obj


@pytest.mark.parametrize("obj", [
    # an integer is a receiver list of neither kind (nor a bitmask)
    pytest.param(_with_qualified(3), id="qualified-int"),
    pytest.param(_with_qualified([1, True]), id="qualified-true"),
    pytest.param(_with_qualified([True, 2]), id="qualified-true-first"),
    pytest.param(_with_qualified([1.0, 2]), id="qualified-float"),
    pytest.param(_with_qualified("12"), id="qualified-string"),
    pytest.param(_with_qualified(None), id="qualified-null"),
    pytest.param(_with_qualified([0, 1]), id="qualified-receiver-0"),
    pytest.param(_with_qualified([1, 5]), id="qualified-receiver-K+1"),
    pytest.param(_with_qualified([1, 2, 3, 4]), id="qualified-all-receivers"),
    pytest.param(_with_qualified([]), id="qualified-empty"),
    pytest.param(_with_symbols(True), id="symbols-true"),
    pytest.param(_with_symbols(1.5), id="symbols-float"),
    pytest.param(_with_symbols(-1), id="symbols-negative"),
    pytest.param(_with_symbols("2"), id="symbols-string"),
    pytest.param(_with_symbols(None), id="symbols-null"),
    pytest.param(_with_subset(3), id="subset-int"),
    pytest.param(_with_subset(None), id="subset-null"),
    pytest.param(_with_subset("14"), id="subset-string"),
    pytest.param(_with_subset({"1": 1}), id="subset-object"),
    pytest.param(_with_subset([0, 4]), id="subset-receiver-0"),
    pytest.param(_with_subset([1, 5]), id="subset-receiver-K+1"),
    pytest.param(_with_subset([1.5, 4]), id="subset-receiver-1.5"),
    pytest.param(_with_subset(["1", 4]), id="subset-receiver-string"),
    pytest.param(_with_subset([True, 4]), id="subset-true"),
    pytest.param(_with_subset([1, [4]]), id="subset-nested"),
    pytest.param(_with_subset([]), id="subset-empty"),
    pytest.param(_with_subset([4, 2]), id="subset-duplicate-reordered"),  # keys[5] is [2, 4]
    pytest.param({**ex3_obj(), "K": True}, id="K-true"),
    pytest.param({**ex3_obj(), "K": 4.0}, id="K-float"),
    pytest.param({**ex3_obj(), "K": 10**9}, id="K-huge"),
])
def test_bounds_malformed_config_exit_code(tmp_path, capsys, obj):
    path = write(tmp_path, "bad.json", obj)
    assert main(["bounds", path]) == EXIT_PARSE
    assert "error" in capsys.readouterr().err


@st.composite
def config_objects(draw):
    k = draw(st.integers(2, 9))
    receivers = st.integers(1, k)
    qualified = draw(st.lists(receivers, min_size=1, max_size=k).filter(
        lambda q: len(set(q)) < k))
    subsets = draw(st.lists(st.lists(receivers, min_size=1, max_size=k), max_size=12,
                            unique_by=frozenset))
    sizes = draw(st.lists(st.one_of(st.integers(0, 5), st.just(10**30)),
                          min_size=len(subsets), max_size=len(subsets)))
    return {"K": k, "qualified": qualified,
            "keys": [{"subset": s, "symbols": n} for s, n in zip(subsets, sizes)]}


@settings(max_examples=200, deadline=None)
@given(config_objects())
def test_config_from_obj_matches_frozenset_config(obj):
    """Subsets in any order, with repeated receivers, parse as their sets."""
    expected = KeyConfig.of(obj["K"], frozenset(obj["qualified"]),
                            {frozenset(e["subset"]): e["symbols"] for e in obj["keys"]})
    got = config_from_obj(json.loads(json.dumps(obj)))
    assert got == expected
    assert list(got.keys) == list(expected.keys) == sorted(expected.keys)


# -- synth command ----------------------------------------------------------------

def test_synth_writes_verifiable_scheme(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", ex3_obj())
    out_path = str(tmp_path / "scheme.json")
    assert main(["synth", cfg, "-o", out_path]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert summary["Lw"] == 5 and summary["Lx"] == 9
    assert main(["verify", out_path, "--oracle"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["oracle"]["ok"]


def test_synth_internal_failure_exit_code(tmp_path, capsys, monkeypatch):
    import securegroupcast.cli as cli_mod
    from securegroupcast.synth import SynthesisError

    def boom(config, seed=0):
        raise SynthesisError("stub rejection")

    monkeypatch.setattr(cli_mod.synth_mod, "synthesize", boom)
    cfg = write(tmp_path, "c.json", ex3_obj())
    assert main(["synth", cfg, "-o", str(tmp_path / "s.json")]) == 4
    assert "internal" in capsys.readouterr().err


def test_synth_below_capacity_exit_code(tmp_path, capsys, one_cmp3_dropped):
    cfg = write(tmp_path, "c.json", ex3_obj())
    out_path = tmp_path / "s.json"
    assert main(["synth", cfg, "-o", str(out_path)]) == 4
    assert "misses the groupcast_2of4 optimum" in capsys.readouterr().err
    assert not out_path.exists()


ZERO_RATE_OBJ = {"K": 5, "qualified": [1, 2, 4], "keys": [
    {"subset": [1], "symbols": 2}, {"subset": [5], "symbols": 1},
    {"subset": [1, 3, 5], "symbols": 1}, {"subset": [1, 2, 4, 5], "symbols": 1}]}


def test_zero_rate_config_is_solved(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", ZERO_RATE_OBJ)
    assert main(["bounds", cfg]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert (rep["setting"], rep["C"], rep["beta_star"], rep["rate_upper"]) == \
        ("zero_rate", 0, 0, 0)
    out_path = str(tmp_path / "s.json")
    assert main(["synth", cfg, "-o", out_path]) == EXIT_OK
    summary = json.loads(capsys.readouterr().out)
    assert (summary["builder"], summary["Lw"], summary["Lx"]) == ("zero_rate", 0, 0)
    assert main(["verify", out_path, "--oracle"]) == EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["ok"] and rep["oracle"]["ok"]


def test_empty_scheme_round_trip():
    from securegroupcast import LinearScheme
    empty = LinearScheme.empty(K=3, qualified={2})
    again = scheme_from_obj(json.loads(json.dumps(scheme_to_obj(empty))))
    assert again == empty


def test_synth_unsolved_exit_code(tmp_path, capsys):
    obj = {"K": 5, "qualified": [1, 2], "keys": [
        {"subset": [1], "symbols": 1}, {"subset": [1, 2, 3], "symbols": 2},
        {"subset": [2, 4], "symbols": 1}]}
    cfg = write(tmp_path, "c.json", obj)
    assert main(["synth", cfg, "-o", str(tmp_path / "s.json")]) == EXIT_UNSOLVED
    assert "unsolved" in capsys.readouterr().err


def huge_key_config(K, qualified, *keys):
    return {"K": K, "qualified": qualified,
            "keys": [{"subset": subset, "symbols": symbols} for subset, symbols in keys]}


@pytest.mark.parametrize("obj, c, code", [
    (huge_key_config(4, [1, 2], ([1, 3], 1 << 64)), 0, EXIT_PARSE),                    # 2-of-4
    (huge_key_config(3, [1, 2], ([1, 2], 1 << 64)), 1 << 64, EXIT_PARSE),              # multicast
    (huge_key_config(4, [1, 2, 3], ([1], 1), ([2, 3], 1 << 64)), 1, EXIT_PARSE),       # K = 4
    (huge_key_config(4, [1, 2, 3], ([1], 1), ([2, 3], (1 << 63) - 1)), 1, EXIT_PARSE),
    (huge_key_config(2, [1], ([1, 2], 1 << 64)), 0, EXIT_OK),                          # unicast
    (huge_key_config(2, [1], ([1, 2], (1 << 63) - 1)), 0, EXIT_OK),
    (huge_key_config(3, [1], ([1], 1), ([2, 3], 1 << 64)), 1, EXIT_OK),
    (huge_key_config(4, [1, 2], ([1, 2], 2), ([3, 4], 1 << 70)), 2, EXIT_OK),
    (huge_key_config(5, [1, 2], ([1], 1), ([3, 4, 5], 1 << 64)), 0, EXIT_OK),          # zero rate
], ids=["2of4", "multicast", "multicast_k4", "sum_at_limit", "unicast_rate0", "below_limit",
        "unicast_unused", "2of4_unused", "zero_rate_unused"])
def test_synth_refuses_key_symbols_past_int64(tmp_path, capsys, obj, c, code):
    """Keys of 2^63 symbols or more: bounds answers exactly, and synth
    refuses (exit 2, naming the cell budget) exactly when such a key widens
    a matrix of the scheme; a key that no scheme column uses never counts,
    and the scheme written passes `sgc verify --oracle`."""
    cfg = write(tmp_path, "c.json", obj)
    assert main(["bounds", cfg]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["C"] == c
    out_path = tmp_path / "s.json"
    assert main(["synth", cfg, "-o", str(out_path)]) == code
    refused = code == EXIT_PARSE
    assert ("budget of 2^28 int64 cells" in capsys.readouterr().err) == refused
    assert out_path.exists() != refused
    if not refused:
        assert main(["verify", str(out_path), "--oracle"]) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["oracle"]["ok"]


@pytest.mark.parametrize("obj", [
    huge_key_config(3, [1, 2], ([1, 2], 1 << 62)),
    huge_key_config(4, [1, 2, 3], ([1, 2, 3], 1 << 40)),
    huge_key_config(4, [1, 2], ([1, 2], 1 << 40)),
    huge_key_config(2, [1], ([1], 1 << 40)),
    huge_key_config(5, [1, 2], *(([k], 1 << 20) for k in range(1, 6))),
    huge_key_config(5, [1, 2], *((s, 1 << 20) for s in ([1], [1, 2, 3], [1, 4, 5],
                                                         [2, 4], [2, 5]))),
], ids=["multicast_2^62", "multicast_k4", "2of4", "unicast", "symmetric", "aligned_2of5"])
def test_synth_refuses_matrix_past_cell_budget(tmp_path, capsys, obj):
    """A builder matrix would pass the cell budget: synth exits 2 naming
    the budget, before it allocates."""
    cfg = write(tmp_path, "c.json", obj)
    out_path = tmp_path / "s.json"
    assert main(["synth", cfg, "-o", str(out_path)]) == EXIT_PARSE
    assert "budget of 2^28 int64 cells" in capsys.readouterr().err
    assert not out_path.exists()


# -- numbers past Python's 4,300-digit int/str limit ----------------------------------

BIG = 10**4300 - 1          # 4,300 digits: the longest integer json.load reads


@pytest.mark.parametrize("argv, text", [
    (["bounds", "c.json"],
     '{"K": 3, "qualified": [1], "keys": [{"subset": [1], "symbols": 1%s}]}' % ("0" * 4999)),
    (["verify", "c.json"],
     '{"p": 2%s, "L": 1, "Lw": 1, "Lx": 0, "K": 2, "qualified": [1], '
     '"layout": [], "A": [], "B": []}' % ("0" * 4999)),
], ids=["config", "scheme"])
def test_integer_literal_past_the_digit_limit_exit_code(tmp_path, capsys, monkeypatch,
                                                      argv, text):
    """json.load refuses a 5,000-digit literal with a plain ValueError: exit
    2 naming the file and the limit, not a traceback, and not Python's
    advice to call sys.set_int_max_str_digits()."""
    (tmp_path / "c.json").write_text(text)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: c.json: an integer literal is longer than 4300 digits, the longest sgc reads\n")


def test_file_not_utf8_exit_code(tmp_path, capsys, monkeypatch):
    """A file that is not UTF-8 keeps the decoder's own message: exit 2."""
    (tmp_path / "c.json").write_bytes(b'{"K": 3, "qualified": [1], "keys": "\xff"}')
    monkeypatch.chdir(tmp_path)
    assert main(["bounds", "c.json"]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith(
        "error: c.json: 'utf-8' codec can't decode byte 0xff")


@pytest.mark.parametrize("argv, obj", [
    (["bounds", "c.json"], huge_key_config(3, [1, 2], ([1], BIG), ([2], BIG), ([1, 2], BIG))),
    (["synth", "c.json", "-o", "s.json"], huge_key_config(4, [1, 2], ([1, 3], BIG), ([2, 4], BIG))),
], ids=["bounds", "synth"])
def test_key_symbols_past_the_bound_exit_code(tmp_path, capsys, monkeypatch, argv, obj):
    """Each file parses, but bounds would print a bw_lower past 4,300 digits
    and synth's refusal would format one: configs whose key sizes total
    10^4000 or more exit 2 naming the bound."""
    write(tmp_path, "c.json", obj)
    monkeypatch.chdir(tmp_path)
    assert main(argv) == EXIT_PARSE
    assert "key sizes must total less than 10^4000 symbols" in capsys.readouterr().err
    assert not (tmp_path / "s.json").exists()


def test_key_symbol_bound_is_sharp(tmp_path, capsys):
    """Key sizes totalling 10^4000 are refused; one symbol fewer, bounds
    prints every number and synth refuses the config (cell budget) in a
    message that prints both sides of the matrix."""
    third = (10**4000 - 1) // 3
    at = write(tmp_path, "at.json", huge_key_config(3, [1], ([1], 10**4000)))
    assert main(["bounds", at]) == EXIT_PARSE
    assert "less than 10^4000 symbols" in capsys.readouterr().err
    below = write(tmp_path, "below.json", huge_key_config(
        3, [1, 2], ([1], third), ([2], third), ([1, 2], third)))
    assert main(["bounds", below]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["setting"] == "multicast" and out["bw_lower"] == out["beta_star"] == 3 * third
    assert main(["synth", below, "-o", str(tmp_path / "s.json")]) == EXIT_PARSE
    assert f"needs a {3 * third} x {3 * third} matrix" in capsys.readouterr().err


def test_verify_huge_modulus_exit_code(tmp_path, capsys):
    """A 4,185-digit odd modulus with no factor up to 37 is refused by the
    64-bit bound before Miller-Rabin: exit 2, quickly."""
    from test_gf import odd_without_small_factors
    path = write(tmp_path, "p.json", otp_scheme_obj(p=odd_without_small_factors(4185)))
    start = time.perf_counter()
    assert main(["verify", path]) == EXIT_PARSE
    assert time.perf_counter() - start < 1
    assert "must be below 2^63" in capsys.readouterr().err


def test_synth_into_a_missing_directory_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", ex3_obj())
    out_path = str(tmp_path / "missing" / "s.json")
    assert main(["synth", cfg, "-o", out_path]) == EXIT_PARSE
    assert capsys.readouterr().err == f"error: {out_path}: No such file or directory\n"


def test_scheme_is_ranked_once_through_synth_verify_and_cli(ex3, monkeypatch):
    """build_verified's check answers the later verify and
    verify_report_obj: one ColumnRanks.ranks call per receiver in all."""
    calls = []
    original = ColumnRanks.ranks

    def counting(self, left, right):
        calls.append((left, right))
        return original(self, left, right)
    monkeypatch.setattr(ColumnRanks, "ranks", counting)
    scheme = synthesize(ex3)
    assert verify(scheme).ok
    out, ok = verify_report_obj(scheme, want_oracle=False)
    assert ok and out["ok"]
    assert len(calls) == scheme.K == 4


def test_synth_seeds_give_verifiable_schemes(tmp_path, capsys):
    obj = config_to_obj(KeyConfig.of(6, [1, 2, 3],
                                     {c: 1 for c in _threes()}))
    cfg = write(tmp_path, "c.json", obj)
    for seed in (0, 1):
        out_path = str(tmp_path / f"s{seed}.json")
        assert main(["synth", cfg, "-o", out_path, "--seed", str(seed)]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", out_path]) == EXIT_OK
        capsys.readouterr()


# sha256 of the `sgc synth` file: the scheme JSON is fixed for a given
# config and seed, meta key order included
SYNTH_DIGESTS = {
    ("ex1", 0): "c9a49100b42663b5547824edc8d5e5aefb103e9462481e873bbfd35cd0f820fe",
    ("ex1", 3): "dade6a6379c0e74659cf4acab2ce4ba3634841cfecb52faae084c9634f357590",
    ("ex2", 0): "7b767a48e81576b8955d55d372f8c9583574fcd97117d08d9f485a4ce241c206",
    ("ex2", 3): "14ba4fd2ddb327dc4b4075c339dced78be8adc1d119e09db000f0c571c53c81f",
    ("ex3", 0): "d27509558018243e9436c99b06c1de184063b1995348781230833f7eb091969a",
    ("ex3", 3): "abfd0ddd772055a5789879df0294f759f1f6a51ac41bba308d4fa5a552853216",
    ("ex4", 0): "8724125a8675e7e68d32417e099a3ee132091febea10541cf5d991003af4c16b",
    ("ex4", 3): "87f0f15f6db3383b0f083ff1f6424408c074ef4e0c336d78b0aa4264bd5f8aa8",
    ("fig4", 0): "83d1756705a2186b4a5f4464c94f9f3ecf5e61a1259331ca3883c107bf59d362",
    ("fig4", 3): "985cacf38154b293bb761b7d9cf262e14d8c25c110dcabf285c6bee8b163ab37",
    ("degenerate", 0): "af4536b472133d671758ec7f77a397867e24c3032ce2fad686798c6579aad74d",
    ("degenerate", 3): "1e6f5272bc00f7a2b4c46e89f8c13c0731fc0657648d9ed84bed2d8c123e33fc",
    ("ex1_q3", 0): "a4e2f60d8a5a5eefecf1810964695fbb9774af87fe62b369488d7c456a0269ef",
    ("ex1_q3", 3): "45375c630d6aa285f6938688555902d0e87e258b2dfd7dcb351568cb566ec3b6",
    ("multicast_e3", 0): "09ac87c94fc94120a08b826ad2964d2a26f1454266bb42726e46153b24ab2237",
    ("multicast_e3", 3): "f2eeee05e98dc7664288b5287aac6b54923191cf913066b07718be20e27a88c0",
    ("fig4_relabeled", 0): "0b8d8cdd0e3cd2fbbc8c62af7bf96cf179038cd2fb89790aadc930befd23aa07",
    ("fig4_relabeled", 3): "36afcd3a47eecab356a2e55eae7f78c643ce38c4d0babe6c83ca8c5a8db79801",
    ("ex2_relabeled", 0): "255f19a7a8a6d87515dff160165b0d72d07d7a476e763ee4dd50def6e3140a16",
    ("ex2_relabeled", 3): "ae7d3c295664d4a48d18cb40a91b9233c1b9479bd8043581dbca81b57f9242f1",
    ("ex3_swapped", 0): "a5d95f0623628648b78d97cfe50253adfc9ae960084687fff3518710919fcdc0",
    ("ex3_swapped", 3): "f0c96f6ee8a8a7c6619bacd0afd64f6a417ea8772959b9ca18406c83ae8faa56",
    ("ex4_relabeled", 0): "21ac5c2192ed883130876716ad3a3f60645371273946dddd60857ef4fb2eb7d3",
    ("ex4_relabeled", 3): "17a8d9c121417844cfb143fdf555004d554ce63189cbd836623cffb407cebcd2",
}


# Demo configs moved out of the builders' canonical labels, so every
# label-dependent builder writes its scheme through a non-identity map.
RELABELED_DEMOS = {
    "ex1_q3": ("ex1", {1: 3, 2: 2, 3: 1, 4: 4}),    # receiver 3 is the qualified one
    "ex2_relabeled": ("ex2", {1: 3, 2: 4, 3: 1, 4: 2}),    # case "pair23 covers both"
    "ex3_swapped": ("ex3", {1: 2, 2: 1, 3: 4, 4: 3}),    # both pairs swapped, case 2.3
    "ex4_relabeled": ("ex4", {1: 2, 2: 4, 3: 6, 4: 1, 5: 3, 6: 5}),    # qualified {2, 4, 6}
    "fig4_relabeled": ("fig4", {1: 2, 2: 1, 3: 5, 4: 3, 5: 4}),
}


def _synth_input(name):
    """The pinned synth inputs: the demos, a rate-0 unicast, a plain
    multicast and the demos moved out of the builders' canonical labels."""
    from securegroupcast.cli import demo_configs
    demos = demo_configs()
    if name == "degenerate":
        return {"K": 4, "qualified": [1], "keys": [{"subset": [2, 3], "symbols": 2}]}
    if name in RELABELED_DEMOS:
        demo, perm = RELABELED_DEMOS[name]
        return config_to_obj(demos[demo].relabeled(perm))
    if name == "multicast_e3":    # plain multicast, receiver 3 eavesdrops
        return {"K": 5, "qualified": [1, 2, 4, 5], "keys": [
            {"subset": [1], "symbols": 2}, {"subset": [1, 2], "symbols": 1},
            {"subset": [1, 3], "symbols": 1}, {"subset": [2, 4], "symbols": 2},
            {"subset": [4, 5], "symbols": 1}, {"subset": [2, 3, 5], "symbols": 2},
            {"subset": [5], "symbols": 3}, {"subset": [1, 4, 5], "symbols": 1}]}
    return config_to_obj(demos[name])


@pytest.mark.parametrize("name, seed", sorted(SYNTH_DIGESTS))
def test_synth_output_is_pinned(name, seed, tmp_path, capsys):
    import hashlib
    obj = _synth_input(name)
    out_path = tmp_path / "s.json"
    cfg = write(tmp_path, "c.json", obj)
    assert main(["synth", cfg, "-o", str(out_path), "--seed", str(seed)]) == EXIT_OK
    digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
    assert digest == SYNTH_DIGESTS[name, seed]


@pytest.mark.parametrize("name", sorted({name for name, _ in SYNTH_DIGESTS}))
def test_scheme_obj_entries_are_python_ints(name):
    # json.dumps refuses numpy integers, so the scheme file needs Python ints
    obj = scheme_to_obj(synthesize(config_from_obj(_synth_input(name))))
    for key in ("A", "B"):
        assert all(type(x) is int for row in obj[key] for x in row)


ZERO_RATE_OBJ = {"K": 5, "qualified": [1, 2, 4], "keys": [
    {"subset": [1], "symbols": 2}, {"subset": [5], "symbols": 1},
    {"subset": [1, 3, 5], "symbols": 1}, {"subset": [1, 2, 4, 5], "symbols": 1}]}

# sha256 of `sgc bounds` stdout: the report JSON is fixed for a given config,
# key order and the constant "bw_heuristic" included
BOUNDS_DIGESTS = {
    "ex1": "2802c6a74d93cf19acd68134ba98f8a8838e9c5e8c321aec1398be3e41fa3595",
    "ex2": "2f0a9b9462a25b0a0d4424809eb100b8b2108cfcd9ab96eb950ffbe3088bbb99",
    "ex3": "dd5d28b88ed4886baf99faaaeeb368139216b10c0bce4ef70833681d003d474b",
    "ex4": "83d4af7306736cf26fc8ec0a79c2b60da87f05f68572155c83aa2150a35b6cb1",
    "fig4": "1abee9a0a84cbe06e186dea72060b2a00386bcdf21eea8cb6f021a72202e9152",
    "zero_rate": "9c3e4668252722923a0e536d08fc1636187059d5cf53477c7737d0329ca6641a",
}


@pytest.mark.parametrize("name", sorted(BOUNDS_DIGESTS))
def test_bounds_output_is_pinned(name, tmp_path, capsys):
    import hashlib
    from securegroupcast.cli import demo_configs
    obj = (ZERO_RATE_OBJ if name == "zero_rate"
           else config_to_obj(demo_configs()[name]))
    assert main(["bounds", write(tmp_path, "c.json", obj)]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == BOUNDS_DIGESTS[name]


def _threes():
    from itertools import combinations
    return combinations(range(1, 7), 3)


# -- verify command ------------------------------------------------------------------

def test_verify_rejects_corrupted_scheme(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", ex3_obj())
    out_path = str(tmp_path / "scheme.json")
    main(["synth", cfg, "-o", out_path])
    capsys.readouterr()
    obj = json.loads(open(out_path).read())
    obj["A"][0][0] ^= 1  # flip one message coefficient
    broken = write(tmp_path, "broken.json", obj)
    assert main(["verify", broken]) == EXIT_REJECTED
    rep = json.loads(capsys.readouterr().out)
    assert not rep["ok"]


def test_verify_entry_overflow_exit_code(tmp_path, capsys):
    cfg = write(tmp_path, "c.json", ex3_obj())
    out_path = str(tmp_path / "scheme.json")
    main(["synth", cfg, "-o", out_path])
    capsys.readouterr()
    obj = json.loads(open(out_path).read())
    obj["A"][0][0] = 2**63
    huge = write(tmp_path, "huge.json", obj)
    assert main(["verify", huge]) == EXIT_PARSE
    assert "invalid scheme" in capsys.readouterr().err


def test_verify_large_prime_leak_rejected(tmp_path, capsys):
    # X = [W + a s1 + c a s2 ; b s1 + c b s2]: B's columns are proportional,
    # so receiver 2, who holds no key, recovers W; int64 products of
    # residues overflow at this p
    p, a, b, c = 1099511627791, 987654321987, 123456789123, 555555555555
    obj = {"p": p, "L": 1, "Lw": 1, "Lx": 2, "K": 2, "qualified": [1],
           "layout": [{"subset": [1], "width": 2}], "A": [[1], [0]],
           "B": [[a, c * a % p], [b, c * b % p]], "meta": {}}
    path = write(tmp_path, "leak.json", obj)
    assert main(["verify", path]) == EXIT_REJECTED
    rep = json.loads(capsys.readouterr().out)
    assert rep["leakage_symbols"] == {"2": 1} and rep["correct"] == {"1": True}


def otp_scheme_obj(**changes):
    """X = W + s, s held by receiver 1 of 2, with top-level fields replaced."""
    obj = {"p": 2, "L": 1, "Lw": 1, "Lx": 1, "K": 2, "qualified": [1],
           "layout": [{"subset": [1], "width": 1}], "A": [[1]], "B": [[1]], "meta": {}}
    obj.update(changes)
    return obj


@pytest.mark.parametrize("obj", [
    otp_scheme_obj(layout=[{"subset": [1], "width": 0.5}, {"subset": [1], "width": 0.5}]),
    otp_scheme_obj(layout=[{"subset": [1], "width": True}]),
    otp_scheme_obj(qualified=[True]),
    otp_scheme_obj(qualified=[1.0]),
    otp_scheme_obj(qualified=1),
    otp_scheme_obj(layout=[{"subset": [True], "width": 1}]),
    otp_scheme_obj(layout=[{"subset": [1.0], "width": 1}]),
    otp_scheme_obj(L=True),
    otp_scheme_obj(K=True),
    otp_scheme_obj(K=2.0),
    otp_scheme_obj(Lw=True),
    otp_scheme_obj(Lx=True),
], ids=["width-half", "width-true", "qualified-true", "qualified-float", "qualified-int",
        "subset-true", "subset-float", "L-true", "K-true", "K-float", "Lw-true", "Lx-true"])
def test_verify_malformed_scheme_exit_code(tmp_path, capsys, obj):
    """Every such file is a parse error (exit 2), never a traceback or a
    misread receiver."""
    assert main(["verify", write(tmp_path, "s.json", obj)]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: ")


def test_verify_well_formed_scheme_parses(tmp_path, capsys):
    assert main(["verify", write(tmp_path, "s.json", otp_scheme_obj())]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["correct"] == {"1": True}


@pytest.mark.parametrize("changes", [
    {"A": [[1.5]]}, {"A": [["3"]]}, {"A": [[True]]}, {"A": None}, {"A": []},
    # a bool among integers: numpy would read the whole matrix as integers
    {"p": 3, "Lw": 2, "Lx": 2, "layout": [{"subset": [1], "width": 2}],
     "A": [[1, True], [0, 1]], "B": [[1, 0], [0, 1]]},
], ids=["float-entry", "string-entry", "bool-entry", "null-matrix", "no-rows-with-Lx-1",
        "bool-among-ints"])
def test_verify_non_integer_matrix_exit_code(tmp_path, capsys, changes):
    """Matrix entries are JSON integers; nothing else is read as one, and
    `[]` is a matrix with no rows, never an all-zero one."""
    assert main(["verify", write(tmp_path, "s.json", otp_scheme_obj(**changes))]) == EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: invalid scheme: ")


@pytest.mark.parametrize("changes, correct", [
    ({"Lx": 0, "A": [], "B": []}, {"1": False}),
    ({"Lw": 0, "A": [[]]}, {"1": True}),
    ({"p": 3, "A": [[-2]], "B": [[-1]]}, {"1": True}),
], ids=["no-rows", "no-columns", "negative-entries"])
def test_verify_reads_empty_and_negative_matrices(tmp_path, capsys, changes, correct):
    obj = otp_scheme_obj(**changes)
    main(["verify", write(tmp_path, "s.json", obj)])
    assert json.loads(capsys.readouterr().out)["correct"] == correct
    scheme = scheme_from_obj(obj)
    assert (scheme.L_X, scheme.L_W, scheme.D) == (obj["Lx"], obj["Lw"], 1)
    assert scheme.A.tolist() == [[r % scheme.p for r in row] for row in obj["A"]]


def test_verify_receiver_count_bounded(tmp_path, capsys):
    assert main(["verify", write(tmp_path, "s.json", otp_scheme_obj(K=21))]) == EXIT_PARSE
    assert capsys.readouterr().err == "error: 'K' must be an integer in [1, 20], got 21\n"


@pytest.mark.parametrize("raw", ["abc", "3"])
def test_verify_bad_oracle_cap_exit_code(tmp_path, capsys, monkeypatch, raw):
    monkeypatch.setenv("SGC_ORACLE_CAP", raw)
    cfg = write(tmp_path, "c.json", ex3_obj())
    out_path = str(tmp_path / "scheme.json")
    main(["synth", cfg, "-o", out_path])
    capsys.readouterr()
    assert main(["verify", out_path, "--oracle"]) == EXIT_PARSE
    assert "SGC_ORACLE_CAP must be a power of two" in capsys.readouterr().err
    assert main(["demo", "region"]) == EXIT_PARSE


def test_oracle_cap_past_the_digit_limit_exit_code(tmp_path, capsys, monkeypatch):
    """A 5,000-digit SGC_ORACLE_CAP exits 2 naming the variable and quoting
    only the value's first 20 characters, not with Python's advice to call
    sys.set_int_max_str_digits()."""
    monkeypatch.setenv("SGC_ORACLE_CAP", "1" + "0" * 4999)
    assert main(["demo", "ex1"]) == EXIT_PARSE
    assert capsys.readouterr().err == (
        "error: SGC_ORACLE_CAP is longer than 4300 digits, the longest sgc reads: "
        "'10000000000000000000'... (5000 characters)\n")


def test_verify_oversized_oracle_falls_back(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("SGC_ORACLE_CAP", "4")
    cfg = write(tmp_path, "c.json", ex3_obj())
    out_path = str(tmp_path / "scheme.json")
    main(["synth", cfg, "-o", out_path])
    capsys.readouterr()
    assert main(["verify", out_path, "--oracle"]) == EXIT_OK
    captured = capsys.readouterr()
    rep = json.loads(captured.out)
    assert rep["ok"] and "skipped" in rep["oracle"]
    assert "authoritative" in captured.err


@st.composite
def mutated_scheme_objects(draw):
    """A well-formed random scheme file, then a few of its p, Lx, widths,
    subsets and matrix entries replaced by values in and out of range."""
    p = draw(st.sampled_from([2, 3, 5, 7]))
    k = draw(st.integers(2, 4))
    labels = st.integers(1, k)
    qualified = draw(st.lists(labels, min_size=1, max_size=k - 1, unique=True))
    layout = [{"subset": draw(st.lists(labels, min_size=1, max_size=k, unique=True)),
               "width": draw(st.integers(0, 3))} for _ in range(draw(st.integers(0, 3)))]
    lw, lx = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    d = sum(seg["width"] for seg in layout)
    entries = st.integers(0, p - 1)
    obj = {"p": p, "L": 1, "Lw": lw, "Lx": lx, "K": k, "qualified": qualified,
           "layout": layout, "A": [[draw(entries) for _ in range(lw)] for _ in range(lx)],
           "B": [[draw(entries) for _ in range(d)] for _ in range(lx)], "meta": {}}
    odd_int = st.sampled_from([-1, 0, 1, 2, 5, 10**6, 2**62, 2**63 - 1, 2**63, -2**63])
    for kind in draw(st.lists(st.sampled_from(["p", "Lx", "width", "wide", "subset", "entry"]),
                              max_size=3)):
        if kind == "p":
            obj["p"] = draw(st.sampled_from(
                [0, 1, 4, 9, -3, 2, 3, 7, 13, 65537, 1099511627791, 2**61 - 1,
                 2**64 + 13, 2.0, True, "3", None]))
        elif kind == "Lx":
            obj["Lx"] = draw(st.integers(-1, 5) | st.just(None))
        elif kind == "width" and layout:
            seg = draw(st.sampled_from(layout))
            seg["width"] = draw(odd_int | st.just(1.5))
        elif kind == "wide":
            # thousands of used key columns: p^(L_W + D_used) has more
            # decimal digits than Python prints
            layout.append({"subset": [1], "width": 15_000})
            for row in obj["B"]:
                row.extend([1] * 15_000)
        elif kind == "subset" and layout:
            seg = draw(st.sampled_from(layout))
            seg["subset"] = draw(st.sampled_from([[], [0], [k + 1], [1, 1], "1", [1.5], None])
                                 | st.lists(labels, min_size=1, max_size=k))
        elif kind == "entry":
            rows = [row for row in obj["A"] + obj["B"] if row]
            if rows:
                row = draw(st.sampled_from(rows))
                row[draw(st.integers(0, len(row) - 1))] = draw(
                    odd_int | st.integers(-3 * p, 3 * p) | st.sampled_from([1.5, True, None]))
    return obj


@settings(max_examples=200, deadline=None)
@given(mutated_scheme_objects())
def test_verify_oracle_survives_mutated_scheme_files(tmp_path_factory, obj):
    """`sgc verify --oracle` on any such file accepts (0), refuses it as
    malformed (2) or rejects the scheme (5), within a time bound, and never
    ends in a traceback."""
    path = write(tmp_path_factory.mktemp("mutated"), "s.json", obj)
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["verify", path, "--oracle"])
    assert time.perf_counter() - start < 10.0
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_REJECTED), err.getvalue()
    assert "Traceback" not in err.getvalue()
    if code == EXIT_PARSE:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")
    else:
        assert json.loads(out.getvalue())["ok"] == (code == EXIT_OK)


LITTLE_MEMORY = 3_000_000 * 1024   # bytes of address space, as `ulimit -v 3000000`
SGC_MAIN = "from securegroupcast.cli import main\nsys.exit(main(sys.argv[1:]))\n"


def in_little_memory(tmp_path, code, *args, timeout=60):
    """Python `code`, with `args` in sys.argv[1:], in a child process whose
    address space is limited to LITTLE_MEMORY, set in the child alone, so
    that no allocation can take the machine's memory.  The child imports
    the package and these test modules."""
    child = ("import resource, sys\n"
             f"resource.setrlimit(resource.RLIMIT_AS, ({LITTLE_MEMORY},) * 2)\n{code}")
    src = str(Path(securegroupcast.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)]),
           "OPENBLAS_NUM_THREADS": "1"}
    return subprocess.run([sys.executable, "-c", child, *args], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=timeout)


@pytest.mark.parametrize("p, lw, holder, code, success", [
    pytest.param(2, 1, 2, EXIT_REJECTED, 0.0, id="2"),
    pytest.param(3, 1, 2, EXIT_REJECTED, 0.0, id="3"),
    pytest.param(2, 0, 1, EXIT_OK, 1.0, id="held"),
])
def test_verify_oracle_rejects_a_wide_zero_row_file_in_little_memory(tmp_path, p, lw, holder,
                                                                     code, success):
    """A zero-row file with one key of 10^8 symbols, which receiver 1 lacks
    (a message it cannot decode: exit 5, over either field) or holds (no
    message: exit 0).  The rank tests gather only M's support (nonzero
    columns), so `sgc verify --oracle` answers in little memory.  Listing
    every unknown column ran out of memory."""
    path = write(tmp_path, "wide.json", {
        "p": p, "L": 1, "Lw": lw, "Lx": 0, "K": 2, "qualified": [1],
        "layout": [{"subset": [holder], "width": 10**8}], "A": [], "B": []})
    done = in_little_memory(tmp_path, SGC_MAIN, "verify", path, "--oracle")
    assert done.returncode == code, done.stderr
    assert json.loads(done.stdout)["oracle"]["decode_success"] == {"1": success}


@pytest.mark.parametrize("argv, obj", [
    (["synth", "c.json", "-o", "s.json"],
     huge_key_config(4, [1, 2], ([1, 3], 1 << 40))),
    (["synth", "c.json", "-o", "s.json"],
     huge_key_config(4, [1, 2], ([1, 3], 4 * 10**9))),
    (["verify", "c.json", "--oracle"],
     {"p": 2, "L": 1, "Lw": 1, "Lx": 0, "K": 2, "qualified": [1],
      "layout": [{"subset": [2], "width": 4 * 10**9}], "A": [], "B": []}),
], ids=["synth-2^40", "synth-4e9", "verify-4e9"])
def test_zero_row_scheme_counts_as_one_row_in_the_cell_budget(tmp_path, argv, obj):
    """A 2-of-4 config of rate 0 whose one key, on {1, 3}, is huge gets a
    scheme with no rows, and so does a zero-row scheme file; either is as
    wide as its key.  Counted as one row it passes the cell budget, so
    synth and verify exit 2 naming the budget instead of building column
    masks a bit per column wide (a MemoryError at 2^40) or writing the
    scheme."""
    write(tmp_path, "c.json", obj)
    done = in_little_memory(tmp_path, SGC_MAIN, *argv)
    assert done.returncode == EXIT_PARSE, done.stderr
    assert "budget of 2^28 int64 cells" in done.stderr
    assert done.stdout == "" and not (tmp_path / "s.json").exists()


@st.composite
def mutated_config_objects(draw):
    """A random config file, often of a solved shape (K <= 3 or a 2-of-4
    groupcast), with key sizes of 0 to 3 symbols or of 2^31 to 2^62, then a
    few of its fields replaced by values in and out of range.  Sizes in
    between are left out: there a solved config gets a scheme of up to the
    2^28-cell budget, and writing it takes seconds to minutes."""
    k = draw(st.sampled_from([4, 3, 5, 2]))
    labels = st.integers(1, k)
    sizes = st.integers(0, 3) | st.integers(1 << 31, 1 << 62)
    subsets = draw(st.lists(st.lists(labels, min_size=1, max_size=k, unique=True),
                            max_size=5, unique_by=frozenset))
    keys = [{"subset": subset, "symbols": draw(sizes)} for subset in subsets]
    obj = {"K": k, "qualified": draw(st.lists(labels, min_size=1, max_size=k - 1, unique=True)),
           "keys": keys}
    odd = st.sampled_from([-1, 1.5, True, "2", None, [], {}, 1 << 63, 1 << 64])
    receivers = odd | st.lists(st.integers(0, k + 1), max_size=k + 1)
    for kind in draw(st.lists(st.sampled_from(["K", "qualified", "subset", "symbols", "repeat",
                                               "drop"]), max_size=2)):
        if kind == "K":
            obj["K"] = draw(st.sampled_from([0, 1, k + 1, 21, 4.0, "4", True, None]))
        elif kind == "qualified":
            obj["qualified"] = draw(receivers)
        elif kind == "subset" and keys:
            draw(st.sampled_from(keys))["subset"] = draw(receivers)
        elif kind == "symbols" and keys:
            draw(st.sampled_from(keys))["symbols"] = draw(odd | sizes)
        elif kind == "repeat" and keys:
            keys.append(dict(draw(st.sampled_from(keys))))
        elif kind == "drop":
            obj.pop(draw(st.sampled_from(["K", "qualified", "keys"])), None)
    return obj


@settings(max_examples=500, deadline=None, database=None, derandomize=True)
@given(obj=mutated_config_objects())
def bounds_and_synth_survive(directory, obj):
    """`sgc bounds` and `sgc synth` on the config end in 0, 2, 3 or 4 within
    a time bound, never in an exception, and write JSON only on success."""
    path = write(Path(directory), "c.json", obj)
    for argv in (["bounds", path], ["synth", path, "-o", str(Path(directory) / "s.json")]):
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert time.perf_counter() - start < 10.0, argv
        assert code in (EXIT_OK, EXIT_PARSE, EXIT_UNSOLVED, EXIT_INTERNAL), err.getvalue()
        assert "Traceback" not in err.getvalue()
        if code == EXIT_OK:
            json.loads(out.getvalue())
        else:
            assert out.getvalue() == "" and err.getvalue()


def test_bounds_and_synth_survive_mutated_config_files(tmp_path):
    """The config-file fuzz, run in one child process in little memory: a
    key of up to 2^62 symbols must not exhaust it (a 2-of-4 config of rate
    0 with a 2^40-symbol key on {1, 3} ended in MemoryError)."""
    done = in_little_memory(
        tmp_path, "from test_cli import bounds_and_synth_survive\n"
        "bounds_and_synth_survive(sys.argv[1])\n", str(tmp_path), timeout=600)
    assert done.returncode == 0, done.stderr[-4000:]


def test_verify_oracle_refuses_state_count_past_decimal_limit(tmp_path, capsys):
    """2^15001 states has 4,516 decimal digits, past what Python prints; the
    refusal names the power alone, while smaller counts keep their value."""
    obj = otp_scheme_obj(layout=[{"subset": [1], "width": 15_000}], B=[[1] * 15_000])
    assert main(["verify", write(tmp_path, "s.json", obj), "--oracle"]) == EXIT_OK
    captured = capsys.readouterr()
    assert json.loads(captured.out)["oracle"] == {
        "skipped": "p^(L_W + D_used) = 2^15001 exceeds the oracle cap 4194304"}
    assert "Traceback" not in captured.err
    obj = otp_scheme_obj(layout=[{"subset": [1], "width": 24}], B=[[1] * 24])
    assert main(["verify", write(tmp_path, "s.json", obj), "--oracle"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["oracle"] == {
        "skipped": "p^(L_W + D_used) = 2^25 = 33554432 exceeds the oracle cap 4194304"}


# -- demos ----------------------------------------------------------------------------

@pytest.mark.parametrize("name", ["ex1", "ex2", "ex3", "ex4", "fig4", "region"])
def test_demo_runs_clean(name, capsys):
    assert main(["demo", name]) == EXIT_OK
    assert capsys.readouterr().out


def test_demo_deterministic(capsys):
    assert main(["demo", "ex3"]) == EXIT_OK
    first = capsys.readouterr().out
    assert main(["demo", "ex3"]) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second


REGION_STDOUT = """\
== region: three messages, two keyed receivers, one blind eavesdropper ==
key sizes (L1, L2, L12) = (1, 1, 1)
achievable integer rate triples and minimum bandwidth:
  rates (0, 0, 2): bandwidth 3 (= 3), verified=yes
  rates (0, 1, 0): bandwidth 1 (= 1), verified=yes
  rates (0, 1, 1): bandwidth 2 (= 2), verified=yes
  rates (1, 0, 0): bandwidth 1 (= 1), verified=yes
  rates (1, 0, 1): bandwidth 2 (= 2), verified=yes
  rates (1, 1, 0): bandwidth 2 (= 2), verified=yes
  rates (1, 1, 1): bandwidth 3 (= 3), verified=yes
"""


def test_demo_region_output_is_pinned(capsys):
    assert main(["demo", "region"]) == EXIT_OK
    assert capsys.readouterr().out == REGION_STDOUT


# sha256 of each instance demo's stdout, the default oracle cap in force:
# the bounds report, the scheme line, both verdicts and simulate(seed=1),
# whose decoded messages are the decoders' only program output
DEMO_STDOUT_SHA256 = {
    "ex1": "5febcaf447dbf679ea3aea393381faf94e9d375b6c5e2831e00b68b89225b8b1",
    "ex2": "efc82ae633b7e207bffe83cb89fdbb02f31c9f03728eb88e0036422d0029e08a",
    "ex3": "2fc37555faf2f878f6c727a6c820e2041bb614a999c2dd65223b01dde0b0bc9a",
    "ex4": "5626080990059cc6afaa0a21b7bfe482d0acb0e44e1d7060bfc00a1efbe3ea00",
    "fig4": "0d96b4d6ca37adb5283fbfa3929cc3e974cf3a3f75fb40ebcf0f2c3cf1d36f98",
}


@pytest.mark.parametrize("name", sorted(DEMO_STDOUT_SHA256))
def test_demo_instance_output_is_pinned(name, capsys, monkeypatch):
    import hashlib
    monkeypatch.delenv("SGC_ORACLE_CAP", raising=False)
    assert main(["demo", name]) == EXIT_OK
    digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert digest == DEMO_STDOUT_SHA256[name]


def test_demo_region_skips_oversized_oracle(capsys, monkeypatch):
    # at cap 32 only the (1, 1, 1) scheme, 2^6 states, is over the cap
    monkeypatch.setenv("SGC_ORACLE_CAP", "32")
    assert main(["demo", "region"]) == EXIT_OK
    want = REGION_STDOUT.replace("(1, 1, 1): bandwidth 3 (= 3), verified=yes",
                                 "(1, 1, 1): bandwidth 3 (= 3), verified=yes (oracle skipped)")
    assert capsys.readouterr().out == want
    monkeypatch.setenv("SGC_ORACLE_CAP", "4")
    assert main(["demo", "region"]) == EXIT_OK
    assert capsys.readouterr().out.count("verified=yes (oracle skipped)") == 5
