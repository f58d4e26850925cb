"""cli: subcommand behaviour, round trips, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from stonework import cli, coverage, formats, order, spectra, zariski
from stonework.cli import main
from stonework.formats import (
    coverage_from_json,
    coverage_to_json,
    dump,
    dumps,
    frame_from_json,
    frame_to_json,
    poset_from_json,
    poset_to_json,
    ring_from_json,
    ring_to_json,
    space_from_json,
    space_to_json,
)
from stonework.corpus import all_grothendieck_topologies, posets_upto, random_coverage
from stonework.coverage import GrothendieckTopology, ideal_frame, named_coverage
from stonework.errors import InvalidStructure, ParseError
from stonework.order import as_poset, lower_sets, preorder_from_pairs
from stonework.spectra import alexandrov_space
from stonework.zariski import ring_zmod


@pytest.fixture
def chain2_file(tmp_path):
    f = tmp_path / "chain2.json"
    f.write_text(json.dumps({"elements": ["a", "b"], "leq": [[0, 1]]}))
    return str(f)


@pytest.fixture
def chain17_file(tmp_path):
    f = tmp_path / "chain17.json"
    f.write_text(json.dumps({"elements": [f"c{i}" for i in range(17)],
                             "leq": [[i, i + 1] for i in range(16)]}))
    return str(f)


@pytest.fixture
def boolean4_file(tmp_path):
    f = tmp_path / "b4.json"
    f.write_text(
        json.dumps({"elements": ["0", "a", "b", "1"], "leq": [[0, 1], [0, 2], [1, 3], [2, 3]]})
    )
    return str(f)


def _assert_canonical(out):
    """JSON on stdout is exactly json.dumps(sort_keys=True, indent=2) of
    itself plus a newline; DOT output is left alone."""
    if not out.startswith("digraph"):
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    _assert_canonical(out)
    return code, out


class TestRoundTrips:
    def test_poset(self):
        p = as_poset(preorder_from_pairs(3, [(0, 1), (1, 2)], labels="xyz"))
        q = poset_from_json(poset_to_json(p))
        assert q.up == p.up and q.labels == p.labels

    def test_coverage(self):
        p = as_poset(preorder_from_pairs(2, [(0, 1)]))
        cov = named_coverage(p, "coherent")
        cov2 = coverage_from_json(coverage_to_json(cov))
        assert cov2.covers == cov.covers

    def test_frame(self):
        fr = lower_sets(preorder_from_pairs(2, []))
        fr2 = frame_from_json(json.loads(dumps(frame_to_json(fr))))
        assert fr2.meet == fr.meet and fr2.join == fr.join

    @pytest.mark.parametrize("fault", [-1, 7, "x", 1.0, "ragged"])
    def test_frame_with_bad_tables_refused(self, fault):
        # frame_to_json writes its tables a row at a time; plant the fault
        # in the text it writes, read back
        obj = json.loads(dumps(frame_to_json(lower_sets(preorder_from_pairs(2, [])))))
        if fault == "ragged":
            obj["join"][3].pop()
        else:
            obj["meet"][3][3] = fault
        with pytest.raises(InvalidStructure, match=r"must be 4 x 4 with entries in 0\.\.3"):
            frame_from_json(obj)

    def test_space(self):
        sp = alexandrov_space(preorder_from_pairs(2, [(0, 1)]))
        sp2 = space_from_json(space_to_json(sp))
        assert sp2.opens == sp.opens

    @pytest.mark.parametrize("fault", [1.0, True, "1", 2, -1, 10 ** 30])
    def test_space_with_bad_opens_refused(self, fault):
        obj = space_to_json(alexandrov_space(preorder_from_pairs(2, [(0, 1)])))
        obj["opens"][-1][-1] = fault
        with pytest.raises(ParseError):
            space_from_json(obj)

    def test_ring(self):
        r = ring_zmod(6)
        r2 = ring_from_json(ring_to_json(r))
        assert r2.add == r.add and r2.mul == r.mul and r2.one == r.one


class TestCommands:
    def test_ideal_frame_chain2(self, capsys, chain2_file):
        code, out = run(capsys, "ideal-frame", chain2_file, "--coverage", "trivial")
        assert code == 0
        data = json.loads(out)
        assert len(data["result"]["frame"]["elements"]) == 3
        assert "frame_guard" in data["guards"]

    def test_zariski_zmod6(self, capsys):
        code, out = run(capsys, "zariski", "--ring", "zmod:6")
        assert code == 0
        data = json.loads(out)
        assert len(data["result"]["spectrum"]["points"]) == 2

    def test_dual_birkhoff(self, capsys, boolean4_file):
        code, out = run(capsys, "dual", "--kind", "birkhoff", boolean4_file)
        assert code == 0
        data = json.loads(out)
        assert data["result"]["round_trip_ok"]

    @pytest.mark.parametrize("kind", ["alexandrov", "mslat"])
    def test_dual_supercompacts_of_boolean16(self, capsys, tmp_path, kind):
        # the up-set and lower-set frames have 168 elements each, too wide
        # to list every antichain cover of an element
        f = tmp_path / "b16.json"
        f.write_text(json.dumps({"elements": [str(i) for i in range(16)],
                                 "leq": [[i, j] for i in range(16) for j in range(16)
                                         if i != j and i & ~j == 0]}))
        code, out = run(capsys, "dual", "--kind", kind, str(f))
        assert code == 0
        result = json.loads(out)["result"]
        assert result["round_trip_ok"]
        assert sorted(result["witness"]) == list(range(16))
        assert result["recovered"].startswith("Poset(16,")

    def test_space_and_filters(self, capsys, boolean4_file):
        code, out = run(capsys, "space", "--site", boolean4_file, "--coverage", "coherent")
        assert code == 0
        assert len(json.loads(out)["result"]["space"]["points"]) == 2
        code, out = run(capsys, "filters", "--site", boolean4_file, "--coverage", "coherent")
        assert code == 0
        assert len(json.loads(out)["result"]["filters"]) == 2

    def test_present_query(self, capsys, tmp_path):
        f = tmp_path / "pres.txt"
        f.write_text("generators: x y\nx <= y\n")
        code, out = run(capsys, "present", "--logic", "horn", str(f), "--query", "x <= y")
        assert code == 0
        data = json.loads(out)
        assert data["result"]["holds"] is True

    def test_check_boolean(self, capsys, boolean4_file):
        code, out = run(capsys, "check", "--invariant", "boolean", "--input", boolean4_file)
        assert code == 0
        data = json.loads(out)
        assert all(data["result"]["conditions"].values())

    def test_free_mslat(self, capsys):
        code, out = run(capsys, "free", "--what", "mslat", "--gens", "2")
        assert code == 0
        assert len(json.loads(out)["result"]["poset"]["elements"]) == 4

    def test_dot_output(self, capsys, chain2_file):
        code, out = run(capsys, "dot", chain2_file)
        assert code == 0
        assert out.startswith("digraph") and "a" in out

    def test_domain_error_exit_1(self, capsys, tmp_path):
        f = tmp_path / "vee.json"
        f.write_text(json.dumps({"elements": ["c", "a", "b"], "leq": [[0, 1], [0, 2]]}))
        code, out = run(capsys, "ideal-frame", str(f), "--coverage", "coherent")
        assert code == 1
        assert json.loads(out)["error"] == "InvalidStructure"

    def test_ideal_frame_chain17_skips_saturation(self, capsys, chain17_file):
        # named coverages never need saturation, so its 16-element guard does not apply
        code, out = run(capsys, "ideal-frame", chain17_file)
        assert code == 0
        assert len(json.loads(out)["result"]["frame"]["elements"]) == 18

    def test_filters_and_space_chain17_skip_saturation(self, capsys, chain17_file):
        code, out = run(capsys, "filters", "--site", chain17_file)
        assert code == 0
        assert len(json.loads(out)["result"]["filters"]) == 17
        code, out = run(capsys, "space", "--site", chain17_file)
        assert code == 0
        assert len(json.loads(out)["result"]["space"]["points"]) == 17

    @pytest.mark.parametrize("gamma, frames", [([], 0), (["--gamma", "0,3"], 1)],
                             ids=["plain", "gamma"])
    def test_space_lists_ideals_and_filters_once(self, capsys, boolean4_file, monkeypatch,
                                                 gamma, frames):
        # only --gamma reads meet and join, so only it builds the frame;
        # the J-ideals and the filters are listed once either way
        frame_calls = _count_calls(monkeypatch, order.frame_of_down_sets)
        ideal_calls = _count_calls(monkeypatch, coverage.j_ideals)
        filter_calls = _count_calls(monkeypatch, spectra.j_prime_filters)
        code, out = run(capsys, "space", "--site", boolean4_file, "--coverage", "coherent", *gamma)
        assert code == 0
        assert (len(frame_calls), len(ideal_calls), len(filter_calls)) == (frames, 1, 1)

    def test_bad_guard_env_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("STONEWORK_GUARD", "abc")
        code, out = run(capsys, "free", "--what", "mslat", "--gens", "1")
        assert code == 1
        data = json.loads(out)
        assert data["error"] == "InvalidStructure" and "STONEWORK_GUARD" in data["message"]

    def test_guard_flag_does_not_leak(self, capsys):
        code, out = run(capsys, "--guard", "3", "zariski", "--ring", "zmod:6")
        assert code == 1 and json.loads(out)["error"] == "GuardExceeded"
        code, out = run(capsys, "zariski", "--ring", "zmod:6")
        assert code == 0
        assert json.loads(out)["guards"]["frame_guard"] != 3

    def test_missing_file_exit_1(self, capsys):
        code, out = run(capsys, "ideal-frame", "no-such-file.json")
        assert code == 1

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--kind", "nonsense", "input.json"])
        assert exc.value.code == 2


def _chain_file(tmp_path, n):
    f = tmp_path / f"chain{n}.json"
    f.write_text(json.dumps({"elements": [f"c{i}" for i in range(n)],
                             "leq": [[i, i + 1] for i in range(n - 1)]}))
    return str(f)


class TestGuardsBoundRealSize:
    def test_upper_set_frame_of_chain24(self, capsys, tmp_path):
        # 2**24 subsets, but only 25 up-sets
        f = _chain_file(tmp_path, 24)
        code, out = run(capsys, "check", "--invariant", "twovalued", "--input", f)
        assert code == 0
        assert json.loads(out)["result"] == {"invariant": "twovalued", "structure": False,
                                             "frame": False}
        assert run(capsys, "--guard", "25", "check", "--invariant", "twovalued", "--input", f)[0] == 0
        code, out = run(capsys, "--guard", "24", "check", "--invariant", "twovalued", "--input", f)
        assert code == 1
        assert json.loads(out)["message"] == "upper-set frame would need 25 elements, over the guard of 24"

    def test_upper_set_frame_refused_with_its_real_size(self, capsys, tmp_path):
        f = _chain_file(tmp_path, 24)
        code, out = run(capsys, "--guard", "10", "check", "--invariant", "twovalued", "--input", f)
        assert code == 1
        assert json.loads(out) == {
            "error": "GuardExceeded",
            "message": "upper-set frame would need 11 elements, over the guard of 10",
        }

    def test_ideal_frame_guard_message(self, capsys, tmp_path):
        f = tmp_path / "antichain8.json"
        f.write_text(json.dumps({"elements": [f"a{i}" for i in range(8)], "leq": []}))
        code, out = run(capsys, "--guard", "100", "ideal-frame", str(f))
        assert code == 1
        assert json.loads(out) == {
            "error": "GuardExceeded",
            "message": "ideal frame would need 101 elements, over the guard of 100",
        }

    def test_free_mslat_refused_before_listing(self, capsys):
        code, out = run(capsys, "--guard", "1000", "free", "--what", "mslat", "--gens", "12")
        assert code == 1
        assert json.loads(out) == {
            "error": "GuardExceeded",
            "message": "free meet-semilattice would need 4096 elements, over the guard of 1000",
        }

    def test_zmod_tables_refused_before_they_are_made(self, capsys, monkeypatch):
        # N^2 cells in each table against the frame-size guard of 2**20
        monkeypatch.delenv("STONEWORK_GUARD", raising=False)
        monkeypatch.setattr(zariski, "FiniteCommRing", None)
        for n in (1025, 99999999):
            code, out = run(capsys, "zariski", "--ring", f"zmod:{n}")
            assert code == 1
            assert json.loads(out) == {
                "error": "GuardExceeded",
                "message": f"each operation table of Z/{n} would need {n * n} elements, "
                           "over the guard of 1048576",
            }

    def test_zmod_guard_follows_the_frame_guard(self, capsys, monkeypatch):
        monkeypatch.delenv("STONEWORK_GUARD", raising=False)
        assert ring_zmod(1024).n == 1024
        code, out = run(capsys, "--guard", "100", "zariski", "--ring", "zmod:11")
        assert code == 1
        assert json.loads(out)["message"] == \
            "each operation table of Z/11 would need 121 elements, over the guard of 100"
        code, out = run(capsys, "--guard", "100", "zariski", "--ring", "zmod:10", "--op-ideals")
        assert code == 0
        code, out = run(capsys, "--guard", "100", "zariski", "--ring", "zmod:10")
        assert code == 0 and json.loads(out)["guards"]["frame_guard"] == 100
        monkeypatch.setenv("STONEWORK_GUARD", "100")
        code, out = run(capsys, "zariski", "--ring", "zmod:11", "--op-ideals")
        assert code == 1 and json.loads(out)["error"] == "GuardExceeded"

    def test_horn_presentation_refused_before_listing(self, capsys, tmp_path):
        f = tmp_path / "horn12.txt"
        f.write_text("generators: " + " ".join(f"g{i}" for i in range(12)) + "\n")
        code, out = run(capsys, "--guard", "1000", "present", "--logic", "horn", str(f))
        assert code == 1
        assert json.loads(out) == {
            "error": "GuardExceeded",
            "message": "horn presentation would need 4096 elements, over the guard of 1000",
        }


class TestNoSaturationWhereOnlyFramesAreRead:
    # each of these sites is over the 16-element saturation guard
    def test_mslat_demorgan_chain17(self, capsys, chain17_file):
        code, out = run(capsys, "check", "--invariant", "demorgan", "--kind", "mslat",
                        "--input", chain17_file)
        assert code == 0
        assert json.loads(out)["result"]["holds"] is True

    def test_mslat_twovalued_chain17(self, capsys, chain17_file):
        code, out = run(capsys, "check", "--invariant", "twovalued", "--kind", "mslat",
                        "--input", chain17_file)
        assert code == 0
        assert json.loads(out)["result"]["frame"] is False

    @pytest.mark.parametrize("argv, field, value", [
        (["--invariant", "boolean"], "conditions", False),
        (["--invariant", "demorgan", "--kind", "dlat"], "conditions", True),
        (["--invariant", "twovalued", "--kind", "dlat"], "frame", False),
    ], ids=["boolean", "demorgan-dlat", "twovalued-dlat"])
    def test_frame_only_check_chain17(self, capsys, chain17_file, argv, field, value):
        # these read only the Stone frame, the ideal frame of the coherent
        # coverage; a chain is De Morgan but neither Boolean nor two-valued
        code, out = run(capsys, "check", *argv, "--input", chain17_file)
        assert code == 0
        got = json.loads(out)["result"][field]
        assert (set(got.values()) if isinstance(got, dict) else {got}) == {value}

    def test_gd_chain17_still_refused(self, capsys, chain17_file):
        # the Goedel-Dummett site law lists the sieves on each element
        code, out = run(capsys, "check", "--invariant", "gd", "--input", chain17_file)
        assert code == 1
        assert json.loads(out) == {"error": "GuardExceeded",
                                   "message": "saturation would need 17 elements, over the guard of 16"}

    def test_gd_refused_by_saturation_before_any_frame(self, capsys, chain17_file, tmp_path):
        # past both guards the site law's saturation guard refuses first,
        # before the lower sets are listed: the 17-chain under --guard 4,
        # and the 32-element Boolean lattice, whose 7,581 lower sets pass
        # the default frame guard
        b5 = tmp_path / "b5.json"
        b5.write_text(json.dumps({"elements": [str(i) for i in range(32)],
                                  "leq": [[i, i | 1 << b] for i in range(32) for b in range(5)
                                          if not i >> b & 1]}))
        for argv, n in ((["--guard", "4", "check", "--input", chain17_file], 17),
                        (["check", "--input", str(b5)], 32)):
            code, out = run(capsys, *argv, "--invariant", "gd")
            assert code == 1
            assert json.loads(out) == {"error": "GuardExceeded",
                                       "message": f"saturation would need {n} elements, over the guard of 16"}

    def test_space_on_covers_file_of_chain18(self, capsys, tmp_path):
        # {c4} covers c5 and {c9} covers c10, so D is the other 16 elements
        f = tmp_path / "site.json"
        f.write_text(json.dumps({
            "poset": {"elements": [f"c{i}" for i in range(18)], "leq": [[i, i + 1] for i in range(17)]},
            "covers": {"c5": [["c4"]], "c10": [["c9"]]},
        }))
        code, out = run(capsys, "space", "--site", str(f))
        assert code == 0
        data = json.loads(out)["result"]
        assert data["ideals"] == 17 and data["enough_points"] is True
        assert len(data["space"]["points"]) == 16


class TestSweep:
    def test_sweep_passes_and_deterministic(self, capsys):
        code1, out1 = run(capsys, "sweep", "--max-poset", "3", "--max-dlat", "4",
                          "--random-sites", "5")
        assert code1 == 0
        data = json.loads(out1)
        assert data["result"]["all_passed"]
        code2, out2 = run(capsys, "sweep", "--max-poset", "3", "--max-dlat", "4",
                          "--random-sites", "5")
        assert out1 == out2


def test_malformed_json_exit_1(capsys, tmp_path):
    f = tmp_path / "bad.json"
    f.write_text("{not json")
    code, out = run(capsys, "ideal-frame", str(f))
    assert code == 1
    data = json.loads(out)
    assert data["error"] == "ParseError" and "line" in data["message"]


def test_all_named_coverages_reachable(capsys, tmp_path, boolean4_file):
    for kind in ("trivial", "coherent", "canonical", "disjunctive", "atomic",
                 "supercompact", "directed", "k:2", "k:3"):
        code, out = run(capsys, "filters", "--site", boolean4_file, "--coverage", kind)
        assert code == 0, (kind, out)


CHAIN2 = {"elements": ["a", "b"], "leq": [[0, 1]]}


@pytest.mark.parametrize(
    "content, argv, error",
    [
        (CHAIN2, ["ideal-frame", "{f}", "--coverage", "k:abc"], "ParseError"),
        (None, ["zariski", "--ring", "zmod:abc"], "ParseError"),
        (CHAIN2, ["space", "--site", "{f}", "--gamma", "0,x"], "ParseError"),
        (CHAIN2, ["space", "--site", "{f}", "--gamma=0,2,9"], "InvalidStructure"),
        (CHAIN2, ["space", "--site", "{f}", "--gamma=0,2,-1"], "InvalidStructure"),
        ({"n": 3, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}, ["zariski", "--ring", "{f}"],
         "ParseError"),
        ({"poset": CHAIN2, "covers": [["a"]]}, ["filters", "--site", "{f}"], "ParseError"),
        ({"poset": CHAIN2, "covers": {"b": "ab"}}, ["filters", "--site", "{f}"], "ParseError"),
        (5, ["filters", "--site", "{f}"], "ParseError"),
        (b"\xff\xfe", ["zariski", "--ring", "{f}"], "ParseError"),
        (b"generators: a\n\xff <= a\n", ["present", "--logic", "coherent", "{f}"], "ParseError"),
        (None, ["zariski", "--ring", "{d}"], "FileError"),
        (b"generators: a\n" + b"(" * 3000 + b"a" + b")" * 2999 + b" <= a\n",
         ["present", "--logic", "coherent", "{f}"], "ParseError"),
        (b"generators: a\n" + b"a & " * 3000 + b"<= a\n",
         ["present", "--logic", "horn", "{f}"], "ParseError"),
        (None, ["free", "--what", "mslat", "--gens", "-1"], "InvalidStructure"),
        (None, ["free", "--what", "frame-set", "--gens", "-1"], "InvalidStructure"),
        ({"elements": "ab", "leq": []}, ["ideal-frame", "{f}"], "ParseError"),
        ({"elements": ["a", "b"], "leq": [[0, 1.7]]}, ["ideal-frame", "{f}"], "ParseError"),
        ({"elements": ["a", "b"], "leq": [[0, 1.7]]}, ["filters", "--site", "{f}"], "ParseError"),
        ({"elements": ["a", "b"], "leq": [[0, "1"]]}, ["ideal-frame", "{f}"], "ParseError"),
        ({"elements": ["a", "b"], "leq": [[0, True]]}, ["ideal-frame", "{f}"], "ParseError"),
        ({"elements": ["a", "b"], "leq": ["01"]}, ["ideal-frame", "{f}"], "ParseError"),
        ({"elements": ["a", "b"], "leq": [[0, 1, 1]]}, ["ideal-frame", "{f}"], "ParseError"),
        ({"n": 2, "add": [[0, 1], [1, 0]], "mul": [[0.4, 0], [0, 1]]}, ["zariski", "--ring", "{f}"],
         "ParseError"),
        ({"n": 2, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, True]]}, ["zariski", "--ring", "{f}"],
         "ParseError"),
        ({"n": 2.0, "add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]]}, ["zariski", "--ring", "{f}"],
         "ParseError"),
        (CHAIN2, ["space", "--site", "{f}", "--gamma", ""], "ParseError"),
    ],
    ids=["k-not-int", "zmod-not-int", "gamma-not-int", "gamma-past-top", "gamma-negative",
         "ring-rows-short", "covers-list", "family-string", "site-number",
         "ring-not-utf8", "presentation-not-utf8", "ring-directory",
         "presentation-nested-parentheses", "presentation-long-meet",
         "free-mslat-negative", "free-frame-set-negative",
         "elements-string", "leq-float", "filters-leq-float", "leq-string", "leq-bool",
         "leq-pair-string", "leq-triple", "ring-float", "ring-bool", "ring-n-float",
         "gamma-empty"],
)
def test_malformed_input_exit_1(capsys, tmp_path, content, argv, error):
    f = tmp_path / "input.json"
    if isinstance(content, bytes):
        f.write_bytes(content)
    else:
        f.write_text(json.dumps(content))
    paths = {"{f}": str(f), "{d}": str(tmp_path)}
    code = main([paths.get(a, a) for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    _assert_canonical(captured.out)
    data = json.loads(captured.out)
    assert sorted(data) == ["error", "message"] and data["error"] == error


# runs `present` on each argv list read from stdin with the recursion
# limit at 200, printing [exit code, stdout] pairs
_LOW_STACK_RUNNER = """
import contextlib, io, json, sys
from stonework.cli import main
runs = json.load(sys.stdin)
sys.setrecursionlimit(200)
out = []
for argv in runs:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(argv)
    out.append([code, buf.getvalue()])
sys.stdout.write(json.dumps(out))
"""


def test_deep_terms_run_without_recursion(tmp_path):
    # every term T below equals a; with a <= b, `T = a & b` holds and
    # `b <= T` does not, and each route is asked both across the terms.
    # Run under a recursion limit of 200, so that no reader of terms may
    # recurse per level.
    terms = {"meets": (" & ".join(["a"] * 5000), True),
             "joins": (" | ".join(["a"] * 5000), False),
             "parentheses": ("(" * 2000 + "a" + ")" * 2000, True),
             "join-levels": ("join(" * 1000 + "a" + ")" * 1000, False)}
    routes = [["--logic", "horn"], ["--logic", "coherent"], ["--logic", "geometric", "--semantic"]]
    runs, want = [], []
    for i, (name, (term, horn)) in enumerate(terms.items()):
        f = tmp_path / f"{name}.txt"
        f.write_text(f"generators: a b\n{term} <= b\n")
        for j, route in enumerate(routes):
            if route[1] == "horn" and not horn:
                continue
            holds = (i + j) % 2 == 0
            query = f"{term} = a & b" if holds else f"b <= {term}"
            runs.append(["present", *route, str(f), "--query", query])
            want.append((name, route[1], holds))
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", _LOW_STACK_RUNNER], input=json.dumps(runs),
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr[-2000:]
    results = json.loads(proc.stdout)
    assert len(results) == len(want)
    for (code, out), (name, logic, holds) in zip(results, want):
        assert code == 0, (name, logic, out[:300])
        assert json.loads(out)["result"]["holds"] is holds, (name, logic)


_KEYS = ["elements", "leq", "poset", "covers", "n", "add", "mul", "a", "b"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
    | st.sampled_from(["a", "b", "0", "ab"]),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=6),
    max_leaves=20,
)
_PRESENTATION = st.text(max_size=40) | st.builds(
    "generators: a b\n".__add__, st.text(alphabet="ab01&|()=<,# \njoin", max_size=30))


def _nested(parens, joins, unclosed, op, terms):
    return ("generators: a b\n" + "(" * parens + "join(" * joins + f" {op} ".join(["a"] * terms)
            + ")" * (parens + joins - unclosed) + " <= b\n")


# deep nesting, long chains, and one parenthesis too few or too many
_NESTED = st.builds(_nested, st.integers(0, 1200), st.integers(0, 500), st.integers(-1, 1),
                    st.sampled_from(["&", "|", ","]), st.integers(1, 1200))


def _exit_code(argv):
    """main(argv) with stdout and stderr captured; JSON is checked on exit 1."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            return exc.code
    if code == 1:
        assert sorted(json.loads(out.getvalue())) == ["error", "message"]
    if code in (0, 1):
        _assert_canonical(out.getvalue())
    assert err.getvalue() == ""
    return code


@settings(max_examples=80, derandomize=True, deadline=None)
@given(value=_JSON, text=_PRESENTATION, logic=st.sampled_from(["horn", "coherent", "geometric"]),
       nested=_NESTED)
def test_loaders_fuzzed_through_main(tmp_path_factory, value, text, logic, nested):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "value.json").write_text(json.dumps(value))
    (d / "pres.txt").write_text(text)
    (d / "nested.txt").write_text(nested)
    f, pres = str(d / "value.json"), str(d / "pres.txt")
    for argv in (["ideal-frame", f], ["filters", "--site", f], ["zariski", "--ring", f],
                 ["present", "--logic", logic, pres]):
        assert _exit_code(argv) in (0, 1, 2), argv
    assert _exit_code(["present", "--logic", logic, str(d / "nested.txt")]) in (0, 1)


def _count_calls(monkeypatch, fn):
    """Wrap every binding of `fn` across the loaded stonework modules, as
    the benchmark's tracer does; returns the list the calls append to."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(fn.__name__)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("stonework") and getattr(module, fn.__name__, None) is fn:
            monkeypatch.setattr(module, fn.__name__, counted)
    return calls


def test_one_emit_per_command_and_one_frame_per_ideal_frame(capsys, monkeypatch, boolean4_file,
                                                            chain17_file):
    emits = _count_calls(monkeypatch, formats.dump)
    frames = _count_calls(monkeypatch, order.frame_of_down_sets)
    # (argv, frame_of_down_sets calls, or None where not pinned)
    commands = [(["ideal-frame", boolean4_file, "--coverage", "coherent"], 1),
                (["ideal-frame", chain17_file], 1),
                (["ideal-frame", boolean4_file, "--coverage", "k:x"], 0),
                (["space", "--site", boolean4_file], 0),
                (["filters", "--site", boolean4_file], None),
                (["zariski", "--ring", "zmod:12"], None),
                (["free", "--what", "mslat", "--gens", "3"], None),
                (["check", "--invariant", "boolean", "--input", boolean4_file], None),
                (["dual", "--kind", "birkhoff", boolean4_file], None)]
    for argv, frame_calls in commands:
        del emits[:], frames[:]
        run(capsys, *argv)
        assert len(emits) == 1, argv
        assert frame_calls is None or len(frames) == frame_calls, argv


def test_parser_state_does_not_carry_between_calls(capsys, boolean4_file):
    assert cli.build_parser() is cli.build_parser()
    code, out = run(capsys, "space", "--site", boolean4_file, "--dot")
    assert code == 0 and out.startswith("digraph")
    code, out = run(capsys, "space", "--site", boolean4_file)
    assert code == 0 and "space" in json.loads(out)["result"]


def test_usage_error_then_valid_call(capsys, boolean4_file):
    argv = ["space", "--site", boolean4_file, "--coverage", "coherent"]
    cli.build_parser.cache_clear()
    first = run(capsys, *argv)
    assert first[0] == 0
    for bad in (["space", "--site", boolean4_file, "--dot", "--gamma"],
                ["space", "--site", boolean4_file, "--bogus"]):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        capsys.readouterr()
        assert run(capsys, *argv) == first


def test_replaced_command_runs_after_the_parser_is_built(capsys, boolean4_file, monkeypatch):
    run(capsys, "filters", "--site", boolean4_file)
    monkeypatch.setattr(cli, "cmd_filters", lambda args: 7)
    assert main(["filters", "--site", boolean4_file]) == 7


_FLOATS = st.floats() | st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300])
_SCALAR = (st.none() | st.booleans() | st.integers(-3, 40) | st.integers(-2 ** 80, 2 ** 80)
           | _FLOATS | st.text(max_size=6) | st.sampled_from(["\n\"\\", "\u00e9\u4e2d\U0001f600", "\x00\x1f"]))
_ROWS = st.lists(st.lists(st.integers(0, 40) | st.integers(-3, 3) | st.booleans(), max_size=6),
                 max_size=6)
_VALUE = st.recursive(
    _SCALAR | _ROWS,
    lambda inner: (st.lists(inner, max_size=5) | st.tuples(inner, inner)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=5)
                   | st.dictionaries(st.integers(-3, 3), inner, max_size=3)),
    max_leaves=30,
)


# the explicit examples are the edges of the digit-row path: a bool, a
# negative, an empty row, a value at or past the cell count, a float, a
# huge int and deeper nesting
@settings(max_examples=200, derandomize=True, deadline=None)
@given(_VALUE)
@example([[0, True]])
@example([[1, -1]])
@example([[], [3]])
@example([[0], []])
@example([(1, 2), [3, 4]])
@example([(1, 2), [3, 0]])
@example([[2 ** 70, 0]])
@example([[0, 1.0]])
@example([[7, 0]])
@example([[[0, 1]], [[2]]])
def test_dumps_is_json_dumps_byte_for_byte(value):
    want = json.dumps(value, sort_keys=True, indent=2) + "\n"
    assert dumps(value) == want
    pieces = []
    dump(value, pieces.append)
    assert "".join(pieces) == want


def _plain_frame(fr):
    """frame_to_json(fr) as plain lists, the tables read off the order
    (`_tables_from_order`) and not off the frame's masks or tables."""
    meet, join = fr._tables_from_order()
    return {"elements": [fr.label(i) for i in range(fr.n)],
            "leq": [[i, j] for i in range(fr.n) for j in range(fr.n) if i != j and fr.leq(i, j)],
            "bot": fr.bot, "top": fr.top, "meet": meet, "join": join}


def _assert_frame_text(fr):
    assert dumps(frame_to_json(fr)) == json.dumps(_plain_frame(fr), sort_keys=True, indent=2) + "\n"


def test_dumps_on_frame_tables():
    # the 7-antichain's frame has 128 elements, past the 64 up to which
    # frame_of_down_sets makes and checks its tables
    for p in (preorder_from_pairs(6, []), preorder_from_pairs(5, [(0, 1), (1, 2), (0, 3)]),
              preorder_from_pairs(7, [])):
        fr = lower_sets(p)
        obj = {"frame": frame_to_json(fr), "ring": ring_to_json(ring_zmod(12))}
        plain = {"frame": _plain_frame(fr), "ring": ring_to_json(ring_zmod(12))}
        assert dumps(obj) == json.dumps(plain, sort_keys=True, indent=2) + "\n"
    # a one-element frame has no order pairs; its frame read from JSON
    # holds its tables
    _assert_frame_text(lower_sets(preorder_from_pairs(0, [])))
    _assert_frame_text(frame_from_json(json.loads(dumps(frame_to_json(fr)))))


def test_frame_text_of_every_ideal_frame():
    # the J-ideal frames of every topology on the posets with at most 5
    # elements, and of seeded raw coverages on sparse preorders of 7 to 10
    # elements, some past 64 ideals, where the frame's tables are never made
    for p in posets_upto(5):
        for sieves in all_grothendieck_topologies(p):
            _assert_frame_text(ideal_frame(GrothendieckTopology(p, sieves, _checked=True)))
    sizes = []
    for seed in range(20):
        rng = random.Random(seed)
        n = rng.randint(7, 10)
        p = preorder_from_pairs(n, [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 4))])
        fr = ideal_frame(random_coverage(p, rng))
        sizes.append(fr.n)
        _assert_frame_text(fr)
        assert fr.n <= 64 or "meet" not in vars(fr) and "join" not in vars(fr)
    assert max(sizes) > 64


def _cli_process(tmp_path, argv, stdout, unbuffered):
    """The CLI as `python -m stonework.cli`, its stdout as given and its
    stderr piped, with Python's stdout buffer on or off."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.Popen([sys.executable, "-m", "stonework.cli", *argv], stdout=stdout,
                            stderr=subprocess.PIPE, env=env, cwd=tmp_path)


def _antichain10(tmp_path):
    f = tmp_path / "antichain10.json"
    f.write_text(json.dumps({"elements": [f"a{i}" for i in range(10)], "leq": []}))
    return ["ideal-frame", str(f)]


@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
@pytest.mark.parametrize("command", ["zariski", "ideal-frame"])
def test_reader_that_stops_early_is_no_error(tmp_path, command, unbuffered):
    # like `stonework ... | head -c 10`: exit 0 and nothing on stderr.
    # zariski writes into a pipe whose reader is already gone; the
    # 10-antichain's 34 MB frame overruns a pipe whose reader took 10 bytes
    argv = ["zariski", "--ring", "zmod:60"] if command == "zariski" else _antichain10(tmp_path)
    read, write = os.pipe()
    if command == "zariski":
        os.close(read)
    proc = _cli_process(tmp_path, argv, write, unbuffered)
    os.close(write)
    if command == "ideal-frame":
        with os.fdopen(read, "rb") as pipe:
            assert pipe.read(10) == b'{\n  "guard'
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 0 and err == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
def test_full_stdout_is_an_output_error(tmp_path, unbuffered):
    # stdout can no longer carry the JSON, so stderr does, with exit 1
    with open("/dev/full", "wb") as full:
        proc = _cli_process(tmp_path, ["zariski", "--ring", "zmod:60"], full, unbuffered)
    err = proc.stderr.read()
    assert proc.wait(timeout=120) == 1
    assert json.loads(err) == {"error": "OutputError", "message": "[Errno 28] No space left on device"}
