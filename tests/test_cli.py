"""cli: subcommand behaviour, round trips, determinism, exit codes."""

import contextlib
import io
import json

import pytest
from hypothesis import given, settings, strategies as st

from stonework.cli import main
from stonework.formats import (
    coverage_from_json,
    coverage_to_json,
    frame_from_json,
    frame_to_json,
    poset_from_json,
    poset_to_json,
    ring_from_json,
    ring_to_json,
    space_from_json,
    space_to_json,
)
from stonework.coverage import named_coverage
from stonework.order import as_poset, lower_sets, preorder_from_pairs
from stonework.spectra import alexandrov_space
from stonework.zariski import ring_zmod


@pytest.fixture
def chain2_file(tmp_path):
    f = tmp_path / "chain2.json"
    f.write_text(json.dumps({"elements": ["a", "b"], "leq": [[0, 1]]}))
    return str(f)


@pytest.fixture
def boolean4_file(tmp_path):
    f = tmp_path / "b4.json"
    f.write_text(
        json.dumps({"elements": ["0", "a", "b", "1"], "leq": [[0, 1], [0, 2], [1, 3], [2, 3]]})
    )
    return str(f)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
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
        fr2 = frame_from_json(frame_to_json(fr))
        assert fr2.meet == fr.meet and fr2.join == fr.join

    def test_space(self):
        sp = alexandrov_space(preorder_from_pairs(2, [(0, 1)]))
        sp2 = space_from_json(space_to_json(sp))
        assert sp2.opens == sp.opens

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

    def test_ideal_frame_chain17_skips_saturation(self, capsys, tmp_path):
        # named coverages never need saturation, so its 16-element guard does not apply
        f = tmp_path / "chain17.json"
        f.write_text(json.dumps({"elements": [f"c{i}" for i in range(17)],
                                 "leq": [[i, i + 1] for i in range(16)]}))
        code, out = run(capsys, "ideal-frame", str(f))
        assert code == 0
        assert len(json.loads(out)["result"]["frame"]["elements"]) == 18

    def test_bad_guard_env_exit_1(self, capsys, monkeypatch):
        monkeypatch.setenv("STONEWORK_GUARD", "abc")
        code, out = run(capsys, "free", "--what", "mslat", "--gens", "1")
        assert code == 1
        data = json.loads(out)
        assert data["error"] == "InvalidStructure" and "STONEWORK_GUARD" in data["message"]

    def test_missing_file_exit_1(self, capsys):
        code, out = run(capsys, "ideal-frame", "no-such-file.json")
        assert code == 1

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["dual", "--kind", "nonsense", "input.json"])
        assert exc.value.code == 2


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
    ],
    ids=["k-not-int", "zmod-not-int", "gamma-not-int", "gamma-past-top", "gamma-negative",
         "ring-rows-short", "covers-list", "family-string", "site-number"],
)
def test_malformed_input_exit_1(capsys, tmp_path, content, argv, error):
    f = tmp_path / "input.json"
    f.write_text(json.dumps(content))
    code = main([str(f) if a == "{f}" else a for a in argv])
    captured = capsys.readouterr()
    assert code == 1 and captured.err == ""
    data = json.loads(captured.out)
    assert sorted(data) == ["error", "message"] and data["error"] == error


_KEYS = ["elements", "leq", "poset", "covers", "n", "add", "mul", "a", "b"]
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats()
    | st.sampled_from(["a", "b", "0", "ab"]),
    lambda inner: st.lists(inner, max_size=6) | st.dictionaries(st.sampled_from(_KEYS), inner, max_size=6),
    max_leaves=20,
)
_PRESENTATION = st.text(max_size=40) | st.builds(
    "generators: a b\n".__add__, st.text(alphabet="ab01&|()=<,# \njoin", max_size=30))


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
    assert err.getvalue() == ""
    return code


@settings(max_examples=80, derandomize=True, deadline=None)
@given(value=_JSON, text=_PRESENTATION, logic=st.sampled_from(["horn", "coherent", "geometric"]))
def test_loaders_fuzzed_through_main(tmp_path_factory, value, text, logic):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "value.json").write_text(json.dumps(value))
    (d / "pres.txt").write_text(text)
    f, pres = str(d / "value.json"), str(d / "pres.txt")
    for argv in (["ideal-frame", f], ["filters", "--site", f], ["zariski", "--ring", f],
                 ["present", "--logic", logic, pres]):
        assert _exit_code(argv) in (0, 1, 2), argv
