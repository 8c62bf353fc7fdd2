import json
import os
import re
import subprocess
import sys
from fractions import Fraction

import pytest

from rbmx import cli, core
from rbmx.automata import ma_to_json
from rbmx.core import system_from_json
from rbmx.embeddings import (
    pa_compose,
    pa_from_json,
    pa_to_json,
    spa_embed_pa,
    spa_from_json,
    spa_to_json,
    spa_to_ma,
)
from rbmx.errors import CapExceeded, MalformedSystem
from rbmx.rblang import parse
from rbmx.rblang.syntax import MAX_NESTING

from .oracles import sim_equivalent_not_bisimilar
from .test_rblang import BAD_PRIORS, HOSTILE, OFF_TABLE, TYPED_CONSTANTS

CLI = [sys.executable, "-m", "rbmx.cli"]

COUNTER = """
domain z4 = { 0, 1, 2, 3 }
var x : z4
func inc : z4 -> z4 { 0 -> 1, 1 -> 2, 2 -> 3, 3 -> 0 }

|| init x = 0
|| x = inc(pre x)
"""

NOISY = """
domain bit = { 0, 1 }
var x : bit
var y : bit
func neg : bit -> bit { 0 -> 1, 1 -> 0 }
dist coin : bit { 0 : 1/2, 1 : 1/2 }

|| x ~ coin
|| y = neg(x)
|| observe y
"""

CONTRA = """
domain bit = { 0, 1 }
var x : bit
var y : bit
dist coin : bit { 0 : 1/2, 1 : 1/2 }

|| x ~ coin
|| y = x
|| x = 0
|| observe y
"""

CHAINS = """
domain bool = { F, T }
var x0, n0 : bool
var x1, n1 : bool
var x2, n2 : bool
func xor2 : (bool, bool) -> bool { (F,F) -> F, (F,T) -> T, (T,F) -> T, (T,T) -> F }
|| init x0 = F
|| n0 ~ Bernoulli(1/3)
|| x0 = xor2(pre x0, n0)
|| init x1 = F
|| n1 ~ Bernoulli(1/3)
|| x1 = xor2(pre x1, n1)
|| observe x1
|| init x2 = F
|| n2 ~ Bernoulli(1/3)
|| x2 = xor2(pre x2, n2)
"""

CHAINS_OBS = ('{"x1": false}\n{"x1": true}\n{"x1": true}\n{"x1": false}\n'
              '{"x1": false}\n')


def _chain_state(bits):
    """'n0 n1 n2 x0 x1 x2' as six 0/1 characters -> a trace entry."""
    names = ("n0", "n1", "n2", "x0", "x1", "x2")
    return {nm: b == "1" for nm, b in zip(names, bits)}


# `rbmx sample` of CHAINS, seed 7, 6 steps: draw order is observable
CHAINS_SEED7 = {
    "actions": [{}] * 5,
    "flags": [True] * 5,
    "norms": ["2/3", "1/3", "2/3", "1/3", "2/3"],
    "trace": [{"x0": False, "x1": False, "x2": False}]
    + [_chain_state(b) for b in ("001001", "010011", "100111", "010101", "000101")],
}

GUARDED = """
domain bool = { F, T }
var b, x, y : bool

|| init b = T
|| y ~ Bernoulli(1/3)
|| on pre b then { x = y || b = F || observe x } else { x = T || b = T }
"""

GUARDED_OBS = "".join('{"x": %s}\n' % v for v in
                      "true false true true false false true false true".split())


def _guarded_run(states):
    """A 10-instant `rbmx sample` of GUARDED from 'bxy' 0/1 triples of
    instants 1..9; instant 0 binds only b, and pre b alternates from T."""
    return {
        "actions": [{"pre b": n % 2 == 0} for n in range(9)],
        "flags": [True] * 9,
        "norms": ["1/3", "1/1", "1/3", "1/1", "2/3", "1/1", "1/3", "1/1", "1/3"],
        "trace": [{"b": True}]
        + [{nm: c == "1" for nm, c in zip("bxy", st)} for st in states.split()],
    }


# `rbmx sample` of GUARDED, --resolver uniform, by seed: an observe inside
# an on-branch is active on every other step only
GUARDED_SEEDS = {
    1: _guarded_run("011 110 011 110 000 110 011 111 011"),
    2: _guarded_run("011 110 011 110 000 110 011 111 011"),
    3: _guarded_run("011 110 011 110 000 111 011 111 011"),
}

S_AB = {
    "domains": {"ab": ["a", "b"]},
    "vars": [{"name": "x", "domain": "ab"}],
    "omega": ["o1", "o2"],
    "pi": {"o1": "1/2", "o2": "1/2"},
    "rel": [["o1", {"x": "a"}], ["o2", {"x": "b"}]],
}

POLAR = {
    "domains": {"bit": [0, 1]},
    "vars": [{"name": "x", "domain": "bit"}],
    "omega": ["o1", "o2", "o3"],
    "pi": {"o1": "1/3", "o2": "1/3", "o3": "1/3"},
    "rel": [["o1", {"x": 0}], ["o1", {"x": 1}], ["o2", {"x": 0}],
            ["o3", {"x": 1}]],
    "blocks": [{"outcomes": ["o1", "o2"], "polarity": "demon"},
               {"outcomes": ["o3"], "polarity": "angel"}],
}

SPA_DOC = {
    "kind": "spa",
    "alphabet": ["a"],
    "states": ["q0", "q1"],
    "initial": "q0",
    "transitions": [{"from": "q0", "action": "a", "dist": [["q1", "1/1"]]}],
}

PA_DOC = {
    "kind": "pa",
    "alphabet": ["b"],
    "states": ["r0"],
    "initial": "r0",
    "transitions": [{"from": "r0", "dist": [["b", "r0", "1/1"]]}],
}


def run_cli(*args, seed=None):
    env = dict(os.environ)
    env.pop("RBMX_SEED", None)
    if seed is not None:
        env["RBMX_SEED"] = str(seed)
    return subprocess.run(CLI + list(args), capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.fixture()
def files(tmp_path):
    paths = {}
    for name, text in (("counter.rb.mx", COUNTER), ("noisy.rb.mx", NOISY),
                       ("contra.rb.mx", CONTRA)):
        (tmp_path / name).write_text(text)
        paths[name] = str(tmp_path / name)
    for name, doc in (("sab.json", S_AB), ("polar.json", POLAR),
                      ("spa.json", SPA_DOC), ("pa.json", PA_DOC)):
        (tmp_path / name).write_text(json.dumps(doc))
        paths[name] = str(tmp_path / name)
    (tmp_path / "obs.jsonl").write_text('{"y": 1}\n{"y": 0}\n{"y": 1}\n')
    paths["obs.jsonl"] = str(tmp_path / "obs.jsonl")
    (tmp_path / "badobs.jsonl").write_text('{"y": 0}\n{"y": 1}\n')
    paths["badobs.jsonl"] = str(tmp_path / "badobs.jsonl")
    paths["dir"] = str(tmp_path)
    return paths


class TestParseElaborate:
    def test_parse_reports_shape(self, files):
        r = run_cli("parse", files["counter.rb.mx"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["vars"] == {"x": "z4"}
        assert doc["mode_hint"] == "dynamic"

    def test_parse_syntax_error_is_exit_2(self, files, tmp_path):
        bad = tmp_path / "bad.rb.mx"
        bad.write_text("domain d = { }\n")
        r = run_cli("parse", str(bad))
        assert r.returncode == 2
        assert "error" in r.stderr

    @pytest.mark.parametrize("name", sorted(HOSTILE))
    def test_parse_hostile_input_is_exit_2(self, name, tmp_path):
        text, words = HOSTILE[name]
        bad = tmp_path / "hostile.rb.mx"
        bad.write_text(text)
        r = run_cli("parse", str(bad))
        assert r.returncode == 2, r.stderr[-300:]
        assert words in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("name", ["Bernoulli of a string", "Bernoulli of a boolean"])
    def test_bernoulli_parameter_must_be_a_number(self, name, tmp_path, capsys):
        text, _, words = BAD_PRIORS[name]
        prog = tmp_path / "bern.rb.mx"
        prog.write_text(text)
        for argv in (["parse", str(prog)], ["elaborate", str(prog), "--mode", "static"]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and words in err

    @pytest.mark.parametrize("name", sorted(TYPED_CONSTANTS))
    def test_a_constant_of_another_type_is_exit_2(self, name, tmp_path, capsys):
        text, words = TYPED_CONSTANTS[name]
        prog = tmp_path / "typed.rb.mx"
        prog.write_text(text)
        for argv in (["parse", str(prog)], ["elaborate", str(prog), "--mode", "static"]):
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and words in err

    def test_long_wrong_dist_total_is_named_by_its_size(self, tmp_path, capsys):
        # 60 weights with 98-digit denominators: each literal is short, their
        # total is past the limit for integer text and is not 1
        text = ("domain v = { %s }\nvar x : v\ndist d : v { %s }\n|| x ~ d\n"
                % (", ".join(map(str, range(60))),
                   ", ".join("%d : 1/%d" % (i, 10 ** 97 + 2 * i + 1) for i in range(60))))
        message = r"weights sum to a fraction of about \d+ digits, not 1$"
        with pytest.raises(MalformedSystem, match=message):
            parse(text)
        prog = tmp_path / "long.rb.mx"
        prog.write_text(text)
        assert cli.main(["parse", str(prog)]) == 2
        out, err = capsys.readouterr()
        assert out == "" and re.match("error: " + message, err)

    def test_elaborate_static(self, files):
        r = run_cli("elaborate", files["noisy.rb.mx"], "--mode", "static",
                    "--obs", '{"y": 1}')
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert set(doc["pi"]) == set(doc["omega"])
        names = [v["name"] for v in doc["vars"]]
        assert names == ["x", "y"]

    def test_elaborate_static_obs_not_an_object_is_exit_2(self, files):
        r = run_cli("elaborate", files["noisy.rb.mx"], "--mode", "static",
                    "--obs", "5")
        assert r.returncode == 2, r.stderr
        assert "observation record 5 is not an object" in r.stderr
        assert "Traceback" not in r.stderr

    def test_elaborate_static_without_obs_is_exit_2(self, files):
        r = run_cli("elaborate", files["noisy.rb.mx"], "--mode", "static")
        assert r.returncode == 2

    def test_function_outside_its_table_is_exit_2(self, tmp_path):
        prog = tmp_path / "off.rb.mx"
        prog.write_text(OFF_TABLE + "|| x ~ Uniform(tri) || y = f(x)")
        r = run_cli("elaborate", str(prog), "--mode", "static")
        assert r.returncode == 2
        assert r.stderr == "error: function f is not defined at (2)\n"

    def test_elaborate_graph(self, files):
        r = run_cli("elaborate", files["noisy.rb.mx"], "--mode", "graph")
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert {k["name"] for k in doc["kernels"]}
        assert "y" in [v["name"] for v in doc["variables"]]

    def test_elaborate_dynamic_round_trips_through_simcheck(self, files, tmp_path):
        r = run_cli("elaborate", files["counter.rb.mx"], "--mode", "dynamic")
        assert r.returncode == 0, r.stderr
        ma = tmp_path / "counter.ma.json"
        ma.write_text(r.stdout)
        rc = run_cli("simcheck", str(ma), str(ma))
        assert rc.returncode == 0, rc.stderr
        verdict = json.loads(rc.stdout)
        assert verdict["verdict"] is True


class TestSample:
    def test_seeded_runs_are_byte_identical(self, files):
        a = run_cli("sample", files["noisy.rb.mx"], "--steps", "4",
                    "--seed", "11", "--obs", files["obs.jsonl"])
        b = run_cli("sample", files["noisy.rb.mx"], "--steps", "4",
                    "--seed", "11", "--obs", files["obs.jsonl"])
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        doc = json.loads(a.stdout)
        assert [st["x"] for st in doc["trace"][1:]] == [0, 1, 0]
        assert doc["norms"] == ["1/2", "1/2", "1/2"]

    def test_seeded_chain_trace_is_pinned(self, tmp_path):
        prog = tmp_path / "chains.rb.mx"
        prog.write_text(CHAINS)
        obs = tmp_path / "chains.jsonl"
        obs.write_text(CHAINS_OBS)
        r = run_cli("sample", str(prog), "--steps", "6", "--seed", "7",
                    "--obs", str(obs))
        assert r.returncode == 0, r.stderr
        assert r.stdout == json.dumps(CHAINS_SEED7, sort_keys=True, indent=2) + "\n"

    @pytest.mark.parametrize("seed", sorted(GUARDED_SEEDS))
    def test_seeded_guarded_trace_is_pinned(self, tmp_path, seed):
        prog = tmp_path / "guarded.rb.mx"
        prog.write_text(GUARDED)
        obs = tmp_path / "guarded.jsonl"
        obs.write_text(GUARDED_OBS)
        r = run_cli("sample", str(prog), "--steps", "10", "--seed", str(seed),
                    "--resolver", "uniform", "--obs", str(obs))
        assert r.returncode == 0, r.stderr
        assert r.stdout == json.dumps(GUARDED_SEEDS[seed], sort_keys=True, indent=2) + "\n"

    def test_observation_record_not_an_object_is_exit_2(self, files, tmp_path):
        bad = tmp_path / "five.jsonl"
        bad.write_text("5\n5\n")
        r = run_cli("sample", files["noisy.rb.mx"], "--steps", "3",
                    "--seed", "0", "--obs", str(bad))
        assert r.returncode == 2, r.stderr
        assert "observation record 5 is not an object" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("steps", ["0", "-3"])
    def test_fewer_than_one_instant_is_exit_2(self, files, capsys, steps):
        assert cli.main(["sample", files["counter.rb.mx"], "--steps", steps]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "a run covers at least one instant, not %s" % steps in err

    def test_observation_of_another_type_is_exit_2(self, tmp_path, capsys):
        # a bool variable observed as 1, a { 0, 1 } variable as true
        bits = "domain d = { 0, 1 }\nvar x : d\n|| init x = 0\n|| x = pre x\n|| observe x\n"
        cases = ((CHAINS, '{"x1": 1}'), (bits, '{"x": true}'), (bits, '{"x": 0.0}'))
        for i, (text, rec) in enumerate(cases):
            prog, obs = tmp_path / ("p%d.rb.mx" % i), tmp_path / ("p%d.jsonl" % i)
            prog.write_text(text)
            obs.write_text(rec + "\n")
            argv = ["sample", str(prog), "--steps", "2", "--obs", str(obs)]
            assert cli.main(argv) == 2, rec
            out, err = capsys.readouterr()
            assert out == "" and "outside the domain of" in err, err

    def test_env_seed_is_the_default(self, files):
        a = run_cli("sample", files["counter.rb.mx"], "--steps", "5", seed=9)
        b = run_cli("sample", files["counter.rb.mx"], "--steps", "5", seed=9)
        assert a.returncode == 0, a.stderr
        assert a.stdout == b.stdout
        doc = json.loads(a.stdout)
        assert [st["x"] for st in doc["trace"]] == [0, 1, 2, 3, 0]

    def test_contradiction_is_exit_3(self, files):
        r = run_cli("sample", files["contra.rb.mx"], "--steps", "3",
                    "--seed", "0", "--obs", files["badobs.jsonl"])
        assert r.returncode == 3
        assert "step 2" in r.stderr

    def test_missing_obs_file_is_exit_2(self, files):
        r = run_cli("sample", files["noisy.rb.mx"], "--steps", "3",
                    "--seed", "0", "--obs", files["dir"] + "/nope.jsonl")
        assert r.returncode == 2

    def test_a_run_too_long_to_keep_is_refused_before_its_first_step(self, tmp_path):
        # a noisy xor chain over x and n: 3,000,000 instants would keep
        # 6,000,000 values, above core.MAX_OUTCOMES
        prog = tmp_path / "chain.rb.mx"
        prog.write_text("domain bool = { F, T }\nvar x, n : bool\n"
                        "func xor2 : (bool, bool) -> bool "
                        "{ (F,F) -> F, (F,T) -> T, (T,F) -> T, (T,T) -> F }\n"
                        "|| init x = F\n|| n ~ Bernoulli(1/10)\n|| x = xor2(pre x, n)\n")
        r = run_cli("sample", str(prog), "--steps", "3000000", "--seed", "1")
        assert r.returncode == 2 and r.stdout == ""
        assert r.stderr == (
            "error: a run of 3000000 instants over 2 visible variables would keep "
            "6000000 values, above the cap of %d\n" % core.MAX_OUTCOMES)


class TestEval:
    def test_outer_matches_the_worked_example(self, files):
        r = run_cli("eval", files["sab.json"], "--query", "x=b",
                    "--mode", "outer")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["value"] == "1/2"

    def test_inner_and_likelihood(self, files):
        for mode in ("inner", "likelihood"):
            r = run_cli("eval", files["sab.json"], "--query", "x=b",
                        "--mode", mode)
            assert r.returncode == 0, r.stderr
            assert json.loads(r.stdout)["value"] == "1/2"

    def test_polarized_blocks(self, files):
        r = run_cli("eval", files["polar.json"], "--query", "x=1",
                    "--mode", "polarized")
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["value"] == "1/3"

    @pytest.mark.parametrize("mode", ["outer", "inner", "likelihood", "polarized"])
    def test_a_query_value_matches_only_its_own_type(self, mode, tmp_path, capsys):
        # x = F in outcome a (1/4), x = T in outcome b (3/4)
        doc = {"domains": {"bool": [False, True]}, "vars": [{"name": "x", "domain": "bool"}],
               "omega": ["a", "b"], "pi": {"a": "1/4", "b": "3/4"},
               "rel": [["a", {"x": False}], ["b", {"x": True}]],
               "blocks": [{"outcomes": ["a"], "polarity": "demon"},
                          {"outcomes": ["b"], "polarity": "angel"}]}
        f = tmp_path / "boolx.json"
        f.write_text(json.dumps(doc))

        def value(query):
            assert cli.main(["eval", str(f), "--query", query, "--mode", mode]) == 0
            return json.loads(capsys.readouterr().out)["value"]

        assert (value("x=T"), value("x=F")) == ("3/4", "1/4")
        # 1 and 0 are no boolean values, like 5; inner holds vacuously for them
        none = "1/1" if mode == "inner" else "0/1"
        assert value("x=1") == value("x=0") == value("x=5") == none

    def test_a_query_integer_is_an_integer_literal(self, tmp_path, capsys):
        # x = 1 in outcome a (1/4), x = 10 in b (1/4), x = 0 in c (1/2)
        doc = {"domains": {"d": [0, 1, 10]}, "vars": [{"name": "x", "domain": "d"}],
               "omega": ["a", "b", "c"], "pi": {"a": "1/4", "b": "1/4", "c": "1/2"},
               "rel": [["a", {"x": 1}], ["b", {"x": 10}], ["c", {"x": 0}]]}
        f = tmp_path / "intx.json"
        f.write_text(json.dumps(doc))

        def value(query):
            assert cli.main(["eval", str(f), "--query", query]) == 0
            return json.loads(capsys.readouterr().out)["value"]

        assert (value("x=1"), value("x=10"), value("x=-0")) == ("1/4", "1/4", "1/2")
        # other scripts' digits, "_" and "+" are no integer literal: bare strings
        for query in ("x=\u0661", "x=1_0", "x=+1", "x=\uff11"):
            assert value(query) == "0/1", query

    def test_bad_query_is_exit_2(self, files):
        r = run_cli("eval", files["sab.json"], "--query", "zz=1",
                    "--mode", "outer")
        assert r.returncode == 2


class TestGraphCommands:
    def test_fg_json_and_dot(self, files):
        r = run_cli("fg", files["noisy.rb.mx"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert doc["tree"] is True
        d = run_cli("fg", files["noisy.rb.mx"], "--dot")
        assert d.returncode == 0
        assert d.stdout.startswith("graph factor_graph {")

    def test_fg2bn(self, files):
        r = run_cli("fg2bn", files["noisy.rb.mx"])
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["kernels"]

    def test_fg2bn_on_a_cycle_is_exit_2(self, files, tmp_path):
        def pair(a, b):
            return {
                "domains": {"bit": [0, 1]},
                "vars": [{"name": a, "domain": "bit"},
                         {"name": b, "domain": "bit"}],
                "omega": ["e0", "e1"],
                "pi": {"e0": "1/2", "e1": "1/2"},
                "rel": [["e0", {a: 0, b: 0}], ["e1", {a: 1, b: 1}]],
            }

        doc = {"systems": {"A": pair("x", "y"), "B": pair("y", "z"),
                           "C": pair("z", "x")}}
        f = tmp_path / "cyc.json"
        f.write_text(json.dumps(doc))
        r = run_cli("fg2bn", str(f))
        assert r.returncode == 2
        assert "cycle" in r.stderr


class TestFactorGraphDocuments:
    @pytest.mark.parametrize("argv", [["fg", "{f}"], ["fg2bn", "{f}"],
                                      ["compose", "{f}", "{f}"]])
    def test_bad_factor_graph_document_is_exit_2(self, tmp_path, argv):
        f = tmp_path / "fg.json"
        f.write_text(json.dumps({"systems": [{"omega": []}]}))
        r = run_cli(*[a.format(f=f) for a in argv])
        assert r.returncode == 2
        assert "bad factor graph document" in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("command", ["fg", "fg2bn"])
    def test_factor_graph_without_systems_is_exit_2(self, tmp_path, command):
        f = tmp_path / "empty.json"
        f.write_text(json.dumps({"systems": {}}))
        r = run_cli(command, str(f))
        assert r.returncode == 2, r.stderr
        assert r.stdout == ""
        assert r.stderr == "error: %s: bad factor graph document: it holds no systems\n" % f


class TestComposeSimcheckEmbed:
    def test_compose_systems(self, files, tmp_path):
        r = run_cli("compose", files["sab.json"], files["sab.json"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert len(doc["omega"]) == 4

    def test_compose_automata_documents(self, files, tmp_path):
        r = run_cli("compose", files["spa.json"], files["spa.json"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert len(doc["states"]) == len(SPA_DOC["states"]) ** 2
        assert doc["initial"] == "(q0,q0)"
        r = run_cli("compose", files["pa.json"], files["pa.json"])
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["states"] == ["(r0,r0)"]
        P = spa_from_json(SPA_DOC)
        for v in ("x1", "x2"):
            (tmp_path / (v + ".json")).write_text(json.dumps(ma_to_json(spa_to_ma(P, var=v))))
        r = run_cli("compose", str(tmp_path / "x1.json"), str(tmp_path / "x2.json"))
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert [v["name"] for v in doc["vars"]] == ["x1", "x2"]
        assert doc["initial"] == {"x1": "q0", "x2": "q0"}
        assert len(doc["delta"]) == len(ma_to_json(spa_to_ma(P))["delta"])

    def test_compose_factor_graphs_is_exit_2(self, files, tmp_path):
        fg = tmp_path / "fg.json"
        fg.write_text(run_cli("fg", files["noisy.rb.mx"]).stdout)
        r = run_cli("compose", str(fg), str(fg))
        assert r.returncode == 2
        assert "cannot compose factor graphs" in r.stderr

    def test_simcheck_on_systems_is_exit_2(self, files):
        r = run_cli("simcheck", files["sab.json"], files["sab.json"])
        assert r.returncode == 2
        assert "simcheck wants two automata, got system" in r.stderr

    def test_compose_kind_mismatch_is_exit_2(self, files):
        r = run_cli("compose", files["spa.json"], files["pa.json"])
        assert r.returncode == 2

    def test_simcheck_self_and_negative(self, files, tmp_path):
        r = run_cli("simcheck", files["spa.json"], files["spa.json"])
        assert r.returncode == 0, r.stderr
        assert json.loads(r.stdout)["verdict"] is True
        # a deadlocked SPA cannot simulate the stepping one
        dead = dict(SPA_DOC, transitions=[])
        f = tmp_path / "dead.json"
        f.write_text(json.dumps(dead))
        r2 = run_cli("simcheck", files["spa.json"], str(f))
        assert r2.returncode == 1
        assert json.loads(r2.stdout)["verdict"] is False

    def test_bisim_is_not_mutual_simulation(self, tmp_path):
        P1, P2 = sim_equivalent_not_bisimilar()
        docs = {
            "spa": (spa_to_json(P1), spa_to_json(P2)),
            "pa": (pa_to_json(spa_embed_pa(P1)), pa_to_json(spa_embed_pa(P2))),
            "ma": (ma_to_json(spa_to_ma(P1, var="x1")),
                   ma_to_json(spa_to_ma(P2, var="x2"))),
        }
        for kind, (d1, d2) in docs.items():
            a, b = tmp_path / (kind + "1.json"), tmp_path / (kind + "2.json")
            a.write_text(json.dumps(d1))
            b.write_text(json.dumps(d2))
            if kind == "spa":
                assert run_cli("simcheck", str(a), str(b)).returncode == 0
                assert run_cli("simcheck", str(b), str(a)).returncode == 0
            r = run_cli("simcheck", str(a), str(b), "--bisim")
            assert r.returncode == 1, (kind, r.stderr)
            doc = json.loads(r.stdout)
            assert (doc["kind"], doc["check"], doc["verdict"]) == (
                kind, "bisimulation", False)

    def test_embed_directions(self, files, tmp_path):
        r = run_cli("embed", "spa2ma", files["spa.json"])
        assert r.returncode == 0, r.stderr
        ma = tmp_path / "img.json"
        ma.write_text(r.stdout)
        rc = run_cli("simcheck", str(ma), str(ma), "--bisim")
        assert rc.returncode == 0, rc.stderr
        p = run_cli("embed", "pa2ma", files["pa.json"])
        assert p.returncode == 0, p.stderr
        g = run_cli("embed", "spa2pa", files["spa.json"])
        assert g.returncode == 0, g.stderr
        assert json.loads(g.stdout)["kind"] == "pa"

    def test_document_missing_a_field_is_exit_2(self, tmp_path):
        f = tmp_path / "nodomains.json"
        f.write_text(json.dumps({"vars": [], "alphabet": [], "initial": {},
                                 "delta": []}))
        r = run_cli("simcheck", str(f), str(f))
        assert r.returncode == 2
        assert "missing field 'domains'" in r.stderr

    @pytest.mark.parametrize("kind, field, label", [
        ("spa", "states", [["x"]]),
        ("spa", "alphabet", [{"q": 1}]),
        ("spa", "initial", ["x"]),
        ("pa", "states", [["x"]]),
        ("pa", "alphabet", [{"q": 1}]),
        ("pa", "initial", ["x"]),
        ("automaton", "alphabet", [["a"]]),
        ("automaton", "initial", {"xi": [0]}),
        ("automaton", "alphabet", [{"state": {"g": [1]}}]),
    ])
    def test_non_scalar_label_is_exit_2(self, tmp_path, kind, field, label):
        doc = {"spa": SPA_DOC, "pa": PA_DOC,
               "automaton": ma_to_json(spa_to_ma(spa_from_json(SPA_DOC)))}[kind]
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(dict(doc, **{field: label})))
        r = run_cli("simcheck", str(f), str(f))
        assert r.returncode == 2, r.stderr
        assert "bad %s document" % kind in r.stderr
        assert "Traceback" not in r.stderr

    @pytest.mark.parametrize("state", [{"xi": 5}, {"y": 0}])
    def test_transition_state_outside_the_variables_is_exit_2(self, tmp_path, state):
        doc = ma_to_json(spa_to_ma(spa_from_json(SPA_DOC)))
        doc["delta"].append(dict(doc["delta"][0], state=state))
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        for argv in (["compose", str(f), str(f)], ["embed", "ma2spa", str(f)],
                     ["simcheck", str(f), str(f)]):
            r = run_cli(*argv)
            assert r.returncode == 2, (argv, r.stderr)
            assert "transition state" in r.stderr
            assert "Traceback" not in r.stderr

    def test_simcheck_over_the_relation_cap_is_exit_2(self, files, monkeypatch, capsys):
        # SPA_DOC has two states, so a self-check has four candidate pairs
        monkeypatch.setattr(core, "MAX_OUTCOMES", 4)
        assert cli.main(["simcheck", files["spa.json"], files["spa.json"]]) == 0
        monkeypatch.setattr(core, "MAX_OUTCOMES", 3)
        capsys.readouterr()
        for extra in ([], ["--bisim"]):
            argv = ["simcheck", files["spa.json"], files["spa.json"]] + extra
            assert cli.main(argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and "4 state pairs" in err

    def test_embed_wrong_direction_is_exit_2(self, files):
        r = run_cli("embed", "pa2ma", files["spa.json"])
        assert r.returncode == 2


class TestErrorsNameTheFile:
    @pytest.mark.parametrize("bad_first", [True, False])
    def test_simcheck_names_the_bad_document(self, bad_first, files, tmp_path, capsys):
        bad = tmp_path / "nostates.json"
        bad.write_text(json.dumps({k: v for k, v in SPA_DOC.items() if k != "states"}))
        pair = [str(bad), files["spa.json"]]
        assert cli.main(["simcheck"] + (pair if bad_first else pair[::-1])) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s: bad spa document: missing field 'states'\n" % bad

    @pytest.mark.parametrize("bad_first", [True, False])
    def test_every_reader_error_names_the_file(self, bad_first, tmp_path, capsys):
        # a target over variable y where the automaton has xi: the reader
        # raises VariableSetMismatch, which keeps its type and exit code 2
        good = ma_to_json(spa_to_ma(spa_from_json(SPA_DOC)))
        bad = json.loads(json.dumps(good))
        target = bad["delta"][0]["system"]
        target["vars"] = [{"name": "y", "domain": "Q_xi"}]
        target["rel"] = [[o, {"y": q["xi"]}] for o, q in target["rel"]]
        paths = []
        for name, doc in (("good.json", good), ("bad.json", bad)):
            (tmp_path / name).write_text(json.dumps(doc))
            paths.append(str(tmp_path / name))
        assert cli.main(["simcheck"] + (paths[::-1] if bad_first else paths)) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: %s: target at (State(xi='q0'), 'a') has variables ['y'], "
                       "automaton has ['xi']\n" % paths[1])

    def test_an_observation_record_not_an_object_names_its_line(self, files, tmp_path,
                                                                capsys):
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"y": 1}\n5\n')
        argv = ["sample", files["noisy.rb.mx"], "--steps", "3", "--obs", str(obs)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s line 2: observation record 5 is not an object\n" % obs

    @pytest.mark.parametrize("site, doc, message", [
        ("compose", {"kind": "pa"}, "bad pa document: missing field 'alphabet'"),
        ("embed", {"kind": "spa", "alphabet": 5},
         "bad spa document: 'int' object is not iterable"),
        ("eval", {"domains": {}, "vars": []}, "bad system document: missing field 'omega'"),
        ("eval --mode polarized", dict(S_AB, blocks=[{}]),
         "bad polarized system document: missing field 'outcomes'"),
        ("fg", {"systems": {"A": {}}}, "bad system document: missing field 'domains'"),
        ("fg2bn", {"systems": []}, "bad factor graph document: it holds no systems"),
        ("fg", "{not JSON", "Expecting property name enclosed in double quotes: "
                            "line 1 column 2 (char 1)"),
        ("simcheck", "[]", "model document must be a JSON object"),
    ], ids=["compose", "embed", "eval", "eval-polarized", "fg", "fg2bn", "fg-not-json",
            "simcheck-not-an-object"])
    def test_every_read_site_names_the_file(self, site, doc, message, tmp_path, capsys):
        f = tmp_path / "bad.json"
        f.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        command, _, mode = site.partition(" ")
        argv = {
            "compose": ["compose", str(f), str(f)],
            "embed": ["embed", "spa2ma", str(f)],
            "eval": ["eval", str(f), "--query", "x=a"] + mode.split(),
            "fg": ["fg", str(f)],
            "fg2bn": ["fg2bn", str(f)],
            "simcheck": ["simcheck", str(f), str(f)],
        }[command]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: %s: %s\n" % (f, message)

    def test_a_repeated_automaton_transition_is_exit_2(self, tmp_path, capsys):
        doc = ma_to_json(spa_to_ma(spa_from_json(SPA_DOC)))
        first, other = doc["delta"]
        doc["delta"].append(dict(first, system=other["system"]))
        f = tmp_path / "twice.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["simcheck", str(f), str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: %s: bad automaton document: delta gives state "
                       "State(xi='q0') under action 'a' twice\n" % f)

    def test_observation_errors_name_the_file_and_line(self, files, tmp_path, capsys):
        # the third line is the second record; its object is not closed
        obs = tmp_path / "obs.jsonl"
        obs.write_text('{"y": 1}\n\n{"y": 0\n')
        argv = ["sample", files["noisy.rb.mx"], "--steps", "3", "--obs", str(obs)]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: %s line 3: Expecting ',' delimiter: line 1 column 8 (char 7)\n"
                       % obs)


DEEP = "[" * 200000 + "]" * 200000

# weights no document may carry: a 10-million-digit power of ten, a number
# past CPython's 4300-digit limit for integer text, and a JSON boolean
BAD_WEIGHTS = ["1e10000000", "9" * 5000, True]


def _with_weight(kind, w):
    """A system, SPA or PA document whose first weight is w."""
    if kind == "system":
        return dict(S_AB, pi={"o1": w, "o2": "1/2"})
    if kind == "spa":
        return dict(SPA_DOC, transitions=[{"from": "q0", "action": "a", "dist": [["q1", w]]}])
    return dict(PA_DOC, transitions=[{"from": "r0", "dist": [["b", "r0", w]]}])


class TestHostileJson:
    def test_nesting_is_bounded_outside_strings(self):
        assert cli._loads("[" * MAX_NESTING + "]" * MAX_NESTING, "doc") is not None
        assert cli._loads('["' + "[{" * 500 + '\\"]"]', "doc") == ["[{" * 500 + '"]']
        # the string before the deep array ends in an escaped backslash
        behind_a_string = '["\\\\", ' + "[" * MAX_NESTING + "]" * MAX_NESTING + "]"
        for text in ("[" * (MAX_NESTING + 1) + "]" * (MAX_NESTING + 1), "[" * 200000,
                     behind_a_string):
            with pytest.raises(MalformedSystem, match="deeper than %d" % MAX_NESTING):
                cli._loads(text, "doc")

    @pytest.mark.parametrize("site", ["eval", "fg", "elaborate --obs", "sample --obs"])
    def test_deep_document_is_exit_2_at_every_read_site(self, site, files, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text(('{"systems": %s}' % DEEP if site == "fg" else DEEP) + "\n")
        argv = {
            "eval": ["eval", str(deep), "--query", "x=0"],
            "fg": ["fg", str(deep)],
            "elaborate --obs": ["elaborate", files["noisy.rb.mx"], "--obs", DEEP],
            "sample --obs": ["sample", files["noisy.rb.mx"], "--steps", "2",
                             "--obs", str(deep)],
        }[site]
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "JSON nested deeper than %d levels" % MAX_NESTING in err

    @pytest.mark.parametrize("weight", BAD_WEIGHTS, ids=["exponent", "length", "boolean"])
    @pytest.mark.parametrize("kind", ["system", "spa", "pa"])
    def test_bad_weight_is_malformed(self, kind, weight, tmp_path, capsys):
        doc = _with_weight(kind, weight)
        load = {"system": system_from_json, "spa": spa_from_json, "pa": pa_from_json}[kind]
        with pytest.raises(MalformedSystem):
            load(doc)
        f = tmp_path / "bad.json"
        f.write_text(json.dumps(doc))
        argv = (["eval", str(f), "--query", "x=a"] if kind == "system"
                else ["simcheck", str(f), str(f)])
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")

    def test_long_exact_weights_are_read_back(self, tmp_path, capsys):
        # each weight has a 61-digit denominator; their products have 121
        d = 10 ** 60 + 7
        paths = []
        for v in ("x", "y"):
            doc = dict(S_AB, vars=[{"name": v, "domain": "ab"}],
                       pi={"o1": "1/%d" % d, "o2": "%d/%d" % (d - 1, d)},
                       rel=[["o1", {v: "a"}], ["o2", {v: "b"}]])
            paths.append(tmp_path / (v + ".json"))
            paths[-1].write_text(json.dumps(doc))
        assert cli.main(["compose"] + [str(p) for p in paths]) == 0
        composed = capsys.readouterr().out
        assert max(len(w) for w in json.loads(composed)["pi"].values()) > 2 * 60
        (tmp_path / "xy.json").write_text(composed)
        assert cli.main(["eval", str(tmp_path / "xy.json"), "--query", "x = a"]) == 0
        assert "1/%d" % d in capsys.readouterr().out

    def test_weights_past_the_text_limit_are_cap_exceeded(self, tmp_path, capsys):
        # each 3001-digit denominator reads fine; their 6001-digit products
        # cannot be written as integer text
        d = 10 ** 3000 + 7
        with pytest.raises(CapExceeded, match="more than 4300 digits"):
            core.format_rat(Fraction(1, d * d))
        paths = []
        for v in ("x", "y"):
            doc = dict(S_AB, vars=[{"name": v, "domain": "ab"}],
                       pi={"o1": "1/%d" % d, "o2": "%d/%d" % (d - 1, d)},
                       rel=[["o1", {v: "a"}], ["o2", {v: "b"}]])
            paths.append(tmp_path / (v + ".json"))
            paths[-1].write_text(json.dumps(doc))
        assert cli.main(["compose"] + [str(p) for p in paths]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a weight has more than 4300 digits, the limit for integer text\n"

    @pytest.mark.parametrize("kind", ["spa", "pa"])
    def test_composed_automaton_weights_past_the_text_limit(self, kind, tmp_path, capsys):
        # a document composed with itself: its 3001-digit weights read fine,
        # their 6001-digit products cannot be written as integer text
        d = 10 ** 3000 + 7
        a, b = "1/%d" % d, "%d/%d" % (d - 1, d)
        doc = {
            "spa": dict(SPA_DOC, transitions=[
                {"from": "q0", "action": "a", "dist": [["q0", a], ["q1", b]]}]),
            "pa": dict(PA_DOC, states=["r0", "r1"], transitions=[
                {"from": "r0", "dist": [["b", "r0", a], ["b", "r1", b]]}]),
        }[kind]
        f = tmp_path / "long.json"
        f.write_text(json.dumps(doc))
        assert cli.main(["compose", str(f), str(f)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a weight has more than 4300 digits, the limit for integer text\n"

    @pytest.mark.parametrize("kind", ["system", "spa", "pa"])
    def test_long_wrong_total_is_named_by_its_size(self, kind, tmp_path, capsys):
        # both weights read fine; their total, 6001 digits long and not 1,
        # is past the limit for integer text, so no message may write it
        a, b = ("1/%d" % (10 ** 3000 + c) for c in (7, 9))
        doc = {
            "system": dict(S_AB, pi={"o1": a, "o2": b}),
            "spa": dict(SPA_DOC, transitions=[
                {"from": "q0", "action": "a", "dist": [["q0", a], ["q1", b]]}]),
            "pa": dict(PA_DOC, states=["r0", "r1"], transitions=[
                {"from": "r0", "dist": [["b", "r0", a], ["b", "r1", b]]}]),
        }[kind]
        load = {"system": system_from_json, "spa": spa_from_json, "pa": pa_from_json}[kind]
        with pytest.raises(MalformedSystem, match="a fraction of about 6001 digits, not 1"):
            load(doc)
        f = tmp_path / "total.json"
        f.write_text(json.dumps(doc))
        argv = (["eval", str(f), "--query", "x=a"] if kind == "system"
                else ["simcheck", str(f), str(f)])
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and "about 6001 digits, not 1" in err

    @pytest.mark.parametrize("sigma", ["1e10000000", "9" * 5000])
    def test_bad_sigma_is_malformed(self, sigma, files, capsys):
        P = pa_from_json(PA_DOC)
        with pytest.raises(MalformedSystem):
            pa_compose(P, P, sigma)
        assert cli.main(["compose", files["pa.json"], files["pa.json"], "--sigma", sigma]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error:")
