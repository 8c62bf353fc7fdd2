import json
import os
import subprocess
import sys

import pytest

from rbmx.automata import ma_to_json
from rbmx.embeddings import pa_to_json, spa_embed_pa, spa_to_json, spa_to_ma

from .oracles import sim_equivalent_not_bisimilar

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

    def test_elaborate_static(self, files):
        r = run_cli("elaborate", files["noisy.rb.mx"], "--mode", "static",
                    "--obs", '{"y": 1}')
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert set(doc["pi"]) == set(doc["omega"])
        names = [v["name"] for v in doc["vars"]]
        assert names == ["x", "y"]

    def test_elaborate_static_without_obs_is_exit_2(self, files):
        r = run_cli("elaborate", files["noisy.rb.mx"], "--mode", "static")
        assert r.returncode == 2

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


class TestComposeSimcheckEmbed:
    def test_compose_systems(self, files, tmp_path):
        r = run_cli("compose", files["sab.json"], files["sab.json"])
        assert r.returncode == 0, r.stderr
        doc = json.loads(r.stdout)
        assert len(doc["omega"]) == 4

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

    def test_embed_wrong_direction_is_exit_2(self, files):
        r = run_cli("embed", "pa2ma", files["spa.json"])
        assert r.returncode == 2
