import contextlib
import hashlib
import importlib.util
import io
import json
import os
import pathlib
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

from wreathq import io as wio
from wreathq.cli import main
from wreathq.modules import MAX_N, build_induced_zero_e
from wreathq.reflection import SinkCalculus
from wreathq.symmetric import YoungDiagram

from conftest import HALF, make_params

REPO = pathlib.Path(__file__).resolve().parents[1]


AHAT1 = {"vertices": ["0", "1"],
         "edges": [{"name": "a", "tail": "0", "head": "1"},
                   {"name": "b", "tail": "0", "head": "1"}]}

S1_MODULE = {
    "params": {"n": 1, "lambda": {"0": "1", "1": "0"}, "nu": "0", "cyclotomic_order": 1},
    "support": [{"tuple": ["1"], "dim": 1}],
    "edge_actions": [],
    "sn_actions": [],
}


@pytest.fixture()
def files(tmp_path):
    qp = tmp_path / "quiver.json"
    qp.write_text(json.dumps(AHAT1))
    mp = tmp_path / "s1.json"
    mp.write_text(json.dumps(S1_MODULE))
    return tmp_path, str(qp), str(mp)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_verify_ok(files, capsys):
    _, qp, mp = files
    code, out, _ = run(capsys, "verify", "--quiver", qp, "--module", mp)
    assert code == 0
    assert "ok" in out


def test_verify_relation_failure(files, capsys, tmp_path):
    _, qp, _ = files
    bad = dict(S1_MODULE)
    bad["params"] = {"n": 1, "lambda": {"0": "1", "1": "1"}, "nu": "0", "cyclotomic_order": 1}
    bp = tmp_path / "bad.json"
    bp.write_text(json.dumps(bad))
    code, out, _ = run(capsys, "verify", "--quiver", qp, "--module", str(bp))
    assert code == 1
    assert "relation (i)" in out and "(1)" in out


def test_verify_malformed_matrix(files, capsys, tmp_path):
    _, qp, _ = files
    bad = json.loads(json.dumps(S1_MODULE))
    bad["edge_actions"] = [{"edge": "a*", "position": 1,
                            "source_tuple": ["1"], "matrix": [["0", "0"]]}]
    bp = tmp_path / "bad.json"
    bp.write_text(json.dumps(bad))
    code, _, err = run(capsys, "verify", "--quiver", qp, "--module", str(bp))
    assert code == 2
    assert "error" in err


def test_reflect_vertex(files, capsys, tmp_path):
    _, qp, mp = files
    out_path = str(tmp_path / "out.json")
    code, out, _ = run(capsys, "reflect", "--quiver", qp, "--module", mp,
                       "--vertex", "0", "--out", out_path)
    assert code == 0
    assert "(0) -> 2" in out and "(1) -> 1" in out
    doc = json.loads(pathlib.Path(out_path).read_text())
    assert doc["params"]["lambda"] == {"0": "-1", "1": "2"}
    # the written module passes verification
    code, out, _ = run(capsys, "verify", "--quiver", qp, "--module", out_path)
    assert code == 0


def test_reflect_empty_word_is_canonical_copy(files, capsys, tmp_path):
    _, qp, mp = files
    p1 = str(tmp_path / "copy1.json")
    code, _, _ = run(capsys, "reflect", "--quiver", qp, "--module", mp,
                     "--word", "", "--out", p1)
    assert code == 0
    p2 = str(tmp_path / "copy2.json")
    run(capsys, "reflect", "--quiver", qp, "--module", p1, "--word", "", "--out", p2)
    assert pathlib.Path(p1).read_text() == pathlib.Path(p2).read_text()


def test_reflect_double_word_restores_dims(files, capsys, tmp_path):
    _, qp, mp = files
    out_path = str(tmp_path / "ww.json")
    code, out, _ = run(capsys, "reflect", "--quiver", qp, "--module", mp,
                       "--word", "0 0", "--out", out_path)
    assert code == 0
    doc = json.loads(pathlib.Path(out_path).read_text())
    assert doc["support"] == [{"tuple": ["1"], "dim": 1}]
    assert doc["params"]["lambda"] == {"0": "1", "1": "0"}


def test_reflect_requires_exactly_one_mode(files, capsys):
    _, qp, mp = files
    for mode in ([], ["--vertex", "0", "--word", "0"]):
        code, out, err = run(capsys, "reflect", "--quiver", qp, "--module", mp, *mode)
        assert code == 2 and out == ""
        assert err.splitlines() == ["error: reflect needs exactly one of --vertex or --word"]


def test_cohomology_and_euler(files, capsys, tmp_path):
    tdir, qp, _ = files
    params = make_params(wio.parse_quiver(AHAT1), 2, {"0": 1, "1": 0}, 0)
    module = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    mp = tmp_path / "sq.json"
    mp.write_text(wio.to_canonical_json(wio.dump_module(module)))
    code, out, _ = run(capsys, "cohomology", "--quiver", qp, "--module", str(mp),
                       "--vertex", "0")
    assert code == 0
    assert "total: H^0 = 9, higher = 0" in out
    code, out, _ = run(capsys, "euler", "--quiver", qp, "--module", str(mp),
                       "--vertex", "0")
    assert code == 0
    assert "total: 9" in out
    assert "class [1,1]: 9" in out


# the two incoming edges at vertex 1 anticommute on V_00, so relation (ii)
# fails there and the square of the cube at (1, 1) does not commute
NONCOMMUTING_MODULE = {
    "params": {"n": 2, "lambda": {"0": "0", "1": "0"}, "nu": "0", "cyclotomic_order": 1},
    "support": [{"tuple": t, "dim": 1} for t in (["0", "0"], ["0", "1"], ["1", "0"], ["1", "1"])],
    "edge_actions": [
        {"edge": "a", "position": 1, "source_tuple": ["0", "0"], "matrix": [["1"]]},
        {"edge": "a", "position": 2, "source_tuple": ["0", "0"], "matrix": [["-1"]]},
        {"edge": "a", "position": 2, "source_tuple": ["1", "0"], "matrix": [["1"]]},
        {"edge": "a", "position": 1, "source_tuple": ["0", "1"], "matrix": [["1"]]},
    ],
    "sn_actions": [
        {"adjacent": 1, "source_tuple": ["0", "0"], "matrix": [["-1"]]},
        {"adjacent": 1, "source_tuple": ["1", "1"], "matrix": [["1"]]},
        {"adjacent": 1, "source_tuple": ["0", "1"], "matrix": [["1"]]},
        {"adjacent": 1, "source_tuple": ["1", "0"], "matrix": [["1"]]},
    ],
}


def test_cohomology_refuses_a_module_breaking_relation_ii(files, capsys, tmp_path, monkeypatch):
    _, qp, _ = files
    mp = tmp_path / "noncommuting.json"
    mp.write_text(json.dumps(NONCOMMUTING_MODULE))
    # a failed report never takes the mapping-cone route
    sinks = []
    sink_map = SinkCalculus.sink_map
    monkeypatch.setattr(SinkCalculus, "sink_map", lambda *a: sinks.append(a) or sink_map(*a))
    code, out, err = run(capsys, "cohomology", "--quiver", qp, "--module", str(mp),
                         "--vertex", "1")
    assert code == 2 and out == "" and sinks == []
    assert err.splitlines() == ["error: cube square at () with 1, 2 does not commute"]


def test_generic_failure_message(files, capsys, tmp_path):
    _, qp, _ = files
    pp = tmp_path / "params.json"
    pp.write_text(json.dumps(
        {"n": 3, "lambda": {"0": "2", "1": "0"}, "nu": "1", "cyclotomic_order": 1}))
    code, out, _ = run(capsys, "generic", "--quiver", qp, "--params", str(pp),
                       "--vertex", "0")
    assert code == 1
    assert "fails at p=2 (minus branch)" in out
    pp.write_text(json.dumps(
        {"n": 3, "lambda": {"0": "2", "1": "0"}, "nu": "1/3", "cyclotomic_order": 1}))
    code, out, _ = run(capsys, "generic", "--quiver", qp, "--params", str(pp),
                       "--vertex", "0")
    assert code == 0


def test_induce_and_verify(files, capsys, tmp_path):
    _, qp, _ = files
    pp = tmp_path / "params.json"
    pp.write_text(json.dumps(
        {"n": 2, "lambda": {"0": "1", "1": "-1/2"}, "nu": "1/2", "cyclotomic_order": 1}))
    out_path = str(tmp_path / "ind.json")
    code, out, _ = run(capsys, "induce", "--quiver", qp, "--params", str(pp),
                       "--blocks", '[{"diagram": [2], "vertex": "1"}]',
                       "--out", out_path)
    assert code == 0
    assert "(1,1) -> 1" in out
    code, _, _ = run(capsys, "verify", "--quiver", qp, "--module", out_path)
    assert code == 0


def test_translate_cyclic(files, capsys, tmp_path):
    _, qp, _ = files
    gp = tmp_path / "gamma.json"
    gp.write_text(json.dumps({"type": "cyclic", "m": 2}))
    sp = tmp_path / "sra.json"
    sp.write_text(json.dumps({"t": "1", "k": "1/2", "c": {"g1": "1"}}))
    code, out, _ = run(capsys, "translate", "--gamma", str(gp), "--sra", str(sp))
    assert code == 0
    assert "lambda[0] = 2" in out
    assert "lambda[1] = 0" in out
    assert "nu = 1/2" in out


def test_conditions_cli(files, capsys, tmp_path):
    _, qp, _ = files
    rp = tmp_path / "request.json"
    rp.write_text(json.dumps({
        "lambda0": {"0": "1", "1": "0"},
        "lambda": {"0": "1", "1": "-1/2"},
        "nu": "1/2",
        "word": [],
        "blocks": [{"diagram": [2], "alpha": {"1": 1}}],
        "n": 2,
    }))
    code, out, _ = run(capsys, "conditions", "--quiver", qp, "--request", str(rp))
    assert code == 0
    assert "[PASS]" in out and "[FAIL]" not in out
    # flip the sign of nu: the trace condition breaks
    rp.write_text(json.dumps({
        "lambda0": {"0": "1", "1": "0"},
        "lambda": {"0": "1", "1": "1/2"},
        "nu": "1/2",
        "word": [],
        "blocks": [{"diagram": [2], "alpha": {"1": 1}}],
        "n": 2,
    }))
    code, out, _ = run(capsys, "conditions", "--quiver", qp, "--request", str(rp))
    assert code == 1
    assert "trace[1]" in out


def test_word_validate(files, capsys, tmp_path):
    _, qp, _ = files
    pp = tmp_path / "params.json"
    pp.write_text(json.dumps(
        {"n": 1, "lambda": {"0": "1", "1": "0"}, "nu": "0", "cyclotomic_order": 1}))
    code, out, _ = run(capsys, "word-validate", "--quiver", qp, "--params", str(pp),
                       "--word", "0 1")
    assert code == 0
    assert "letter 0: pivot 1 [ok]" in out
    assert "final weight {0: 3, 1: -2}" in out
    code, out, _ = run(capsys, "word-validate", "--quiver", qp, "--params", str(pp),
                       "--word", "1 0")
    assert code == 1
    assert "ZERO PIVOT" in out


def test_round_trip_canonical(files, tmp_path):
    q = wio.parse_quiver(AHAT1)
    params = make_params(q, 2, {"0": 1, "1": -HALF}, HALF)
    module = build_induced_zero_e(params, [(YoungDiagram([2]), "1")])
    text1 = wio.to_canonical_json(wio.dump_module(module))
    parsed = wio.parse_module(json.loads(text1), q)
    text2 = wio.to_canonical_json(wio.dump_module(parsed))
    assert text1 == text2


def test_output_determinism(files, capsys, tmp_path):
    _, qp, mp = files
    code1, out1, _ = run(capsys, "reflect", "--quiver", qp, "--module", mp, "--vertex", "0")
    code2, out2, _ = run(capsys, "reflect", "--quiver", qp, "--module", mp, "--vertex", "0")
    assert (code1, out1) == (code2, out2)


def test_induce_blocks_from_file(files, capsys, tmp_path):
    _, qp, _ = files
    pp = tmp_path / "params.json"
    pp.write_text(json.dumps(
        {"n": 2, "lambda": {"0": "1", "1": "-1/2"}, "nu": "1/2", "cyclotomic_order": 1}))
    bp = tmp_path / "blocks.json"
    bp.write_text(json.dumps([{"diagram": [2], "vertex": "1"}]))
    code, out, _ = run(capsys, "induce", "--quiver", qp, "--params", str(pp),
                       "--blocks", "@" + str(bp))
    assert code == 0
    assert "(1,1) -> 1" in out


def test_cyclotomic_module_round_trip(tmp_path, capsys):
    # an order-4 module written by reflect parses back and verifies
    from wreathq.cyclotomic import Scalar
    from reference import point_module
    q = wio.parse_quiver(AHAT1)
    params = make_params(q, 1, {"0": Scalar.zeta(4), "1": Scalar.zero(4)},
                         Scalar.zero(4), order=4)
    v = point_module(params, "1")
    qp = tmp_path / "q.json"
    qp.write_text(json.dumps(AHAT1))
    mp = tmp_path / "zmod.json"
    mp.write_text(wio.to_canonical_json(wio.dump_module(v)))
    out = str(tmp_path / "zrefl.json")
    code, stdout, _ = run(capsys, "reflect", "--quiver", str(qp), "--module", str(mp),
                          "--vertex", "0", "--out", out)
    assert code == 0
    assert "weight now {0: -1*z^1, 1: 2*z^1}" in stdout
    code, _, _ = run(capsys, "verify", "--quiver", str(qp), "--module", out)
    assert code == 0
    text1 = pathlib.Path(out).read_text()
    parsed = wio.parse_module(json.loads(text1), q)
    assert wio.to_canonical_json(wio.dump_module(parsed)) == text1


def _fresh_env():
    """The environment for a fresh interpreter that imports this checkout's package."""
    paths = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_cross_process_determinism(files, tmp_path):
    import subprocess
    _, qp, mp = files
    results = []
    out = str(tmp_path / "det.json")
    for _ in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-m", "wreathq.cli", "reflect", "--quiver", qp,
             "--module", mp, "--vertex", "0", "--out", out],
            capture_output=True, text=True, env=_fresh_env())
        assert proc.returncode == 0
        results.append((proc.stdout, pathlib.Path(out).read_text()))
    assert results[0] == results[1]


def test_verify_sn_shape_error(files, capsys, tmp_path):
    _, qp, _ = files
    doc = {
        "params": {"n": 2, "lambda": {"0": "0", "1": "0"}, "nu": "0",
                   "cyclotomic_order": 1},
        "support": [{"tuple": ["1", "1"], "dim": 1}],
        "edge_actions": [],
        "sn_actions": [{"adjacent": 1, "source_tuple": ["1", "1"],
                        "matrix": [["1", "0"]]}],
    }
    bp = tmp_path / "badsn.json"
    bp.write_text(json.dumps(doc))
    code, _, err = run(capsys, "verify", "--quiver", qp, "--module", str(bp))
    assert code == 2 and "error" in err


# -- malformed input: one "error:" line on stderr, never a traceback ----------

PARAMS = {"n": 2, "lambda": {"0": "1", "1": "-1/2"}, "nu": "1/2", "cyclotomic_order": 1}
REQUEST = {"lambda0": {"0": "1", "1": "0"}, "lambda": {"0": "1", "1": "-1/2"}, "nu": "1/2",
           "word": [], "blocks": [{"diagram": [2], "alpha": {"1": 1}}], "n": 2}
SN_MODULE = {
    "params": {**PARAMS, "lambda": {"0": "0", "1": "0"}, "nu": "0"},
    "support": [{"tuple": ["1", "1"], "dim": 1}],
    "edge_actions": [{"edge": "a*", "position": 1, "source_tuple": ["1", "1"],
                      "matrix": []}],
    "sn_actions": [{"adjacent": 1, "source_tuple": ["1", "1"], "matrix": [["1"]]}],
}
# s_1 acts by 2 on V_(1,1), so the S_n action fails its group relations
NOT_INVOLUTION = {**SN_MODULE, "edge_actions": [],
                  "sn_actions": [{"adjacent": 1, "source_tuple": ["1", "1"], "matrix": [["2"]]}]}


TABLE_GAMMA = {"type": "table", "order": 1, "elements": ["e"], "vertices": ["0"],
               "dims": {"0": 1}, "table": {"0": {"e": "1"}}}
QUIVER = {"vertices": ["0", "1"], "edges": [{"name": "a", "tail": "0", "head": "1"},
                                            {"name": "b", "tail": "0", "head": "1"}]}


def _with(doc, path, value):
    """A deep copy of ``doc`` with the field at ``path`` set to ``value``."""
    out = json.loads(json.dumps(doc))
    *head, last = path
    node = out
    for key in head:
        node = node[key]
    node[last] = value
    return out


MALFORMED = [
    ("generic", _with(PARAMS, ["cyclotomic_order"], 0), 2),
    ("generic", _with(PARAMS, ["cyclotomic_order"], "x"), 2),
    ("generic", _with(PARAMS, ["cyclotomic_order"], True), 2),
    ("generic", _with(PARAMS, ["cyclotomic_order"], 3.0), 2),
    ("generic", _with(PARAMS, ["cyclotomic_order"], 10 ** 6), 1),
    ("generic", _with(PARAMS, ["cyclotomic_order"], 121), 1),
    ("generic", _with(PARAMS, ["n"], "x"), 2),
    ("generic", _with(PARAMS, ["n"], 1.7), 2),
    ("generic", _with(PARAMS, ["n"], True), 2),
    ("verify", _with(S1_MODULE, ["support", 0, "dim"], "x"), 2),
    ("verify", _with(S1_MODULE, ["support", 0, "dim"], True), 2),
    ("verify", _with(S1_MODULE, ["support", 0, "tuple"], "1"), 2),
    ("verify", _with(S1_MODULE, ["support", 0, "tuple"], [1]), 2),
    ("verify", _with(S1_MODULE, ["params", "n"], "x"), 2),
    ("verify", _with(S1_MODULE, ["params", "cyclotomic_order"], 10 ** 6), 1),
    ("verify", _with(SN_MODULE, ["edge_actions", 0, "position"], "1"), 2),
    ("verify", _with(SN_MODULE, ["edge_actions", 0, "source_tuple"], "11"), 2),
    ("verify", _with(SN_MODULE, ["sn_actions", 0, "adjacent"], 1.0), 2),
    ("translate", {"type": "cyclic", "m": "2"}, 2),
    ("translate", {"type": "cyclic", "m": 0}, 2),
    ("translate", {"type": "cyclic", "m": 10 ** 6}, 1),
    ("translate", {"type": "table", "order": "1", "elements": ["e"], "vertices": ["0"],
                   "dims": {"0": 1}, "table": {"0": {"e": "1"}}}, 2),
    ("translate", {"type": "table", "order": 1, "elements": ["e"], "vertices": ["0"],
                   "dims": {"0": True}, "table": {"0": {"e": "1"}}}, 2),
    ("conditions", _with(REQUEST, ["cyclotomic_order"], 0), 2),
    ("conditions", _with(REQUEST, ["cyclotomic_order"], 10 ** 6), 1),
    ("conditions", _with(REQUEST, ["n"], 2.0), 2),
    ("conditions", _with(REQUEST, ["blocks", 0, "alpha", "1"], "1"), 2),
    ("conditions", _with(REQUEST, ["blocks"], [{"diagram": [2]}]), 2),
    # shapes: lists of objects in modules, non-empty lists of JSON integers as diagrams
    ("verify", _with(S1_MODULE, ["support"], 5), 2),
    ("verify", _with(SN_MODULE, ["edge_actions"], [5]), 2),
    ("verify", _with(SN_MODULE, ["sn_actions"], 5), 2),
    ("conditions", _with(REQUEST, ["blocks", 0, "diagram"], ["x"]), 2),
    ("conditions", _with(REQUEST, ["blocks", 0, "diagram"], 2), 2),
    ("conditions", _with(REQUEST, ["blocks", 0, "diagram"], ["2"]), 2),
    ("conditions", _with(REQUEST, ["blocks", 0, "diagram"], [2.7]), 2),
    ("induce", [{"diagram": ["2"], "vertex": "1"}], 2),
    ("induce", [{"diagram": [], "vertex": "1"}], 2),
    # a vertex the quiver does not have (the default is --vertex 0)
    ("cohomology --vertex 9", S1_MODULE, 2),
    ("euler --vertex 9", S1_MODULE, 2),
    ("generic --vertex 9", PARAMS, 2),
    # a negative support dimension
    ("verify", _with(S1_MODULE, ["support", 0, "dim"], -2), 2),
    ("cohomology", _with(S1_MODULE, ["support", 0, "dim"], -2), 2),
    # JSON shapes the group, SRA, quiver and request parsers used to let through,
    # and an alpha on a vertex the quiver lacks
    *[("translate", {k: v for k, v in TABLE_GAMMA.items() if k != key}, 2)
      for key in ("order", "elements", "vertices", "dims", "table")],
    ("translate", _with(TABLE_GAMMA, ["dims"], [1]), 2),
    ("translate", _with(TABLE_GAMMA, ["dims"], {}), 2),
    ("translate", _with(TABLE_GAMMA, ["elements"], []), 2),
    ("translate", _with(TABLE_GAMMA, ["table", "0"], "e"), 2),
    ("sra", {"t": "1", "k": "1/2", "c": 5}, 2),
    ("quiver", _with(QUIVER, ["edges"], 5), 2),
    ("quiver", _with(QUIVER, ["vertices"], 5), 2),
    ("quiver", _with(QUIVER, ["edges", 0, "name"], 1), 2),
    ("quiver", _with(QUIVER, ["edges", 0, "head"], ["1"]), 2),
    ("conditions", _with(REQUEST, ["blocks"], 5), 2),
    ("conditions", _with(REQUEST, ["word"], 5), 2),
    ("conditions", _with(REQUEST, ["blocks", 0, "alpha"], {"x": 1}), 2),
    # raw bytes the JSON decoder refuses: not UTF-8, or nested past its depth limit;
    # "blocks" passes the text inline as induce --blocks
    ("verify", b"\xff\xfe{}", 2),
    ("quiver", b"\xff\xfe{}", 2),
    ("verify", b"[" * 100000, 2),
    ("conditions", b"[" * 100000, 2),
    ("induce", b"[" * 100000, 2),
    ("blocks", "[" * 100000, 2),
    ("blocks", "[" * 100000 + "]" * 100000, 2),
    # S_n and edge actions whose source tuple is not n quiver vertices
    ("verify", _with(SN_MODULE, ["sn_actions", 0],
                     {"adjacent": 1, "source_tuple": ["0"], "matrix": []}), 2),
    ("verify", _with(SN_MODULE, ["sn_actions", 0],
                     {"adjacent": 1, "source_tuple": ["9", "1", "1"], "matrix": []}), 2),
    ("verify", _with(SN_MODULE, ["edge_actions", 0, "source_tuple"], ["1", "9"]), 2),
    # table groups: order at least 1, exactly order distinct elements, dims at least 1
    ("translate", {**TABLE_GAMMA, "order": 0, "dims": {"0": 0}, "table": {"0": {"e": "0"}}}, 2),
    ("translate", {**TABLE_GAMMA, "dims": {"0": -1}, "table": {"0": {"e": "-1"}}}, 2),
    ("translate", {**TABLE_GAMMA, "order": 2, "vertices": ["0", "1"], "dims": {"0": 1, "1": 1},
                   "table": {"0": {"e": "1"}, "1": {"e": "1"}}}, 2),
    ("translate", {**TABLE_GAMMA, "order": 2, "elements": ["e", "e"], "vertices": ["0", "1"],
                   "dims": {"0": 1, "1": 1}, "table": {"0": {"e": "1"}, "1": {"e": "1"}}}, 2),
    # n below 1 in a conditions request; with word ["0"] and lambda_0 = 0 the
    # genericity check would find nothing to check at n = -3
    ("conditions", _with(REQUEST, ["n"], 0), 2),
    ("conditions", {**REQUEST, "lambda": {"0": "0", "1": "1"}, "nu": "1", "word": ["0"],
                    "n": -3}, 2),
    # no blocks and no n: n would be 0, and word-genericity would pass having checked nothing
    ("conditions", {"lambda0": {"0": "1", "1": "1"}, "lambda": {"0": "0", "1": "1"},
                    "nu": "1", "word": ["0"], "blocks": []}, 2),
    # a module failing its structural checks is malformed for every command that reads it whole
    ("verify", NOT_INVOLUTION, 2),
    ("cohomology", NOT_INVOLUTION, 2),
    ("euler", NOT_INVOLUTION, 2),
    # a repeated key, which would otherwise let the last entry win
    ("verify", {**SN_MODULE, "support": [{"tuple": ["1", "1"], "dim": 5},
                                         {"tuple": ["1", "1"], "dim": 1}]}, 2),
    ("verify", {**SN_MODULE, "edge_actions": SN_MODULE["edge_actions"] * 2}, 2),
    ("verify", {**SN_MODULE, "sn_actions": [
        {"adjacent": 1, "source_tuple": ["1", "1"], "matrix": [["1"]]},
        {"adjacent": 1, "source_tuple": ["1", "1"], "matrix": [["-1"]]}]}, 2),
    # c on the identity of the cyclic group of order 2, and on an element it lacks
    ("sra", {"t": "1", "k": "1/2", "c": {"g0": "1"}}, 2),
    ("sra", {"t": "1", "k": "1/2", "c": {"g9": "1"}}, 2),
    # vertex names are JSON strings: a number is refused, not coerced to a name
    ("quiver", _with(QUIVER, ["vertices"], [0, 1]), 2),
    ("induce", [{"diagram": [2], "vertex": 1}], 2),
    ("conditions", _with(REQUEST, ["word"], [0]), 2),
    # group element and table vertex names are JSON strings too
    ("translate", _with(TABLE_GAMMA, ["vertices"], [0]), 2),
    ("translate", {**TABLE_GAMMA, "elements": [0], "table": {"0": {"0": "1"}}}, 2),
    # literals past Python's limit on integer string conversion: a scalar coefficient,
    # a z^k exponent, a JSON integer in a file, and one in inline --blocks
    ("verify", _with(S1_MODULE, ["params", "lambda", "0"], "1" * 5001), 2),
    ("verify", _with(S1_MODULE, ["params"], {**S1_MODULE["params"], "cyclotomic_order": 3,
                                             "lambda": {"0": "z^" + "1" * 5001, "1": "0"}}), 2),
    ("verify", json.dumps(S1_MODULE).replace('"n": 1', '"n": ' + "1" * 5001).encode(), 2),
    ("blocks", '[{"diagram": [' + "1" * 5001 + '], "vertex": "1"}]', 2),
    # scalars are JSON strings: a number or a boolean is refused, not coerced to its text
    ("verify", _with(S1_MODULE, ["params", "lambda", "0"], 1), 2),
    ("verify", _with(S1_MODULE, ["params", "nu"], True), 2),
    ("verify", _with(SN_MODULE, ["sn_actions", 0, "matrix"], [[1]]), 2),
]


@pytest.mark.parametrize("command,doc,code", MALFORMED,
                         ids=[f"{c.split()[0]}-{k}" for k, (c, _, _) in enumerate(MALFORMED)])
def test_malformed_input_exits_with_one_error_line(files, capsys, tmp_path, command, doc, code):
    _, qp, _ = files
    command, *vertex = command.split(" --vertex ")
    vertex = vertex[0] if vertex else "0"
    path = tmp_path / "doc.json"
    if isinstance(doc, bytes):
        path.write_bytes(doc)
    else:
        path.write_text(json.dumps(doc))
    sra = tmp_path / "sra.json"
    sra.write_text(json.dumps({"t": "1", "k": "1/2", "c": {}}))
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS))
    gamma = tmp_path / "gamma.json"
    gamma.write_text(json.dumps({"type": "cyclic", "m": 2}))
    # the malformed document goes where the command key says; "sra" and
    # "quiver" name the file, not a subcommand
    command, *argv = {
        "generic": ["generic", "--quiver", qp, "--params", str(path), "--vertex", vertex],
        "verify": ["verify", "--quiver", qp, "--module", str(path)],
        "cohomology": ["cohomology", "--quiver", qp, "--module", str(path), "--vertex", vertex],
        "euler": ["euler", "--quiver", qp, "--module", str(path), "--vertex", vertex],
        "translate": ["translate", "--gamma", str(path), "--sra", str(sra)],
        "sra": ["translate", "--gamma", str(gamma), "--sra", str(path)],
        "quiver": ["generic", "--quiver", str(path), "--params", str(params), "--vertex", vertex],
        "conditions": ["conditions", "--quiver", qp, "--request", str(path)],
        "induce": ["induce", "--quiver", qp, "--params", str(params), "--blocks", f"@{path}"],
        "blocks": ["induce", "--quiver", qp, "--params", str(params), "--blocks", doc],
    }[command]
    got, out, err = run(capsys, command, *argv)
    assert got == code
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), err
    if vertex != "0":
        assert lines == [f"error: unknown vertex {vertex!r}"]


# a table gamma must be a character table: as many classes as vertices, orthogonal rows
NOT_CHARACTERS = [
    # two identical rows merge the two columns into one class
    ({**TABLE_GAMMA, "order": 2, "elements": ["e", "g"], "vertices": ["0", "1"],
      "dims": {"0": 1, "1": 1}, "table": {"0": {"e": "1", "g": "1"}, "1": {"e": "1", "g": "1"}}},
     "table gamma needs as many conjugacy classes as vertices, got 1 and 2"),
    # two identical rows of Z/3, whose three columns stay distinct
    ({**TABLE_GAMMA, "order": 3, "cyclotomic_order": 3, "elements": ["e", "g", "h"],
      "vertices": ["0", "1", "2"], "dims": {"0": 1, "1": 1, "2": 1},
      "table": {"0": {"e": "1", "g": "1", "h": "1"}, "1": {"e": "1", "g": "1", "h": "1"},
                "2": {"e": "1", "g": "z", "h": "z^2"}}},
     "table rows '0' and '1' break the orthogonality of characters"),
]


@pytest.mark.parametrize("doc,message", NOT_CHARACTERS, ids=["one-class", "identical-rows"])
def test_translate_refuses_a_table_that_is_not_a_character_table(capsys, tmp_path, doc, message):
    gamma, sra = tmp_path / "gamma.json", tmp_path / "sra.json"
    gamma.write_text(json.dumps(doc))
    sra.write_text(json.dumps({"t": "1", "k": "1/2", "c": {}}))
    code, out, err = run(capsys, "translate", "--gamma", str(gamma), "--sra", str(sra))
    assert (code, out, err.splitlines()) == (2, "", [f"error: {message}"])


# every key of dims and table names a declared vertex, every table entry a declared element
UNDECLARED = [
    ({**TABLE_GAMMA, "dims": {"0": 1, "ghost": 1}}, "dims names unknown vertex 'ghost'"),
    ({**TABLE_GAMMA, "table": {"0": {"e": "1"}, "ghost": {"e": "1"}}},
     "table names unknown vertex 'ghost'"),
    ({**TABLE_GAMMA, "table": {"0": {"e": "1", "x": "1"}}},
     "table row '0' names unknown element 'x'"),
]


@pytest.mark.parametrize("doc,message", UNDECLARED, ids=["dims-vertex", "table-vertex",
                                                         "table-element"])
def test_translate_refuses_an_undeclared_vertex_or_element(capsys, tmp_path, doc, message):
    gamma, sra = tmp_path / "gamma.json", tmp_path / "sra.json"
    gamma.write_text(json.dumps(doc))
    sra.write_text(json.dumps({"t": "1", "k": "1/2", "c": {}}))
    code, out, err = run(capsys, "translate", "--gamma", str(gamma), "--sra", str(sra))
    assert (code, out, err.splitlines()) == (2, "", [f"error: {message}"])


@pytest.mark.parametrize("command", ["reflect", "induce"])
@pytest.mark.parametrize("target", ["missing/out.json", "."])
def test_an_unwritable_out_path_exits_with_one_error_line(files, command, target):
    import subprocess
    tmp_path, qp, mp = files
    params = tmp_path / "params.json"
    params.write_text(json.dumps(PARAMS))
    out = str(tmp_path / target)
    argv = {"reflect": ["reflect", "--quiver", qp, "--module", mp, "--vertex", "0"],
            "induce": ["induce", "--quiver", qp, "--params", str(params),
                       "--blocks", '[{"diagram": [2], "vertex": "1"}]']}[command]
    proc = subprocess.run([sys.executable, "-m", "wreathq.cli", *argv, "--out", out],
                          capture_output=True, text=True, env=_fresh_env())
    lines = proc.stderr.splitlines()
    assert proc.returncode == 2 and "Traceback" not in proc.stderr
    assert len(lines) == 1 and lines[0].startswith(f"error: cannot write {out}: "), lines


def test_an_edge_name_that_is_a_number_is_refused(capsys, tmp_path):
    # the quiver's only edge is named "1", so a coerced 1 would name it
    qp, mp = tmp_path / "quiver.json", tmp_path / "module.json"
    qp.write_text(json.dumps({"vertices": ["0", "1"],
                              "edges": [{"name": "1", "tail": "0", "head": "1"}]}))
    module = {"params": {"n": 1, "lambda": {"0": "0", "1": "0"}, "nu": "0"},
              "support": [{"tuple": ["0"], "dim": 1}, {"tuple": ["1"], "dim": 1}],
              "edge_actions": [{"edge": 1, "position": 1, "source_tuple": ["0"],
                                "matrix": [["1"]]}]}
    mp.write_text(json.dumps(module))
    code, out, err = run(capsys, "verify", "--quiver", str(qp), "--module", str(mp))
    assert (code, out) == (2, "")
    assert err.splitlines() == ["error: edge must be a name (a string), got 1"]
    module["edge_actions"][0]["edge"] = "1"
    mp.write_text(json.dumps(module))
    code, out, _ = run(capsys, "verify", "--quiver", str(qp), "--module", str(mp))
    assert code == 0 and out.startswith("ok")


def test_scalars_are_strings_and_over_long_literals_name_the_limit(files, capsys, tmp_path):
    _, qp, _ = files
    mp = tmp_path / "module.json"
    limit = sys.get_int_max_str_digits()
    cases = [
        (_with(S1_MODULE, ["params", "lambda", "0"], 1),
         "error: weight at '0' must be a scalar (a string), got 1"),
        (_with(S1_MODULE, ["params", "nu"], True),
         "error: nu must be a scalar (a string), got True"),
        (_with(SN_MODULE, ["sn_actions", 0, "matrix"], [[1]]),
         "error: sn action (1, 1,1): matrix entry must be a scalar (a string), got 1"),
        (_with(S1_MODULE, ["params", "lambda", "0"], "1" * 5001),
         f"error: a number in a scalar has more than {limit} digits"),
        (json.dumps(S1_MODULE).replace('"n": 1', '"n": ' + "1" * 5001),
         f"error: cannot read {mp}: an integer has more than {limit} digits"),
    ]
    for doc, message in cases:
        mp.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, "verify", "--quiver", qp, "--module", str(mp))
        assert (code, out, err.splitlines()) == (2, "", [message])


def test_huge_cyclotomic_order_is_refused_at_once(files, capsys, tmp_path):
    _, qp, _ = files
    pp = tmp_path / "params.json"
    pp.write_text(json.dumps(_with(PARAMS, ["cyclotomic_order"], 10 ** 6)))
    t0 = time.perf_counter()
    code, _, err = run(capsys, "generic", "--quiver", qp, "--params", str(pp), "--vertex", "0")
    assert time.perf_counter() - t0 < 0.1
    assert code == 1 and err.startswith("error:") and "limit" in err


def _module_at(n, support, sn_actions):
    return {"params": {"n": n, "lambda": {"0": "1", "1": "0"}, "nu": "0", "cyclotomic_order": 1},
            "support": support, "edge_actions": [], "sn_actions": sn_actions}


ONE_AT_ALL_ONES = _module_at(30, [{"tuple": ["1"] * 30, "dim": 1}], [
    {"adjacent": m, "source_tuple": ["1"] * 30, "matrix": [["1"]]} for m in range(1, 30)])


@pytest.mark.parametrize("command, doc", [
    ("cohomology", ONE_AT_ALL_ONES),        # 2^30 subsets of positions
    ("euler", _module_at(90, [], [])),      # partitions of 90
], ids=["cohomology-n30", "euler-n90"])
def test_a_huge_n_is_refused_at_once(files, capsys, tmp_path, command, doc):
    _, qp, _ = files
    mp = tmp_path / "huge.json"
    mp.write_text(json.dumps(doc))
    t0 = time.perf_counter()
    code, out, err = run(capsys, command, "--quiver", qp, "--module", str(mp), "--vertex", "0")
    assert time.perf_counter() - t0 < 0.1
    assert (code, out) == (1, "")
    assert err.splitlines() == [f"error: n = {doc['params']['n']} exceeds the limit of {MAX_N}"]


def test_malformed_order_has_no_traceback_in_a_fresh_process(files, tmp_path):
    import subprocess
    import sys
    _, qp, _ = files
    pp = tmp_path / "params.json"
    pp.write_text(json.dumps(_with(PARAMS, ["cyclotomic_order"], "x")))
    proc = subprocess.run(
        [sys.executable, "-m", "wreathq.cli", "generic", "--quiver", qp,
         "--params", str(pp), "--vertex", "0"], capture_output=True, text=True, env=_fresh_env())
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == ["error: cyclotomic_order must be an integer, got 'x'"]


# -- golden output: the benchmark's CLI sample commands, in-process -----------


def _load_cli_samples(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "perfbench_cli_samples", REPO / "perfbench" / "cli_samples.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, module)   # dataclasses look it up
    spec.loader.exec_module(module)
    return module


def test_cli_samples_match_recorded_digests(capsys, tmp_path, monkeypatch):
    samples = _load_cli_samples(monkeypatch)
    expected = json.loads((REPO / "perfbench" / "expected_cli.json").read_text(encoding="utf-8"))
    monkeypatch.chdir(tmp_path)
    (tmp_path / samples.WORK).mkdir(parents=True)
    assert sorted(expected) == sorted(name for name, _, _, _ in samples.COMMANDS)
    for name, _, args, writes in samples.COMMANDS:
        argv = [str(REPO / a) if a.startswith("samples/") else a for a in args]
        code = main(argv)
        out = capsys.readouterr().out.encode("utf-8")
        got = {"exit": code, "stdout_sha256": hashlib.sha256(out).hexdigest(),
               "writes": {pathlib.Path(p).name: hashlib.sha256(pathlib.Path(p).read_bytes())
                          .hexdigest() for p in writes}}
        assert got == expected[name], name


# -- fuzzed samples: any exit is 0, 1 or 2, and never a traceback --------------

SAMPLE_FILES = {"quiver": "ahat1.quiver.json", "module": "s1.module.json",
                "params": "square.params.json", "request": "conditions.request.json",
                "gamma": "gamma.z2.json", "sra": "sra.json"}
# values of the wrong type or range for any field; DELETE removes the field
DELETE = object()
WRONG = (DELETE, None, True, -1, 0, 121, 1.5, "x", "", "1/0", "-1", [], {}, ["x"], {"x": 1})


def _fields(node, prefix=()):
    """The path to every field of a JSON document, parents before children."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from _fields(child, prefix + (key,))


def _argvs(f):
    """Every subcommand, reading its documents from the paths in ``f``."""
    blocks = '[{"diagram": [2], "vertex": "1"}]'
    return [
        ["verify", "--quiver", f["quiver"], "--module", f["module"]],
        ["reflect", "--quiver", f["quiver"], "--module", f["module"], "--vertex", "0"],
        ["reflect", "--quiver", f["quiver"], "--module", f["module"], "--word", "0 0"],
        ["cohomology", "--quiver", f["quiver"], "--module", f["module"], "--vertex", "1"],
        ["euler", "--quiver", f["quiver"], "--module", f["module"], "--vertex", "0"],
        ["generic", "--quiver", f["quiver"], "--params", f["params"], "--vertex", "0"],
        ["induce", "--quiver", f["quiver"], "--params", f["params"], "--blocks", blocks],
        ["word-validate", "--quiver", f["quiver"], "--params", f["params"], "--word", "0 1"],
        ["conditions", "--quiver", f["quiver"], "--request", f["request"]],
        ["translate", "--gamma", f["gamma"], "--sra", f["sra"]],
    ]


@pytest.fixture(scope="module")
def sample_docs(tmp_path_factory):
    """A work directory, the sample paths, and the sample documents with F_0 of s1."""
    work = tmp_path_factory.mktemp("fuzz")
    paths = {kind: str(REPO / "samples" / name) for kind, name in SAMPLE_FILES.items()}
    reflected = work / "reflected.json"
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(_argvs(paths)[1] + ["--out", str(reflected)]) == 0
    docs = {kind: json.loads(pathlib.Path(p).read_text()) for kind, p in paths.items()}
    docs["reflected"] = json.loads(reflected.read_text())
    return work, paths, docs


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_fuzzed_samples_exit_cleanly(sample_docs, data):
    work, paths, docs = sample_docs
    kind = data.draw(st.sampled_from(sorted(docs)))
    doc = json.loads(json.dumps(docs[kind]))
    for _ in range(data.draw(st.integers(1, 3))):
        fields = list(_fields(doc))
        if not fields:
            break
        *head, last = data.draw(st.sampled_from(fields))
        node = doc
        for key in head:
            node = node[key]
        value = data.draw(st.sampled_from(WRONG))
        if value is DELETE:
            del node[last]
        else:
            node[last] = json.loads(json.dumps(value))     # a later draw may change it
    path = work / "doc.json"
    path.write_text(json.dumps(doc))
    slot = "module" if kind == "reflected" else kind
    for argv in _argvs(paths | {slot: str(path)}):
        if str(path) not in argv:
            continue
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2), (argv[0], doc)
        if code == 2:
            lines = err.getvalue().splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), (argv[0], doc, lines)
