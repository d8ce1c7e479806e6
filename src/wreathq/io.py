"""JSON readers and writers for every file format the CLI speaks.

All numbers travel as text in the scalar grammar; serialization is
canonical (sorted keys, fixed field order), so parse/serialize round
trips are byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import Any

from .cyclotomic import Scalar, format_scalar, parse_scalar
from .errors import FormatError
from .linalg import Mat
from .modules import Params, WreathModule
from .quiver import DimVector, Quiver, Weight
from .sra import GammaData, SRAParams
from .symmetric import YoungDiagram


def _require(cond: bool, message: str):
    if not cond:
        raise FormatError(message)


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def dump_json(path: str, payload: Any) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(to_canonical_json(payload))


def to_canonical_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


# -- quivers ----------------------------------------------------------------

def parse_quiver(doc: Any) -> Quiver:
    _require(isinstance(doc, dict), "quiver document must be an object")
    _require("vertices" in doc and "edges" in doc, "quiver needs 'vertices' and 'edges'")
    edges = []
    for e in doc["edges"]:
        _require(isinstance(e, dict) and {"name", "tail", "head"} <= set(e),
                 "each edge needs name/tail/head")
        edges.append((e["name"], e["tail"], e["head"]))
    return Quiver(doc["vertices"], edges)


def dump_quiver(q: Quiver) -> dict:
    return {"vertices": list(q.vertices),
            "edges": [{"name": e.name, "tail": e.tail, "head": e.head} for e in q.edges]}


# -- weights and parameters ---------------------------------------------------

def parse_weight(doc: Any, quiver: Quiver, order: int) -> Weight:
    _require(isinstance(doc, dict), "weight must be an object of scalar strings")
    out = {}
    for v, text in doc.items():
        _require(quiver.has_vertex(v), f"weight names unknown vertex {v!r}")
        out[v] = parse_scalar(str(text), order)
    return Weight(out, order)


def dump_weight(w: Weight, quiver: Quiver) -> dict:
    return {v: format_scalar(w[v]) for v in quiver.vertices}


def parse_params(doc: Any, quiver: Quiver) -> Params:
    _require(isinstance(doc, dict), "params must be an object")
    _require("n" in doc and "lambda" in doc and "nu" in doc, "params needs n, lambda, nu")
    order = int(doc.get("cyclotomic_order", 1))
    weight = parse_weight(doc["lambda"], quiver, order)
    nu = parse_scalar(str(doc["nu"]), order)
    return Params(quiver, int(doc["n"]), weight, nu)


def dump_params(p: Params) -> dict:
    return {
        "n": p.n,
        "lambda": dump_weight(p.weight, p.quiver),
        "nu": format_scalar(p.nu),
        "cyclotomic_order": p.order,
    }


# -- matrices -----------------------------------------------------------------

def parse_matrix(doc: Any, rows: int, cols: int, order: int, where: str) -> Mat:
    _require(isinstance(doc, list), f"{where}: matrix must be a list of rows")
    _require(len(doc) == rows, f"{where}: expected {rows} rows, got {len(doc)}")
    data = []
    for row in doc:
        _require(isinstance(row, list) and len(row) == cols,
                 f"{where}: expected rows of length {cols}")
        for entry in row:
            data.append(parse_scalar(str(entry), order))
    return Mat(rows, cols, data, order)


def dump_matrix(m: Mat) -> list:
    return [[format_scalar(x) for x in m.row(r)] for r in range(m.rows)]


# -- modules -------------------------------------------------------------------

def parse_module(doc: Any, quiver: Quiver) -> WreathModule:
    _require(isinstance(doc, dict), "module document must be an object")
    _require("params" in doc and "support" in doc, "module needs params and support")
    params = parse_params(doc["params"], quiver)
    order = params.order
    support = {}
    for item in doc["support"]:
        _require(isinstance(item, dict) and "tuple" in item and "dim" in item,
                 "support entries need tuple and dim")
        j = tuple(str(v) for v in item["tuple"])
        _require(len(j) == params.n, f"support tuple {j} has length != n")
        for v in j:
            _require(quiver.has_vertex(v), f"support tuple uses unknown vertex {v!r}")
        support[j] = int(item["dim"])

    def dim(j):
        return support.get(j, 0)

    edge_actions = {}
    for item in doc.get("edge_actions", []):
        _require({"edge", "position", "source_tuple", "matrix"} <= set(item),
                 "edge actions need edge/position/source_tuple/matrix")
        name = str(item["edge"])
        pos = int(item["position"])
        j = tuple(str(v) for v in item["source_tuple"])
        e = quiver.edge(name)
        _require(1 <= pos <= params.n, f"bad position {pos}")
        _require(len(j) == params.n and j[pos - 1] == e.tail,
                 f"edge {name!r} cannot act at position {pos} of {j}")
        tgt = list(j)
        tgt[pos - 1] = e.head
        where = f"edge action ({name}, {pos}, {j})"
        mat = parse_matrix(item["matrix"], dim(tuple(tgt)), dim(j), order, where)
        edge_actions[(name, pos, j)] = mat

    sn_actions = {}
    for item in doc.get("sn_actions", []):
        _require({"adjacent", "source_tuple", "matrix"} <= set(item),
                 "sn actions need adjacent/source_tuple/matrix")
        m = int(item["adjacent"])
        j = tuple(str(v) for v in item["source_tuple"])
        _require(1 <= m <= params.n - 1, f"bad adjacent transposition index {m}")
        tgt = list(j)
        tgt[m - 1], tgt[m] = tgt[m], tgt[m - 1]
        where = f"sn action ({m}, {j})"
        mat = parse_matrix(item["matrix"], dim(tuple(tgt)), dim(j), order, where)
        sn_actions[(m, j)] = mat

    return WreathModule(params, support, edge_actions, sn_actions)


def dump_module(mod: WreathModule) -> dict:
    support = [{"tuple": list(j), "dim": d} for j, d in sorted(mod.support.items())]
    edge_actions = []
    for (name, pos, j), mat in sorted(mod.edge_actions.items(),
                                      key=lambda kv: (kv[0][2], kv[0][1], kv[0][0])):
        edge_actions.append({"edge": name, "position": pos,
                             "source_tuple": list(j), "matrix": dump_matrix(mat)})
    sn_actions = []
    for (m, j), mat in sorted(mod.sn_actions.items(),
                              key=lambda kv: (kv[0][1], kv[0][0])):
        sn_actions.append({"adjacent": m, "source_tuple": list(j),
                           "matrix": dump_matrix(mat)})
    return {
        "params": dump_params(mod.params),
        "support": support,
        "edge_actions": edge_actions,
        "sn_actions": sn_actions,
    }


# -- group data -----------------------------------------------------------------

def parse_gamma(doc: Any) -> GammaData:
    _require(isinstance(doc, dict) and "type" in doc, "gamma needs a 'type'")
    if doc["type"] == "cyclic":
        _require("m" in doc, "cyclic gamma needs m")
        return GammaData.cyclic(int(doc["m"]))
    _require(doc["type"] == "table", f"unknown gamma type {doc['type']!r}")
    order = int(doc["order"])
    scalar_order = int(doc.get("cyclotomic_order", 1))
    elements = tuple(str(e) for e in doc["elements"])
    vertices = tuple(str(v) for v in doc["vertices"])
    dims = {str(v): int(d) for v, d in doc["dims"].items()}
    table = {}
    for v in vertices:
        _require(v in doc["table"], f"missing table row for vertex {v!r}")
        row = {}
        for e in elements:
            _require(e in doc["table"][v], f"missing table entry ({v}, {e})")
            row[e] = parse_scalar(str(doc["table"][v][e]), scalar_order)
        table[v] = row
    return GammaData(order, elements, vertices, table, dims, scalar_order)


def parse_sra(doc: Any, gamma: GammaData) -> SRAParams:
    _require(isinstance(doc, dict) and {"t", "k"} <= set(doc), "sra needs t and k")
    order = gamma.scalar_order
    t = parse_scalar(str(doc["t"]), order)
    k = parse_scalar(str(doc["k"]), order)
    c = {str(e): parse_scalar(str(x), order) for e, x in doc.get("c", {}).items()}
    sra = SRAParams(t, k, c)
    sra.validate_against(gamma)
    return sra


# -- condition requests -----------------------------------------------------------

def parse_conditions_request(doc: Any, quiver: Quiver):
    _require(isinstance(doc, dict), "conditions request must be an object")
    order = int(doc.get("cyclotomic_order", 1))
    lam0 = parse_weight(doc["lambda0"], quiver, order)
    lam = parse_weight(doc["lambda"], quiver, order)
    nu = parse_scalar(str(doc["nu"]), order)
    word = [str(x) for x in doc.get("word", [])]
    blocks = []
    for item in doc["blocks"]:
        diagram = YoungDiagram(item["diagram"])
        alpha = DimVector.make({str(v): int(c) for v, c in item["alpha"].items()})
        blocks.append((diagram, alpha))
    n = int(doc["n"]) if "n" in doc else None
    return lam0, lam, nu, word, blocks, n


def parse_induce_request(doc: Any, quiver: Quiver):
    _require(isinstance(doc, list), "induce blocks must be a list")
    blocks = []
    for item in doc:
        _require(isinstance(item, dict) and {"diagram", "vertex"} <= set(item),
                 "each induce block needs diagram and vertex")
        blocks.append((YoungDiagram(item["diagram"]), str(item["vertex"])))
    return blocks
