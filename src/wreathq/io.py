"""JSON readers and writers for every file format the CLI speaks.

All numbers travel as text in the scalar grammar; serialization is
canonical (sorted keys, fixed field order), so parse/serialize round
trips are byte-stable.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .cyclotomic import MAX_CYCLOTOMIC_ORDER, Scalar, format_scalar, parse_scalar
from .errors import FormatError, ResourceLimitError
from .linalg import Mat
from .modules import Params, WreathModule
from .quiver import DimVector, Quiver, Weight
from .sra import GammaData, SRAParams
from .symmetric import YoungDiagram


def _require(cond: bool, message: str):
    if not cond:
        raise FormatError(message)


def _int(value: Any, what: str) -> int:
    """An integer field: a JSON integer, not a boolean, a float or a string."""
    _require(type(value) is int, f"{what} must be an integer, got {value!r}")
    return value


def _cyclotomic_order(value: Any, what: str = "cyclotomic_order") -> int:
    """A cyclotomic order, refused before Phi_m is built when it is too large."""
    order = _int(value, what)
    _require(order >= 1, f"{what} must be at least 1, got {order}")
    if order > MAX_CYCLOTOMIC_ORDER:
        raise ResourceLimitError(
            f"{what} {order} exceeds the limit of {MAX_CYCLOTOMIC_ORDER}")
    return order


def _list(value: Any, what: str) -> list:
    _require(isinstance(value, list), f"{what} must be a list, got {value!r}")
    return value


def _object(value: Any, what: str) -> dict:
    _require(isinstance(value, dict), f"{what} must be an object, got {value!r}")
    return value


def _objects(doc: dict, key: str) -> list:
    """The list of JSON objects under ``key``; an absent key is an empty list."""
    items = doc.get(key, [])
    _require(isinstance(items, list) and all(isinstance(item, dict) for item in items),
             f"{key} must be a list of objects")
    return items


def _diagram(value: Any) -> YoungDiagram:
    _require(isinstance(value, list) and value,
             f"diagram must be a non-empty list of integers, got {value!r}")
    return YoungDiagram([_int(part, "diagram part") for part in value])


def _name(value: Any, what: str) -> str:
    """A vertex, edge or group-element name: a JSON string.  A number is
    refused, not coerced to a name."""
    _require(isinstance(value, str), f"{what} must be a name (a string), got {value!r}")
    return value


def _names(value: Any, what: str) -> tuple[str, ...]:
    return tuple(_name(v, f"{what} entry") for v in _list(value, what))


def _scalar(value: Any, order: int, what: str) -> Scalar:
    """A scalar field: a JSON string in the scalar grammar.  A number or a
    boolean is refused, not coerced to its text."""
    _require(isinstance(value, str), f"{what} must be a scalar (a string), got {value!r}")
    return parse_scalar(value, order)


def parse_json(text: str, where: str) -> Any:
    """The JSON document in ``text``; ``where`` begins the message of a refusal."""
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        # RecursionError: the decoder's limit on nesting depth
        raise FormatError(f"{where}: {exc}") from exc
    except ValueError as exc:
        # int() refuses a literal longer than Python's limit on integer string conversion
        raise FormatError(f"{where}: an integer has more than "
                          f"{sys.get_int_max_str_digits()} digits") from exc


def load_json(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return parse_json(text, f"cannot read {path}")


def dump_json(path: str, payload: Any) -> None:
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(to_canonical_json(payload))
    except OSError as exc:
        raise FormatError(f"cannot write {path}: {exc}") from exc


def to_canonical_json(payload: Any) -> str:
    return json.dumps(payload, indent=2, sort_keys=False) + "\n"


# -- quivers ----------------------------------------------------------------

def parse_quiver(doc: Any) -> Quiver:
    _require(isinstance(doc, dict), "quiver document must be an object")
    _require("vertices" in doc and "edges" in doc, "quiver needs 'vertices' and 'edges'")
    edges = []
    for e in _list(doc["edges"], "edges"):
        _require(isinstance(e, dict) and {"name", "tail", "head"} <= set(e),
                 "each edge needs name/tail/head")
        edges.append(tuple(_name(e[k], f"edge {k}") for k in ("name", "tail", "head")))
    return Quiver(_names(doc["vertices"], "vertices"), edges)


# -- weights and parameters ---------------------------------------------------

def parse_weight(doc: Any, quiver: Quiver, order: int) -> Weight:
    _require(isinstance(doc, dict), "weight must be an object of scalar strings")
    out = {}
    for v, text in doc.items():
        _require(quiver.has_vertex(v), f"weight names unknown vertex {v!r}")
        out[v] = _scalar(text, order, f"weight at {v!r}")
    return Weight(out, order)


def dump_weight(w: Weight, quiver: Quiver) -> dict:
    return {v: format_scalar(w[v]) for v in quiver.vertices}


def parse_params(doc: Any, quiver: Quiver) -> Params:
    _require(isinstance(doc, dict), "params must be an object")
    _require("n" in doc and "lambda" in doc and "nu" in doc, "params needs n, lambda, nu")
    order = _cyclotomic_order(doc.get("cyclotomic_order", 1))
    n = _int(doc["n"], "n")
    weight = parse_weight(doc["lambda"], quiver, order)
    nu = _scalar(doc["nu"], order, "nu")
    return Params(quiver, n, weight, nu)


def dump_params(p: Params) -> dict:
    return {
        "n": p.n,
        "lambda": dump_weight(p.weight, p.quiver),
        "nu": format_scalar(p.nu),
        "cyclotomic_order": p.order,
    }


# -- matrices -----------------------------------------------------------------

def parse_matrix(doc: Any, cols: int, order: int, where: str) -> Mat:
    """A list of equal rows; the empty list has ``cols`` columns."""
    _require(isinstance(doc, list) and all(isinstance(row, list) for row in doc),
             f"{where}: matrix must be a list of rows")
    cols = len(doc[0]) if doc else cols
    _require(all(len(row) == cols for row in doc), f"{where}: rows of unequal length")
    data = [_scalar(entry, order, f"{where}: matrix entry") for row in doc for entry in row]
    return Mat(len(doc), cols, data, order)


def dump_matrix(m: Mat) -> list:
    return [[format_scalar(x) for x in m.row(r)] for r in range(m.rows)]


# -- modules -------------------------------------------------------------------

def parse_module(doc: Any, quiver: Quiver) -> WreathModule:
    """The module of a document whose fields have their JSON types and whose
    keys are not repeated; the ``WreathModule`` constructor refuses a
    malformed tuple, edge, position, dimension or matrix shape."""
    _require(isinstance(doc, dict), "module document must be an object")
    _require("params" in doc and "support" in doc, "module needs params and support")
    params = parse_params(doc["params"], quiver)
    order = params.order

    support = {}
    for item in _objects(doc, "support"):
        _require("tuple" in item and "dim" in item, "support entries need tuple and dim")
        j = _names(item["tuple"], "support tuple")
        _require(j not in support, f"support {j}: repeated tuple")
        support[j] = _int(item["dim"], "dim")

    def width(j):
        # an empty matrix maps out of V_j; a negative dimension is the constructor's to refuse
        return max(support.get(j, 0), 0)

    edge_actions = {}
    for item in _objects(doc, "edge_actions"):
        _require({"edge", "position", "source_tuple", "matrix"} <= set(item),
                 "edge actions need edge/position/source_tuple/matrix")
        name, pos = _name(item["edge"], "edge"), _int(item["position"], "position")
        j = _names(item["source_tuple"], "source_tuple")
        where = f"edge action ({name}, {pos}, {','.join(j)})"
        _require((name, pos, j) not in edge_actions, f"{where}: repeated key")
        edge_actions[(name, pos, j)] = parse_matrix(item["matrix"], width(j), order, where)

    sn_actions = {}
    for item in _objects(doc, "sn_actions"):
        _require({"adjacent", "source_tuple", "matrix"} <= set(item),
                 "sn actions need adjacent/source_tuple/matrix")
        m = _int(item["adjacent"], "adjacent")
        j = _names(item["source_tuple"], "source_tuple")
        where = f"sn action ({m}, {','.join(j)})"
        _require((m, j) not in sn_actions, f"{where}: repeated key")
        sn_actions[(m, j)] = parse_matrix(item["matrix"], width(j), order, where)

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
        return GammaData.cyclic(_cyclotomic_order(doc["m"], "m"))
    _require(doc["type"] == "table", f"unknown gamma type {doc['type']!r}")
    _require({"order", "elements", "vertices", "dims", "table"} <= set(doc),
             "table gamma needs order, elements, vertices, dims and table")
    order = _int(doc["order"], "order")
    scalar_order = _cyclotomic_order(doc.get("cyclotomic_order", 1))
    elements = _names(doc["elements"], "elements")
    _require(elements, "elements must not be empty")
    vertices = _names(doc["vertices"], "vertices")
    dims = {v: _int(d, "dims value") for v, d in _object(doc["dims"], "dims").items()}
    table_doc = _object(doc["table"], "table")
    for what, keys in (("dims", dims), ("table", table_doc)):
        for v in keys:
            _require(v in vertices, f"{what} names unknown vertex {v!r}")
    table = {}
    for v in vertices:
        _require(v in dims, f"missing dims entry for vertex {v!r}")
        _require(v in table_doc, f"missing table row for vertex {v!r}")
        row_doc = _object(table_doc[v], f"table row {v!r}")
        for e in row_doc:
            _require(e in elements, f"table row {v!r} names unknown element {e!r}")
        row = {}
        for e in elements:
            _require(e in row_doc, f"missing table entry ({v}, {e})")
            row[e] = _scalar(row_doc[e], scalar_order, f"table entry ({v}, {e})")
        table[v] = row
    gamma = GammaData(order, elements, vertices, table, dims, scalar_order)
    # recover_sra inverts by the orthogonality of characters, so only a
    # square table of orthogonal characters is accepted
    classes = len(gamma.conjugacy_classes())
    _require(classes == len(vertices), "table gamma needs as many conjugacy classes as "
             f"vertices, got {classes} and {len(vertices)}")
    for a, v in enumerate(vertices):
        conj = [table[v][e].conjugate() for e in elements]
        for w in vertices[a:]:
            inner = Scalar.zero(scalar_order)
            for e, x in zip(elements, conj):
                inner = inner + table[w][e] * x
            _require(inner == Scalar.rational(order if w == v else 0, scalar_order),
                     f"table rows {v!r} and {w!r} break the orthogonality of characters")
    return gamma


def parse_sra(doc: Any, gamma: GammaData) -> SRAParams:
    _require(isinstance(doc, dict) and {"t", "k"} <= set(doc), "sra needs t and k")
    order = gamma.scalar_order
    t = _scalar(doc["t"], order, "t")
    k = _scalar(doc["k"], order, "k")
    c = {e: _scalar(x, order, f"c at {e!r}") for e, x in _object(doc.get("c", {}), "c").items()}
    return SRAParams(t, k, c)


# -- condition requests -----------------------------------------------------------

def parse_conditions_request(doc: Any, quiver: Quiver):
    _require(isinstance(doc, dict), "conditions request must be an object")
    _require({"lambda0", "lambda", "nu", "blocks"} <= set(doc),
             "conditions request needs lambda0, lambda, nu and blocks")
    order = _cyclotomic_order(doc.get("cyclotomic_order", 1))
    lam0 = parse_weight(doc["lambda0"], quiver, order)
    lam = parse_weight(doc["lambda"], quiver, order)
    nu = _scalar(doc["nu"], order, "nu")
    word = list(_names(doc.get("word", []), "word"))
    blocks = []
    for item in _list(doc["blocks"], "blocks"):
        _require(isinstance(item, dict) and {"diagram", "alpha"} <= set(item)
                 and isinstance(item["alpha"], dict),
                 "each conditions block needs a diagram and an alpha object")
        diagram = _diagram(item["diagram"])
        for v in item["alpha"]:
            _require(quiver.has_vertex(v), f"alpha names unknown vertex {v!r}")
        alpha = DimVector.make({v: _int(c, "alpha value")
                                for v, c in item["alpha"].items()})
        blocks.append((diagram, alpha))
    n = _int(doc["n"], "n") if "n" in doc else None
    return lam0, lam, nu, word, blocks, n


def parse_induce_request(doc: Any, quiver: Quiver):
    _require(isinstance(doc, list), "induce blocks must be a list")
    blocks = []
    for item in doc:
        _require(isinstance(item, dict) and {"diagram", "vertex"} <= set(item),
                 "each induce block needs diagram and vertex")
        blocks.append((_diagram(item["diagram"]), _name(item["vertex"], "induce vertex")))
    return blocks
