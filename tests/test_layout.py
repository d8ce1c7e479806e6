"""Source-layout rules that no other test exercises."""

import ast
import importlib
import importlib.util
import pathlib
import re
import subprocess
import sys

from conftest import AHAT1, HALF, make_params
from test_cli import _fresh_env
from wreathq import reflection
from wreathq.modules import build_induced_zero_e
from wreathq.symmetric import YoungDiagram

PACKAGE = pathlib.Path(__file__).resolve().parents[1] / "src" / "wreathq"
TESTS = pathlib.Path(__file__).resolve().parent


def _private_imports(path: pathlib.Path) -> list[str]:
    """``from .x import _name`` (or ``from wreathq.x import _name``) lines of one file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if not isinstance(node, ast.ImportFrom):
            continue
        internal = node.level > 0 or (node.module or "").split(".")[0] == "wreathq"
        for alias in node.names:
            if internal and alias.name.startswith("_"):
                found.append(f"{path.name}:{node.lineno}: {alias.name}")
    return found


def test_no_private_cross_module_imports():
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    offenders = [line for path in files for line in _private_imports(path)]
    assert offenders == []


def test_the_guard_sees_a_private_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from .linalg import Mat, _mat\nfrom wreathq.io import _int\n"
                     "from .errors import FormatError\n")
    assert _private_imports(probe) == ["probe.py:1: _mat", "probe.py:2: _int"]


# -- one constructor of the chain complex ----------------------------------------

def _stray_calls(path: pathlib.Path, callee: str, owner: str) -> list[str]:
    """Calls in one file of ``callee``, ``x.callee`` or ``callee.attr`` outside the
    body of the function ``owner``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    inside = {id(node) for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name == owner
              for node in ast.walk(fn)}
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        f = node.func
        if (isinstance(f, ast.Name) and f.id == callee) \
                or (isinstance(f, ast.Attribute) and f.attr == callee) \
                or (isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name)
                    and f.value.id == callee):
            lines.append(node.lineno)
    return [f"{path.name}:{line}: {callee}" for line in sorted(lines)]


def test_only_complex_from_cube_builds_a_chain_complex():
    # cohomology takes d^2 = 0 as given: complex_from_cube checks it on the squares
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    offenders = [line for path in files
                 for line in _stray_calls(path, "ChainComplex", "complex_from_cube")]
    assert offenders == []


def test_the_guard_sees_a_stray_chain_complex(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import cubes\n"
                     "def complex_from_cube(cube):\n    return ChainComplex([], [], 1)\n"
                     "def shortcut(terms, diffs):\n    return ChainComplex(terms, diffs, 1)\n"
                     "BARE = cubes.ChainComplex([], [], 1)\n"
                     "RAW = ChainComplex.__new__(ChainComplex)\n")
    assert _stray_calls(probe, "ChainComplex", "complex_from_cube") == \
        ["probe.py:5: ChainComplex", "probe.py:6: ChainComplex", "probe.py:7: ChainComplex"]


# -- one module opens files -------------------------------------------------------

def test_only_io_opens_files():
    # io turns every file error into a FormatError ("cannot read", "cannot write")
    files = sorted(p for p in PACKAGE.glob("*.py") if p.name != "io.py")
    assert files
    offenders = [line for path in files for line in _stray_calls(path, "open", "")]
    assert offenders == []


def test_the_guard_sees_a_stray_open(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("import os, pathlib\n"
                     "def save(path, text):\n    with open(path, 'w') as fh:\n"
                     "        fh.write(text)\n"
                     "FD = os.open('x', os.O_RDONLY)\n"
                     "TEXT = pathlib.Path('x').open().read()\n")
    assert _stray_calls(probe, "open", "") == \
        ["probe.py:3: open", "probe.py:5: open", "probe.py:6: open"]


# -- one reader of scalar fields ---------------------------------------------------

def test_io_parses_scalars_only_in_scalar():
    # a scalar field is a JSON string: _scalar refuses any other JSON value, so no
    # reader coerces a number or a boolean to scalar text
    assert _stray_calls(PACKAGE / "io.py", "parse_scalar", "_scalar") == []


def test_the_guard_sees_a_stray_scalar_parse(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import cyclotomic\n"
                     "def _scalar(value, order, what):\n    return parse_scalar(value, order)\n"
                     "def parse_weight(doc, order):\n    return parse_scalar(str(doc), order)\n"
                     "NU = cyclotomic.parse_scalar('1/2')\n")
    assert _stray_calls(probe, "parse_scalar", "_scalar") == \
        ["probe.py:5: parse_scalar", "probe.py:6: parse_scalar"]


# -- one rank route ----------------------------------------------------------------

def _stray_ranks(files: list) -> list[str]:
    """Calls of ``rank`` or ``rank_mod_p`` anywhere but in ``cubes.cohomology``."""
    return [line for path in files for callee in ("rank", "rank_mod_p")
            for line in _stray_calls(path, callee, "cohomology" if path.name == "cubes.py" else "")]


def test_only_cubes_cohomology_takes_a_rank():
    # relation (i) and genericity certify the acyclic module cubes: no second rank route
    files = sorted(PACKAGE.glob("*.py"))
    assert files
    assert _stray_ranks(files) == []


def test_the_guard_sees_a_stray_rank(tmp_path):
    cubes_probe = tmp_path / "cubes.py"
    cubes_probe.write_text("def cohomology(d):\n    return rank_mod_p(d) or rank(d)\n"
                           "def _cone_acyclic(b):\n    return rank_mod_p(b) == b.rows\n")
    other = tmp_path / "reflection.py"
    other.write_text("from . import linalg\n"
                     "def cohomology(d):\n    return linalg.rank(d)\n")
    assert _stray_ranks([cubes_probe, other]) == \
        ["cubes.py:4: rank_mod_p", "reflection.py:3: rank"]


# -- one evaluator of the verifier's identities -------------------------------------

# the verifier's checks and the helpers that evaluate their terms; every matrix
# product they form is one of _word's
VERIFIER = ("structural_report", "verify_relations", "_residual", "perm_matrix")


def _products(path: pathlib.Path, owners: tuple) -> dict[str, list[int]]:
    """The lines of the matrix products (``@``, ``@=``) inside each named function
    of one file, nested functions included."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return {fn.name: sorted(node.lineno for node in ast.walk(fn)
                            if isinstance(node, (ast.BinOp, ast.AugAssign))
                            and isinstance(node.op, ast.MatMult))
            for fn in ast.walk(tree)
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and fn.name in owners}


def test_the_verifier_multiplies_only_in_word():
    found = _products(PACKAGE / "modules.py", VERIFIER + ("_word",))
    assert sorted(found) == sorted(VERIFIER + ("_word",))
    assert len(found.pop("_word")) == 1
    assert found == dict.fromkeys(VERIFIER, [])


def test_the_guard_sees_a_stray_product(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("def _word(a, b):\n    return a @ b\n"
                     "def verify_relations(a, b):\n    def term(x):\n        return x @ b\n"
                     "    a @= b\n    return term(a) == _word(a, b)\n"
                     "def other(a, b):\n    return a @ b\n")
    assert _products(probe, ("_word", "verify_relations", "structural_report")) == \
        {"_word": [2], "verify_relations": [5, 6]}


# -- Scalar only at the boundary of the matrix core -----------------------------------

# the methods of Mat that take or give Scalars; every kernel runs on integer numerators
BOUNDARY = ("__init__", "__getitem__", "row", "data", "trace", "scaled")


def _stray_names(path: pathlib.Path, name: str, cls: str, owners: tuple) -> list[str]:
    """Reads of ``name`` (a bare name or an attribute) in one file outside the
    methods ``owners`` of class ``cls``; the import that binds it is not a read."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    inside = {id(node) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) and c.name == cls
              for fn in c.body if isinstance(fn, ast.FunctionDef) and fn.name in owners
              for node in ast.walk(fn)}
    lines = sorted(node.lineno for node in ast.walk(tree)
                   if id(node) not in inside and ((isinstance(node, ast.Name) and node.id == name)
                                                  or (isinstance(node, ast.Attribute)
                                                      and node.attr == name)))
    return [f"{path.name}:{line}: {name}" for line in lines]


def test_linalg_names_scalar_only_at_the_boundary():
    assert _stray_names(PACKAGE / "linalg.py", "Scalar", "Mat", BOUNDARY) == []


def test_the_guard_sees_a_stray_scalar(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from . import cyclotomic\nfrom .cyclotomic import Scalar\n"
                     "class Mat:\n    def row(self, r) -> Scalar:\n        return Scalar.zero(1)\n"
                     "    def __matmul__(self, other):\n        return Scalar.one(1)\n"
                     "def kernel(a: Scalar):\n    return cyclotomic.Scalar\n"
                     "class Other:\n    def row(self):\n        return Scalar\n")
    assert _stray_names(probe, "Scalar", "Mat", BOUNDARY) == \
        ["probe.py:7: Scalar", "probe.py:8: Scalar", "probe.py:9: Scalar", "probe.py:12: Scalar"]


# -- the benchmark tracer's hooks ------------------------------------------------

REPO = PACKAGE.parents[1]

# the attributes perfbench/spans.py wraps besides SPANS and SCALAR_OPS
TRACER_HOOKS = (("linalg", "Mat.data"), ("linalg", "Mat.zeros"), ("linalg", "Mat.identity"),
                ("linalg", "BlockBuilder.__init__"), ("reflection", "BigSpace.__post_init__"))


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans",
                                                  REPO / "perfbench" / "spans.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(modname: str, attr: str) -> bool:
    """The tracer takes methods from the class ``__dict__``, so inherited ones do not count."""
    mod = importlib.import_module("wreathq." + modname)
    owner, _, name = attr.rpartition(".")
    if owner:
        cls = getattr(mod, owner, None)
        return cls is not None and name in vars(cls)
    return callable(getattr(mod, name, None))


def test_every_traced_name_resolves():
    spans = _spans_module()
    wanted = [(mod, attr) for mod, attr, _ in spans.SPANS] + list(TRACER_HOOKS)
    wanted += [("cyclotomic", f"Scalar.{a}") for attrs in spans.SCALAR_OPS.values() for a in attrs]
    missing = [f"{mod}.{attr}" for mod, attr in wanted if not _resolves(mod, attr)]
    assert missing == []


def test_the_tracer_sees_theta_and_the_certificate_products():
    # a private path beside a traced public name would hide its calls
    spans = _spans_module()
    params = make_params(AHAT1, 2, {"0": 1, "1": -HALF}, HALF)
    # F_0 of a zero-edge module: reflecting it again meets proper kernels
    module = reflection.reflection_functor(
        build_induced_zero_e(params, [(YoungDiagram([2]), "1")]), "0").module
    tracer = spans.Tracer()
    tracer.begin_pass(0)
    certified = []
    tracer.install_spans()
    try:
        traced = reflection.solve_in_span

        def recording(basis, target):
            certified.append(basis.rows > basis.cols and target.cols > 0)
            return traced(basis, target)

        reflection.solve_in_span = recording
        reflection.reflection_functor(module, "0")
    finally:
        tracer.uninstall()
    names = tracer.names
    counters = spans.aggregate(tracer.export())[0]
    assert counters["reflection.theta.calls"] > 0
    # every BigSpace construction passes through the gauged __post_init__
    assert counters["reflection.space.sum_dim"] > 0
    solves = [k for k, (nid, *_) in enumerate(tracer.spans)
              if names[nid] == "linalg.solve_in_span"]
    products = {parent for nid, _, _, parent, _ in tracer.spans
                if names[nid] == "linalg.matmul"}
    assert len(solves) == len(certified) and any(certified)
    assert all(k in products for k, cert in zip(solves, certified) if cert)


def test_the_hook_check_sees_a_missing_name():
    assert not _resolves("cubes", "kernel_basis")
    assert not _resolves("linalg", "Mat.no_such_method")
    assert not _resolves("linalg", "NoSuchClass.__init__")
    assert _resolves("linalg", "Mat.__matmul__") and _resolves("cubes", "cohomology")


# -- unused imports ----------------------------------------------------------------

def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names an import binds in one file that nothing in the file reads.

    Quoted annotations count as reads; ``from __future__`` imports do not bind.
    """
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    bound: dict[str, int] = {}
    used: set[str] = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
    for node in (n for a in annotations if a is not None for n in ast.walk(a)):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            quoted = ast.parse(node.value, mode="eval")
            used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return [f"{path.name}:{line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1])
            if name not in used]


def test_no_unused_imports():
    files = sorted(PACKAGE.glob("*.py")) + sorted(TESTS.glob("*.py"))
    assert files
    offenders = [line for path in files for line in _unused_imports(path)]
    assert offenders == []


def test_the_guard_sees_an_unused_import(tmp_path):
    probe = tmp_path / "probe.py"
    probe.write_text("from __future__ import annotations\nimport os.path\nimport sys\n"
                     "from .linalg import Mat, rank\nfrom .errors import FormatError as FE\n"
                     "def f(x: 'Mat') -> int:\n    return sys.maxsize + len('rank')\n")
    assert _unused_imports(probe) == ["probe.py:2: os", "probe.py:4: rank", "probe.py:5: FE"]


# -- public names that nothing reads --------------------------------------------------

_DOTTED = re.compile(r"[A-Za-z_][\w.]*")


def _named_fields(node: ast.AST) -> list:
    """The ``(name, type)`` pairs of a functional ``NamedTuple("_X", [...])`` call, or []."""
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
            and node.func.id == "NamedTuple" and len(node.args) == 2 \
            and isinstance(node.args[1], ast.List):
        return node.args[1].elts
    return []


def _reads(path: pathlib.Path) -> set[str]:
    """Names one file reads: identifiers (not the ones assigned to), attributes,
    imported names, and the parts of dotted-name strings (quoted annotations, and the
    tracer's ``"Mat.__matmul__"``), but not the field names a functional ``NamedTuple``
    declares.  An attribute of a plain name, ``Mat.identity``, is also read whole."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    declared = {id(pair.elts[0]) for node in ast.walk(tree) for pair in _named_fields(node)}
    names = set()
    for node in ast.walk(tree):
        if id(node) in declared:
            continue
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
            if isinstance(node.value, ast.Name):
                names.add(f"{node.value.id}.{node.attr}")
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) \
                and _DOTTED.fullmatch(node.value):
            parts = node.value.split(".")
            names.update(parts + [f"{a}.{b}" for a, b in zip(parts, parts[1:])])
    return names


def _members(cls: ast.ClassDef):
    """(node, name, the name a read must match) of each method and annotated field of
    a class, and of each field of a functional ``NamedTuple("_X", [(name, type), ...])``
    base; a static method is read only through its class, as ``Cls.name``."""
    for base in cls.bases:
        for pair in _named_fields(base):
            yield pair, pair.elts[0].value, pair.elts[0].value
    for m in cls.body:
        if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name):
            yield m, m.target.id, m.target.id
        elif isinstance(m, ast.FunctionDef):
            static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                         for d in m.decorator_list)
            yield m, m.name, f"{cls.name}.{m.name}" if static else m.name


def _unread_public_names(package: pathlib.Path, readers: list[pathlib.Path]) -> list[str]:
    """Public top-level functions and classes of a package's modules, and public
    methods, properties and annotated fields of those classes, that their own
    module does not read again, and no other module of the package and no file of
    ``readers`` reads.  A re-export from ``__init__`` is not a read."""
    modules = sorted(p for p in package.glob("*.py") if p.name != "__init__.py")
    read = set().union(*map(_reads, modules + list(readers)))
    found = []
    for path in modules:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            members = list(_members(node)) if isinstance(node, ast.ClassDef) else []
            found += [f"{path.name}:{n.lineno}: {name}"
                      for n, name, key in [(node, node.name, node.name)] + members
                      if not name.startswith("_") and key not in read]
    return found


def test_every_public_name_is_read():
    assert _unread_public_names(PACKAGE, sorted((REPO / "perfbench").glob("*.py"))) == []


def test_the_guard_sees_an_unread_name(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "__init__.py").write_text("from .a import exported\n")
    (pkg / "a.py").write_text("def exported():\n    return helper()\n\n"
                              "def helper():\n    return 1\n\n"
                              "def shared():\n    return 2\n\n"
                              "def traced():\n    return 3\n\n"
                              "class Unread:\n    pass\n\n"
                              "def unread():\n    return 4\n\n"
                              "def _private():\n    return 5\n\n"
                              "class Read:\n"
                              "    def __init__(self):\n        self.x = 6\n"
                              "    def used(self):\n        return self.x\n"
                              "    @property\n    def unused(self):\n        return 7\n"
                              "    def _hidden(self):\n        return 8\n\n"
                              "class Record:\n    kept: int\n    dropped: int\n"
                              "    @staticmethod\n    def build():\n        return Record()\n"
                              "    @staticmethod\n    def used():\n        return 9\n\n"
                              "class Checked(NamedTuple('_Checked', [('seen', int),\n"
                              "                                      ('missed', int)])):\n"
                              "    __slots__ = ()\n")
    (pkg / "b.py").write_text("from .a import Checked, Read, Record, shared\n\n"
                              "VALUE = Read().used() + Record.build().kept + Checked(1, 2).seen\n"
                              "dropped = 0\n")
    bench = tmp_path / "bench.py"
    bench.write_text("SPANS = (('a', 'traced', 'a.traced'),)\n")
    # Record.used is hidden by Read().used only when reads are matched by bare name,
    # and b.py's variable dropped assigns, it does not read
    assert _unread_public_names(pkg, [bench]) == \
        ["a.py:1: exported", "a.py:13: Unread", "a.py:16: unread", "a.py:28: unused",
         "a.py:35: dropped", "a.py:40: used", "a.py:44: missed"]


# -- the package namespace loads nothing ----------------------------------------------

def test_the_package_imports_only_what_is_asked_for():
    # __init__ re-exports nothing, so the pipeline modules load no CLI, I/O or SRA code
    assert not [node for node in ast.walk(ast.parse((PACKAGE / "__init__.py").read_text()))
                if isinstance(node, (ast.Import, ast.ImportFrom))]
    probe = ("import sys\nfrom wreathq import cubes, modules, reflection\n"
             "print(sorted(m for m in sys.modules if m.startswith('wreathq.')))\n")
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), check=True)
    loaded = ast.literal_eval(proc.stdout)
    assert {"wreathq.cubes", "wreathq.modules", "wreathq.reflection"} <= set(loaded)
    assert not {"wreathq.sra", "wreathq.io", "wreathq.cli"} & set(loaded)


def test_the_cli_imports_no_dataclasses():
    # records are NamedTuples or slotted classes: building dataclasses would pull in
    # inspect, ast and dis on every cold start of the CLI
    probe = "import sys\nimport wreathq.cli\nprint('dataclasses' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=_fresh_env(), check=True)
    assert proc.stdout.strip() == "False"


# -- exception classes that nothing raises ---------------------------------------------

def _unraised_errors(errors: pathlib.Path, sources: list[pathlib.Path]) -> list[str]:
    """Exception classes of ``errors`` that no ``raise`` in ``sources`` names and no
    other class of ``errors`` derives from."""
    tree = ast.parse(errors.read_text(encoding="utf-8"))
    classes = [node for node in tree.body if isinstance(node, ast.ClassDef)]
    bases = {base.id for node in classes for base in node.bases if isinstance(base, ast.Name)}
    raised = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    raised.add(exc.id)
    return [f"{errors.name}:{node.lineno}: {node.name}" for node in classes
            if node.name not in raised | bases]


def test_every_exception_class_is_raised():
    errors = PACKAGE / "errors.py"
    sources = sorted(p for p in PACKAGE.glob("*.py") if p != errors)
    assert _unraised_errors(errors, sources) == []


def test_the_guard_sees_an_unraised_error(tmp_path):
    errors = tmp_path / "errors.py"
    errors.write_text("class Base(Exception):\n    pass\n\n"
                      "class Raised(Base):\n    pass\n\n"
                      "class Bare(Base):\n    pass\n\n"
                      "class Unraised(Base):\n    pass\n")
    user = tmp_path / "user.py"
    user.write_text("from .errors import Raised, Bare, Unraised\n\n"
                    "def f(x):\n    if x:\n        raise Raised('x')\n    raise Bare\n\n"
                    "def g():\n    return Unraised\n")
    assert _unraised_errors(errors, [user]) == ["errors.py:10: Unraised"]
