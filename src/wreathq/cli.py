"""Batch command-line front-end.

Exit codes: 0 for success, 1 for a domain failure (relation failure,
non-generic parameters, an edge-loop, failed conditions), 2 for parse,
format, or structural errors.  All output is deterministic and all
numbers are printed in the scalar grammar.
"""

from __future__ import annotations

import argparse
import sys

from .cyclotomic import format_scalar
from .errors import FormatError, WreathqError
from . import io
from .cubes import euler_characteristic, module_cohomology
from .modules import build_induced_zero_e, verify_relations
from .quiver import validate_word
from .reflection import apply_functor_word, is_generic
from .sra import deformability_report, recover_sra, translate_params

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_FORMAT = 2


def _load_quiver(args):
    return io.parse_quiver(io.load_json(args.quiver))


def _load_module(args, quiver):
    return io.parse_module(io.load_json(args.module), quiver)


def _fmt_tuple(j) -> str:
    return "(" + ",".join(j) + ")"


def _require_structure(report) -> None:
    """A module failing its structural checks is malformed input."""
    if report.structural:
        raise FormatError(f"structural: {report.structural[0]}")


def cmd_verify(args) -> int:
    quiver = _load_quiver(args)
    module = _load_module(args, quiver)
    report = verify_relations(module)
    for issue in report.structural:
        print(f"structural: {issue}")
    _require_structure(report)
    if report.failures:
        for f in report.failures:
            print(str(f))
        return EXIT_DOMAIN
    print("ok: module satisfies the defining relations")
    return EXIT_OK


def _print_dims(module, header):
    print(header)
    for j, d in sorted(module.support.items()):
        print(f"  {_fmt_tuple(j)} -> {d}")
    if not module.support:
        print("  (zero module)")


def cmd_reflect(args) -> int:
    if (args.vertex is None) == (args.word is None):
        raise FormatError("reflect needs exactly one of --vertex or --word")
    quiver = _load_quiver(args)
    module = _load_module(args, quiver)
    if args.vertex is not None:
        word = [args.vertex]
    else:
        word = args.word.split()
    result = apply_functor_word(module, word)
    for letter, weight, dims in result.trace:
        lam = ", ".join(f"{v}: {format_scalar(weight[v])}" for v in quiver.vertices)
        print(f"applied vertex {letter}; weight now {{{lam}}}")
    _print_dims(result.module, "dimensions:")
    if args.out:
        io.dump_json(args.out, io.dump_module(result.module))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_cohomology(args) -> int:
    quiver = _load_quiver(args)
    module = _load_module(args, quiver)
    _require_structure(verify_relations(module))
    coh = module_cohomology(module, args.vertex)
    for j in sorted(coh):
        dims = coh[j]
        body = ", ".join(f"H^{r} = {d}" for r, d in enumerate(dims))
        print(f"{_fmt_tuple(j)}: {body}")
    total0 = sum(d[0] for d in coh.values())
    higher = sum(sum(d[1:]) for d in coh.values())
    print(f"total: H^0 = {total0}, higher = {higher}")
    return EXIT_OK


def cmd_euler(args) -> int:
    quiver = _load_quiver(args)
    module = _load_module(args, quiver)
    _require_structure(verify_relations(module))
    report = euler_characteristic(module, args.vertex)
    for j, value in report.per_tuple:
        print(f"{_fmt_tuple(j)}: {value}")
    print(f"total: {sum(v for _, v in report.per_tuple)}")
    for parts, value in report.character:
        label = ",".join(str(p) for p in parts)
        print(f"class [{label}]: {format_scalar(value)}")
    return EXIT_OK


def cmd_generic(args) -> int:
    quiver = _load_quiver(args)
    params = io.parse_params(io.load_json(args.params), quiver)
    result = is_generic(params, args.vertex)
    if result.ok:
        print("generic: all conditions hold")
        return EXIT_OK
    print(f"fails at p={result.failing_p} ({result.failing_branch} branch)")
    return EXIT_DOMAIN


def cmd_induce(args) -> int:
    quiver = _load_quiver(args)
    params = io.parse_params(io.load_json(args.params), quiver)
    if args.blocks.startswith("@"):
        doc = io.load_json(args.blocks[1:])
    else:
        doc = io.parse_json(args.blocks, "bad --blocks JSON")
    blocks = io.parse_induce_request(doc, quiver)
    module = build_induced_zero_e(params, blocks)
    _print_dims(module, "induced module dimensions:")
    if args.out:
        io.dump_json(args.out, io.dump_module(module))
        print(f"wrote {args.out}")
    return EXIT_OK


def cmd_translate(args) -> int:
    gamma = io.parse_gamma(io.load_json(args.gamma))
    sra = io.parse_sra(io.load_json(args.sra), gamma)
    lam, nu = translate_params(gamma, sra)
    for v in gamma.vertices:
        print(f"lambda[{v}] = {format_scalar(lam[v])}")
    print(f"nu = {format_scalar(nu)}")
    back = recover_sra(gamma, lam, nu)
    if back.t != sra.t or back.k != sra.k:
        print("warning: round trip failed", file=sys.stderr)
        return EXIT_DOMAIN
    return EXIT_OK


def cmd_conditions(args) -> int:
    quiver = _load_quiver(args)
    doc = io.load_json(args.request)
    lam0, lam, nu, word, blocks, n = io.parse_conditions_request(doc, quiver)
    report = deformability_report(quiver, lam0, lam, nu, word, blocks, n)
    print(report.summary())
    return EXIT_OK if report.passed else EXIT_DOMAIN


def cmd_word_validate(args) -> int:
    quiver = _load_quiver(args)
    params = io.parse_params(io.load_json(args.params), quiver)
    word = args.word.split()
    result = validate_word(quiver, params.weight, word)
    for step in result.steps:
        status = "ok" if step.ok else "ZERO PIVOT"
        print(f"letter {step.letter}: pivot {format_scalar(step.pivot)} [{status}]")
    lam = ", ".join(f"{v}: {format_scalar(result.final[v])}" for v in quiver.vertices)
    print(f"final weight {{{lam}}}")
    print("pass" if result.passed else "fail")
    return EXIT_OK if result.passed else EXIT_DOMAIN


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wreathq",
        description="Exact reflection functors over deformed wreath products.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, **needs):
        p = sub.add_parser(name)
        if needs.get("quiver", True):
            p.add_argument("--quiver", required=True, help="quiver JSON file")
        if needs.get("module"):
            p.add_argument("--module", required=True, help="module JSON file")
        if needs.get("params"):
            p.add_argument("--params", required=True, help="params JSON file")
        if needs.get("vertex"):
            p.add_argument("--vertex", required=needs["vertex"] == "required")
        if needs.get("word"):
            p.add_argument("--word")
        if needs.get("out"):
            p.add_argument("--out", help="write the resulting module JSON here")
        p.set_defaults(fn=fn)
        return p

    add("verify", cmd_verify, module=True)
    add("reflect", cmd_reflect, module=True, vertex="optional", word=True, out=True)
    add("cohomology", cmd_cohomology, module=True, vertex="required")
    add("euler", cmd_euler, module=True, vertex="required")
    add("generic", cmd_generic, params=True, vertex="required")
    p = add("induce", cmd_induce, params=True, out=True)
    p.add_argument("--blocks", required=True,
                   help="JSON list of {diagram, vertex}, or @file")
    p = sub.add_parser("translate")
    p.add_argument("--gamma", required=True)
    p.add_argument("--sra", required=True)
    p.set_defaults(fn=cmd_translate)
    p = add("conditions", cmd_conditions)
    p.add_argument("--request", required=True, help="conditions request JSON file")
    p = add("word-validate", cmd_word_validate, params=True)
    p.add_argument("--word", required=True)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_FORMAT if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FORMAT
    except WreathqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
