"""Command-line interface.

Commands: validate, m, triple, reduce, compose, torus-sweep, trefoil,
rho-diff.  All outputs are deterministic: identical inputs produce
byte-identical stdout.  Rationals are read and written as "p/q" strings.
Plain output prints floats with 15 significant digits; ``--json`` output and
the JSON that reduce and compose print use Python's shortest round-trip repr.
``--json`` applies to validate, m, triple, trefoil and rho-diff; reduce and
compose always print JSON, and torus-sweep always prints CSV.  trefoil exits 2
(ConditionFailed) at an arc point whose parameters do not extend over the
mapping torus, so its ``condition`` line always reads true.

The numeric modules are lazy (see :mod:`hermsymp`): each handler reaches its
functions through their module, so a module runs when a handler first uses it.
``trefoil``, ``rho-diff`` and ``--help`` run on the standard library and
:mod:`~hermsymp.knotcalc` and never import numpy.

Exit codes:
    0  success
    2  invalid input (JSON schema, shapes, parameters, failed validation,
       violated preconditions) and other numerical-degeneracy failures
    3  eigenvalue too close to the branch point -1 to classify, or one of a
       triple's Kashiwara form too close to 0
    4  integrality guard failure (NonIntegerSum; reserved, as the triple
       index is an exact signature and no command runs the correction term)
    5  closed-form/generic mismatch beyond 1e-9 in the torus sweep

Semantic errors are reported as JSON objects {"error", "message"} on stderr.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from fractions import Fraction

from . import bordism, knotcalc, maslov, serialization, spaces, torus
from .errors import (
    EigenvalueAmbiguity,
    HermsympError,
    NonIntegerSum,
    Tolerances,
    ValidationError,
)

SWEEP_TOL = 1e-9


class SweepMismatch(HermsympError):
    """The torus sweep's closed form and generic route differ by ``SWEEP_TOL`` or more."""


def _fmt(x: float) -> str:
    return "%.15g" % float(x)


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON, non-UTF-8 bytes and over-long integers
        raise ValidationError(f"{path}: {exc}") from exc


def _rational_arg(text: str) -> Fraction:
    try:
        return knotcalc._rational(text)
    except ValidationError:
        raise argparse.ArgumentTypeError(f"not a rational p/q: {text!r}") from None


def _emit(args, payload: dict, plain_lines: list[str]) -> int:
    print(json.dumps(payload, sort_keys=True) if args.json else "\n".join(plain_lines))
    return 0


def _emit_fields(args, fields) -> int:
    """Print ``(name, json_value, plain_text)`` fields as one JSON object or as
    ``name = text`` lines."""
    return _emit(args, {name: value for name, value, _ in fields},
                 [f"{name} = {text}" for name, _, text in fields])


def _tuple(items) -> str:
    return f"({', '.join(map(str, items))})"


def _tolerances(args) -> Tolerances:
    return Tolerances(alg=args.tol_alg, rank=args.tol_rank)


def _cmd_validate(args) -> int:
    space = serialization.space_from_dict(_load_json(args.space), _tolerances(args))
    report = spaces.validate_space(space)
    payload = {"dim": space.dim, "signature": report.signature, "passed": report.passed,
               "checks": [dataclasses.asdict(c) for c in report.checks]}
    lines = [f"dim = {space.dim}"]
    for c in report.checks:
        verdict = "PASS" if c.passed else "FAIL"
        detail = f" {c.detail}" if c.detail else ""
        lines.append(f"{c.name}: residual={_fmt(c.residual)}{detail} {verdict}")
    lines.append(f"result = {'PASS' if report.passed else 'FAIL'}")
    _emit(args, payload, lines)
    return 0 if report.passed else 2


def _load_lagrangians(args, names):
    space = serialization.space_from_dict(_load_json(args.space), _tolerances(args))
    if not spaces.validate_space(space).passed:
        raise ValidationError("space fails validation; run the validate command")
    return [serialization.lagrangian_from_dict(space, _load_json(getattr(args, name)))
            for name in names]


def _cmd_m(args) -> int:
    v, w = _load_lagrangians(args, ("v", "w"))
    details = maslov.m_details(v, w)
    eigenvalues = details.eigenvalues
    return _emit_fields(args, [
        ("m", details.value, _fmt(details.value)),
        ("intersection_dim", details.intersection_dim, details.intersection_dim),
        ("eigenvalues", [serialization.complex_to_obj(z) for z in eigenvalues],
         ", ".join(f"{_fmt(z.real)}{'%+.15g' % z.imag}i" for z in eigenvalues)),
    ])


def _cmd_triple(args) -> int:
    u, v, w = _load_lagrangians(args, ("u", "v", "w"))
    value = maslov.triple_index(u, v, w)
    return _emit_fields(args, [("triple_index", value, value)])


def _cmd_reduce(args) -> int:
    rel = serialization.relation_from_dict(_load_json(args.relation), _tolerances(args))
    w = serialization.lagrangian_from_dict(rel.source, _load_json(args.w))
    result = bordism.reduce(rel, w)
    print(json.dumps(serialization.lagrangian_to_dict(result), sort_keys=True))
    return 0


def _cmd_compose(args) -> int:
    tol = _tolerances(args)
    rel1 = serialization.relation_from_dict(_load_json(args.rel1), tol)
    rel2 = serialization.relation_from_dict(_load_json(args.rel2), tol)
    result = bordism.compose(rel1, rel2)
    print(json.dumps(serialization.relation_to_dict(result), sort_keys=True))
    return 0


def _cmd_torus_sweep(args) -> int:
    if args.steps < 1:
        raise ValidationError(f"steps must be >= 1, got {args.steps}")
    if not (0.0 < args.t_min <= args.t_max):
        raise ValidationError(
            f"need 0 < t_min <= t_max, got t_min={args.t_min} t_max={args.t_max}"
        )
    # past the check above only t_max can be infinite; np.linspace would warn
    # and yield nan
    if args.t_max == float("inf"):
        raise ValidationError(f"need a finite t_max, got t_max={args.t_max}")
    import numpy as np

    grid = np.linspace(args.t_min, args.t_max, args.steps)
    result = torus.torus_m_sweep(args.a, args.b, args.A, args.B, grid, _tolerances(args))
    print("t,m_closed,m_generic,delta")
    for row in result.rows:
        print(",".join(map(_fmt, (row.t, row.m_closed, row.m_generic, row.delta))))
    if result.max_delta >= SWEEP_TOL:
        raise SweepMismatch(
            f"closed-form/generic delta {result.max_delta:.3e} exceeds {SWEEP_TOL:.0e}"
        )
    return 0


def _cmd_trefoil(args) -> int:
    rep = knotcalc.trefoil_arc_point(args.t)
    f = knotcalc.DEFAULT_MONODROMY
    cohomology = knotcalc.torus_twisted_cohomology(rep)
    condition = knotcalc.mapping_torus_condition(rep, f)
    constraint = knotcalc.holonomy_constraint(rep, f)
    winding = knotcalc.cs_winding(rep, f)
    cs = knotcalc.chern_simons(rep, f)
    return _emit_fields(args, [
        ("phi", str(rep.phi), rep.phi),
        ("psi", str(rep.psi), rep.psi),
        ("cohomology", list(cohomology), _tuple(cohomology)),
        ("condition", condition, "true" if condition else "false"),
        ("constraint", [str(x) for x in constraint], _tuple(constraint)),
        ("winding", [str(x) for x in winding], _tuple(winding)),
        ("cs", str(cs), cs),
    ])


def _cmd_rho_diff(args) -> int:
    rep1 = knotcalc.trefoil_arc_point(args.t1)
    rep2 = knotcalc.trefoil_arc_point(args.t2)
    f = knotcalc.DEFAULT_MONODROMY
    cs1 = knotcalc.chern_simons(rep1, f)
    cs2 = knotcalc.chern_simons(rep2, f)
    diff = knotcalc.rho_difference_mod_z(rep1, rep2, f)
    return _emit_fields(args, [
        ("cs1", str(cs1), cs1), ("cs2", str(cs2), cs2), ("rho_diff", str(diff), diff),
    ])


# the commands that read documents: (name, handler, help, path arguments)
_DOCUMENT_COMMANDS = (
    ("validate", _cmd_validate, "check a space document's invariants", ("space",)),
    ("m", _cmd_m, "pair invariant of two Lagrangians", ("space", "v", "w")),
    ("triple", _cmd_triple, "integer triple index of three Lagrangians",
     ("space", "u", "v", "w")),
    ("reduce", _cmd_reduce, "propagate a Lagrangian across a relation", ("relation", "w")),
    ("compose", _cmd_compose, "compose two bordism relations", ("rel1", "rel2")),
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hermsymp",
        description="Lagrangian pair/triple invariants of Hermitian symplectic "
        "spaces, symplectic reduction across bordisms, and exact torus-bundle "
        "Chern-Simons arithmetic.",
        allow_abbrev=False,
    )
    parser.add_argument("--tol-alg", type=float, default=Tolerances.alg, dest="tol_alg",
                        help="tolerance for algebraic identities (default %(default)g)")
    parser.add_argument("--tol-rank", type=float, default=Tolerances.rank, dest="tol_rank",
                        help="singular-value threshold for rank decisions (default %(default)g)")
    parser.add_argument("--json", action="store_true",
                        help="emit a JSON object on stdout instead of plain text")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, text, paths in _DOCUMENT_COMMANDS:
        p = sub.add_parser(name, help=text)
        for path in paths:
            p.add_argument(path)
        p.set_defaults(handler=handler)

    p = sub.add_parser("torus-sweep",
                       help="CSV of the torus pair invariant over a stretch grid")
    p.add_argument("a", type=int)
    p.add_argument("b", type=int)
    p.add_argument("A", type=int)
    p.add_argument("B", type=int)
    p.add_argument("t_min", type=float)
    p.add_argument("t_max", type=float)
    p.add_argument("steps", type=int)
    p.set_defaults(handler=_cmd_torus_sweep)

    p = sub.add_parser("trefoil", help="arc point pipeline: cohomology, condition, cs")
    p.add_argument("--t", type=_rational_arg, required=True,
                   help="arc parameter, rational p/q in (1/12, 5/12)")
    p.set_defaults(handler=_cmd_trefoil)

    p = sub.add_parser("rho-diff",
                       help="scaled Chern-Simons difference mod Z of two arc points")
    p.add_argument("--t1", type=_rational_arg, required=True)
    p.add_argument("--t2", type=_rational_arg, required=True)
    p.set_defaults(handler=_cmd_rho_diff)

    return parser


def _fail(code: int, exc: Exception) -> int:
    print(json.dumps({"error": type(exc).__name__, "message": str(exc)}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.handler(args)
    except EigenvalueAmbiguity as exc:
        return _fail(3, exc)
    except NonIntegerSum as exc:
        return _fail(4, exc)
    except SweepMismatch as exc:
        return _fail(5, exc)
    except HermsympError as exc:
        return _fail(2, exc)


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
