"""Command line driver.

Reads a .dms file (or a symbol-family request), runs the corresponding
operation, and writes a report: JSON on stdout by default, or
report.json plus report.md under --out.  Exit status: 0 success,
1 error, 2 when a parameter needs a case decision first.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from .dsl import elaborate, parse_system
from .duality import (NotParametrizable, double_duality_test, ext_module,
                      parametrize, torsion_submodule)
from .field import CaseSplitRequired, DiffmodError, RatFunc, Session
from .janet import board_text, complete, count_parametric, janet_board
from .ops import TermOrder
from .syzygy import build_sequence, compatibility_conditions, differential_rank

SCHEMA = 1


def _load(path):
    text = Path(path).read_text()
    decl = parse_system(text)
    field, matrix, meta = elaborate(decl)
    digest = hashlib.sha256(text.encode()).hexdigest()
    return field, matrix, meta, digest


def _parse_assume(values):
    assume, case = [], {}
    for v in values or ():
        v = v.replace(" ", "")
        if "!=" in v:
            lhs, rhs = v.split("!=")
            if rhs != "0":
                raise DiffmodError("--assume wants 'expr!=0' or 'param=0'")
            assume.append(lhs)
        elif "=" in v:
            lhs, rhs = v.split("=")
            case[lhs] = int(rhs)
        else:
            assume.append(v)
    return assume, case


def _prepare(path, assume_args, order_vars=None):
    field, matrix, meta, digest = _load(path)
    assume, case = _parse_assume(assume_args)
    if case:
        matrix = matrix.specialize(case)
        new_field = matrix.field
        mapping = {field.symbol(k): v for k, v in case.items()}
        assumptions = []
        for a in meta["assumptions"]:
            rf = RatFunc(new_field, a.expr.xreplace(mapping))
            if not rf.is_zero:
                assumptions.append(rf)
        field = new_field
    else:
        assumptions = list(meta["assumptions"])
    for text in assume:
        assumptions.append(field.ratfunc(text))
    splits = [s for s in meta["splits"]
              if s not in case and all(str(a.expr) != s for a in assumptions)]
    session = Session(field, assume_nonzero=assumptions, split_params=splits,
                      case=case)
    order = meta["order"]
    if order_vars:
        seq = tuple(int(x) for x in order_vars.split(","))
        order = TermOrder(kind=order.kind, var_seq=seq)
    return field, matrix, meta, session, order, digest, case


def _matrix_payload(mat):
    return {
        "rows": mat.rows,
        "cols": mat.cols,
        "order": mat.order,
        "row_labels": mat.row_labels,
        "col_labels": mat.col_labels,
        "row_strings": [mat.row_string(i) for i in range(mat.rows)],
    }


def _finish(report, args, t0):
    report["schema"] = SCHEMA
    report["elapsed_ms"] = int((time.time() - t0) * 1000)
    text = json.dumps(report, indent=2, sort_keys=True, default=str)
    if getattr(args, "out", None):
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(text + "\n")
        (out / "report.md").write_text(_markdown(report))
        print(f"wrote {out / 'report.json'}")
    else:
        print(text)
    return 0


def _markdown(report):
    lines = [f"# {report.get('command', 'report')}", ""]
    for key in sorted(report):
        if key in ("command", "schema"):
            continue
        value = report[key]
        if isinstance(value, (dict, list)):
            lines.append(f"## {key}")
            lines.append("```json")
            lines.append(json.dumps(value, indent=2, sort_keys=True, default=str))
            lines.append("```")
        else:
            lines.append(f"- **{key}**: {value}")
    return "\n".join(lines) + "\n"


def _provisos(field, session):
    return [field.coeff_str(p.expr) for p in session.provisos]


# ---------------------------------------------------------------------------
# subcommands

def cmd_complete(args):
    t0 = time.time()
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, args.order_vars)
    basis = complete(matrix, order=order, session=session)
    count = count_parametric(basis)
    report = {
        "command": "complete",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": {
            "basis": _matrix_payload(basis.matrix()),
            "board": janet_board(basis),
            "board_text": board_text(basis),
            "involutive": basis.verify_involutive(),
            "integrability_conditions": [
                m.row_string(0) for m in basis.trace.integrability_conditions],
            "finite_type": count.finite_type,
            "dim": count.dim,
            "hilbert": {str(k): v for k, v in count.hilbert.items()},
        },
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def cmd_cc(args):
    t0 = time.time()
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, args.order_vars)
    cc = compatibility_conditions(matrix, order=order, session=session)
    report = {
        "command": "cc",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": {
            "cc": _matrix_payload(cc),
            "composition_zero": cc.compose(matrix).is_zero,
        },
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def cmd_sequence(args):
    t0 = time.time()
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, args.order_vars)
    seq = build_sequence(matrix, max_steps=args.max_steps, order=order,
                         session=session)
    report = {
        "command": "sequence",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": {
            "orders": seq.orders,
            "shape": list(seq.shape),
            "formally_exact": seq.formally_exact,
            "strictly_exact": seq.strictly_exact,
            "involutive": seq.involutive,
            "terminated": seq.terminated,
            "alternating_rank_sum": seq.alternating_rank_sum(),
            "operators": [_matrix_payload(op) for op in seq.ops],
            "composition_certificates": seq.certificates,
        },
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def cmd_adjoint(args):
    t0 = time.time()
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, None)
    ad = matrix.adjoint()
    report = {
        "command": "adjoint",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": {
            "adjoint": _matrix_payload(ad),
            "involution_check": ad.adjoint() == matrix,
        },
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def cmd_rank(args):
    t0 = time.time()
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, args.order_vars)
    value = differential_rank(matrix, order=order, session=session.copy())
    ad_value = differential_rank(matrix.adjoint(), order=order,
                                 session=session.copy())
    report = {
        "command": "rank",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": {"rank": value, "adjoint_rank": ad_value,
                    "equal": value == ad_value},
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def cmd_duality(args):
    t0 = time.time()
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, args.order_vars)
    res = double_duality_test(matrix, order=order, session=session)
    report = {
        "command": "duality",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": {
            "torsion_free": res.torsion_free,
            "parametrizing": _matrix_payload(res.parametrizing),
            "adjoint_cc": _matrix_payload(res.adjoint_cc),
            "d1_prime": _matrix_payload(res.d1_prime),
            "extra_cc": [m.row_string(0) for m in res.extra_cc],
        },
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def cmd_torsion(args):
    t0 = time.time()
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, args.order_vars)
    certs = torsion_submodule(matrix, order=order, session=session)
    report = {
        "command": "torsion",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": {
            "generators": [{
                "element": c.element.row_string(0),
                "annihilator": c.annihilator.to_string(""),
                "witness": c.witness.row_string(0),
                "verified": c.verify(),
            } for c in certs],
        },
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def _ext_payload(field, matrix, meta, session, order, i, case):
    seq = build_sequence(matrix, order=order, session=session)
    report = ext_module(seq, i, order=order, session=session,
                        case_context=case)
    surviving = [k for k, r in enumerate(report.residues)
                 if not all(e.is_zero for e in r)]
    return {
        "index": i,
        "vanishing": report.vanishing,
        "generators": _matrix_payload(report.generators),
        "surviving_generators": [report.generators.row_string(k)
                                 for k in surviving],
        "image": _matrix_payload(report.image) if report.image is not None else None,
        "torsion_generators": [{
            "element": c.element.row_string(0),
            "annihilator": c.annihilator.to_string(""),
            "verified": c.verify(),
        } for c in report.torsion_generators],
        "case_context": {k: v for k, v in case.items()},
    }


def cmd_ext(args):
    t0 = time.time()
    if args.split:
        _, _, meta, digest = _load(args.file)
        branches = []
        for split in meta["splits"]:
            branches.append([f"{split}=0"])
            branches.append([f"{split}!=0"])
        if not branches:
            branches = [[]]
        payloads = []
        for extra in branches:
            f2, m2, meta2, session, order, _, case = _prepare(
                args.file, list(args.assume or ()) + extra, args.order_vars)
            payload = _ext_payload(f2, m2, meta2, session, order, args.i, case)
            payload["branch"] = extra
            payloads.append(payload)
        report = {
            "command": "ext",
            "input": {"path": args.file, "sha256": digest},
            "branches": payloads,
        }
        return _finish(report, args, t0)
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, args.order_vars)
    payload = _ext_payload(field, matrix, meta, session, order, args.i, case)
    report = {
        "command": "ext",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": payload,
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def cmd_parametrize(args):
    t0 = time.time()
    field, matrix, meta, session, order, digest, case = _prepare(
        args.file, args.assume, args.order_vars)
    res = parametrize(matrix, order=order, session=session)
    report = {
        "command": "parametrize",
        "input": {"path": args.file, "sha256": digest},
        "case": case,
        "payload": {
            "parametrizing": _matrix_payload(res.parametrizing),
            "certified": res.certified,
            "minimal_rank_bound": res.minimal_rank_bound,
        },
        "provisos": _provisos(field, session),
    }
    return _finish(report, args, t0)


def cmd_spencer(args):
    t0 = time.time()
    from . import spencer
    payload = {}
    if args.diagram:
        payload["diagram"] = spencer.conformal_diagram_dims(args.n or 5)
    elif args.family is None or args.n is None:
        raise DiffmodError("spencer needs --family and --n, or --diagram")
    else:
        table = spencer.classical_dims(args.family, args.n)
        payload.update(table)
        if args.family == "killing":
            g = spencer.killing_symbol(args.n)
            payload["H2"] = spencer.delta_cohomology_dim(g, 2, 0)
            payload["H3"] = spencer.delta_cohomology_dim(g, 3, 0)
        if args.family == "conformal":
            g = spencer.conformal_symbol(args.n)
            payload["ghat3_dim"] = g.prolong(2).dim
            payload["H3_ghat1"] = spencer.delta_cohomology_dim(g, 3, 0)
            payload["ghat2_2acyclic"] = spencer.acyclicity_check(g.prolong(1), 2)
    report = {"command": "spencer", "payload": payload}
    return _finish(report, args, t0)


def cmd_corpus(args):
    t0 = time.time()
    directory = Path(args.dir) if args.dir else None
    results = corpus_mod.run_corpus(args.filter or "", directory)
    n_pass = sum(1 for r in results if r.passed)
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.case}  {r.check}")
        for d in r.details:
            print(f"      {d}")
        if args.verbose and r.provisos:
            print(f"      provisos: {', '.join(r.provisos)}")
    print(f"{n_pass}/{len(results)} checks passed")
    return 0 if n_pass == len(results) else 1


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="diffmod",
        description="exact workbench for linear differential operators")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, order_vars=True):
        p.add_argument("file", help="a .dms system file")
        p.add_argument("--assume", action="append", default=[],
                       help="'expr!=0' adds a nonzero assumption, "
                            "'param=0' substitutes a case value")
        p.add_argument("--out", help="directory for report.json / report.md")
        if order_vars:
            p.add_argument("--order-vars",
                           help="variable priority, lowest first, e.g. 2,3,1")

    p = sub.add_parser("complete", help="involutive completion and board")
    add_common(p); p.set_defaults(func=cmd_complete)
    p = sub.add_parser("cc", help="generating compatibility conditions")
    add_common(p); p.set_defaults(func=cmd_cc)
    p = sub.add_parser("sequence", help="iterated compatibility conditions")
    add_common(p)
    p.add_argument("--max-steps", type=int, default=None)
    p.set_defaults(func=cmd_sequence)
    p = sub.add_parser("adjoint", help="formal adjoint matrix")
    add_common(p, order_vars=False); p.set_defaults(func=cmd_adjoint)
    p = sub.add_parser("rank", help="differential rank, with adjoint check")
    add_common(p); p.set_defaults(func=cmd_rank)
    p = sub.add_parser("duality", help="double duality torsion test")
    add_common(p); p.set_defaults(func=cmd_duality)
    p = sub.add_parser("torsion", help="torsion submodule generators")
    add_common(p); p.set_defaults(func=cmd_torsion)
    p = sub.add_parser("ext", help="extension module ext^i")
    add_common(p)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--split", action="store_true",
                   help="run every declared case branch")
    p.set_defaults(func=cmd_ext)
    p = sub.add_parser("parametrize", help="parametrizing operator")
    add_common(p); p.set_defaults(func=cmd_parametrize)
    p = sub.add_parser("spencer", help="symbol cohomology dimension tables")
    p.add_argument("--family", choices=["killing", "conformal", "contact"])
    p.add_argument("--n", type=int)
    p.add_argument("--diagram", action="store_true",
                   help="fiber dimensions of the degree-3 diagram (n >= 5)")
    p.add_argument("--out")
    p.set_defaults(func=cmd_spencer)
    p = sub.add_parser("corpus", help="run the regression corpus")
    p.add_argument("--filter", default="")
    p.add_argument("--dir", help="alternate corpus directory")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_corpus)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CaseSplitRequired as exc:
        print(f"case split required: {exc}", file=sys.stderr)
        return 2
    except NotParametrizable as exc:
        print(f"not parametrizable: {exc}", file=sys.stderr)
        return 1
    except DiffmodError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
