"""Command line driver.

Reads a .dms file (or a symbol-family request), runs the corresponding
operation, and writes a report: JSON on stdout by default, or
report.json plus report.md under --out.  Exit status: 0 success,
1 error, 2 when a parameter needs a case decision first.

Every file subcommand reports one envelope: command, input (path and
sha256 of the file), case, payload and provisos.  `ext --split` runs the
command once per branch of each declared split parameter and reports
the payloads, each with its branch, under branches instead.

Each --assume item is one of:

    expr!=0   expr is nonzero; expr is written as in a .dms file, so
    expr      d1(alpha) is the funcparam derivative and every name must
              be declared
    param=k   the case param = k, for a declared parameter and an
              integer k; the system is specialised before anything runs
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from pathlib import Path

from . import corpus as corpus_mod
from .dsl import elaborate, load_problem, parse_system, read_source
from .duality import (NotParametrizable, double_duality_test, ext_module,
                      parametrize, torsion_submodule)
from .field import CaseSplitRequired, DiffmodError
from .janet import board_text, complete, count_parametric, janet_board
from .syzygy import build_sequence, compatibility_conditions, differential_rank

SCHEMA = 1


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


def _order_vars(text):
    if text is None:
        return None
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise DiffmodError("--order-vars wants variable indices such as "
                           f"2,3,1, got {text!r}") from None


def run_file(args):
    """Load the file into a Problem per branch, run the subcommand on it
    and report the envelope."""
    t0 = time.time()
    text = read_source(args.file)
    system = elaborate(parse_system(text))
    var_seq = _order_vars(getattr(args, "order_vars", None))
    report = {
        "command": args.command,
        "input": {"path": args.file,
                  "sha256": hashlib.sha256(text.encode()).hexdigest()},
    }
    if getattr(args, "split", False):
        branches = [[f"{s}{rel}0"] for s in system[2]["splits"]
                    for rel in ("=", "!=")] or [[]]
        report["branches"] = []
        for extra in branches:
            problem = load_problem(system, args.assume + extra, var_seq)
            report["branches"].append({**args.payload(problem, args),
                                       "branch": extra})
    else:
        problem = load_problem(system, args.assume, var_seq)
        report["case"] = problem.case
        report["payload"] = args.payload(problem, args)
        report["provisos"] = [problem.field.coeff_str(p.expr)
                              for p in problem.session.provisos]
    return _finish(report, args, t0)


# ---------------------------------------------------------------------------
# file subcommands: each maps a Problem to its payload

def complete_payload(problem, args):
    basis = complete(problem.matrix, order=problem.order,
                     session=problem.session)
    count = count_parametric(basis)
    return {
        "basis": _matrix_payload(basis.matrix()),
        "board": janet_board(basis),
        "board_text": board_text(basis),
        "involutive": basis.verify_involutive(),
        "integrability_conditions": [
            m.row_string(0) for m in basis.trace.integrability_conditions],
        "finite_type": count.finite_type,
        "dim": count.dim,
        "hilbert": {str(k): v for k, v in count.hilbert.items()},
    }


def cc_payload(problem, args):
    cc = compatibility_conditions(problem.matrix, order=problem.order,
                                  session=problem.session)
    return {"cc": _matrix_payload(cc),
            "composition_zero": cc.compose(problem.matrix).is_zero}


def sequence_payload(problem, args):
    seq = build_sequence(problem.matrix, max_steps=args.max_steps,
                         order=problem.order, session=problem.session)
    return {
        "orders": seq.orders,
        "shape": list(seq.shape),
        "strictly_exact": seq.strictly_exact,
        "involutive": seq.involutive,
        "terminated": seq.terminated,
        "alternating_rank_sum": seq.alternating_rank_sum(),
        "operators": [_matrix_payload(op) for op in seq.ops],
        "composition_certificates": seq.certificates,
    }


def adjoint_payload(problem, args):
    ad = problem.matrix.adjoint()
    return {"adjoint": _matrix_payload(ad),
            "involution_check": ad.adjoint() == problem.matrix}


def rank_payload(problem, args):
    value = differential_rank(problem.matrix, order=problem.order,
                              session=problem.session)
    ad_value = differential_rank(problem.matrix.adjoint(), order=problem.order,
                                 session=problem.session)
    return {"rank": value, "adjoint_rank": ad_value,
            "equal": value == ad_value}


def duality_payload(problem, args):
    res = double_duality_test(problem.matrix, order=problem.order,
                              session=problem.session)
    return {
        "torsion_free": res.torsion_free,
        "parametrizing": _matrix_payload(res.parametrizing),
        "adjoint_cc": _matrix_payload(res.adjoint_cc),
        "d1_prime": _matrix_payload(res.d1_prime),
        "extra_cc": [m.row_string(0) for m in res.extra_cc],
    }


def torsion_payload(problem, args):
    certs = torsion_submodule(problem.matrix, order=problem.order,
                              session=problem.session)
    return {"generators": [{
        "element": c.element.row_string(0),
        "annihilator": c.annihilator.to_string(""),
        "witness": c.witness.row_string(0),
        "verified": True,   # duality._certificates replayed it
    } for c in certs]}


def ext_payload(problem, args):
    seq = build_sequence(problem.matrix, order=problem.order,
                         session=problem.session)
    report = ext_module(seq, args.i, order=problem.order,
                        session=problem.session)
    return {
        "index": args.i,
        "vanishing": report.vanishing,
        "generators": _matrix_payload(report.generators),
        "surviving_generators": [m.row_string(0) for m in report.surviving],
        "image": (_matrix_payload(report.image)
                  if report.image is not None else None),
        "torsion_generators": [{
            "element": c.element.row_string(0),
            "annihilator": c.annihilator.to_string(""),
            "verified": True,   # duality._certificates replayed it
        } for c in report.torsion_generators],
    }


def parametrize_payload(problem, args):
    res = parametrize(problem.matrix, order=problem.order,
                      session=problem.session)
    return {"parametrizing": _matrix_payload(res.parametrizing),
            "certified": res.certified,
            "minimal_rank_bound": res.minimal_rank_bound}


# ---------------------------------------------------------------------------
# other subcommands

def cmd_spencer(args):
    t0 = time.time()
    from . import spencer
    payload = {}
    if args.diagram:
        payload["diagram"] = spencer.conformal_diagram_dims(
            5 if args.n is None else args.n)
    elif args.family is None or args.n is None:
        raise DiffmodError("spencer needs --family and --n, or --diagram")
    else:
        table = spencer.classical_dims(args.family, args.n)
        payload.update(table)
        if args.family in ("killing", "conformal"):
            payload.update(spencer.symbol_counts(args.family, args.n))
    report = {"command": "spencer", "payload": payload}
    return _finish(report, args, t0)


def cmd_corpus(args):
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

    def add_file_command(name, summary, payload, order_vars=True):
        p = sub.add_parser(name, help=summary)
        p.add_argument("file", help="a .dms system file")
        p.add_argument("--assume", action="append", default=[],
                       help="'expr!=0' (or 'expr') assumes expr nonzero, "
                            "expr written as in a .dms file; 'param=k' "
                            "takes the case param = k (k an integer)")
        p.add_argument("--out", help="directory for report.json / report.md")
        if order_vars:
            p.add_argument("--order-vars",
                           help="variable priority, lowest first, e.g. 2,3,1")
        p.set_defaults(func=run_file, payload=payload)
        return p

    add_file_command("complete", "involutive completion and board",
                     complete_payload)
    add_file_command("cc", "generating compatibility conditions", cc_payload)
    p = add_file_command("sequence", "iterated compatibility conditions",
                         sequence_payload)
    p.add_argument("--max-steps", type=int, default=None)
    add_file_command("adjoint", "formal adjoint matrix", adjoint_payload,
                     order_vars=False)
    add_file_command("rank", "differential rank, with adjoint check",
                     rank_payload)
    add_file_command("duality", "double duality torsion test",
                     duality_payload)
    add_file_command("torsion", "torsion submodule generators",
                     torsion_payload)
    p = add_file_command("ext", "extension module ext^i", ext_payload)
    p.add_argument("--i", type=int, required=True)
    p.add_argument("--split", action="store_true",
                   help="run every declared case branch")
    add_file_command("parametrize", "parametrizing operator",
                     parametrize_payload)
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
