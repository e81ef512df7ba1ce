"""Regression corpus: each .dms system ships with an expected-output
fixture, and the runner replays every declared check against the live
library.  Any mismatch is reported with a diff line.

NAME.expected.json is {"checks": [check, ...]}.  A check names its "op",
may add "assume" (--assume items), "case" ({param: k}), "order_vars",
ext's index "i" and kernel's "adjoint" (false: A, not ad A), and lists
under "expect" what the op must report.  Every key is optional.  A value
must equal the reported one (sets and class lists compare sorted); rows
are written as in a .dms file.  CC o A = 0 and the replay of every
torsion certificate are checked always.

  complete     basis_size involutive finite_type dim integrability_count
               board_mult; member_rows reduce, non_member_rows do not
  board        mult_sets classes
  cc           rows order row_orders row_strings; mutual_rows generate
               the row module of the CC
  kernel       status conditions
  sequence     orders shape strictly_exact involutive alternating_sum
               terminated
  rank         value; adjoint_equal: ad A has the same rank
  duality      torsion_free extra_count
  torsion      count; elements {element, annihilator}: the element does
               not reduce, the annihilator (applied to z0, as in d2(z0))
               times the element does
  ext          vanishing generator_rows surviving; generated_by: none lies
               in the image, and with it they generate what the surviving
               generators do; torsion_elements as torsion's elements,
               modulo the image
  parametrize  certified rank_bound; candidate_rows (over phi): the system
               annihilates them and generates the row module of their CC;
               left_inverse o candidate = left_inverse_result
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources

from .dsl import (ParseError, elaborate, load_problem, parse_row,
                  parse_system, read_source)
from .duality import (double_duality_test, ext_module, kernel_analysis,
                      parametrize, rows_outside, torsion_submodule)
from .janet import board_of_matrix, complete, count_parametric, janet_board
from .ops import OpMatrix
from .syzygy import build_sequence, compatibility_conditions, differential_rank


def corpus_dir():
    return resources.files("diffmod") / "corpus"


def available_cases(directory=None):
    base = directory or corpus_dir()
    names = sorted(p.name for p in base.iterdir()
                   if p.name.endswith(".expected.json"))
    return [n[: -len(".expected.json")] for n in names]


@dataclass
class CheckResult:
    case: str
    check: str
    passed: bool
    details: list = dc_field(default_factory=list)
    provisos: list = dc_field(default_factory=list)


def load_case(name, directory=None):
    base = directory or corpus_dir()
    source = read_source(base / f"{name}.dms")
    path = base / f"{name}.expected.json"
    try:
        fixture = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ParseError(f"{path} is not JSON: {exc}") from None
    checks = fixture.get("checks") if isinstance(fixture, dict) else None
    if not isinstance(checks, list) or not all(
            isinstance(c, dict) and isinstance(c.get("op"), str)
            for c in checks):
        raise ParseError(f'{path} needs a "checks" list of objects, '
                         'each with a string "op"')
    return source, fixture


def _sets(lists):
    return sorted(sorted(x) for x in lists)


def _rows(field, texts, labels):
    """The matrix whose rows are read from texts over the given unknowns."""
    return OpMatrix.from_rows(field, [parse_row(field, t, labels)
                                      for t in texts],
                              len(labels), col_labels=labels)


def _same_module(ours, given, image, order, session):
    """Failure details unless the rows of ours and of given generate the
    same row module modulo the rows of image (None for no image)."""
    def plus(rows):
        return rows if image is None else image.stack(rows)

    details = []
    if rows_outside(ours, plus(given), order, session.copy()):
        details.append("computed rows escape the given ones")
    if rows_outside(given, plus(ours), order, session.copy()):
        details.append("given rows escape the computed ones")
    return details


def _torsion_elements(module, items, order, session):
    """Failure details unless each claimed {element, annihilator} has an
    element that does not reduce modulo the rows of module and an
    annihilator whose product with the element does."""
    basis = complete(module, order=order, session=session.copy(),
                     track_src=False)
    details = []
    for item in items:
        row = parse_row(module.field, item["element"], module.col_labels)
        if basis.contains(row):
            details.append(
                f"claimed torsion element reduces: {item['element']}")
        # annihilator written applied to a placeholder, e.g. d2(z0)
        ann = parse_row(module.field, item["annihilator"], ["z0"])[0]
        if not basis.contains([ann * e for e in row]):
            details.append(
                f"annihilator identity fails for {item['element']}")
    return details


def run_case(name, directory=None):
    """Execute every check of one corpus case; returns CheckResults."""
    source, fixture = load_case(name, directory)
    system = elaborate(parse_system(source))
    results = []
    for check in fixture["checks"]:
        op = check["op"]
        assume = list(check.get("assume") or ())
        assume += [f"{k}={v}" for k, v in (check.get("case") or {}).items()]
        problem = load_problem(system, assume, check.get("order_vars"))
        field, matrix, session = problem.field, problem.matrix, problem.session
        order, case = problem.order, problem.case
        expect = check.get("expect", {})
        details = []

        def need(key, actual, norm=lambda v: v):
            if key in expect and norm(expect[key]) != norm(actual):
                details.append(f"{key}: expected {expect[key]!r}, got {actual!r}")

        try:
            if op == "complete":
                basis = complete(matrix, order=order, session=session)
                count = count_parametric(basis)
                need("basis_size", len(basis))
                need("involutive", basis.verify_involutive())
                need("finite_type", count.finite_type)
                need("dim", count.dim if count.finite_type else None)
                need("integrability_count",
                     len(basis.trace.integrability_conditions))
                if "board_mult" in expect:
                    need("board_mult",
                         [e["mult_vars"] for e in janet_board(basis)], _sets)
                for text in expect.get("member_rows", ()):
                    row = parse_row(field, text, matrix.col_labels)
                    if not basis.contains(row):
                        details.append(f"member row does not reduce: {text}")
                for text in expect.get("non_member_rows", ()):
                    row = parse_row(field, text, matrix.col_labels)
                    if basis.contains(row):
                        details.append(f"row unexpectedly reduces: {text}")
            elif op == "board":
                board = board_of_matrix(matrix, order=order, session=session)
                need("mult_sets", [e["mult_vars"] for e in board], _sets)
                need("classes", [e["class"] for e in board], sorted)
            elif op == "cc":
                cc = compatibility_conditions(matrix, order=order,
                                              session=session)
                need("rows", cc.rows)
                need("order", cc.order)
                need("row_orders", [max(e.order for e in cc.row(i))
                                    for i in range(cc.rows)], sorted)
                if "row_strings" in expect:
                    need("row_strings",
                         [cc.row_string(i) for i in range(cc.rows)])
                if not cc.compose(matrix).is_zero:
                    details.append("compose(cc, A) != 0")
                if "mutual_rows" in expect:
                    given = _rows(field, expect["mutual_rows"],
                                  matrix.row_labels)
                    details += _same_module(cc, given, None, order, session)
            elif op == "kernel":
                target = matrix.adjoint() if check.get("adjoint", True) else matrix
                res = kernel_analysis(target, order=order, session=session)
                need("status", res["status"])
                need("conditions", [field.coeff_str(c.expr)
                                    for c in res["conditions"]], sorted)
            elif op == "sequence":
                seq = build_sequence(matrix, order=order, session=session)
                need("orders", seq.orders)
                need("shape", list(seq.shape))
                need("strictly_exact", seq.strictly_exact)
                need("involutive", seq.involutive)
                need("alternating_sum", seq.alternating_rank_sum())
                need("terminated", seq.terminated)
            elif op == "rank":
                value = differential_rank(matrix, order=order,
                                          session=session)
                need("value", value)
                if expect.get("adjoint_equal"):
                    other = differential_rank(matrix.adjoint(), order=order,
                                              session=session)
                    if other != value:
                        details.append(f"rank {value} != adjoint rank {other}")
            elif op == "duality":
                res = double_duality_test(matrix, order=order, session=session)
                need("torsion_free", res.torsion_free)
                need("extra_count", len(res.extra_cc))
            elif op == "torsion":
                certs = torsion_submodule(matrix, order=order, session=session)
                need("count", len(certs))
                if not all(c.verify() for c in certs):
                    details.append("a torsion certificate failed to replay")
                details += _torsion_elements(
                    matrix, expect.get("elements", ()), order, session)
            elif op == "ext":
                seq = build_sequence(matrix, order=order, session=session)
                report = ext_module(seq, check["i"], order=order,
                                    session=session)
                need("vanishing", report.vanishing)
                need("generator_rows", report.generators.rows)
                need("surviving", len(report.surviving))
                if "generated_by" in expect:
                    labels = report.generators.col_labels
                    given = _rows(field, expect["generated_by"], labels)
                    ours = OpMatrix.from_rows(
                        field, [m.row(0) for m in report.surviving],
                        len(labels), col_labels=labels)
                    if len(rows_outside(given, report.image, order,
                                        session.copy())) < given.rows:
                        details.append("given generator lies in the image")
                    details += _same_module(ours, given, report.image,
                                            order, session)
                if "torsion_elements" in expect:
                    details += _torsion_elements(
                        report.image, expect["torsion_elements"], order,
                        session)
            elif op == "parametrize":
                res = parametrize(matrix, order=order, session=session)
                need("certified", res.certified)
                need("rank_bound", res.minimal_rank_bound)
                if "candidate_rows" in expect:
                    cand = _rows(field, expect["candidate_rows"], ["phi"])
                    if not matrix.compose(cand).is_zero:
                        details.append("candidate is not annihilated by the system")
                    cc_cand = compatibility_conditions(cand, order=order,
                                                       session=session.copy())
                    details += _same_module(cc_cand, matrix, None, order,
                                            session)
                    if "left_inverse" in expect:
                        L = _rows(field, [expect["left_inverse"]],
                                  matrix.col_labels)
                        if L.compose(cand) != _rows(
                                field, [expect["left_inverse_result"]],
                                ["phi"]):
                            details.append("left inverse identity fails")
            else:
                details.append(f"unknown check op {op!r}")
        except Exception as exc:  # deliberate: the runner reports, not raises
            details.append(f"exception: {type(exc).__name__}: {exc}")
        results.append(CheckResult(
            case=name,
            check=op + (f"[i={check['i']}]" if "i" in check else "")
            + (f"[case={case}]" if case else ""),
            passed=not details,
            details=details,
            provisos=[field.coeff_str(p.expr) for p in session.provisos],
        ))
    return results


def run_corpus(filter_text="", directory=None):
    """Run every fixture whose name contains filter_text."""
    names = [n for n in available_cases(directory) if filter_text in n]
    all_results = []
    for name in names:
        all_results.extend(run_case(name, directory))
    return all_results
