"""Regression corpus: each .dms system ships with an expected-output
fixture, and the runner replays every declared check against the live
library.  Any mismatch is reported with a diff line."""

from __future__ import annotations

import json
from dataclasses import dataclass, field as dc_field
from importlib import resources

from .dsl import (elaborate, load_problem, parse_row, parse_system,
                  read_source)
from .duality import (double_duality_test, ext_module, kernel_analysis,
                      parametrize, torsion_submodule)
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
    fixture = json.loads((base / f"{name}.expected.json").read_text())
    return source, fixture


def _sets(lists):
    return sorted(sorted(x) for x in lists)


def _row_module_basis(field, rows, ncols, session, labels):
    mat = OpMatrix.from_rows(field, [list(r) for r in rows], ncols,
                             col_labels=labels)
    return complete(mat, session=session, track_src=False)


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
                if "mutual_rows" in expect and cc.rows:
                    given = [parse_row(field, t, matrix.row_labels)
                             for t in expect["mutual_rows"]]
                    ours = [cc.row(i) for i in range(cc.rows)]
                    b1 = _row_module_basis(field, given, matrix.rows,
                                           session.copy(), matrix.row_labels)
                    b2 = _row_module_basis(field, ours, matrix.rows,
                                           session.copy(), matrix.row_labels)
                    if not all(b1.contains(r) for r in ours):
                        details.append("computed CC not generated by given rows")
                    if not all(b2.contains(r) for r in given):
                        details.append("given rows not generated by computed CC")
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
                basis = complete(matrix, order=order, session=session.copy(),
                                 track_src=False)
                for item in expect.get("elements", ()):
                    row = parse_row(field, item["element"], matrix.col_labels)
                    if basis.contains(row):
                        details.append(
                            f"claimed torsion element reduces: {item['element']}")
                    # annihilator written applied to a placeholder, e.g. d2(z0)
                    ann = parse_row(field, item["annihilator"], ["z0"])[0]
                    moved = [ann * e for e in row]
                    if not basis.contains(moved):
                        details.append(
                            f"annihilator identity fails for {item['element']}")
            elif op == "ext":
                seq = build_sequence(matrix, order=order, session=session)
                report = ext_module(seq, check["i"], order=order,
                                    session=session)
                need("vanishing", report.vanishing)
                need("generator_rows", report.generators.rows)
                need("surviving", len(report.surviving))
                if "generated_by" in expect:
                    labels = report.generators.col_labels
                    width = report.generators.cols
                    given = [parse_row(field, t, labels)
                             for t in expect["generated_by"]]
                    image_rows = ([report.image.row(i)
                                   for i in range(report.image.rows)]
                                  if report.image is not None else [])
                    ours = [m.row(0) for m in report.surviving]
                    b_img = (_row_module_basis(field, image_rows, width,
                                               session.copy(), labels)
                             if image_rows else None)
                    for g in given:
                        if b_img is not None and b_img.contains(g):
                            details.append("given generator lies in the image")
                    b1 = _row_module_basis(field, image_rows + given, width,
                                           session.copy(), labels)
                    if not all(b1.contains(r) for r in ours):
                        details.append("computed generators escape given ones")
                    b2 = _row_module_basis(field, image_rows + ours, width,
                                           session.copy(), labels)
                    if not all(b2.contains(r) for r in given):
                        details.append("given generators escape computed ones")
                for item in expect.get("torsion_elements", ()):
                    labels = report.generators.col_labels
                    row = parse_row(field, item["element"], labels)
                    b_img = _row_module_basis(
                        field, [report.image.row(i)
                                for i in range(report.image.rows)],
                        report.generators.cols, session.copy(), labels)
                    if b_img.contains(row):
                        details.append(
                            f"claimed generator lies in the image: {item['element']}")
                    ann = parse_row(field, item["annihilator"], ["z0"])[0]
                    if not b_img.contains([ann * e for e in row]):
                        details.append(
                            f"annihilator identity fails: {item['element']}")
            elif op == "parametrize":
                res = parametrize(matrix, order=order, session=session)
                need("certified", res.certified)
                need("rank_bound", res.minimal_rank_bound)
                if "candidate_rows" in expect:
                    cand_rows = [parse_row(field, t, ["phi"])
                                 for t in expect["candidate_rows"]]
                    cand = OpMatrix.from_rows(field, cand_rows, 1,
                                              col_labels=["phi"])
                    if not matrix.compose(cand).is_zero:
                        details.append("candidate is not annihilated by the system")
                    cc_cand = compatibility_conditions(cand, order=order,
                                                       session=session.copy())
                    bas = complete(matrix, order=order, session=session.copy(),
                                   track_src=False)
                    if not bas.contains_matrix(cc_cand):
                        details.append("candidate CC escape the system rows")
                    bas_cc = complete(cc_cand, order=order,
                                      session=session.copy(), track_src=False)
                    if not bas_cc.contains_matrix(matrix):
                        details.append("system rows escape the candidate CC")
                    if "left_inverse" in expect:
                        L = OpMatrix.from_rows(
                            field,
                            [parse_row(field, expect["left_inverse"],
                                        matrix.col_labels)],
                            matrix.cols, col_labels=matrix.col_labels)
                        got = L.compose(cand)
                        want = parse_row(field, expect["left_inverse_result"],
                                          ["phi"])
                        if not all((a - b).is_zero for a, b in
                                   zip(got.row(0), want)):
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
