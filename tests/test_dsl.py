import pytest
from hypothesis import given, settings, strategies as st

from diffmod.corpus import corpus_dir
from diffmod.dsl import (ElaborationError, ParseError, UnknownIdentifier,
                         elaborate, load_problem, parse_row, parse_system,
                         render_system)
from diffmod.field import DiffmodError, RatFunc
from diffmod.janet import complete, count_parametric
from diffmod.ops import OpMatrix, TermOrder
from conftest import CORPUS_NAMES, load_corpus_system


def test_parse_two_equation_system():
    src = "vars x1, x2; unknowns y; P: d222(y) + x2*y = u; Q: d2(y) + d1(y) = v;"
    decl = parse_system(src)
    assert decl.vars == ["x1", "x2"]
    assert [e.label for e in decl.equations] == ["P", "Q"]
    field, matrix, meta = elaborate(decl)
    assert (matrix.rows, matrix.cols) == (2, 1)
    assert [max(matrix.entries[i][0].order, 0) for i in range(2)] == [3, 1]


def test_parse_second_pair():
    src = "vars x1, x2; unknowns y; P: d22(y) = u; Q: d12(y) - y = v;"
    field, matrix, meta = elaborate(parse_system(src))
    assert matrix.order == 2
    assert matrix.row_labels == ["u", "v"]


def test_nonlinear_rejected():
    with pytest.raises(ElaborationError):
        elaborate(parse_system("vars x; unknowns y; P: y*y = u;"))


def test_unknown_identifier():
    with pytest.raises(ElaborationError):
        elaborate(parse_system("vars x; unknowns y; P: d1(y) + w = u;"))


def test_index_out_of_range():
    with pytest.raises(ElaborationError):
        elaborate(parse_system("vars x; unknowns y; P: d2(y) = u;"))


def test_empty_equation_list():
    field, matrix, meta = elaborate(parse_system("vars x; unknowns y, z;"))
    assert (matrix.rows, matrix.cols) == (0, 2)


def test_zero_second_member():
    field, matrix, meta = elaborate(parse_system(
        "vars x; unknowns y; P: d1(y) = 0;"))
    assert matrix.row_labels == ["rhs_P"]


def test_parenthesized_multi_digit_indices():
    big = "vars " + ", ".join(f"x{i}" for i in range(1, 11)) + ";\n" \
        + "unknowns y;\nP: d(10,10)(y) + d(1)(y) = u;"
    field, matrix, meta = elaborate(parse_system(big))
    assert matrix.order == 2
    assert (0,) * 9 + (2,) in matrix.entries[0][0].terms


def test_error_spans_inside_input():
    src = "vars x; unknowns y; P: d1(y ="
    with pytest.raises(ParseError) as err:
        parse_system(src)
    lo, hi = err.value.span
    assert 0 <= lo <= hi <= len(src)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_round_trip_over_corpus(name):
    field, matrix, meta = load_corpus_system(name)
    for A in (matrix, matrix.adjoint()):
        text = render_system(A, assumptions=meta["assumptions"],
                             splits=meta["splits"])
        field2, matrix2, meta2 = elaborate(parse_system(text))
        assert matrix2.rows == A.rows and matrix2.cols == A.cols
        assert matrix2.col_labels == A.col_labels
        assert matrix2 == OpMatrix(field2,
                                   [[_transplant(field2, e) for e in row]
                                    for row in A.entries])


@pytest.mark.parametrize("statement, order", [
    ("", TermOrder()),
    ("order deglex vars(x3, x2, x1);", TermOrder("deglex", (3, 2, 1))),
    ("order lex;", TermOrder("lex")),
])
def test_order_statement_completes_mixed_wave_pair(statement, order):
    """Every term order kind the grammar names elaborates and completes
    the finite-type pair involutively, with the same parametric counts."""
    source = (corpus_dir() / "mixed_wave_pair.dms").read_text() + statement
    field, matrix, meta = elaborate(parse_system(source))
    assert meta["order"] == order
    basis = complete(matrix, order=order)
    assert basis.verify_involutive()
    count = count_parametric(basis)
    assert (len(basis), count.finite_type, count.dim) == (7, True, 12)
    assert count.hilbert == count_parametric(complete(matrix)).hilbert


def test_unknown_order_kind_rejected():
    with pytest.raises(ElaborationError, match="degrevlex, deglex and lex"):
        elaborate(parse_system("vars x1; unknowns y; order grevlex; "
                               "P: d1(y) = u;"))


def _transplant(field, op):
    from diffmod.field import DiffmodError, RatFunc
    from diffmod.ops import ScalarOp
    return ScalarOp(field, {mu: RatFunc(field, c.expr)
                            for mu, c in op.terms.items()})


@settings(max_examples=150, deadline=None)
@given(st.text(alphabet="dxy012(); =+-*/#\nabPQ:,!^", max_size=60))
def test_fuzz_parser_never_crashes(text):
    try:
        decl = parse_system(text)
        elaborate(decl)
    except (ParseError, ElaborationError):
        pass


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=40))
def test_fuzz_parser_bytes(data):
    try:
        parse_system(data)
    except (ParseError, ElaborationError, UnicodeDecodeError):
        pass


def test_load_problem_reads_assumptions_in_dms_grammar():
    # d1(alpha) is the funcparam derivative, rewritten through the rel
    system = load_corpus_system("od_lie_pair")
    field = system[0]
    problem = load_problem(system, ["d1(alpha)!=0"])
    rhs = RatFunc(field, field.rules[("alpha", (1,))])
    assert problem.session.assumed[-1] == rhs.canonical_factor()
    assert problem.case == {}


def test_load_problem_rejects_undeclared_names():
    with pytest.raises(UnknownIdentifier):
        load_problem(load_corpus_system("od_lie_pair"), ["q*x1"])


def test_load_problem_case():
    problem = load_problem(load_corpus_system("od_lie_pair"), ["c=0"])
    assert problem.case == {"c": 0}
    assert problem.field.param_names == ()
    assert problem.session.case == {"c": 0}


def test_load_problem_order_is_a_permutation():
    system = load_corpus_system("unimodular_oneform")
    assert load_problem(system, var_seq=(2, 3, 1)).order.var_seq == (2, 3, 1)
    with pytest.raises(DiffmodError):
        load_problem(system, var_seq=(1, 1, 2))


def test_parse_row_matches_elaboration():
    field, matrix, _ = load_corpus_system("od_lie_pair")
    text = "d1(y) + alpha*y"
    _, single, _ = elaborate(parse_system(
        "vars x; params c; funcparams alpha, gamma; unknowns y; "
        f"P: {text} = u;"))
    row = parse_row(field, text, ["y"])
    assert [{mu: c.expr for mu, c in e.terms.items()} for e in row] == \
        [{mu: c.expr for mu, c in e.terms.items()} for e in single.row(0)]


def test_inconsistent_relations_rejected():
    # d1 d2 a = d1(x1*a) = x1*a + a, but d2 d1 a = d2(a) = x1*a
    src = ("vars x1, x2; funcparams a; unknowns y; "
           "rel d1(a) = a; rel d2(a) = x1*a; P: d1(y) = u;")
    with pytest.raises(ElaborationError, match=r"d12\(a\)"):
        elaborate(parse_system(src))


def test_second_relation_on_one_derivative_rejected():
    src = ("vars x1, x2; funcparams a; unknowns y; "
           "rel d1(a) = a; rel d1(a) = x2*a; P: d1(y) = u;")
    with pytest.raises(ElaborationError, match=r"d1\(a\)"):
        elaborate(parse_system(src))


def test_commuting_relations_accepted():
    src = ("vars x1, x2; funcparams a; unknowns y; "
           "rel d1(a) = a; rel d2(a) = x2*a; P: d1(y) = u;")
    field, _, _ = elaborate(parse_system(src))
    assert len(field.rules) == 2
