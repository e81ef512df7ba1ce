import pytest
import sympy as sp

from diffmod import families, janet, syzygy
from diffmod.field import DiffField, ResourceLimit, Session
from diffmod.janet import complete
from diffmod.ops import DEFAULT_ORDER, OpMatrix, ScalarOp, TermOrder
from diffmod.spencer import classical_dims
from diffmod.syzygy import (build_sequence, compatibility_conditions,
                            differential_rank)
from conftest import (CORPUS_NAMES, CORPUS_PROBLEMS, corpus_session,
                      load_corpus_problem, load_corpus_system,
                      random_constant_system, random_matrix, random_poly)


F = DiffField(2)


def test_cc_of_identity_is_empty():
    I = OpMatrix.identity(F, 2)
    cc = compatibility_conditions(I)
    assert cc.rows == 0


def test_cc_unexpected_low_order():
    field, matrix, meta = load_corpus_system("unexpected_cc_pair")
    cc = compatibility_conditions(matrix)
    assert cc.rows == 1
    assert cc.order == 2
    assert cc.row_string(0) == "d22(v) - d12(u) + u"


def test_cc_three_variable_pair_rows():
    field, matrix, meta = load_corpus_system("mixed_wave_pair")
    cc = compatibility_conditions(matrix)
    assert cc.rows == 2
    orders = sorted(max(cc.entries[i][j].order for j in range(cc.cols))
                    for i in range(cc.rows))
    assert orders == [3, 6]
    assert cc.compose(matrix).is_zero
    # the displayed third-order condition is literally one of the rows
    d = lambda *ix: ScalarOp.d(field, *ix)
    x2 = field.ratfunc("x2")
    A_row = [-d(2, 2, 2), d(2, 3, 3) - d(1, 1, 2).scale(x2) - d(1, 1).scale(3)]
    basis = complete(cc, track_src=False)
    assert basis.contains(A_row)


def test_sequence_orders_and_splitting_relation():
    field, matrix, meta = load_corpus_system("finite_type_pair")
    seq = build_sequence(matrix)
    assert seq.orders == [3, 6, 3]
    assert seq.shape == (1, 2, 2, 1)
    assert seq.terminated and not seq.strictly_exact
    assert all(seq.certificates)
    # second compatibility operator annihilates the first: certified by
    # composing the chain
    assert seq.ops[2].compose(seq.ops[1]).is_zero


def test_sequence_relation_on_displayed_rows():
    """Q A - P B = 0 for the displayed sixth-order conditions."""
    field, matrix, meta = load_corpus_system("finite_type_pair")
    d = lambda *ix: ScalarOp.d(field, *ix)
    x2 = field.ratfunc("x2")
    P = d(2, 2, 2) + ScalarOp.constant(field, x2)
    Q = d(2) + d(1)
    one = ScalarOp.constant(field, 1)
    A_row = [P * Q - one, -(P * P)]
    B_row = [Q * Q, -(Q * P) - one]
    AB = OpMatrix(field, [A_row, B_row])
    assert AB.compose(matrix).is_zero
    rel = OpMatrix(field, [[Q, -P]])
    assert rel.compose(AB).is_zero
    # and the displayed rows generate the same module as the computed CC
    cc = compatibility_conditions(matrix)
    basis = complete(AB, track_src=False)
    for i in range(cc.rows):
        assert basis.contains(cc.row(i))
    basis2 = complete(cc, track_src=False)
    for i in range(2):
        assert basis2.contains(AB.row(i))


def test_three_variable_dependency_identity():
    """The displayed sixth-order relation between the two conditions."""
    field, matrix, meta = load_corpus_system("mixed_wave_pair")
    d = lambda *ix: ScalarOp.d(field, *ix)
    x2 = field.ratfunc("x2")
    half = field.ratfunc(sp.Rational(1, 2))
    # displayed rows over (u, v)
    A_row = [-d(2, 2, 2), d(2, 3, 3) - d(1, 1, 2).scale(x2) - d(1, 1).scale(3)]
    w_row = [(-d(2, 2)).scale(half),
             (d(3, 3) - d(1, 1).scale(x2)).scale(half)]
    big = d(3, 3, 3, 3) - d(1, 1, 3, 3).scale(2 * x2.expr) \
        + d(1, 1, 1, 1).scale(x2 * x2)
    B_head = [-d(1, 1, 2, 3, 3) + d(1, 1, 1, 1, 2).scale(x2) - d(1, 1, 1, 1),
              ScalarOp.zero(field)]
    B_row = [big * w_row[0] + B_head[0], big * w_row[1] + B_head[1]]
    AB = OpMatrix(field, [A_row, B_row])
    assert AB.compose(matrix).is_zero
    rel = OpMatrix(field, [[big, -d(2).scale(2)]])
    assert rel.compose(AB).is_zero


def test_sequence_shape_of_flat_unimodular():
    field, matrix, meta = load_corpus_system("unimodular_flat")
    seq = build_sequence(matrix)
    assert seq.shape == (3, 6, 4, 1)
    assert seq.alternating_rank_sum() == 0
    assert seq.terminated


def test_generating_property_random_combinations(rng):
    field, matrix, meta = load_corpus_system("unexpected_cc_pair")
    cc = compatibility_conditions(matrix)
    basis = complete(cc, track_src=False)
    for _ in range(100):
        L = random_matrix(field, rng, 1, cc.rows, max_order=2)
        combo = L.compose(cc)
        assert basis.contains(combo.row(0))


def test_cc_compose_zero_and_section_oracle(rng):
    for name in ("unexpected_cc_pair", "finite_type_pair", "killing_flat_n2"):
        field, matrix, meta = load_corpus_system(name)
        cc = compatibility_conditions(matrix)
        if cc.rows == 0:
            continue
        assert cc.compose(matrix).is_zero
        for _ in range(34):
            s = [random_poly(field, rng, deg=4) for _ in range(matrix.cols)]
            eta = matrix.apply_to_section(s)
            out = cc.apply_to_section(eta)
            assert all(v.is_zero for v in out)


def test_differential_rank_examples():
    field, matrix, meta = load_corpus_system("unimodular_oneform")
    assert differential_rank(matrix) == 3
    Z = OpMatrix.zero(F, 2, 2)
    assert differential_rank(Z) == 0
    I = OpMatrix.identity(F, 3)
    assert differential_rank(I) == 3


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_rank_equals_adjoint_rank_across_corpus(name):
    field, matrix, meta = load_corpus_system(name)
    sess = corpus_session(field, matrix, meta,
                          extra=["c"] if "c" in field.param_names else [])
    r = differential_rank(matrix, session=sess.copy())
    r_ad = differential_rank(matrix.adjoint(), session=sess.copy())
    assert r == r_ad


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_cc_rows_are_monic_across_corpus(name):
    """compatibility_conditions returns rows of a tail-reduced basis
    without dividing them again: each lead coefficient is already 1."""
    field, matrix, meta = load_corpus_system(name)
    sess = corpus_session(field, matrix, meta,
                          extra=["c"] if "c" in field.param_names else [])
    cc = compatibility_conditions(matrix, session=sess)
    for i in range(cc.rows):
        terms = [(j, mu) for j, e in enumerate(cc.row(i)) for mu in e.terms]
        j, mu = max(terms, key=DEFAULT_ORDER.module_key)
        assert cc.entries[i][j].terms[mu].is_one, cc.row_string(i)


def _chain_rank(A, order, session):
    """rows(A) - rank CC(A), recursing through compatibility_conditions:
    the rank by the syzygy chain, apart from the lead count it checks."""
    if A.rows == 0 or A.cols == 0 or A.is_zero:
        return 0
    cc = compatibility_conditions(A, order=order, session=session)
    return A.rows - _chain_rank(cc, order, session)


@pytest.mark.parametrize("name, assume", CORPUS_PROBLEMS)
def test_lead_count_rank_is_the_chain_rank_across_corpus(name, assume):
    p = load_corpus_problem(name, assume)
    for X in (p.matrix, p.matrix.adjoint()):
        assert (differential_rank(X, p.order, p.session.copy())
                == _chain_rank(X, p.order, p.session.copy()))


@pytest.mark.parametrize("order", [DEFAULT_ORDER, TermOrder(kind="lex")],
                         ids=["degrevlex", "lex"])
def test_lead_count_rank_is_the_chain_rank_on_seeded_systems(order):
    for seed in range(50):
        A = random_constant_system(seed)
        for X in (A, A.adjoint()):
            assert (differential_rank(X, order)
                    == _chain_rank(X, order, Session(X.field))), seed


def test_rank_takes_one_completion_and_no_cc(monkeypatch):
    calls = []
    real = syzygy.complete

    def counted(*args, **kwargs):
        calls.append(args[0].rows)
        return real(*args, **kwargs)

    def refused(*args, **kwargs):
        raise AssertionError("differential_rank computed a CC")

    monkeypatch.setattr(syzygy, "complete", counted)
    monkeypatch.setattr(syzygy, "_cc_and_completion", refused)
    _, matrix, _ = load_corpus_system("unimodular_oneform")
    assert differential_rank(matrix) == 3
    assert len(calls) == 1


def _steps_and_provisos(monkeypatch, A, session, **kwargs):
    """(reduction steps, provisos, lead columns) of one completion of A."""
    steps = []
    real_tick = janet._Budget.tick

    def counted(self):
        steps.append(1)
        real_tick(self)

    with monkeypatch.context() as m:
        m.setattr(janet._Budget, "tick", counted)
        basis = complete(A, session=session, **kwargs)
    names = [A.field.coeff_str(p.expr) for p in session.provisos]
    return len(steps), names, len(basis._leads())


def test_rank_completion_stops_at_min_rows_cols_lead_columns(monkeypatch):
    """contact_pfaffian_n5: the rank completion of A reaches min(rows,
    cols) lead columns early and makes fewer reduction steps than the
    full completion, with the same lead count."""
    p = load_corpus_problem("contact_pfaffian_n5")
    A = p.matrix
    stop = min(A.rows, A.cols)
    short, _, short_cols = _steps_and_provisos(
        monkeypatch, A, p.session.copy(), lead_columns=stop)
    full, _, full_cols = _steps_and_provisos(monkeypatch, A, p.session.copy())
    assert short < full
    assert short_cols == full_cols == stop == differential_rank(A)


def test_stopped_completion_records_a_subset_of_the_provisos(monkeypatch):
    """ad A of double_pendulum: the full completion divides by l1 - l2,
    the stopped one reaches its lead columns before that pivot."""
    p = load_corpus_problem("double_pendulum")
    ad = p.matrix.adjoint()
    _, short, short_cols = _steps_and_provisos(
        monkeypatch, ad, p.session.copy(),
        lead_columns=min(ad.rows, ad.cols))
    _, full, full_cols = _steps_and_provisos(monkeypatch, ad, p.session.copy())
    assert short == []
    assert "l1 - l2" in full
    assert set(short) <= set(full)
    assert short_cols == full_cols


@pytest.mark.parametrize("name, assume", CORPUS_PROBLEMS)
def test_alternating_rank_bookkeeping(name, assume):
    """rk M = alternating sum over a finite free resolution (the Euler
    characteristic of the sequence)."""
    p = load_corpus_problem(name, assume)
    seq = build_sequence(p.matrix, order=p.order, session=p.session.copy())
    rk_m = p.matrix.cols - differential_rank(p.matrix, p.order,
                                             p.session.copy())
    assert rk_m == seq.alternating_rank_sum()


def test_zero_row_contributes_syzygy():
    M = OpMatrix(F, [[ScalarOp.d(F, 1)], [ScalarOp.zero(F)]],
                 row_labels=["u", "v"], col_labels=["y"])
    cc = compatibility_conditions(M)
    assert cc.rows == 1
    assert cc.row_string(0) == "v"


def test_cc_of_zero_operator_is_identity_in_input_order():
    """A zero operator forces every second member to vanish: its CC is the
    identity in input order, as for an operator with no columns."""
    Z = OpMatrix.zero(F, 3, 1)
    cc = compatibility_conditions(Z)
    assert cc == OpMatrix.identity(F, 3)
    assert cc.row_labels == ["z1", "z2", "z3"]
    assert cc.col_labels == ["eq1", "eq2", "eq3"]


def test_flat_killing_source_is_the_corpus_operator():
    _, fixture, _ = load_corpus_system("killing_flat_n2")
    ours = families.killing(2)
    assert ours == fixture
    assert (ours.row_labels, ours.col_labels) == \
        (fixture.row_labels, fixture.col_labels)


def test_killing_cc_minimalizes_on_one_growing_basis(monkeypatch):
    """Flat Killing, n = 4: the 20 CC rows take two completions, of the
    operator and of its raw syzygies; minimalizing them completes nothing
    more, however many rows it keeps."""
    calls = []
    real = syzygy.complete

    def counted(*args, **kwargs):
        calls.append(args[0].rows)
        return real(*args, **kwargs)

    monkeypatch.setattr(syzygy, "complete", counted)
    A = families.killing(4)
    cc = compatibility_conditions(A)
    assert cc.rows == 20
    assert cc.compose(A).is_zero
    assert len(calls) == 2


def _assert_sequence_matches_the_table(A, family, n):
    table = classical_dims(family, n)
    seq = build_sequence(A)
    assert seq.terminated
    assert list(seq.shape) == table["dims"]
    assert seq.orders == table["orders"]
    assert all(seq.certificates)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_killing_sequence_matches_the_spencer_table(n):
    """Cross-check of the operator pipeline against the symbol rule: the
    sequence of the flat Killing operator of `families` has the shape and
    orders of spencer.classical_dims, which reads its symbol off the same
    operator."""
    _assert_sequence_matches_the_table(families.killing(n), "killing", n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_conformal_sequence_matches_the_spencer_table(n):
    """The same cross-check for the flat conformal Killing operator:
    [3, 5, 5, 3] with orders [1, 3, 1] for n = 3, [4, 9, 10, 9, 4] with
    orders [1, 2, 2, 1] for n = 4, and [5, 14, 35, 35, 14, 5] with orders
    [1, 2, 1, 2, 1] for n = 5."""
    _assert_sequence_matches_the_table(families.conformal(n), "conformal", n)


@pytest.mark.parametrize("family", ["killing", "conformal"])
def test_rank_of_the_n6_families(family):
    """Rank 6 of the flat n = 6 operators and of their adjoints, from one
    completion each; the CC chain of conformal n = 6 ends in a
    ResourceLimit."""
    A = getattr(families, family)(6)
    assert differential_rank(A) == 6
    assert differential_rank(A.adjoint()) == 6


def _gradient():
    return OpMatrix(F, [[ScalarOp.d(F, 1)], [ScalarOp.d(F, 2)]])


def test_build_sequence_stops_at_max_steps():
    """The gradient has a CC, so a cap of one operator stops the sequence
    unterminated, below the n + 1 bound."""
    seq = build_sequence(_gradient(), max_steps=1)
    assert len(seq) == 1 and not seq.terminated


def test_build_sequence_raises_past_the_n_plus_1_bound(monkeypatch):
    """A chain whose CC never comes out empty is cut at n + 1 operators
    with ResourceLimit."""
    def never_empty(A, order, session):
        return OpMatrix.identity(A.field, A.rows), None

    monkeypatch.setattr(syzygy, "_cc_and_completion", never_empty)
    with pytest.raises(ResourceLimit, match="exceeded the n\\+1 bound"):
        build_sequence(_gradient())


def test_differential_rank_of_a_matrix_without_columns_is_zero():
    assert differential_rank(OpMatrix.zero(F, 2, 0)) == 0
