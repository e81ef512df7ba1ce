import pytest
import sympy as sp

from diffmod import duality
from diffmod.dsl import load_problem
from diffmod.duality import (NotParametrizable, double_duality_test,
                             ext_module, kernel_analysis, parametrize,
                             torsion_submodule)
from diffmod.field import DiffField, DiffmodError, Session
from diffmod.janet import complete
from diffmod.ops import DEFAULT_ORDER, OpMatrix, ScalarOp
from diffmod.syzygy import DiffSequence, build_sequence, compatibility_conditions
from conftest import (CORPUS_NAMES, corpus_session, load_corpus_system,
                      random_constant_system)


def test_kernel_analysis_identity():
    F = DiffField(2)
    res = kernel_analysis(OpMatrix.identity(F, 2))
    assert res["injective"] and res["status"] == "injective"
    assert not res["conditions"]


def test_kernel_analysis_builtin_condition():
    field, matrix, meta = load_corpus_system("single_input_ode")
    res = kernel_analysis(matrix.adjoint())
    assert res["status"] == "conditional"
    (cond,) = res["conditions"]
    a = field.ratfunc("a")
    assert cond == field.derive(1, a) + a * a - a


def test_kernel_analysis_pendulum():
    field, matrix, meta = load_corpus_system("double_pendulum")
    res = kernel_analysis(matrix.adjoint(),
                          session=corpus_session(field, matrix, meta))
    assert res["status"] == "conditional"
    (cond,) = res["conditions"]
    assert cond == field.ratfunc("l1 - l2")


def test_kernel_analysis_non_injective():
    field, matrix, meta = load_corpus_system("contact_flat")
    # the adjoint of the single CC row: d3, -d2 acting on one unknown
    F = field
    M = OpMatrix(F, [[ScalarOp.d(F, 3)], [-ScalarOp.d(F, 2)]])
    res = kernel_analysis(M)
    assert res["status"] == "not injective"


def test_double_duality_zero_matrix():
    F = DiffField(2)
    Z = OpMatrix.zero(F, 2, 2)
    res = double_duality_test(Z)
    assert res.torsion_free
    # an identity-shaped free cover: the unit rows generate it both ways
    cover = res.parametrizing
    assert (cover.rows, cover.cols) == (2, 2)
    basis = complete(cover, track_src=False)
    assert basis.contains_matrix(OpMatrix.identity(F, 2))


def test_double_duality_consistency_invariants():
    for name in ("contact_density", "contact_flat", "unimodular_oneform"):
        field, matrix, meta = load_corpus_system(name)
        res = double_duality_test(matrix)
        if res.d1_prime.rows and res.parametrizing.cols:
            assert res.d1_prime.compose(res.parametrizing).is_zero
        if res.adjoint_cc.rows:
            assert res.adjoint_cc.compose(matrix.adjoint()).is_zero


def test_torsion_certificates_flat_contact():
    field, matrix, meta = load_corpus_system("contact_flat")
    certs = torsion_submodule(matrix)
    assert certs
    for c in certs:
        assert c.verify()
    basis = complete(matrix, track_src=False)
    one = ScalarOp.constant(field, 1)
    zero = ScalarOp.zero(field)
    e1 = [one, zero, zero]
    assert not basis.contains(e1)
    d2 = ScalarOp.d(field, 2)
    assert basis.contains([d2 * e for e in e1])


def test_free_presentation_has_no_torsion():
    F = DiffField(2)
    # y2 = -d1 y1 eliminates y2: coker [d1, 1] is free of rank one
    M = OpMatrix(F, [[ScalarOp.d(F, 1), ScalarOp.constant(F, 1)]])
    assert torsion_submodule(M) == []


def test_zero_column_presentation_has_torsion():
    """In coker [d1, 0] the class of y1 is killed by d1 but is not zero."""
    F = DiffField(2)
    M = OpMatrix(F, [[ScalarOp.d(F, 1), ScalarOp.zero(F)]])
    (cert,) = torsion_submodule(M)
    assert cert.element == OpMatrix(F, [[ScalarOp.constant(F, 1),
                                         ScalarOp.zero(F)]])
    assert cert.annihilator == ScalarOp.d(F, 1)
    assert cert.verify()


def test_ext_flags_match_for_both_resolutions():
    """Two genuinely different finite free resolutions of the same zero
    module give identical vanishing flags in every degree."""
    field, matrix, meta = load_corpus_system("unexpected_cc_pair")
    F = field
    d = lambda *ix: ScalarOp.d(F, *ix)
    one = ScalarOp.constant(F, 1)
    # resolution via the displayed fourth-order conditions
    A_row = [d(1, 1, 2, 2) - one, -d(1, 2, 2, 2) - d(2, 2)]
    B_row = [d(1, 1, 1, 2) - d(1, 1), -d(1, 1, 2, 2)]
    D1 = OpMatrix(F, [A_row, B_row], col_labels=matrix.row_labels)
    assert D1.compose(matrix).is_zero
    D2 = OpMatrix(F, [[d(1, 1), -d(1, 2) - one]])
    assert D2.compose(D1).is_zero
    assert compatibility_conditions(D2).rows == 0
    # the fourth-order rows generate the syzygies: C reduces against them
    C = compatibility_conditions(matrix)
    basis = complete(D1, track_src=False)
    assert all(basis.contains(C.row(i)) for i in range(C.rows))
    long_seq = DiffSequence(field=F, ops=[matrix, D1, D2],
                            orders=[matrix.order, D1.order, D2.order],
                            strictly_exact=False, involutive=False,
                            terminated=True)
    short_seq = build_sequence(matrix)
    for i in range(4):
        a = ext_module(long_seq, i)
        b = ext_module(short_seq, i)
        assert a.vanishing == b.vanishing == True, i


def test_ext_reports_of_od_lie_pair():
    field, matrix, meta = load_corpus_system("od_lie_pair")
    sess = corpus_session(field, matrix, meta)
    seq = build_sequence(matrix, session=sess)
    e1 = ext_module(seq, 1, session=sess.copy())
    assert not e1.vanishing
    assert len(e1.torsion_generators) == 1
    cert = e1.torsion_generators[0]
    assert cert.verify()
    # the displayed generator: (1/alpha) d nu2 + c nu2 - nu1, killed by d
    al = field.ratfunc("alpha")
    c = field.ratfunc("c")
    nu = [ScalarOp.constant(field, -1),
          ScalarOp.d(field, 1).scale(field.one / al) + ScalarOp.constant(field, c)]
    im = complete(matrix.adjoint(), session=sess.copy(), track_src=False)
    assert not im.contains(nu)
    d1nu = [ScalarOp.d(field, 1) * e for e in nu]
    assert im.contains(d1nu)
    assert ext_module(seq, 2, session=sess.copy()).vanishing


def test_ext_case_split_is_explicit():
    from diffmod.field import CaseSplitRequired
    field, matrix, meta = load_corpus_system("oneform_area_lie")
    sess = Session(field, assume_nonzero=meta["assumptions"],
                   split_params=meta["splits"])
    with pytest.raises(CaseSplitRequired):
        seq = build_sequence(matrix, session=sess)
        ext_module(seq, 1, session=sess)


def test_parametrization_of_density_contact():
    field, matrix, meta = load_corpus_system("contact_density")
    res = parametrize(matrix)
    assert res.certified
    assert res.minimal_rank_bound == 1
    # the paper-style candidate and its left inverse
    F = field
    x3 = F.ratfunc("x3")
    d1, d2, d3 = (ScalarOp.d(F, i) for i in (1, 2, 3))
    one = ScalarOp.constant(F, 1)
    cand = OpMatrix(F, [[d3.scale(-x3) + one], [-d3], [d2 + d1.scale(x3)]],
                    col_labels=["phi"])
    assert matrix.compose(cand).is_zero
    L = OpMatrix(F, [[one, -one.scale(x3), ScalarOp.zero(F)]])
    assert L.compose(cand) == OpMatrix(F, [[one]])
    cc_cand = compatibility_conditions(cand)
    sys_basis = complete(matrix, track_src=False)
    assert sys_basis.contains_matrix(cc_cand)
    cand_basis = complete(cc_cand, track_src=False)
    assert cand_basis.contains_matrix(matrix)


def test_parametrization_refused_with_certificates():
    field, matrix, meta = load_corpus_system("contact_flat")
    with pytest.raises(NotParametrizable) as err:
        parametrize(matrix)
    assert err.value.certificates


def _cert_text(cert):
    return (cert.element.row_string(0), cert.annihilator.to_string(""),
            cert.witness.row_string(0))


def test_parametrize_refusal_runs_the_five_step_test_once(monkeypatch):
    field, matrix, meta = load_corpus_system("od_lie_pair")
    sess = corpus_session(field, matrix, meta)
    calls = []
    real = duality.double_duality_test

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(duality, "double_duality_test", counted)
    with pytest.raises(NotParametrizable) as err:
        parametrize(matrix, session=sess.copy())
    assert len(calls) == 1
    refused = err.value.certificates
    certs = torsion_submodule(matrix, session=sess.copy())
    assert refused and all(c.verify() for c in refused)
    assert [_cert_text(c) for c in refused] == [_cert_text(c) for c in certs]


def test_torsion_row_without_annihilator_is_an_error(monkeypatch):
    """torsion and ext^1 both refuse to drop a surviving row silently."""
    field, matrix, meta = load_corpus_system("od_lie_pair")
    sess = corpus_session(field, matrix, meta)
    seq = build_sequence(matrix, session=sess.copy())
    monkeypatch.setattr(duality, "annihilator_of", lambda *a, **kw: None)
    with pytest.raises(DiffmodError, match="no annihilator"):
        torsion_submodule(matrix, session=sess.copy())
    with pytest.raises(DiffmodError, match="no annihilator"):
        ext_module(seq, 1, session=sess.copy())


def _annihilator_ideals(row, A, order, session):
    """The left ideal of P with P o row in the rows of A, generated two ways
    as 1-column matrices: by the first components of the raw syzygies of
    one completion of [row; A], and by the first column of its CC."""
    stacked = row.stack(A)
    raw = complete(stacked, order=order, session=session,
                   track_src=True).trace.cc_rows
    cc = compatibility_conditions(stacked, order=order, session=session)
    firsts = ([s[0] for s in raw],
              [cc.entries[i][0] for i in range(cc.rows)])
    return [OpMatrix.from_rows(A.field, [[P] for P in ps if not P.is_zero], 1)
            for ps in firsts]


def _torsion_problems():
    for name in CORPUS_NAMES:
        if name != "oneform_area_lie":
            p = load_problem(load_corpus_system(name))
            yield name, p.matrix, p.order, p.session
    for seed in range(40):
        A = random_constant_system(seed)
        yield f"seed {seed}", A, DEFAULT_ORDER, Session(A.field)


def test_raw_syzygies_generate_the_annihilator_ideal():
    """The premise of annihilator_of: the raw syzygies of a completion
    generate the syzygy module, so their first components give the same
    ideal as the first column of the full CC; on the corpus the least
    orders agree too."""
    rows = 0
    for label, A, order, session in _torsion_problems():
        for row in double_duality_test(A, order, session).extra_cc:
            raw, old = _annihilator_ideals(row, A, order, session)
            assert raw.rows and old.rows, label
            assert complete(raw, order, session, False).contains_matrix(old)
            assert complete(old, order, session, False).contains_matrix(raw)
            if not label.startswith("seed"):
                assert (min(r[0].order for r in raw.entries)
                        == min(r[0].order for r in old.entries)), label
            rows += 1
    assert rows == 79


def _lead_is_one(P, order):
    mu = max(P.terms, key=lambda m: order.module_key((0, m)))
    return P.terms[mu] == P.field.ratfunc(1)


def test_unimodular_oneform_annihilators_are_monic():
    p = load_problem(load_corpus_system("unimodular_oneform"))
    certs = torsion_submodule(p.matrix, p.order, p.session)
    assert [_cert_text(c) for c in certs] == [
        ("xi1", "d1", "-x3*d3(w) + x3*d1(u) + w"),
        ("xi2", "d1", "-d3(w) + d1(u)"),
        ("xi3", "d1", "d2(w) - d1(v)")]


def test_oneform_area_lie_torsion_when_c_vanishes():
    """Under c = 0, xi1 and xi2 are torsion: their certificates replay with
    monic annihilators, and a refused parametrize names both."""
    p = load_problem(load_corpus_system("oneform_area_lie"), ["c=0"])
    certs = torsion_submodule(p.matrix, p.order, p.session.copy())
    assert [c.describe() for c in certs] == ["xi1", "xi2"]
    assert all(c.verify() and _lead_is_one(c.annihilator, p.order)
               for c in certs)
    with pytest.raises(NotParametrizable) as err:
        parametrize(p.matrix, p.order, p.session.copy())
    assert [c.describe() for c in err.value.certificates] == ["xi1", "xi2"]


def test_parametrize_zero_presentation():
    F = DiffField(2)
    Z = OpMatrix.zero(F, 1, 2)
    res = parametrize(Z)
    assert res.parametrizing == OpMatrix.identity(F, 2)


def test_contact_parametrization_higher_dimension():
    """The odd-dimensional contact operator is parametrized by one
    potential with the 1-form itself as a left inverse (n = 5)."""
    field, matrix, meta = load_corpus_system("contact_pfaffian_n5")
    F = field
    x3, x4 = F.ratfunc("x3"), F.ratfunc("x4")
    d = lambda i: ScalarOp.d(F, i)
    one = ScalarOp.constant(F, 1)
    cand = OpMatrix(F, [
        [-d(3)],
        [-d(4)],
        [d(1) + d(5).scale(x3)],
        [d(2) + d(5).scale(x4)],
        [one - d(3).scale(x3) - d(4).scale(x4)],
    ], col_labels=["phi"])
    assert matrix.compose(cand).is_zero
    alpha_row = OpMatrix(F, [[-one.scale(x3), -one.scale(x4),
                              ScalarOp.zero(F), ScalarOp.zero(F), one]])
    assert alpha_row.compose(cand) == OpMatrix(F, [[one]])


def test_crucial_scalar_identity():
    """omega o ad(D1) = 2c for the linearized structure operator."""
    field, matrix, meta = load_corpus_system("contact_density")
    F = field
    x3 = F.ratfunc("x3")
    d1, d2, d3 = (ScalarOp.d(F, i) for i in (1, 2, 3))
    one = ScalarOp.constant(F, 1)
    # row of the linearized structure equation for omega = (1, -x3, 0)
    D1 = OpMatrix(F, [[d3.scale(-x3) + one, -d3, d2 + d1.scale(x3)]])
    assert D1.compose(matrix).is_zero
    om = OpMatrix(F, [[one, -one.scale(x3), ScalarOp.zero(F)]])
    got = om.compose(D1.adjoint())
    assert got == OpMatrix(F, [[one.scale(F.ratfunc(2))]])
    # and it is the generating CC: mutual reduction with the computed one
    cc = compatibility_conditions(matrix)
    b1 = complete(D1, track_src=False)
    assert b1.contains_matrix(cc)
    b2 = complete(cc, track_src=False)
    assert b2.contains_matrix(D1)


def test_missing_integrability_condition_of_adjoint_chain():
    """Completing the two displayed adjoint conditions reveals the
    third one of order one."""
    F = DiffField(3)
    x3 = F.ratfunc("x3")
    half = F.ratfunc(sp.Rational(1, 2))
    d1, d2, d3 = (ScalarOp.d(F, i) for i in (1, 2, 3))
    R1 = [d3, d3.scale(-x3) - ScalarOp.constant(F, 3), ScalarOp.zero(F)]
    R2 = [d2 + d1.scale(x3), d2.scale(-x3) - d1.scale(x3 * x3),
          ScalarOp.constant(F, 2)]
    M = OpMatrix(F, [R1, R2], col_labels=["m1", "m2", "m3"])
    basis = complete(M)
    assert basis.trace.integrability_conditions
    missing = [d1.scale(half), d1.scale(half * x3) + d2, d3]
    assert basis.contains(missing)


def test_annihilator_of_a_free_element_is_none():
    """In D^2 / (d1 y1) the class of y2 is free, so no P kills it."""
    F = DiffField(2)
    A = OpMatrix(F, [[ScalarOp.d(F, 1), ScalarOp.zero(F)]])
    row = OpMatrix(F, [[ScalarOp.zero(F), ScalarOp.constant(F, 1)]])
    assert duality.annihilator_of(row, A) is None


def test_ext_needs_a_long_enough_resolution():
    """ext^1 of a sequence cut before it terminated is refused."""
    F = DiffField(2)
    grad = OpMatrix(F, [[ScalarOp.d(F, 1)], [ScalarOp.d(F, 2)]])
    seq = build_sequence(grad, max_steps=1)
    with pytest.raises(DiffmodError, match="resolution too short"):
        ext_module(seq, 1)


def test_ext_refuses_a_chain_whose_shapes_do_not_match():
    """ops[1] must have as many columns as ops[0] has rows."""
    F = DiffField(2)
    A = OpMatrix(F, [[ScalarOp.d(F, 1)]])
    B = OpMatrix(F, [[ScalarOp.d(F, 1), ScalarOp.d(F, 2)]])
    seq = DiffSequence(field=F, ops=[A, B], orders=[1, 1],
                       strictly_exact=True, involutive=True, terminated=True)
    with pytest.raises(DiffmodError, match="chain shapes do not match"):
        ext_module(seq, 1)
