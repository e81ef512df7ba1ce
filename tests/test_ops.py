import random

import pytest
import sympy as sp

from diffmod.field import DiffField
from diffmod.ops import OpMatrix, ScalarOp, ShapeMismatch, TermOrder
from conftest import random_matrix, random_poly, random_scalar_op


F = DiffField(2)


def test_commutation_past_coefficient():
    d2 = ScalarOp.d(F, 2)
    x2 = ScalarOp.constant(F, F.ratfunc("x2"))
    prod = d2 * x2
    assert prod == ScalarOp.monomial(F, (0, 1), F.ratfunc("x2")) + ScalarOp.constant(F, 1)


def test_weyl_identity():
    P = ScalarOp.d(F, 2, 2, 2) + ScalarOp.constant(F, F.ratfunc("x2"))
    Q = ScalarOp.d(F, 2) + ScalarOp.d(F, 1)
    assert Q * P - P * Q == ScalarOp.constant(F, 1)


def test_unit_law(rng):
    one = ScalarOp.constant(F, 1)
    for _ in range(20):
        P = random_scalar_op(F, rng)
        assert P * one == P
        assert one * P == P


def test_ring_axioms(rng):
    for _ in range(100):
        P = random_scalar_op(F, rng, max_order=2, terms=2)
        Q = random_scalar_op(F, rng, max_order=2, terms=2)
        R = random_scalar_op(F, rng, max_order=1, terms=2)
        assert (P * Q) * R == P * (Q * R)
        assert P * (Q + R) == P * Q + P * R


def test_order_subadditive(rng):
    for _ in range(60):
        P = random_scalar_op(F, rng)
        Q = random_scalar_op(F, rng)
        if P.is_zero or Q.is_zero:
            continue
        prod = P * Q
        assert prod.order <= P.order + Q.order
        # leading symbols over a commutative field never cancel
        assert prod.order == P.order + Q.order


def test_adjoint_single_derivation():
    A = OpMatrix(F, [[ScalarOp.d(F, 1)]])
    assert A.adjoint() == OpMatrix(F, [[-ScalarOp.d(F, 1)]])


def test_adjoint_second_order_system():
    # rows of the one-dimensional geometric pair; the adjoint column is
    # dxx mu2 - alpha dx mu1 - gamma dx mu2
    G = DiffField(1, func_params=["alpha", "gamma"])
    al, ga = G.ratfunc("alpha"), G.ratfunc("gamma")
    dx, dxx = ScalarOp.d(G, 1), ScalarOp.d(G, 1, 1)
    M = OpMatrix(G, [[dx.scale(al) + ScalarOp.constant(G, G.derive(1, al))],
                     [dxx + dx.scale(ga) + ScalarOp.constant(G, G.derive(1, ga))]])
    ad = M.adjoint()
    assert ad.rows == 1 and ad.cols == 2
    assert ad.entries[0][0] == -dx.scale(al)
    assert ad.entries[0][1] == dxx - dx.scale(ga)


def test_adjoint_involution_random(rng):
    for _ in range(100):
        A = random_matrix(F, rng, rng.randint(1, 2), rng.randint(1, 2),
                          max_order=3)
        assert A.adjoint().adjoint() == A


def test_adjoint_antihomomorphism_random(rng):
    for _ in range(100):
        A = random_matrix(F, rng, 2, 2, max_order=1)
        B = random_matrix(F, rng, 2, 2, max_order=1)
        assert B.compose(A).adjoint() == A.adjoint().compose(B.adjoint())


def test_adjoint_divergence_witness():
    """The defining identity at low order, with the witness spelled out.

    m * (P f) - (ad P m) * f must be the divergence the construction
    produces: for P = a d1 + b it is d1(a m f), for P = a d11 it is
    d1(a m d1 f - d1(a m) f).
    """
    x1, x2 = F.vars
    rnd = random.Random(7)
    for _ in range(25):
        a = sp.Integer(rnd.randint(1, 3)) * x1 ** rnd.randint(0, 2) * x2 ** rnd.randint(0, 1)
        b = sp.Integer(rnd.randint(-2, 2)) * x2 ** rnd.randint(0, 2)
        f = x1 ** rnd.randint(0, 3) * x2 ** rnd.randint(0, 2)
        m = x1 ** rnd.randint(0, 2) + x2 ** rnd.randint(0, 2)
        P = ScalarOp.monomial(F, (1, 0), F.ratfunc(a)) + ScalarOp.constant(F, F.ratfunc(b))
        adP = P.adjoint()
        lhs = m * P.apply(F.ratfunc(f)).expr - adP.apply(F.ratfunc(m)).expr * f
        witness = sp.diff(a * m * f, x1)
        assert sp.simplify(lhs - witness) == 0
        P2 = ScalarOp.monomial(F, (2, 0), F.ratfunc(a))
        lhs2 = m * P2.apply(F.ratfunc(f)).expr - P2.adjoint().apply(F.ratfunc(m)).expr * f
        witness2 = sp.diff(a * m * sp.diff(f, x1) - sp.diff(a * m, x1) * f, x1)
        assert sp.simplify(lhs2 - witness2) == 0


def test_compose_identity_and_shapes(rng):
    A = random_matrix(F, rng, 2, 3)
    I = OpMatrix.identity(F, 2)
    assert I.compose(A) == A
    with pytest.raises(ShapeMismatch):
        A.compose(A)


def test_compose_zero_pair():
    # C o A = 0 for the commuting second-order pair and its low-order CC
    d12 = ScalarOp.d(F, 1, 2)
    d22 = ScalarOp.d(F, 2, 2)
    one = ScalarOp.constant(F, 1)
    A = OpMatrix(F, [[d22], [d12 - one]])
    C = OpMatrix(F, [[d12 - one, -d22]])
    assert C.compose(A).is_zero


def test_apply_to_section_examples():
    P = ScalarOp.d(F, 2, 2, 2) + ScalarOp.constant(F, F.ratfunc("x2"))
    A = OpMatrix(F, [[P]])
    out = A.apply_to_section([F.ratfunc("x2")])
    assert out[0] == F.ratfunc("x2**2")
    Z = OpMatrix.zero(F, 2, 1)
    assert all(v.is_zero for v in Z.apply_to_section([F.ratfunc("x1")]))


def test_apply_compose_oracle(rng):
    """applyToSection(compose(B, A), s) == apply B after apply A."""
    for _ in range(100):
        A = random_matrix(F, rng, 2, 2, max_order=1)
        B = random_matrix(F, rng, 2, 2, max_order=1)
        s = [random_poly(F, rng, deg=2) for _ in range(2)]
        via_compose = B.compose(A).apply_to_section(s)
        stepwise = B.apply_to_section(A.apply_to_section(s))
        assert all((u - v).is_zero for u, v in zip(via_compose, stepwise))


def test_term_order_boards_tiebreak():
    order = TermOrder(var_seq=(2, 3, 1))
    # with x2 < x3 < x1 the x3-derivative beats the x2-derivative
    assert order.mono_key((0, 0, 1)) > order.mono_key((0, 1, 0))
    assert order.mono_key((1, 0, 0)) > order.mono_key((0, 0, 1))


def test_degrevlex_standard():
    order = TermOrder()
    # same degree: the monomial missing the lowest variable wins
    assert order.mono_key((0, 2)) > order.mono_key((1, 1))


def test_specialize_matrix():
    G = DiffField(1, params=["c"])
    M = OpMatrix(G, [[ScalarOp.constant(G, G.ratfunc("c + 1"))]])
    M0 = M.specialize({"c": 0})
    assert M0.entries[0][0] == ScalarOp.constant(M0.field, 1)
