import math
from fractions import Fraction

import pytest
import sympy

from diffmod import families
from diffmod.field import DiffField, ResourceLimit
from diffmod.ops import OpMatrix, ScalarOp
from diffmod.spencer import (MAX_N, SymbolSpace, UnsupportedDimension, _delta,
                             acyclicity_check, classical_dims,
                             conformal_diagram_dims, contact_bundle_dim,
                             delta_cohomology_dim, rank, sym_dim, sym_monos,
                             symbol_counts, wedge_sets)


def closed_h2(n):
    return n * n * (n * n - 1) // 12


def closed_h3(n):
    return n * n * (n * n - 1) * (n - 2) // 24


def symbol_id(value):
    """The id of a family's case: the name of the symbol builder each
    family once had."""
    return f"{value.__name__}_symbol" if callable(value) else None


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_isometry_symbol_dimensions(n):
    g = SymbolSpace.of(families.killing(n))
    assert g.dim == n * (n - 1) // 2
    assert g.prolong(1).dim == 0


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_isometry_cohomology_matches_closed_forms(n):
    g = SymbolSpace.of(families.killing(n))
    assert delta_cohomology_dim(g, 2, 0) == closed_h2(n)
    assert delta_cohomology_dim(g, 3, 0) == closed_h3(n)


def test_isometry_cohomology_independent_of_generic_metric():
    """A different nondegenerate rational metric om gives the same counts:
    its Killing operator has the rows
    sum_r om_rj d_i(xi_r) + om_ir d_j(xi_r), i <= j."""
    om = [[Fraction(2), Fraction(1), Fraction(0)],
          [Fraction(1), Fraction(3), Fraction(0)],
          [Fraction(0), Fraction(0), Fraction(1)]]
    field = DiffField(3)
    d = [ScalarOp.d(field, i) for i in (1, 2, 3)]
    A = OpMatrix(field, [[d[i].scale(om[r][j]) + d[j].scale(om[i][r])
                          for r in range(3)]
                         for i in range(3) for j in range(i, 3)])
    g = SymbolSpace.of(A)
    assert g.dim == 3
    assert delta_cohomology_dim(g, 2, 0) == closed_h2(3)


def test_symbol_of_reads_the_top_order_terms():
    """One equation per nonzero row, of its terms of the operator's
    order; lower-order terms and zero rows leave no trace."""
    field = DiffField(2)
    A = OpMatrix(field, [
        [ScalarOp.d(field, 1, 1) + ScalarOp.d(field, 2),
         ScalarOp.d(field, 1, 2).scale(Fraction(-1, 2))],
        [ScalarOp.zero(field), ScalarOp.zero(field)],
        [ScalarOp.constant(field, 3), ScalarOp.d(field, 2, 2)]])
    g = SymbolSpace.of(A)
    assert (g.n, g.m, g.q) == (2, 2, 2)
    assert g.equations == [{((2, 0), 0): 1, ((1, 1), 1): Fraction(-1, 2)},
                           {((0, 2), 1): 1}]


@pytest.mark.parametrize("rows,message", [
    (lambda F: [[ScalarOp.monomial(F, (1, 0), F.ratfunc("x2"))]],
     "x2 is not a rational constant"),
    (lambda F: [[ScalarOp.d(F, 1)], [ScalarOp.d(F, 1, 2)]],
     r"rows of orders \[1, 2\]"),
], ids=["x_dependent", "mixed_orders"])
def test_symbol_of_an_unsupported_operator_is_refused(rows, message):
    field = DiffField(2)
    with pytest.raises(UnsupportedDimension, match=message):
        SymbolSpace.of(OpMatrix(field, rows(field)))


def _prolong_by_accumulation(g):
    """The accumulate-and-filter rule: shift each term of each equation
    by x_i, sum the terms that meet and drop the zero sums."""
    eqs = []
    for eq in g.equations:
        for i in range(g.n):
            new = {}
            for (mu, k), v in eq.items():
                shifted = tuple(m + (1 if j == i else 0)
                                for j, m in enumerate(mu))
                new[(shifted, k)] = new.get((shifted, k), Fraction(0)) + v
            eqs.append({key: v for key, v in new.items() if v})
    return eqs


@pytest.mark.parametrize("family", [families.killing, families.conformal],
                         ids=symbol_id)
@pytest.mark.parametrize("n", [3, 4])
def test_prolong_matches_accumulation(family, n):
    g = SymbolSpace.of(family(n))
    for _ in range(3):
        h = g.prolong()
        assert h.q == g.q + 1
        assert h.equations == _prolong_by_accumulation(g)
        g = h


def test_conformal_symbol_finite_type():
    for n in (3, 4, 5):
        g = SymbolSpace.of(families.conformal(n))
        assert g.dim == n * (n - 1) // 2 + 1
        assert g.prolong(2).dim == 0
        assert g.prolong(1).dim == n  # ghat_2 ~ T*


def test_second_order_cc_at_n4():
    g = SymbolSpace.of(families.conformal(4))
    assert delta_cohomology_dim(g, 3, 0) == 0


def test_acyclicity_flags():
    g4 = SymbolSpace.of(families.conformal(4)).prolong(1)
    assert acyclicity_check(g4, 2)
    assert not acyclicity_check(g4, 3)
    g5 = SymbolSpace.of(families.conformal(5)).prolong(1)
    assert acyclicity_check(g5, 3)
    zero = SymbolSpace(3, 1, 1, [{((1, 0, 0), 0): Fraction(1)},
                                 {((0, 1, 0), 0): Fraction(1)},
                                 {((0, 0, 1), 0): Fraction(1)}])
    assert zero.dim == 0
    assert acyclicity_check(zero, 3)


@pytest.mark.parametrize("family,n,s,h", [
    (families.conformal, 3, 2, 5), (families.conformal, 3, 3, 3),
    (families.conformal, 4, 3, 9),
    (families.killing, 3, 2, 0), (families.killing, 3, 3, 0),
], ids=symbol_id)
def test_cohomology_one_prolongation_up(family, n, s, h):
    assert delta_cohomology_dim(SymbolSpace.of(family(n)), s, 1) == h


def test_cohomology_below_the_symbol_is_refused():
    with pytest.raises(ValueError):
        delta_cohomology_dim(SymbolSpace.of(families.killing(3)), 2, -1)


def test_acyclicity_of_a_symbol_of_infinite_type():
    """The second component is left free, so no prolongation vanishes and
    the check runs to its r <= n + 2 cap."""
    g = SymbolSpace(2, 2, 2, [{((2, 0), 0): 1}, {((0, 2), 0): 1}])
    assert all(g.prolong(r).dim for r in range(1, g.n + 4))
    assert acyclicity_check(g, 1)
    assert not acyclicity_check(g, 2)
    assert delta_cohomology_dim(g, 2, 0) == 1


def test_classical_tables():
    t = classical_dims("conformal", 4)
    assert t["dims"] == [4, 9, 10, 9, 4]
    assert t["orders"] == [1, 2, 2, 1]
    t3 = classical_dims("conformal", 3)
    assert t3["dims"] == [3, 5, 5, 3]
    assert t3["orders"] == [1, 3, 1]
    t5 = classical_dims("conformal", 5)
    assert t5["dims"] == [5, 14, 35, 35, 14, 5]
    k = classical_dims("killing", 2)
    assert k["dims"][:3] == [2, 3, 1]
    c3 = classical_dims("contact", 3)
    assert c3["dims"] == [3, 3, 1]
    assert contact_bundle_dim(5, 0) == 10
    with pytest.raises(UnsupportedDimension):
        classical_dims("contact", 4)
    with pytest.raises(UnsupportedDimension):
        classical_dims("conformal", 2)


def test_diagram_fiber_dimensions():
    d = conformal_diagram_dims(5)
    assert d == {"z3_isometry": 75, "z3_conformal": 85, "h3_conformal": 35,
                 "wedge2_g2hat": 50, "delta_T_S2": 40, "wedge3": 10}


def delta_squared_is_zero(n, m, s, q):
    """Exact check that the composite of two delta maps vanishes.

    delta leaves the E factor alone, so its rank m plays no part."""
    for I in wedge_sets(n, s):
        for mu in sym_monos(n, q):
            acc = {}
            for sign, J, nu in _delta(I, mu):
                for sign2, K, rho in _delta(J, nu):
                    acc[(K, rho)] = acc.get((K, rho), 0) + sign * sign2
            if any(acc.values()):
                return False
    return True


def test_delta_squared_zero():
    for (n, m, s, q) in [(2, 1, 0, 2), (3, 2, 1, 3), (4, 1, 1, 2)]:
        assert delta_squared_is_zero(n, m, s, q)


def test_euler_characteristic_of_full_delta_sequence():
    """For the full symbol the delta complex is exact, so the alternating
    sum of ambient dimensions vanishes."""
    for n, q in [(2, 2), (3, 2), (3, 3)]:
        total = 0
        for s in range(0, n + 1):
            level = q - s
            if level < 0:
                continue
            total += (-1) ** s * math.comb(n, s) * sym_dim(n, level)
        # chi = dim of the kernel at s=0 end: S_q with all lower slots,
        # the classical binomial identity makes it vanish for q >= 1
        assert total == 0


def test_long_symbol_sequence_rank_bookkeeping():
    """S4 T* x T -> S3 T* x F0 -> T* x F1 -> F2 -> 0 is exact by counting."""
    for n in (2, 3, 4, 5):
        g = SymbolSpace.of(families.killing(n))
        f0 = n * (n + 1) // 2
        f1 = delta_cohomology_dim(g, 2, 0)
        f2 = delta_cohomology_dim(g, 3, 0)
        total = (sym_dim(n, 4) * n - sym_dim(n, 3) * f0 + n * f1 - f2)
        assert total == 0


@pytest.mark.parametrize("family,n", [("killing", 2), ("killing", 3),
                                      ("killing", 5), ("conformal", 3),
                                      ("conformal", 4), ("conformal", 5)])
def test_symbol_counts_of_one_ladder_are_the_separate_counts(family, n):
    """symbol_counts reads every count off one ladder; each equals the
    count computed on its own symbol space."""
    g = SymbolSpace.of(getattr(families, family)(n))
    if family == "killing":
        want = {"H2": delta_cohomology_dim(g, 2, 0),
                "H3": delta_cohomology_dim(g, 3, 0)}
    else:
        want = {"ghat3_dim": g.prolong(2).dim,
                "H3_ghat1": delta_cohomology_dim(g, 3, 0),
                "ghat2_2acyclic": acyclicity_check(g.prolong(1), 2)}
    assert symbol_counts(family, n) == want


def test_potential_identification_only_n4():
    from diffmod.spencer import potential_identification_check
    assert potential_identification_check(4)
    with pytest.raises(UnsupportedDimension):
        potential_identification_check(5)


def test_rank_helper():
    rows = [{0: Fraction(1), 1: Fraction(2)},
            {0: Fraction(2), 1: Fraction(4)},
            {2: Fraction(5)}]
    assert rank(rows, 3) == 2


def _transposed(rows, ncols):
    cols = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for c, v in row.items():
            cols[c][i] = v
    return cols


@pytest.mark.parametrize("rows,ncols", [
    # wide, tall and square
    ([{0: 1, 2: 2, 4: -1}, {1: Fraction(1, 3), 3: 5},
      {0: 2, 1: Fraction(2, 3), 2: 4, 3: 10, 4: -2}], 5),
    ([{0: 1, 1: 2}, {0: 2, 1: 4}, {1: Fraction(-1, 7)}, {0: 3}, {}], 2),
    ([{0: 1, 1: 1, 2: 0}, {0: 1, 2: 1}, {1: -1, 2: 1}], 3),
    ([{0: 1}, {1: 1}, {2: 1}], 3),
    ([{0: Fraction(1, 2), 3: 1}, {0: 1, 3: 2}], 6),
    # edge cases: no rows, empty rows, all-zero rows, no columns
    ([], 0),
    ([{}], 3),
    ([{0: 0, 1: Fraction(0)}, {}], 2),
    ([{}, {}], 0),
])
def test_rank_either_orientation(rows, ncols):
    dense = sympy.Matrix(len(rows), ncols,
                         lambda i, j: rows[i].get(j, 0)).rank()
    assert rank(rows, ncols) == dense
    assert rank(_transposed(rows, ncols), len(rows)) == dense


def test_conformal_n6_table_is_exact():
    t = classical_dims("conformal", 6)
    assert t["dims"] == [6, 20, 84, 140, 84, 20, 6]
    assert t["orders"] == [1, 2, 1, 1, 2, 1]


@pytest.mark.parametrize("family,n", [("killing", n) for n in range(2, 8)]
                         + [("conformal", n) for n in range(3, 7)])
def test_finite_type_tables_are_exact_sequences(family, n):
    t = classical_dims(family, n)
    assert len(t["dims"]) == n + 1
    assert sum((-1) ** i * d for i, d in enumerate(t["dims"])) == 0
    assert len(t["orders"]) == len(t["dims"]) - 1


@pytest.mark.parametrize("family,n,dims,orders", [
    ("killing", 2, [2, 3, 1], [1, 2]),
    ("killing", 3, [3, 6, 6, 3], [1, 2, 1]),
    ("killing", 4, [4, 10, 20, 20, 6], [1, 2, 1, 1]),
    ("killing", 5, [5, 15, 50, 75, 45, 10], [1, 2, 1, 1, 1]),
    ("killing", 6, [6, 21, 105, 210, 189, 84, 15], [1, 2, 1, 1, 1, 1]),
    ("killing", 7, [7, 28, 196, 490, 588, 392, 140, 21],
     [1, 2, 1, 1, 1, 1, 1]),
    ("conformal", 3, [3, 5, 5, 3], [1, 3, 1]),
    ("conformal", 4, [4, 9, 10, 9, 4], [1, 2, 2, 1]),
    ("conformal", 5, [5, 14, 35, 35, 14, 5], [1, 2, 1, 2, 1]),
    # appended last, so the ids of the cases above stay as they were
    ("killing", 8, [8, 36, 336, 1008, 1512, 1344, 720, 216, 28],
     [1, 2, 1, 1, 1, 1, 1, 1]),
    ("conformal", 7, [7, 27, 168, 378, 378, 168, 27, 7],
     [1, 2, 1, 1, 1, 2, 1]),
])
def test_pinned_tables(family, n, dims, orders):
    t = classical_dims(family, n)
    assert (t["dims"], t["orders"]) == (dims, orders)


def test_unknown_family_is_rejected():
    with pytest.raises(UnsupportedDimension):
        classical_dims("projective", 4)


@pytest.mark.parametrize("table", [
    lambda n: classical_dims("killing", n),
    lambda n: classical_dims("contact", n),
    lambda n: symbol_counts("conformal", n),
    conformal_diagram_dims,
], ids=["killing", "contact", "symbol_counts", "diagram"])
def test_n_past_the_bound_is_refused(table):
    """Every table refuses an n past MAX_N before building anything."""
    with pytest.raises(ResourceLimit, match=f"bound of {MAX_N}"):
        table(MAX_N + 1)
