import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st

from diffmod import janet
from diffmod.field import DiffField, ResourceLimit, Session
from diffmod.janet import (InvolutiveBasis, board_of_matrix, complete,
                           count_parametric, janet_board,
                           janet_multiplicative, minimal_janet_leads)
from diffmod.ops import (DEFAULT_ORDER, OpMatrix, ScalarOp, TermOrder,
                         mono_le, mono_sub)
from conftest import (CORPUS_PROBLEMS, corpus_session, load_corpus_problem,
                      load_corpus_system, random_constant_system,
                      random_matrix)


F = DiffField(2)


def _leads(basis):
    """The (column, monomial) lead of each basis row, in row order."""
    return [r.lead(basis._terms) for r in basis._rows]


def _pair_16():
    P = ScalarOp.d(F, 2, 2, 2) + ScalarOp.constant(F, F.ratfunc("x2"))
    Q = ScalarOp.d(F, 2) + ScalarOp.d(F, 1)
    return OpMatrix(F, [[P], [Q]], row_labels=["u", "v"], col_labels=["y"])


def test_completion_finds_only_the_zero_solution():
    basis = complete(_pair_16())
    assert len(basis) == 1
    assert _leads(basis) == [(0, (0, 0))]
    count = count_parametric(basis)
    assert count.finite_type and count.dim == 0


def test_membership_after_completion(rng):
    basis = complete(_pair_16())
    mat = _pair_16()
    for _ in range(100):
        L = random_matrix(F, rng, 1, 2, max_order=2)
        combo = L.compose(mat)
        assert basis.contains(combo.row(0))


def test_normal_form_idempotent(rng):
    basis = complete(_pair_16())
    for _ in range(100):
        row = random_matrix(F, rng, 1, 1, max_order=3).row(0)
        nf = basis.normal_form(row)
        again = basis.normal_form(nf)
        assert all((a - b).is_zero for a, b in zip(nf, again))
    zero = basis.normal_form([ScalarOp.zero(F)])
    assert all(e.is_zero for e in zero)


def test_janet_criterion_on_corpus():
    for name in ("finite_type_pair", "unexpected_cc_pair", "killing_flat_n2",
                 "contact_pfaffian", "unimodular_flat"):
        field, matrix, meta = load_corpus_system(name)
        basis = complete(matrix,
                         session=corpus_session(field, matrix, meta))
        assert basis.verify_involutive(), name


def test_completion_idempotent_on_prolonged_isometry():
    # first prolongation of the flat isometry system, n = 2: already
    # involutive, so completing is a fixpoint
    field, matrix, meta = load_corpus_system("killing_flat_n2")
    basis = complete(matrix)
    prolonged = basis.matrix()
    again = complete(prolonged)
    assert set(_leads(basis)) == set(_leads(again))
    assert len(basis) == len(again)
    assert basis.contains_matrix(again.matrix())
    assert again.contains_matrix(basis.matrix())


def test_unexpected_reduction_identity():
    """The low-order consequence reduces to zero against the completed pair."""
    field, matrix, meta = load_corpus_system("unexpected_cc_pair")
    basis = complete(matrix)
    # d12 y - y - d22 y ... built from the two input rows as a D-combination
    d11 = ScalarOp.d(field, 1, 1)
    d12 = ScalarOp.d(field, 1, 2)
    combo = OpMatrix(field, [[d12 + ScalarOp.constant(field, 1), d11]]) \
        .compose(matrix)
    assert basis.contains(combo.row(0))


def test_contact_completion_adds_corrected_row():
    field, matrix, meta = load_corpus_system("contact_pfaffian")
    basis = complete(matrix)
    assert len(basis.trace.integrability_conditions) >= 1
    x3 = field.ratfunc("x3")
    d1, d2, d3 = (ScalarOp.d(field, i) for i in (1, 2, 3))
    corrected = [-d1, d2 + d1.scale(2 * x3.expr), d3]
    displayed = [ScalarOp.zero(field), d2 + d1.scale(2 * x3.expr), d3]
    assert basis.contains(corrected)
    assert not basis.contains(displayed)


def test_counts():
    field, matrix, meta = load_corpus_system("mixed_wave_pair")
    count = count_parametric(complete(matrix))
    assert count.finite_type and count.dim == 12
    # empty system on one unknown: everything parametric
    empty = OpMatrix.zero(F, 0, 1)
    count2 = count_parametric(complete(OpMatrix(F, [[ScalarOp.zero(F)]])))
    assert not count2.finite_type and count2.dim is None


def test_single_generator_board():
    G = DiffField(3)
    M = OpMatrix(G, [[ScalarOp.d(G, 3)]])
    board = janet_board(complete(M))
    assert board[0]["mult_vars"] == [1, 2, 3]


def test_permuted_board_matches_display():
    field, matrix, meta = load_corpus_system("unimodular_oneform")
    order = TermOrder(var_seq=(2, 3, 1))
    basis = complete(matrix, order=order)
    assert len(basis) == 6
    mult = sorted(tuple(e["mult_vars"]) for e in janet_board(basis))
    assert mult == [(1, 2, 3), (1, 2, 3), (1, 2, 3), (2,), (2, 3), (2, 3)]
    assert basis.verify_involutive()


def test_isometry_board_before_completion():
    field, matrix, meta = load_corpus_system("killing_flat_n2")
    board = board_of_matrix(matrix)
    assert sorted(e["class"] for e in board) == [1, 2, 2]


def test_polynomial_solution_oracle():
    """Completed system and original system have the same polynomial
    solutions, and for the finite-type three-variable pair the count is
    exactly the parametric dimension 12 (independent linear-algebra path).
    """
    field, matrix, meta = load_corpus_system("mixed_wave_pair")
    basis = complete(matrix)
    xs = field.vars
    deg = 5
    monos = [m for m in itertools.product(range(deg + 1), repeat=3)
             if sum(m) <= deg]
    coeffs = {m: sp.Symbol(f"q_{m[0]}_{m[1]}_{m[2]}") for m in monos}
    ansatz = sum(coeffs[m] * xs[0] ** m[0] * xs[1] ** m[1] * xs[2] ** m[2]
                 for m in monos)
    eqs = []
    for i in range(matrix.rows):
        val = matrix.apply_to_section([field.ratfunc(ansatz)])[i]
        eqs.append(sp.expand(val.expr))
    unknowns = list(coeffs.values())
    # collect linear equations on the q's
    lin = set()
    for e in eqs:
        for cf in sp.Poly(e, *xs).coeffs():
            lin.add(sp.expand(cf))
    A, _ = sp.linear_eq_to_matrix(list(lin), unknowns)
    nullity = len(unknowns) - A.rank()
    assert nullity == 12
    # every solution of the completed system solves the original one
    sols = A.nullspace()
    for vec in sols[:4]:
        subs = {u: vec[k] for k, u in enumerate(unknowns)}
        s = field.ratfunc(ansatz.xreplace(subs))
        out_orig = matrix.apply_to_section([s])
        out_comp = basis.matrix().apply_to_section([s])
        assert all(v.is_zero for v in out_orig)
        assert all(v.is_zero for v in out_comp)


def test_trace_replays_basis_rows():
    """Every basis row is the recorded D-combination of the inputs."""
    for name in ("unexpected_cc_pair", "contact_pfaffian"):
        field, matrix, meta = load_corpus_system(name)
        basis = complete(matrix, track_src=True)
        src = basis.src_matrix()
        assert src is not None
        replay = src.compose(matrix)
        ours = basis.matrix()
        assert replay == ours


def test_step_budget_raises_resource_limit(monkeypatch):
    # finite_type_pair needs 10 reductions to complete
    field, matrix, meta = load_corpus_system("finite_type_pair")
    monkeypatch.setattr(janet, "MAX_STEPS", 3)
    with pytest.raises(ResourceLimit, match="reduction budget"):
        complete(matrix)


# The completed basis of oneform_area_lie under c != 0, over K, and a row
# x1 d1(xi1) + d2(xi1) whose reduction grows its coefficients at each step.
GROWTH = """
from diffmod.corpus import corpus_dir
from diffmod.dsl import elaborate, load_problem, parse_system
from diffmod.janet import complete
from diffmod.ops import OpMatrix, ScalarOp

system = elaborate(parse_system(
    (corpus_dir() / "oneform_area_lie.dms").read_text()))
p = load_problem(system, ["c!=0"])
basis = complete(p.matrix, p.order, p.session)
F = p.field
row = [ScalarOp.monomial(F, (1, 0), F.ratfunc("x1")) + ScalarOp.d(F, 2),
       ScalarOp.zero(F)]
"""


def test_coefficient_growth_raises_resource_limit():
    """Adding the row to the basis makes steps whose largest coefficients
    grow to 10, 37, 45, 46 and 48 terms, and without the size bound a
    later step runs for minutes.  It runs in a process of its own, so
    that such a hang fails the test by its timeout instead of stalling
    the suite."""
    script = GROWTH + """
from diffmod.field import ResourceLimit
try:
    basis.add(OpMatrix(F, [row]))
except ResourceLimit as exc:
    print("ResourceLimit:", exc)
"""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run([sys.executable, "-c", script], env=env,
                         capture_output=True, text=True, timeout=5)
    assert run.returncode == 0, run.stderr
    assert run.stdout.startswith("ResourceLimit: a coefficient of")
    assert f"size bound of {janet.MAX_COEFF_SIZE}" in run.stdout


def test_the_size_bound_holds_without_a_step_budget(monkeypatch):
    """normal_form reduces with no step budget; the row's normal form has
    a coefficient of 6 terms, so a bound of 5 stops the reduction."""
    scope = {}
    exec(GROWTH, scope)
    basis, row = scope["basis"], scope["row"]
    assert max(janet._coeff_size(c) for e in basis.normal_form(row)
               for c in e.terms.values()) == 6
    monkeypatch.setattr(janet, "MAX_COEFF_SIZE", 5)
    with pytest.raises(ResourceLimit, match="size bound of 5"):
        basis.normal_form(row)


def test_grown_basis_matches_completion():
    """A basis grown one row at a time by add is the Janet basis that
    completing the stacked rows gives: same leads, same module, and both
    pass the Janet criterion."""
    for seed in range(100):
        A = random_constant_system(seed)
        full = complete(A, track_src=False)
        grown = InvolutiveBasis(OpMatrix.zero(A.field, 0, A.cols),
                                DEFAULT_ORDER, Session(A.field))
        for i in range(A.rows):
            grown.add(OpMatrix.from_rows(A.field, [A.row(i)], A.cols))
        assert sorted(_leads(grown)) == sorted(_leads(full)), seed
        assert full.contains_matrix(grown.matrix()), seed
        assert grown.contains_matrix(full.matrix()), seed
        assert full.verify_involutive() and grown.verify_involutive(), seed


def test_a_basis_with_sources_adds_only_its_input():
    field, matrix, meta = load_corpus_system("killing_flat_n2")
    basis = complete(matrix, track_src=True)
    with pytest.raises(ValueError, match="only its input"):
        basis.add(OpMatrix.from_rows(field, [matrix.row(0)], matrix.cols))


def _packed(terms, block):
    """A list of term dicts, one per column, as one dict of packed terms."""
    return {terms[(j, mu)]: v for j, e in enumerate(block)
            for mu, v in e.items()}


def _unpacked(terms, block, width):
    """A dict of packed terms as a list of width term dicts."""
    out = [{} for _ in range(width)]
    for t, v in block.items():
        j, mu = terms.unpack(t)
        out[j][mu] = v
    return out


def test_one_pass_step_matches_composition():
    """_Row.sub_multiple(1, c, kappa, b) is a - (c d^kappa) o b on the op
    and the src block.  Under d1^3 d2 the coefficient x1**2 of b keeps its
    derivatives in x1 up to the second and loses the rest; the jet
    coefficients and 1/x2 keep all of theirs."""
    G = DiffField(2, func_params=["a"])
    a = G.ratfunc("a")
    da = a.derive(1)
    packing = janet._Terms(DEFAULT_ORDER, 2)

    def op(*terms):
        return ScalarOp(G, dict(terms))

    def row_of(op_block, src_block):
        return janet._Row(_packed(packing, [e.terms for e in op_block]),
                          _packed(packing, [e.terms for e in src_block]))

    b_op = [op(((0, 0), "x1**2"), ((1, 0), a)), op(((0, 1), da), ((0, 0), 3))]
    b_src = [op(((0, 0), "1/x2")), op(((1, 1), "x1*x2"))]
    row_op = [op(((3, 1), 1), ((0, 0), "x2")), op(((2, 0), a))]
    row_src = [op(((0, 0), 1)), ScalarOp.zero(G)]
    b, row = row_of(b_op, b_src), row_of(row_op, row_src)
    section = [G.ratfunc("x1**5*x2**2 + x2**3"), G.ratfunc("x1**4*x2 + a")]
    for c, kappa in ((G.ratfunc("x1"), (3, 1)), (da, (1, 0)),
                     (G.ratfunc(-2), (0, 0)), (G.ratfunc("x2/x1"), (0, 2))):
        mono = ScalarOp.monomial(G, kappa, c)
        got = row.sub_multiple(G.one, c, kappa, b, packing)
        for packed, left, right in ((got.op, row_op, b_op),
                                    (got.src, row_src, b_src)):
            block = _unpacked(packing, packed, 2)
            want = [x - mono * y for x, y in zip(left, right)]
            assert block == [e.terms for e in want]
            # and as operators acting on a section: a(f) - c d^kappa(b(f))
            acted = OpMatrix(G, [[ScalarOp(G, e) for e in block]]
                             ).apply_to_section(section)[0]
            expect = (OpMatrix(G, [left]).apply_to_section(section)[0]
                      - mono.apply(OpMatrix(G, [right])
                                   .apply_to_section(section)[0]))
            assert acted == expect


def test_integer_step_is_a_multiple_of_the_field_step():
    """Over ZZ, sub_multiple(a, c, kappa, b), a the lead coefficient of b,
    is a w - c d^kappa o b divided by a positive integer: a nonzero
    constant times the step w - (c / a) d^kappa o b over K, with coprime
    coefficients over both blocks."""
    terms = janet._Terms(DEFAULT_ORDER, 2)

    def row_of(op_block, src_block):
        return janet._Row(_packed(terms, op_block), _packed(terms, src_block))

    b = row_of([{(1, 0): 6, (0, 1): -4}, {(0, 0): 10}], [{(0, 0): 2}, {}])
    w = row_of([{(2, 1): 9, (1, 1): 3}, {(1, 0): 15}], [{}, {(1, 1): 6}])
    a = 6
    for c, kappa in ((9, (1, 1)), (3, (0, 0)), (-15, (1, 0)), (7, (0, 2))):
        got = w.sub_multiple(a, c, kappa, b, terms)
        coeffs = [*got.op.values(), *got.src.values()]
        assert math.gcd(*coeffs) == 1
        scale = set()
        for block, left, right in ((got.op, w.op, b.op),
                                   (got.src, w.src, b.src)):
            block, left, right = (_unpacked(terms, x, 2)
                                  for x in (block, left, right))
            want = [dict(x) for x in left]
            for x, y in zip(want, right):
                for mu, v in y.items():
                    nu = tuple(p + q for p, q in zip(mu, kappa))
                    x[nu] = x.get(nu, 0) - Fraction(c, a) * v
            assert [set(e) for e in block] == \
                [{mu for mu, v in x.items() if v} for x in want]
            scale |= {Fraction(v) / want_e[mu] for got_e, want_e
                      in zip(block, want) for mu, v in got_e.items()}
        assert len(scale) == 1 and 0 not in scale


def _problems(seeds):
    """(label, matrix, order, session) of every corpus problem, both cases
    of the split parameter of oneform_area_lie, and the seeded systems."""
    for name, assume in (param.values for param in CORPUS_PROBLEMS):
        p = load_corpus_problem(name, assume)
        yield f"{name} {list(assume)}", p.matrix, p.order, p.session
    for seed in seeds:
        A = random_constant_system(seed)
        yield f"seed {seed}", A, DEFAULT_ORDER, Session(A.field)


def test_tracking_sources_changes_only_the_sources():
    """Sources never steer the reduction of the operator part: a tracked
    and an untracked completion give the same basis, Janet data,
    integrability conditions, provisos and number of added rows."""
    for label, A, order, session in _problems(range(40)):
        bases = [complete(A, order, session.copy(), track)
                 for track in (False, True)]
        plain, tracked = bases
        assert plain.src_matrix() is None and not plain.trace.cc_rows, label
        assert tracked.src_matrix() is not None, label
        assert plain.matrix() == tracked.matrix(), label
        assert janet_board(plain) == janet_board(tracked), label
        assert (plain.trace.integrability_conditions
                == tracked.trace.integrability_conditions), label
        assert plain.session.provisos == tracked.session.provisos, label
        adds = [sum(s["event"] == "add" for s in b.trace.steps) for b in bases]
        assert adds[0] == adds[1], label


def _linear_reducer(basis, term):
    """The first basis row whose lead involutively divides term, by a
    scan over every row."""
    j, mu = term
    for r in basis._rows:
        col, lam = r.lead(basis._terms)
        if col == j and mono_le(lam, mu):
            kappa = mono_sub(mu, lam)
            if all(k == 0 or i + 1 in r.mult for i, k in enumerate(kappa)):
                return r, kappa
    return None


def _rescanned_normal_form(basis, row, budget, tail=False):
    """reduce_row as a full rescan: after every step all terms are
    unpacked, sorted again from the top by the term order's module_key
    and searched with the linear reducer."""
    terms = basis._terms
    skip = row.lead(terms) if tail else None
    work = row
    while True:
        ordered = sorted((t for t in map(terms.unpack, work.op) if t != skip),
                         key=basis.order.module_key, reverse=True)
        hit = next(((t, found) for t in ordered
                    if (found := _linear_reducer(basis, t)) is not None),
                   None)
        if hit is None:
            return work
        t, (r, kappa) = hit
        work = work.sub_multiple(r.lead_coeff(), work.op[basis._key(t)],
                                 kappa, r, terms)
        budget.tick()


def test_resumed_reduction_equals_a_full_rescan():
    """reduce_row resumes each pass below the term it just reduced and
    finds reducers through the per-column index; a full rescan with a
    linear divisor scan makes the same steps and the same normal forms,
    on a completed basis before and after tail reduction, for sums of
    two prolongations of input rows and, in tail mode, for the basis
    rows themselves."""
    problems = [(f"seed {seed}", A, DEFAULT_ORDER, Session(A.field))
                for seed in range(20)
                for A in [random_constant_system(seed)]]
    for name in ("contact_pfaffian", "unimodular_oneform"):
        p = load_corpus_problem(name)
        problems.append((name, p.matrix, p.order, p.session))
    compared = steps = 0
    for label, A, order, session in problems:
        rng = random.Random(label)
        field = A.field
        basis = InvolutiveBasis(A, order, session, track_src=True)
        basis.add(A)
        rows = []
        for _ in range(3 * A.rows):
            # d^mu (row i) + c d^nu (row k) for random monomials of order
            # 1 to 3, as an augmented row with its sources
            op = [ScalarOp.zero(field)] * A.cols
            src = [ScalarOp.zero(field)] * A.rows
            for c in (1, rng.choice((-2, -1, 1, 3))):
                i = rng.randrange(A.rows)
                mu = [0] * field.n
                for _ in range(rng.randint(1, 3)):
                    mu[rng.randrange(field.n)] += 1
                d = ScalarOp.monomial(field, mu, c)
                op = [a + d * e for a, e in zip(op, A.row(i))]
                src[i] = src[i] + d
            rows.append(basis._row(op, src))
        for stage in ("completed", "tail reduced"):
            if stage == "tail reduced":
                basis.tail_reduce()
            cases = [(r, False) for r in rows]
            cases += [(r, True) for r in basis._rows]
            for row, tail in cases:
                fast, slow = janet._Budget(0), janet._Budget(0)
                got = basis.reduce_row(row, fast, tail=tail)
                want = _rescanned_normal_form(basis, row, slow, tail=tail)
                where = f"{label}, {stage}, tail={tail}"
                assert fast.steps == slow.steps, where
                assert got.op == want.op, where
                assert got.src == want.src, where
                compared += 1
                steps += fast.steps
    assert compared > 500 and steps > compared


def _left_scaled(A, factors):
    """diag(factors) o A: row i times the zero-order operator factors[i]."""
    return OpMatrix(A.field, [[ScalarOp.constant(A.field, q) * e
                               for e in A.row(i)]
                              for i, q in zip(range(A.rows), factors)],
                    row_labels=A.row_labels, col_labels=A.col_labels)


def _completion_record(basis):
    return (basis.matrix(), janet_board(basis),
            basis.trace.integrability_conditions,
            sum(s["event"] == "add" for s in basis.trace.steps),
            basis.trace.steps)


def _proportional(u, v):
    """u = q v, entry by entry, for one nonzero constant q."""
    if [set(e.terms) for e in u] != [set(e.terms) for e in v]:
        return False
    ratios = [a.terms[mu] / b.terms[mu] for a, b in zip(u, v)
              for mu in a.terms]
    return all(q == ratios[0] for q in ratios)


def _redisplacing_system():
    """A system whose completion displaces a basis row that then reduces
    by no step and is inserted again: it must make its prolongations
    again, as every new basis row does."""
    G = DiffField(3)

    def d(*idx):
        return ScalarOp.d(G, *idx)

    zero = ScalarOp.zero(G)
    return OpMatrix(G, [[zero, 4 * d(2, 2) - 8 * d(1, 2) - 2],
                        [-8 * d(1, 2), zero],
                        [-2 * d(3, 3), -8 * d(3)]])


def test_both_rings_give_the_same_completion():
    """Left-multiplying the rows of A by nonzero elements of K leaves its
    row module alone, and completion is left-K-linear, so it makes the
    same steps.  Rational constants keep the basis over ZZ, with their
    denominators cleared on entry; the factor 1 + x1**2 puts it over K.
    Both give A's basis, Janet data, integrability conditions, number of
    added rows and trace steps, and a normal form over ZZ is the one over
    K times a constant."""
    for order in (DEFAULT_ORDER, TermOrder("lex")):
        for seed in range(41):
            A = (random_constant_system(seed) if seed < 40
                 else _redisplacing_system())
            field = A.field
            bump = field.ratfunc("1 + x1**2")
            rational = itertools.cycle((Fraction(2, 3), Fraction(-5, 7),
                                        Fraction(9, 4)))
            variants = [A, _left_scaled(A, rational),
                        _left_scaled(A, [bump] * A.rows)]
            bases = [complete(M, order) for M in variants]
            assert [b._zz for b in bases] == [True, True, False], seed
            want = _completion_record(bases[0])
            for b in bases[1:]:
                assert _completion_record(b) == want, (order.kind, seed)
            # d2 d1^k on one unknown plus the first input row
            for j, k in itertools.product(range(A.cols), range(3)):
                row = [e + ScalarOp.d(field, *[1] * k, 2) * int(i == j)
                       for i, e in enumerate(A.row(0))]
                assert _proportional(bases[0].normal_form(row),
                                     bases[2].normal_form(row)), seed
            assert bases[0]._zz and not bases[2]._zz, seed


def test_a_basis_over_zz_grown_by_an_x_row_matches_its_completion():
    """A row x1 d1 + d2 on the first unknown moves a completed basis over
    ZZ to K; grown by it and tail reduced, the basis has the rows that
    completing the stacked matrix from scratch gives."""
    for seed in range(20):
        A = random_constant_system(seed)
        field = A.field
        d1, d2 = [tuple(int(i == k) for i in range(field.n)) for k in (0, 1)]
        extra = OpMatrix(field, [[ScalarOp(field, {d1: "x1", d2: 1})]
                                 + [ScalarOp.zero(field)] * (A.cols - 1)])
        grown = complete(A)
        assert grown._zz
        grown.add(extra)
        assert not grown._zz
        grown.tail_reduce()
        full = complete(A.stack(extra))
        assert sorted(zip(_leads(grown), map(str, grown.matrix().entries))) \
            == sorted(zip(_leads(full), map(str, full.matrix().entries))), seed
        assert grown.verify_involutive(), seed


def _full_janet_data(basis):
    """The multiplicative variables of each row of basis and the reducer
    index of each column, recomputed from the leads of all rows with
    janet_multiplicative; nothing is written to the basis."""
    seq = basis.order.seq(basis.field.n)
    by_col = {}
    for r, (col, mu) in zip(basis._rows, _leads(basis)):
        by_col.setdefault(col, []).append((r, mu))
    mult, index = {}, {}
    for col, entries in by_col.items():
        mus = [mu for _, mu in entries]
        for (r, mu), m in zip(entries, janet_multiplicative(mus, seq)):
            mult[id(r)] = m
            index.setdefault(col, []).append(
                (r, mu, [i for i in range(len(mu)) if i + 1 not in m]))
    return [mult[id(r)] for r in basis._rows], index


def _check_janet_data(basis):
    """Every row the reducer index names is a row of the basis, the
    Janet data on the rows and in the index is the recomputed one, and
    the minimal Janet leads the table memoizes for each column's leads
    are those minimal_janet_leads computes."""
    rows = {id(r) for r in basis._rows}
    assert all(id(r) in rows for entries in basis._divisors.values()
               for r, _, _ in entries)
    assert ([r.mult for r in basis._rows], basis._divisors) == \
        _full_janet_data(basis)
    seq = basis.order.seq(basis.field.n)
    for mus in basis._leads().values():
        assert basis._terms.minimal_leads(mus) == minimal_janet_leads(mus, seq)


class _CheckedBasis(InvolutiveBasis):
    """A basis that checks its Janet data after every event that rewrites
    rows: an insertion, a minimality pass, a tail reduction and a move
    from ZZ to K.  It counts the events, the insertions into a basis with
    leads in other columns too, those that displaced rows, and the rows a
    tail reduction changed."""

    counts = None

    def _count(self, name, hit=True):
        self.counts[name] = self.counts.get(name, 0) + hit

    def _insert(self, h):
        displaced = super()._insert(h)
        _check_janet_data(self)
        self._count("insertions")
        self._count("other columns", len(self._divisors) > 1)
        self._count("displacing", bool(displaced))
        return displaced

    def _keep_minimal(self):
        super()._keep_minimal()
        _check_janet_data(self)
        self._count("minimality passes")

    def tail_reduce(self):
        before = [r.op for r in self._rows]
        super().tail_reduce()
        _check_janet_data(self)
        self._count("tail reductions")
        self._count("tail-reduced rows",
                    sum(r.op is not op for r, op in zip(self._rows, before)))

    def _admit(self, op_rows):
        zz = self._zz
        super()._admit(op_rows)
        _check_janet_data(self)
        self._count("moves to K", zz and not self._zz)


def _memo_sizes():
    """The number of lead sets each shared table memoizes, by key."""
    return {key: (len(t._mult), len(t._minimal))
            for key, t in janet._TABLES.items()}


def test_janet_data_of_one_column_matches_a_full_recomputation():
    """An insertion recomputes the Janet data of its own column only, and
    tail reduction and the move to K rewrite rows in place.  Growing
    bases one input row at a time with add, on the corpus problems and 40
    seeded systems, then moving each seeded basis to K by a row
    x1 d1 + d2 and tail reducing every basis, leaves after every event
    and every add the Janet data a full recomputation gives, indexing the
    basis's own rows.  The growth runs twice in one process: in the
    second sweep every lead set's Janet data comes from the memo entries
    the first sweep's bases made, and must still be the recomputed one."""
    _grow_checked()
    filled = _memo_sizes()
    _grow_checked()
    assert _memo_sizes() == filled


def _grow_checked():
    _CheckedBasis.counts = counts = {}
    adds = 0
    for label, A, order, session in _problems(range(40)):
        field = A.field
        basis = _CheckedBasis(OpMatrix.zero(field, 0, A.cols),
                              order, session)
        for i in range(A.rows):
            basis.add(OpMatrix.from_rows(field, [A.row(i)], A.cols))
            _check_janet_data(basis)
            adds += 1
        if label.startswith("seed"):
            d1, d2 = [tuple(int(i == k) for i in range(field.n))
                      for k in (0, 1)]
            basis.add(OpMatrix(field, [[ScalarOp(field, {d1: "x1", d2: 1})]
                                       + [ScalarOp.zero(field)]
                                       * (A.cols - 1)]))
        basis.tail_reduce()
    assert adds > 100 and counts["insertions"] > adds
    assert counts["minimality passes"] > adds
    assert counts["other columns"] > 50 and counts["displacing"] > 10
    assert counts["moves to K"] > 40 and counts["tail reductions"] == 56
    assert counts["tail-reduced rows"] > 50


def test_the_minimality_pass_drops_rows_only_in_grown_bases(monkeypatch):
    """The premise behind _keep_minimal: a completion from scratch ends
    minimal, so the pass drops no row there, on the corpus problems and
    100 seeded systems under degrevlex and lex; a basis grown one input
    row at a time can end complete but not minimal, and growing 150
    seeded systems under three orders makes the pass drop rows."""
    drops = []
    keep = InvolutiveBasis._keep_minimal

    def counted(self):
        before = len(self._rows)
        keep(self)
        drops.append(before - len(self._rows))

    monkeypatch.setattr(InvolutiveBasis, "_keep_minimal", counted)
    orders = (DEFAULT_ORDER, TermOrder("lex"))
    for label, A, _, session in _problems(range(100)):
        for order in orders:
            complete(A, order, session.copy())
    assert len(drops) == 232 and not any(drops)
    drops.clear()
    for seed in range(150):
        A = random_constant_system(seed)
        for order in orders + (TermOrder("deglex"),):
            grown = InvolutiveBasis(OpMatrix.zero(A.field, 0, A.cols),
                                    order, Session(A.field))
            for i in range(A.rows):
                grown.add(OpMatrix.from_rows(A.field, [A.row(i)], A.cols))
    assert len(drops) > 1000 and any(drops)


def _exponents(n, top):
    return st.tuples(*[st.one_of(st.integers(0, 3), st.integers(0, top))
                       for _ in range(n)])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(
    st.sampled_from(["degrevlex", "deglex", "lex"]),
    st.permutations(range(1, n + 1)),
    st.lists(st.tuples(st.integers(0, 5), _exponents(n, 5000)),
             min_size=2, max_size=6),
    _exponents(n, 300))))
def test_packed_terms_are_in_term_order_and_shift_by_addition(args):
    """A packed term unpacks to itself, integer order is the module_key
    order of the terms, and multiplying by d^kappa adds pack(0, kappa),
    for every kind of order, var_seq permutation, n = 1..6 and columns
    0..5, with exponents up to 5000."""
    kind, seq, ts, kappa = args
    order = TermOrder(kind, tuple(seq))
    terms = janet._Terms(order, len(seq))
    packed = [terms.pack(col, mu) for col, mu in ts]
    shift = terms.pack(0, kappa)
    for t, p in zip(ts, packed):
        assert terms.unpack(p) == t
        col, mu = t
        moved = (col, tuple(a + b for a, b in zip(mu, kappa)))
        assert terms.pack(*moved) == p + shift
        assert terms.unpack(p + shift) == moved
    for (s, p), (t, q) in itertools.product(zip(ts, packed), repeat=2):
        assert (p < q) == (order.module_key(s) < order.module_key(t))
        assert (p == q) == (s == t)


@pytest.mark.parametrize("kind", ["degrevlex", "deglex", "lex"])
def test_packing_refuses_a_digit_of_two_to_the_fifteen(kind):
    """pack raises ResourceLimit on an exponent or a column of 2**15, and
    unpack on an int whose digits went past it."""
    for n in range(1, 7):
        terms = janet._Terms(TermOrder(kind), n)
        for i in range(n):
            mu = tuple(2 ** 15 * (k == i) for k in range(n))
            with pytest.raises(ResourceLimit, match="packing bound"):
                terms.pack(0, mu)
            below = tuple(m - (k == i) for k, m in enumerate(mu))
            top = terms.pack(0, below)
            assert terms.unpack(top) == (0, below)
            one = tuple(int(k == i) for k in range(n))
            with pytest.raises(ResourceLimit, match="packing bound"):
                terms.unpack(top + terms.pack(0, one))
        with pytest.raises(ResourceLimit, match="packing bound"):
            terms.pack(2 ** 15, (0,) * n)


def test_prolongation_order_budget_raises_resource_limit(monkeypatch):
    """_Budget.check_order stops a prolongation above the order budget:
    d1 d2 (y) and d1 (y) - d2 (y) in two variables need a prolongation
    to order 3, above a budget of order 2."""
    class Tight(janet._Budget):
        def __init__(self, max_order):
            super().__init__(2)

    A = OpMatrix(F, [[ScalarOp.d(F, 1, 2)],
                     [ScalarOp.d(F, 1) - ScalarOp.d(F, 2)]])
    complete(A)
    monkeypatch.setattr(janet, "_Budget", Tight)
    with pytest.raises(ResourceLimit, match="prolongation order budget"):
        complete(A)


def _four_orders(n):
    """degrevlex, deglex, lex and degrevlex with var_seq reversed."""
    return (DEFAULT_ORDER, TermOrder("deglex"), TermOrder("lex"),
            TermOrder("degrevlex", tuple(range(n, 0, -1))))


def test_one_table_per_order_changes_no_completion(monkeypatch):
    """Every basis under one term order and n shares one _Terms, with its
    packed terms and Janet data.  Completions of the corpus problems and
    40 seeded systems under four orders, interleaved in one process, give
    the matrix, board, integrability conditions and trace steps of the
    same completion with the registry emptied first; equal keys give the
    same table and different keys different ones."""
    cases = [(f"{label} {order}", A, order, session)
             for label, A, _, session in _problems(range(40))
             for order in _four_orders(A.field.n)]
    want = {}
    for label, A, order, session in cases:
        monkeypatch.setattr(janet, "_TABLES", {})
        want[label] = _completion_record(complete(A, order, session.copy()))
    monkeypatch.setattr(janet, "_TABLES", {})
    random.Random(5).shuffle(cases)
    for label, A, order, session in cases:
        basis = complete(A, order, session.copy())
        assert basis._terms is janet._terms_of(order, A.field.n), label
        assert _completion_record(basis) == want[label], label
    # one table per key met; the reversed var_seq on n = 1 is degrevlex's
    # own, so 3 tables for n = 1 and 4 for each of n = 2, 3, 5
    keys = {(order.kind, order.seq(A.field.n)) for _, A, order, _ in cases}
    assert set(janet._TABLES) == keys and len(keys) == 15
    for n in (1, 2, 3):
        explicit = TermOrder("degrevlex", tuple(range(1, n + 1)))
        assert janet._terms_of(explicit, n) is janet._terms_of(DEFAULT_ORDER, n)
    tables = {(order.kind, order.seq(n)): janet._terms_of(order, n)
              for n in (2, 3) for order in _four_orders(n)}
    assert len({id(t) for t in tables.values()}) == len(tables) == 8
    assert janet._terms_of(DEFAULT_ORDER, 2) is not janet._terms_of(
        DEFAULT_ORDER, 3)


def test_a_term_past_the_packing_bound_leaves_the_table_usable(monkeypatch):
    """A row with a term of order 2**15 raises ResourceLimit where it is
    packed, and a prolongation past the bound where it is unpacked; the
    shared table keeps no entry of either, and the next completion under
    the same order is the one an empty registry gives."""
    monkeypatch.setattr(janet, "_TABLES", {})
    A = random_constant_system(3)
    n = A.field.n
    want = _completion_record(complete(A))
    monkeypatch.setattr(janet, "_TABLES", {})
    terms = janet._terms_of(DEFAULT_ORDER, n)
    top = (2 ** 15 - 1,) + (0,) * (n - 1)
    d2 = ScalarOp.d(A.field, 2)
    too_high = OpMatrix(A.field, [[ScalarOp(A.field, {
        (2 ** 15,) + (0,) * (n - 1): 1})], [d2]])
    prolonged_past = OpMatrix(A.field, [[ScalarOp(A.field, {top: 1})], [d2]])
    for M, message in ((too_high, "reached"), (prolonged_past, "overflowed")):
        with pytest.raises(ResourceLimit, match=f"{message} the packing bound"):
            complete(M)
        assert all(max(mu) < 2 ** 15 and sum(mu) < 2 ** 15
                   for _, mu in terms)
        assert all(terms[t] == k for k, t in terms._unpacked.items())
        basis = complete(A)
        assert basis._terms is terms
        assert _completion_record(basis) == want
