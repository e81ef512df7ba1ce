import operator
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracField
from sympy.polys.rings import PolyRing

import diffmod
from diffmod.field import (CaseSplitRequired, DiffField, DiffmodError,
                           DivisionByZero, RatFunc, Session, _gen_key,
                           _move, _used, is_zero_under)
from diffmod.ops import OpMatrix, ScalarOp


def small_exprs(field):
    x = [sp.sstr(v) for v in field.vars]
    atoms = st.sampled_from([*x, "1", "2", "-1", "3"])
    def combine(children):
        return st.one_of(
            st.tuples(children, children).map(lambda t: f"({t[0]}+{t[1]})"),
            st.tuples(children, children).map(lambda t: f"({t[0]}*{t[1]})"),
            children.map(lambda s: f"(-{s})"),
        )
    return st.recursive(atoms, combine, max_leaves=6)


F = DiffField(2)


def test_inverse_pair():
    x1 = F.ratfunc("x1")
    assert (x1 * x1) * (F.one / (x1 * x1)) == F.one


def test_polynomial_division():
    # oracle: sympy quotient of exact polynomial division
    f = F.ratfunc("x1**2 - 1")
    g = F.ratfunc("x1 - 1")
    q = sp.quo(sp.sympify("x1**2 - 1"), sp.sympify("x1 - 1"), sp.Symbol("x1"))
    assert f / g == F.ratfunc(q)
    assert f / g == F.ratfunc("x1 + 1")


def test_division_by_zero():
    with pytest.raises(DivisionByZero):
        F.one / F.zero


@settings(max_examples=120, deadline=None)
@given(small_exprs(F), small_exprs(F), small_exprs(F))
def test_field_axioms(a, b, c):
    fa, fb, fc = F.ratfunc(a), F.ratfunc(b), F.ratfunc(c)
    assert (fa + fb) + fc == fa + (fb + fc)
    assert fa * (fb + fc) == fa * fb + fa * fc
    assert fa + (-fa) == F.zero
    assert fa * fb == fb * fa


@settings(max_examples=120, deadline=None)
@given(small_exprs(F), small_exprs(F))
def test_derive_is_a_derivation(a, b):
    fa, fb = F.ratfunc(a), F.ratfunc(b)
    for i in (1, 2):
        left = (fa * fb).derive(i)
        right = fa.derive(i) * fb + fa * fb.derive(i)
        assert left == right


@settings(max_examples=120, deadline=None)
@given(small_exprs(F))
def test_normalize_idempotent(a):
    fa = F.ratfunc(a)
    again = RatFunc(F, fa.expr)
    assert again.expr == fa.expr


def test_derive_examples():
    G = DiffField(2, params=["c"])
    assert G.derive(2, G.ratfunc("x2*x1")) == G.ratfunc("x1")
    assert G.derive(1, G.ratfunc("c")).is_zero
    f = G.ratfunc("(x1**2 + c)/(x2 + 1)")
    assert G.derive(1, G.derive(2, f)) == G.derive(2, G.derive(1, f))


def test_derive_index_range():
    with pytest.raises(IndexError):
        F.derive(3, F.one)


def test_funcparam_formal_derivatives():
    G = DiffField(2, func_params=["a"])
    a = G.ratfunc("a")
    da = G.derive(1, a)
    assert not da.is_zero
    # commuting derivations on the formal symbols
    assert G.derive(1, G.derive(2, a)) == G.derive(2, G.derive(1, a))


def test_jet_atoms_are_the_derivatives_sympy_evaluates():
    """_jet_symbol builds its Derivative without evaluating it; the atom is
    the one sp.diff returns, equal, hash-equal and printed alike."""
    G = DiffField(3, func_params=["a"])
    f = G.funcs["a"]
    for mu in ((1, 0, 0), (0, 2, 1), (3, 0, 2), (1, 1, 1), (0, 0, 4)):
        got = G._jet_symbol("a", mu)
        want = sp.diff(f, *[(v, k) for v, k in zip(G.vars, mu) if k])
        assert got == want and hash(got) == hash(want), mu
        assert sp.sstr(got) == sp.sstr(want), mu
    assert G._jet_symbol("a", (0, 0, 0)) == f


def test_is_zero_under():
    G = DiffField(1, params=["c"], func_params=["a"])
    lam = G.ratfunc("3")
    assert is_zero_under(G.zero)[0]
    c = G.ratfunc("c")
    z, prov = is_zero_under(c * lam - c * lam)
    assert z and not prov
    a = G.ratfunc("a")
    g = G.derive(1, a) + a * a - a
    sess = Session(G)
    z, prov = is_zero_under(g, sess)
    assert not z
    assert len(prov) == 1
    assert sess.provisos and (sess.provisos[0] - prov[0]).is_zero


def test_pivot_factoring_drops_assumed_factors():
    G = DiffField(1, params=["l1", "l2"])
    sess = Session(G, assume_nonzero=[G.ratfunc("l1")])
    pivot = G.ratfunc("l1*(l1 - l2)")
    sess.check_pivot(pivot)
    assert len(sess.provisos) == 1
    assert sess.provisos[0] == G.ratfunc("l1 - l2")


def test_case_split_required():
    G = DiffField(1, params=["c"])
    sess = Session(G, split_params=["c"])
    with pytest.raises(CaseSplitRequired):
        sess.check_pivot(G.ratfunc("2*c"))
    sess2 = Session(G, assume_nonzero=[G.ratfunc("c")], split_params=["c"])
    sess2.check_pivot(G.ratfunc("2*c"))  # covered by assumption
    assert not sess2.provisos


def test_rewrite_rule():
    G = DiffField(1, params=["c"], func_params=["alpha", "gamma"])
    al, ga, c = G.ratfunc("alpha"), G.ratfunc("gamma"), G.ratfunc("c")
    G.add_rule("alpha", (1,), al * ga + c * al * al)
    assert G.derive(1, al) == al * ga + c * al * al
    # second derivative rewrites recursively and stays rule-normal
    dd = G.derive(1, G.derive(1, al))
    assert "Derivative(alpha" not in sp.sstr(dd.expr)


def test_specialize():
    G = DiffField(1, params=["c"], func_params=["a"])
    G.add_rule("a", (1,), G.ratfunc("c*a"))
    H, mapping = G.specialize({"c": 0})
    assert "c" not in H.param_names
    assert H.derive(1, H.ratfunc("a")).is_zero


def test_name_clash_rejected():
    with pytest.raises(ValueError):
        DiffField(2, params=["x1"])


def test_canonical_factor_does_not_depend_on_the_hash_seed():
    code = (
        "import sympy as sp\n"
        "from diffmod.field import DiffField, RatFunc\n"
        "F = DiffField(var_names=['x1', 'x2'], func_params=['alpha1', 'beta'])\n"
        "a, b = F.symbol('alpha1'), F.symbol('beta')\n"
        "x1 = F.vars[0]\n"
        "e = b * sp.diff(a, x1) - a * sp.diff(b, x1)\n"
        "print(F.coeff_str(RatFunc(F, e).canonical_factor()))\n")
    src = str(Path(diffmod.__file__).resolve().parents[1])
    out = set()
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        out.add(subprocess.run([sys.executable, "-c", code], env=env,
                               capture_output=True, text=True,
                               check=True).stdout)
    assert len(out) == 1


PINNED_COEFFS = [
    ("-x1 + x2", "-x1 + x2"),
    ("(-x1**2 + c)/x2", "(c - x1**2)/x2"),
    ("(2*x1 + 2)/(4*x2)", "(x1 + 1)/(2*x2)"),
    ("-(2*x1 + 2)/(4*x2)", "(-x1 - 1)/(2*x2)"),
    ("1/(x1 - a)", "1/(x1 - a)"),
    ("(c*a - x2)/(x1*a - c)", "(c*a - x2)/(-c + x1*a)"),
    ("-3/(2*c*x1)", "-3/(2*c*x1)"),
]


@pytest.mark.parametrize("text, expected", PINNED_COEFFS)
def test_coeff_str_is_pinned(text, expected):
    G = DiffField(2, params=["c"], func_params=["a"])
    assert G.coeff_str(G.ratfunc(text)) == expected


def test_funcparam_derivatives_print_as_before():
    G = DiffField(2, params=["c"], func_params=["a"])
    a, x1, x2 = G.ratfunc("a"), G.ratfunc("x1"), G.ratfunc("x2")
    assert G.coeff_str(a / a.derive(1)) == "a/d1(a)"
    assert G.coeff_str((a + x1) / (a.derive(2) - a * x2)) == \
        "(-x1 - a)/(x2*a - d2(a))"
    assert G.coeff_str(G.one / (a.derive(1) - a.derive(2))) == \
        "1/(d1(a) - d2(a))"
    d1, d2 = ScalarOp.d(G, 1), ScalarOp.d(G, 2)
    M = OpMatrix(G, [[d1.scale(G.ratfunc("-(2*x1 + 2)/(4*x2)"))
                      + d2.scale(G.ratfunc("1/(x1 - a)")),
                      ScalarOp.constant(G, -a.derive(1))
                      + d1.scale(G.ratfunc("c - x1"))]],
                 col_labels=["u", "v"])
    assert M.row_string(0) == ("(1/(x1 - a))*d2(u) + ((-x1 - 1)/(2*x2))*d1(u)"
                               " + (c - x1)*d1(v) - d1(a)*v")


def test_second_derivative_through_a_rule_prints_as_before():
    G = DiffField(1, params=["c"], func_params=["alpha", "gamma"])
    al, ga, c = G.ratfunc("alpha"), G.ratfunc("gamma"), G.ratfunc("c")
    G.add_rule("alpha", (1,), al * ga + c * al * al)
    dd = al.derive(1).derive(1)
    text = "2*c**2*alpha**3 + 3*c*alpha**2*gamma + alpha*gamma**2 + alpha*d1(gamma)"
    assert G.coeff_str(dd) == text
    assert G.coeff_str(G.one / dd) == f"1/({text})"


def test_hash_survives_a_new_jet_generator():
    G = DiffField(2, func_params=["a"])
    a = G.ratfunc("a")
    before = a * G.ratfunc("x1") + 1
    a.derive(1).derive(2)          # adds the jets d1(a) and d12(a)
    after = G.ratfunc("x1*a + 1")
    assert before == after
    assert hash(before) == hash(after)
    assert len({before, after}) == 1


# A rational constant n/d, drawn with 0, +-1, negative and non-reduced
# values (6/4, 3/-6) among them.
CONSTANTS = st.tuples(st.integers(-12, 12),
                      st.integers(-8, 8).filter(lambda d: d != 0))
ARITH = (operator.add, operator.sub, operator.mul, operator.truediv)


def _constant(nd):
    return F.ratfunc(nd[0]) / F.ratfunc(nd[1])


def _assert_as_sympy_gives_it(got, want):
    """got is the element sympy's fraction arithmetic gives as want: the
    same cancelled numerator and denominator, equal, equally hashed and
    printed."""
    assert (got.frac.numer, got.frac.denom) == (want.numer, want.denom)
    ref = RatFunc(F, want)
    assert got == ref and hash(got) == hash(ref)
    assert F.coeff_str(got) == F.coeff_str(ref)


@settings(max_examples=150, deadline=None)
@given(CONSTANTS, CONSTANTS)
def test_rational_constants_take_the_integer_path_to_sympys_result(p, q):
    a, b = _constant(p), _constant(q)
    _assert_as_sympy_gives_it(a, F.ratfunc(p[0]).frac / F.ratfunc(p[1]).frac)
    for op in ARITH:
        if op is operator.truediv and b.is_zero:
            continue
        got = op(a, b)
        _assert_as_sympy_gives_it(got, op(a.frac, b.frac))
        value = op(Fraction(*p), Fraction(*q))
        assert got.expr == sp.Rational(value.numerator, value.denominator)


@settings(max_examples=60, deadline=None)
@given(CONSTANTS, small_exprs(F), small_exprs(F), st.integers(1, 6))
def test_constant_and_nonconstant_operands_match_sympy(p, e1, e2, m):
    """Also with denominators of content m, as in x1/(6*x2), which the
    constant's numerator can cancel against."""
    a = _constant(p)
    f = (F.ratfunc(f"({e1})/({m}*({e2}))") if F.ratfunc(e2)
         else F.ratfunc(e1))
    for op in ARITH:
        for x, y in ((a, f), (f, a)):
            if op is operator.truediv and y.is_zero:
                continue
            _assert_as_sympy_gives_it(op(x, y), op(x.frac, y.frac))


# A chain of steps on a rational constant: + - * / by a drawn constant,
# or negation.
CHAINS = st.lists(st.one_of(st.tuples(st.sampled_from(ARITH), CONSTANTS),
                            st.just((operator.neg, None))), max_size=6)


def _assert_lazy_constant_is_the_eager_one(got, want):
    """got, a constant held as a Fraction until its fraction is read,
    behaves as RatFunc(F, want), want the FracElement of sympy's
    arithmetic."""
    ref = RatFunc(F, want)
    assert (got.is_zero, got.is_one) == (ref.is_zero, ref.is_one)
    assert got.generators() == ref.generators() == set()
    assert got == ref and ref == got
    assert hash(got) == hash(ref)
    assert got.expr == ref.expr and F.coeff_str(got) == F.coeff_str(ref)
    assert (got.frac.numer, got.frac.denom) == (want.numer, want.denom)
    for i in (1, 2):
        assert got.derive(i) == ref.derive(i) == F.zero
    assert got.nonzero_factors() == ref.nonzero_factors() == []
    assert got.canonical_factor() == ref.canonical_factor()
    assert F.coeff_str(got.canonical_factor()) == F.coeff_str(
        ref.canonical_factor())


@settings(max_examples=150, deadline=None)
@given(CONSTANTS, CHAINS)
def test_lazy_constants_match_sympys_fractions(p, chain):
    K = F._frac
    got, want = F.ratfunc(Fraction(*p)), K(p[0]) / K(p[1])
    _assert_lazy_constant_is_the_eager_one(got, want)
    for op, q in chain:
        if op is operator.neg:
            got, want = -got, -want
        elif op is operator.truediv and q[0] == 0:
            continue
        else:
            got, want = op(got, _constant(q)), op(want, K(q[0]) / K(q[1]))
        _assert_lazy_constant_is_the_eager_one(got, want)


def test_a_lazy_constant_is_built_in_the_ring_of_a_later_jet():
    G = DiffField(2, func_params=["a"])
    c = G.ratfunc(3) / G.ratfunc(-6)
    before = G._frac
    d1a = G.ratfunc("a").derive(1)      # meets the jet d1(a)
    K = G._frac
    assert K is not before
    assert c.frac.field is K
    assert (c.frac.numer, c.frac.denom) == (K.ring(-1), K.ring(2))
    assert (c * d1a).frac == K(-1) / K(2) * d1a.frac
    assert c == G.ratfunc("-1/2") and hash(c) == hash(G.ratfunc("-1/2"))


def test_is_one_on_cancelled_values():
    x1 = F.ratfunc("x1")
    assert (x1 / x1).is_one
    assert (F.ratfunc(2) / F.ratfunc(2)).is_one
    assert (F.ratfunc(-3) / F.ratfunc(-3)).is_one
    assert not F.ratfunc(-1).is_one
    assert not x1.is_one
    assert not F.zero.is_one


def test_a_negative_power_leaves_the_sign_in_the_numerator():
    """sympy writes 1/(-x1 - x2) as a power -1 of -x1 - x2, which
    FracField.from_expr inverts without cancel."""
    f = F.ratfunc("1/(-x1 - x2)")
    assert (str(f.frac.numer), str(f.frac.denom)) == ("-1", "x1 + x2")
    assert f == F.ratfunc("-1/(x1 + x2)")
    assert f * F.one == f and F.one * f == f


# Jets met after the elements were built: d12(a) rewrites through the
# rule and d112(a) is d1 of its value; k is a symbol the field does not
# declare, so normalize makes it a constant generator.
NEW_JETS = [("a", (1, 0)), ("a", (0, 1)), ("b", (1, 0)), ("b", (0, 2)),
            ("b", (1, 1)), ("a", (1, 1)), ("a", (2, 1)), ("k", None)]


def _two_funcparam_field():
    G = DiffField(2, params=["c"], func_params=["a", "b"])
    G.add_rule("a", (1, 1), "c*a*b + x1")
    return G


def _element_texts():
    atoms = st.sampled_from(["x1", "x2", "c", "a", "b", "1", "2", "-1"])
    poly = st.recursive(atoms, lambda ch: st.one_of(
        st.tuples(ch, ch).map(lambda t: f"({t[0]}+{t[1]})"),
        st.tuples(ch, ch).map(lambda t: f"({t[0]}*{t[1]})"),
        ch.map(lambda s: f"(-{s})")), max_leaves=5)
    return st.tuples(poly, poly, poly).map(
        lambda t: f"({t[0]})*({t[1]})/({t[2]})")


def _meet(G, name, mu):
    if name == "k":
        G.ratfunc("k*x1")
        return
    x1, x2 = G.vars
    G.ratfunc(sp.diff(G.symbol(name), *[x1] * mu[0], *[x2] * mu[1]))


def _factors_through_set_ring(f):
    """nonzero_factors as sympy's set_ring computes it: factored over the
    generators the numerator uses, sorted by _gen_key."""
    K, numer = f.field._frac, f.frac.numer
    if numer.is_ground:
        return []
    gens = sorted(_used(numer), key=_gen_key)
    _, flist = numer.set_ring(PolyRing(gens, ZZ)).factor_list()
    flist.sort(key=lambda t: (len(t[0].to_dense()), t[1], t[0].to_dense()))
    rfs = [RatFunc(f.field, K.dtype(fac.set_ring(K.ring))) for fac, _ in flist]
    return [rf.canonical_factor() for rf in rfs if not rf.free_of_parameters()]


def _canonical(f):
    try:
        return f.field.coeff_str(f.canonical_factor())
    except DiffmodError as exc:
        return str(exc)


@settings(max_examples=40, deadline=None)
@given(st.lists(_element_texts(), min_size=1, max_size=3),
       st.permutations(NEW_JETS), st.lists(st.booleans(), min_size=8,
                                          max_size=8))
def test_old_elements_move_to_new_generators_as_set_ring_moves_them(
        texts, jets, reads):
    """Elements built before the field gains jets and a symbol move by
    generator position to what sympy's set_ring gives, one extension at a
    time or several at once, and then behave as if built afterwards."""
    G = _two_funcparam_field()
    olds = []
    for text in texts:
        if G.ratfunc(text.rsplit("/", 1)[1]).is_zero:
            text = text.rsplit("/", 1)[0]
        olds.append((text, G.ratfunc(text)))
    for (name, mu), read in zip(jets, reads):
        _meet(G, name, mu)
        for _, old in olds if read else ():
            before = old._f
            ring = G._frac.ring
            moved = old.frac
            assert moved.field is G._frac
            assert moved.numer == before.numer.set_ring(ring)
            assert moved.denom == before.denom.set_ring(ring)
    for text, old in olds:
        new = G.ratfunc(text)
        assert old == new and hash(old) == hash(new)
        assert old.expr == new.expr
        assert G.coeff_str(old) == G.coeff_str(new)
        for i in (1, 2):
            assert old.derive(i) == new.derive(i)
            assert G.coeff_str(old.derive(i)) == G.coeff_str(new.derive(i))
        factors = [G.coeff_str(p) for p in old.nonzero_factors()]
        assert factors == [G.coeff_str(p) for p in new.nonzero_factors()]
        assert factors == [G.coeff_str(p)
                           for p in _factors_through_set_ring(old)]
        assert _canonical(old) == _canonical(new)


def test_a_generator_the_field_does_not_know_is_not_dropped():
    G = _two_funcparam_field()
    stranger = FracField([sp.Symbol("zz"), *G._frac.symbols], ZZ)
    f = RatFunc(G, stranger.gens[1] / stranger.gens[0])
    with pytest.raises(KeyError):
        f.frac
    with pytest.raises(KeyError):
        _move(stranger.ring.gens[0], {}, G._frac.ring)
