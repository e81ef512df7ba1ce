"""The field's sympy rings without generated monomial code, and the
polynomial fast paths of RatFunc arithmetic and DiffField.derive.

_Ring and _Field stand in for sympy's PolyRing and FracField, so these
tests pin what they rely on of sympy: equality and hashing, the seven
monomial functions, and the rings sympy's own algorithms build from them.
"""

import operator

import sympy as sp
from hypothesis import given, settings, strategies as st
from sympy.core.cache import clear_cache
from sympy.polys.domains import QQ, ZZ
from sympy.polys.fields import FracField
from sympy.polys.monomials import MonomialOps
from sympy.polys.rings import PolyRing

from diffmod import corpus
from diffmod.field import DiffField, _Field, _Ring

MONOMIAL_FUNCTIONS = ("monomial_mul", "monomial_pow", "monomial_mulpow",
                      "monomial_ldiv", "monomial_div", "monomial_lcm",
                      "monomial_gcd")


def _count_builds(monkeypatch):
    builds = []
    build = MonomialOps._build

    def counted(self, code, name):
        builds.append(name)
        return build(self, code, name)

    monkeypatch.setattr(MonomialOps, "_build", counted)
    return builds


def test_a_funcparam_case_compiles_no_monomial_code(monkeypatch):
    """oneform_area_lie meets jets, pivots on parameters and cancels
    through heugcd; sympy's own ring of a fresh size compiles seven."""
    builds = _count_builds(monkeypatch)
    clear_cache()
    results = corpus.run_case("oneform_area_lie")
    assert results and all(r.passed for r in results)
    assert builds == []
    clear_cache()
    PolyRing(sp.symbols("y1:24"), ZZ)
    assert len(builds) == 7


def _symbols(n):
    return sp.symbols(f"y1:{n + 1}")


def test_rings_and_fields_are_sympys_equals():
    syms = (*_symbols(3), sp.Function("a")(*_symbols(2)))
    ours, theirs = _Ring(syms, ZZ), PolyRing(syms, ZZ)
    assert isinstance(ours, PolyRing)
    assert ours == theirs and theirs == ours
    assert hash(ours) == hash(theirs) and len({ours, theirs}) == 1
    assert _Ring(syms[:2], ZZ) != theirs
    field, sympys = _Field(syms, ZZ), FracField(syms, ZZ)
    assert field == sympys and sympys == field
    assert hash(field) == hash(sympys)
    assert type(field.ring) is _Ring and field.ring == theirs
    assert field.gens[3] == sympys.gens[3]


def test_the_constructors_set_what_sympys_set():
    """Every attribute sympy's PolyRing and FracField set per instance,
    but the monomial functions, which _Ring has on its class, and the
    generators by name, which only interactive use reads."""
    syms = _symbols(4)
    theirs = vars(PolyRing(syms, ZZ))
    assert {k for k in theirs if k.startswith("monomial_")} == set(
        MONOMIAL_FUNCTIONS)
    names = {str(g) for g in syms}
    ours = _Ring(syms, ZZ)
    assert set(vars(ours)) == {k for k in theirs
                               if not k.startswith("monomial_")} - names
    for k in ("_hash_tuple", "symbols", "ngens", "domain", "order",
              "zero_monom", "_one", "gens"):
        assert getattr(ours, k) == theirs[k]
    field = set(vars(FracField(syms, ZZ)))
    assert set(vars(_Field(syms, ZZ))) == field - names


def test_clone_and_drop_keep_the_class():
    """Also after sympy's equal ring cloned to the same arguments: sympy's
    clone cache tells the two classes apart."""
    PolyRing(_symbols(3), ZZ).clone(domain=QQ)
    ring = _Ring(_symbols(3), ZZ)
    for other in (ring.clone(domain=QQ), ring.clone(symbols=_symbols(5)),
                  ring.drop(ring.gens[1]), ring[1:]):
        assert type(other) is _Ring
    assert ring.clone(domain=QQ) == PolyRing(_symbols(3), QQ)


def _monomial(n):
    return st.tuples(*[st.integers(0, 3)] * n)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda n: st.tuples(_monomial(n), _monomial(n), st.integers(0, 4))))
def test_monomial_functions_are_sympys(args):
    """The compiled functions of a sympy ring of the same size give the
    same results; division gives None exactly when b does not divide a."""
    a, b, k = args
    theirs = PolyRing(_symbols(len(a)), ZZ) if a else None
    ours = _Ring(_symbols(len(a)), ZZ)
    assert ours.monomial_div(a, b) == (
        None if any(x < y for x, y in zip(a, b))
        else tuple(x - y for x, y in zip(a, b)))
    calls = {"monomial_pow": (a, k), "monomial_mulpow": (a, b, k)}
    for name in MONOMIAL_FUNCTIONS:
        got = getattr(ours, name)(*calls.get(name, (a, b)))
        assert got is None or type(got) is tuple
        if theirs is not None:
            assert got == getattr(theirs, name)(*calls.get(name, (a, b)))
        else:
            assert got == ()


def _polys(n):
    terms = st.dictionaries(_monomial(n), st.integers(-6, 6).filter(bool),
                            min_size=1, max_size=5)
    return st.tuples(terms, terms, st.integers(0, 3))


@settings(max_examples=120, deadline=None)
@given(st.integers(1, 6).flatmap(lambda n: st.tuples(st.just(n), _polys(n))))
def test_polynomial_algorithms_give_sympys_results(args):
    """Products, powers, division, gcds and derivatives of nonzero
    polynomials in a _Ring are those of sympy's ring over the same
    symbols (moved by set_ring), and stay in the _Ring."""
    n, (p, q, k) = args
    ours, theirs = _Ring(_symbols(n), ZZ), PolyRing(_symbols(n), ZZ)
    f, g = ours.from_dict(p), ours.from_dict(q)
    sf, sg = f.set_ring(theirs), g.set_ring(theirs)
    pairs = [(f * g, sf * sg), (f**k, sf**k), (f.gcd(g), sf.gcd(sg)),
             (f.lcm(g), sf.lcm(sg))]
    pairs += [(f.div(g), sf.div(sg)), (f.rem(g), sf.rem(sg)),
              (f.cancel(g), sf.cancel(sg))]
    pairs += [(f.diff(i), sf.diff(i)) for i in range(n)]
    for got, want in pairs:
        got = got if isinstance(got, tuple) else (got,)
        want = want if isinstance(want, tuple) else (want,)
        assert [dict(x) for x in got] == [dict(x) for x in want]
        assert all(type(x.ring) is _Ring for x in got)


# The field of oneform_area_lie with one more funcparam whose rule has a
# denominator, so that derive meets polynomial steps and fractional ones.
def _rule_field():
    G = DiffField(2, params=["c"],
                  func_params=["alpha1", "alpha2", "beta", "gamma"])
    G.add_rule("alpha2", (1, 0), "diff(alpha1, x2) + c*beta")
    G.add_rule("gamma", (0, 1), "gamma/(x1 + c)")
    return G


def _element_texts():
    atoms = st.sampled_from(["x1", "x2", "c", "alpha1", "alpha2", "beta",
                             "gamma", "diff(alpha1, x1)", "diff(beta, x2)",
                             "1", "2", "-1", "3"])
    poly = st.recursive(atoms, lambda ch: st.one_of(
        st.tuples(ch, ch).map(lambda t: f"({t[0]}+{t[1]})"),
        st.tuples(ch, ch).map(lambda t: f"({t[0]}*{t[1]})"),
        ch.map(lambda s: f"(-{s})")), max_leaves=5)
    # numerator and denominator; a third of the denominators are 1
    return st.tuples(poly, st.one_of(st.just("1"), st.just("2"), poly))


def _element(G, text):
    num, den = text
    if den != "1" and not G.ratfunc(den).is_zero:
        return G.ratfunc(f"({num})/({den})")
    return G.ratfunc(num)


def _derive_by_quotient_rule(G, i, f):
    """d/dx_i of f with every sum and product in sympy's FracElement
    arithmetic, each cancelled: the reference the fast path must meet."""
    steps = {}
    for g in f.generators():
        if g == G.vars[i - 1]:
            steps[g] = G.one
        elif g in G._jet_of:
            name, mu = G._jet_of[g]
            steps[g] = G._jet(name, mu[:i - 1] + (mu[i - 1] + 1,) + mu[i:])
    K = G._frac
    num, den = f.frac.numer, f.frac.denom

    def dpoly(p):
        return sum((s.frac * p.diff(G._index[g]) for g, s in steps.items()),
                   K.zero)

    if den.is_ground:
        return dpoly(num) / den
    return (dpoly(num) * den - dpoly(den) * num) / den**2


def _pair(frac):
    return frac.numer, frac.denom


@settings(max_examples=80, deadline=None)
@given(_element_texts(), _element_texts())
def test_fast_paths_are_sympys_arithmetic(t1, t2):
    G = _rule_field()
    a, b = _element(G, t1), _element(G, t2)
    for i in (1, 2):
        for x in (a, b):
            want = _derive_by_quotient_rule(G, i, x)
            assert _pair(x.derive(i).frac) == _pair(want)
    for op in (operator.add, operator.sub, operator.mul):
        want = op(a.frac, b.frac)
        assert _pair(op(a, b).frac) == _pair(want)


def test_both_kinds_of_steps_are_met():
    """The rule field reaches the polynomial path and the fallback."""
    G = _rule_field()
    gamma = G.ratfunc("gamma")
    assert G._jet("gamma", (0, 1)).frac.denom != 1
    assert G._jet("alpha2", (1, 0)).frac.denom == 1
    for f in (gamma, G.ratfunc("alpha2*x1/(x2 + c)")):
        for i in (1, 2):
            assert _pair(f.derive(i).frac) == _pair(
                _derive_by_quotient_rule(G, i, f))
