"""Exact arithmetic in a differential field K = Q(params)(x1..xn).

The field has n commuting derivations d/dx_i, named constants and named
function parameters a(x1..xn).  The jets a, d1(a), d12(a), ... of a
funcparam are generators met on demand, d/dx_i is the total derivative
d/dx_i + sum_mu (df/da_mu) a_{mu+1_i}, and a rewrite rule such as
d1(alpha) = alpha*gamma + c*alpha^2 replaces a jet by its right side.

An element is one cancelled fraction of sparse integer polynomials in the
generators (a sympy FracElement): coprime numerator and denominator, the
denominator's leading coefficient positive, exactly as sympy's cancel
leaves them.  That is the canonical form of a value, so equality and
the zero test are exact; `RatFunc.expr` is a sympy view for printing.
A rational constant also carries its value as a reduced Fraction with a
positive denominator, which is the same cancelled fraction.  A constant
made from a Fraction holds only that until its FracElement is first
read, and then builds it in the field's current generators.  Arithmetic
on two rational constants runs on Fractions, and a product with a
rational constant needs only integer gcds.  Pivot inversions go through
a Session, which records the nonzero provisos a computation consumed.

Meeting a new jet or symbol makes a new FracField over the grown,
sorted generator set.  An element of an older one moves over when it is
next read, by generator position: each old generator is the very object
the field indexes, so the move is one dictionary lookup per generator
and a remap of exponent tuples, with no sympy equality test.  The rings
carry generic monomial functions (_Ring), so building one compiles no
code, whatever its number of generators.

Sums, differences and products of two polynomials (denominator 1) skip
sympy's cancel, which could remove nothing, and so does the derivative
of a polynomial when each jet steps up to a polynomial; the derivative of
a fraction is then one cancel of the quotient rule.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction

import sympy as sp
from sympy.polys.domains import ZZ
from sympy.polys.fields import FracElement, FracField
from sympy.polys.orderings import lex
from sympy.polys.polyerrors import GeneratorsError
from sympy.polys.polyoptions import Domain as DomainOpt, Order as OrderOpt
from sympy.polys.polyutils import _sort_gens
from sympy.polys.rings import PolyElement, PolyRing

from .ops import mono_str


class DiffmodError(Exception):
    pass


class DivisionByZero(DiffmodError, ZeroDivisionError):
    pass


class PivotNotInvertible(DiffmodError):
    """A pivot could not be inverted without an unresolvable assumption."""

    def __init__(self, pivot, message=None):
        self.pivot = pivot
        super().__init__(message or f"pivot not invertible: {pivot}")


class CaseSplitRequired(DiffmodError):
    """A pivot vanishes or not depending on a declared case-split parameter."""

    def __init__(self, param, pivot):
        self.param = param
        self.pivot = pivot
        super().__init__(
            f"cannot decide vanishing of pivot {pivot}: "
            f"parameter {param} needs a case decision"
        )


class ResourceLimit(DiffmodError):
    pass


# Nesting bound on rule evaluations while rewriting one jet; a cycle among
# the rules (rel d1(a) = d1(b); rel d1(b) = d1(a);) runs into it.
MAX_REWRITE_DEPTH = 64


def _names(seq):
    return tuple(s if isinstance(s, str) else str(s) for s in seq)


def _gen_key(g):
    """Generator order: jets, then funcparams, then symbols, each in sympy's
    sort order.  Factor order and the sign of a canonical factor follow it,
    so they do not depend on the hash seed."""
    return (not isinstance(g, sp.Derivative), not isinstance(g, sp.Function),
            sp.default_sort_key(g))


def _used(p):
    """Generators occurring in a polynomial."""
    return {s for s, d in zip(p.ring.symbols, p.degrees()) if d > 0}


def _ground(p):
    """The integer a constant polynomial stands for; None for any other."""
    if not p:
        return 0
    return p.get(p.ring.zero_monom) if len(p) == 1 else None


def _rational(f):
    """The value of a constant fraction as a Fraction; None for any other."""
    n, d = _ground(f.numer), _ground(f.denom)
    return None if n is None or d is None else Fraction(int(n), int(d))


def _move(p, to, ring):
    """p in ring, generator k of p's ring becoming generator to[k]: an
    integer position map, so no two generators are compared.  `to` maps
    every generator p uses; a dict that misses one raises KeyError."""
    zero = [0] * ring.ngens
    terms = {}
    for monom, coeff in p.iterterms():
        m = zero.copy()
        for k, e in enumerate(monom):
            if e:
                m[to[k]] = e
        terms[tuple(m)] = coeff
    return ring.dtype(terms)


def _cancel_lc(p):
    """Leading coefficient of p in the lex order sympy's cancel would use,
    whose generator order is not the field's."""
    pos = {p.ring.symbols[k]: k for k, d in enumerate(p.degrees()) if d > 0}
    order = [pos[g] for g in _sort_gens(list(pos))]
    return max(p.iterterms(), key=lambda t: [t[0][k] for k in order])[1]


class _Ring(PolyRing):
    """sympy's PolyRing with generic monomial arithmetic in place of the
    seven functions sympy compiles for every generator count.  It is
    equal to, and hashes as, PolyRing over the same symbols, and sympy's
    clone and drop build rings of this class, so the gcds and factorings
    under a field compile nothing either."""

    monomial_mul = staticmethod(lambda a, b: tuple(map(operator.add, a, b)))
    monomial_ldiv = staticmethod(lambda a, b: tuple(map(operator.sub, a, b)))
    monomial_lcm = staticmethod(lambda a, b: tuple(map(max, a, b)))
    monomial_gcd = staticmethod(lambda a, b: tuple(map(min, a, b)))

    @staticmethod
    def monomial_pow(a, k):
        return tuple(map(operator.mul, a, itertools.repeat(k)))

    @staticmethod
    def monomial_mulpow(a, b, k):
        return tuple(map(operator.add, a,
                         map(operator.mul, b, itertools.repeat(k))))

    @staticmethod
    def monomial_div(a, b):
        """a / b, or None when b does not divide a."""
        c = tuple(map(operator.sub, a, b))
        return None if c and min(c) < 0 else c

    def __new__(cls, symbols, domain, order=lex):
        # PolyRing.__new__ less its MonomialOps code generation
        symbols = tuple(symbols)
        domain = DomainOpt.preprocess(domain)
        order = OrderOpt.preprocess(order)
        if domain.is_Composite and set(symbols) & set(domain.symbols):
            raise GeneratorsError("polynomial ring and its ground domain "
                                  "share generators")
        obj = object.__new__(cls)
        obj.symbols, obj.ngens = symbols, len(symbols)
        obj.domain, obj.order = domain, order
        obj._hash_tuple = ("PolyRing", symbols, obj.ngens, domain, order)
        obj._hash = hash(obj._hash_tuple)
        obj.dtype = PolyElement(obj, ()).new
        obj.zero_monom = (0,) * obj.ngens
        obj.gens = obj._gens()
        obj._gens_set = set(obj.gens)
        obj._one = [(obj.zero_monom, domain.one)]
        obj.leading_expv = (max if order is lex
                            else lambda f: max(f, key=order))
        return obj


class _Field(FracField):
    """sympy's FracField over a _Ring; equal to, and hashed as, FracField
    over the same symbols."""

    def __new__(cls, symbols, domain, order=lex):
        ring = _Ring(symbols, domain, order)
        obj = object.__new__(cls)
        obj.ring, obj.symbols, obj.ngens = ring, ring.symbols, ring.ngens
        obj.domain, obj.order = ring.domain, ring.order
        obj._hash_tuple = ("FracField",) + ring._hash_tuple[1:]
        obj._hash = hash(obj._hash_tuple)
        obj.dtype = FracElement(obj, ring.zero).raw_new
        obj.zero = obj.dtype(ring.zero)
        obj.one = obj.dtype(ring.one)
        obj.gens = obj._gens()
        return obj


class DiffField:
    """The differential field Q(params)(x1..xn) with formal funcparams."""

    def __init__(self, nvars=None, params=(), func_params=(), var_names=None):
        if var_names is not None:
            var_names = _names(var_names)
            nvars = len(var_names)
        else:
            if nvars is None:
                raise ValueError("need nvars or var_names")
            var_names = tuple(f"x{i}" for i in range(1, nvars + 1))
        params = _names(params)
        func_params = _names(func_params)
        seen = set()
        for name in itertools.chain(var_names, params, func_params):
            if name in seen:
                raise ValueError(f"duplicate name {name!r}")
            seen.add(name)
        self.n = nvars
        self.var_names = var_names
        self.param_names = params
        self.func_param_names = func_params
        self.vars = tuple(sp.Symbol(v) for v in var_names)
        self.params = tuple(sp.Symbol(p) for p in params)
        self.funcs = {name: sp.Function(name)(*self.vars) for name in func_params}
        # rewrite rules: (func name, base multi-index) -> sympy expr
        self.rules = {}
        self._jets = {}       # (func name, multi-index) -> RatFunc value
        self._jet_of = {}     # jet generator -> (func name, multi-index)
        self._depth = 0
        self._frac = _Field((), ZZ)
        self._extend(self.vars + self.params + tuple(self.funcs.values()))

    # -- construction -------------------------------------------------

    def __repr__(self):
        bits = [f"vars={','.join(self.var_names)}"]
        if self.param_names:
            bits.append(f"params={','.join(self.param_names)}")
        if self.func_param_names:
            bits.append(f"funcparams={','.join(self.func_param_names)}")
        return f"DiffField({'; '.join(bits)})"

    def symbol(self, name):
        if name in self.var_names:
            return self.vars[self.var_names.index(name)]
        if name in self.param_names:
            return self.params[self.param_names.index(name)]
        if name in self.func_param_names:
            return self.funcs[name]
        raise KeyError(name)

    @property
    def zero(self):
        return self._constant(0)

    @property
    def one(self):
        return self._constant(1)

    def ratfunc(self, value):
        """Coerce an int/Fraction/str/sympy expression into the field."""
        if isinstance(value, RatFunc):
            if value.field is not self:
                return RatFunc(self, value.expr)
            return value
        if isinstance(value, int):
            return self._constant(value)
        if isinstance(value, str):
            local = {name: self.symbol(name) for name in
                     itertools.chain(self.var_names, self.param_names,
                                     self.func_param_names)}
            value = sp.sympify(value, locals=local)
        return RatFunc(self, value)

    def _constant(self, q):
        """The element of an int or Fraction; its polynomials are built
        when RatFunc.frac is first read."""
        return RatFunc(self, q if isinstance(q, Fraction) else Fraction(q))

    def add_rule(self, func_name, base_index, rhs):
        """Declare a directed rewrite d^base(func) -> rhs.

        Any higher derivative of the funcparam rewrites through the rule,
        so the relation holds identically in all computations.  Declare
        rules before making elements that hold the jets they rewrite.
        """
        if func_name not in self.func_param_names:
            raise KeyError(func_name)
        base_index = tuple(int(b) for b in base_index)
        if len(base_index) != self.n or sum(base_index) < 1:
            raise ValueError("rule must rewrite a genuine derivative")
        self.rules[(func_name, base_index)] = self.ratfunc(rhs).expr
        self._jets.clear()

    # -- generators, jets and the derivation -----------------------------

    def _extend(self, gens):
        """Add generators.  The old ones stay the same objects, so an
        element of the old field moves over lazily, by position (see
        RatFunc.frac)."""
        syms = sorted(set(self._frac.symbols).union(gens), key=_gen_key)
        self._frac = _Field(syms, ZZ)
        self._index = {g: k for k, g in enumerate(syms)}

    def _deriv_index(self, atom):
        """Multi-index of a Derivative atom of one of our funcparams."""
        counts = {}
        for var, cnt in atom.variable_count:
            counts[var] = counts.get(var, 0) + int(cnt)
        return tuple(counts.get(v, 0) for v in self.vars)

    def _jet_symbol(self, name, mu):
        """The sympy atom of d^mu(name): the funcparam or a Derivative."""
        sym = self.funcs[name]
        if any(mu):
            sym = sp.Derivative(sym, *[(v, k) for v, k in zip(self.vars, mu)
                                       if k], evaluate=False)
        return sym

    def _jet(self, name, mu):
        """The jet d^mu(name): a generator, or its value through the rules."""
        value = self._jets.get((name, mu))
        if value is not None:
            return value
        base = next((b for (f, b) in self.rules if f == name
                     and all(m >= k for m, k in zip(mu, b))), None)
        if base is None:
            sym = self._jet_symbol(name, mu)
            self._jet_of[sym] = (name, mu)
            if sym not in self._index:
                self._extend([sym])
            value = RatFunc(self, self._frac.gens[self._index[sym]])
        elif base == mu:
            if self._depth >= MAX_REWRITE_DEPTH:
                jet = self.coeff_str(self._jet_symbol(name, mu))
                raise ResourceLimit(f"rewriting {jet} through "
                                    "the relations did not terminate")
            self._depth += 1
            try:
                value = RatFunc(self, self.rules[(name, mu)])
            finally:
                self._depth -= 1
        else:
            # the last variable is differentiated last, as in d^mu
            i = max(k for k in range(self.n) if mu[k] > base[k])
            value = self._jet(name, mu[:i] + (mu[i] - 1,) + mu[i + 1:])
            value = value.derive(i + 1)
        self._jets[(name, mu)] = value
        return value

    def derive(self, i, f):
        """Exact partial derivative d/dx_i (1-based index): the total
        derivative, which moves each jet generator one step up."""
        if not 1 <= i <= self.n:
            raise IndexError(f"derivation index {i} out of range 1..{self.n}")
        f = self.ratfunc(f)
        if f._q is not None:
            return self.zero
        steps = {}
        for g in f.generators():
            if g == self.vars[i - 1]:
                steps[g] = self.one
            elif g in self._jet_of:
                name, mu = self._jet_of[g]
                up = mu[:i - 1] + (mu[i - 1] + 1,) + mu[i:]
                steps[g] = self._jet(name, up)
        if not steps:
            return self.zero

        # a new jet may have extended the generators: read f after it
        K = self._frac
        num, den = f.frac.numer, f.frac.denom
        steps = [(s.frac, self._index[g]) for g, s in steps.items()]
        if all(s.denom == 1 for s, _ in steps):
            # polynomial steps: the derivative of a polynomial needs no
            # cancel, and of a fraction one cancel of the quotient rule
            def dpoly(p):
                return sum((s.numer * p.diff(k) for s, k in steps),
                           K.ring.zero)
            if den == 1:
                return RatFunc(self, K.raw_new(dpoly(num)))
            return RatFunc(self, K.new(dpoly(num) * den - dpoly(den) * num,
                                       den**2))

        def dfrac(p):
            return sum((s * p.diff(k) for s, k in steps), K.zero)

        if den.is_ground:
            return RatFunc(self, dfrac(num) / den)
        return RatFunc(self, (dfrac(num) * den - dfrac(den) * num) / den**2)

    def normalize(self, expr):
        """The element a sympy expression denotes: the one way into the field.

        Funcparam derivatives are jets and go through the rules; a symbol
        the field does not declare becomes a constant generator.
        """
        expr = sp.sympify(expr)
        new = [s for s in expr.free_symbols if s not in self._index]
        if new:
            self._extend(new)
        jets = {}
        for atom in expr.atoms(sp.Function, sp.Derivative):
            base = atom.expr if isinstance(atom, sp.Derivative) else atom
            if self.funcs.get(str(base.func)) != base:
                raise DiffmodError(f"{atom} is not an element of {self!r}")
            mu = self._deriv_index(atom) if base is not atom else (0,) * self.n
            jets[atom] = self._jet(str(base.func), mu).expr
        f = self._frac.from_expr(expr.xreplace(jets))
        if f.denom.LC < 0:
            # from_expr inverts a negative power without cancel, so
            # 1/(-x1 - x2) keeps the sign below; cancel would move it up
            f = f.raw_new(-f.numer, -f.denom)
        return f

    def coeff_str(self, expr):
        """Canonical text for a coefficient, funcparam derivatives as d1(a)."""
        if isinstance(expr, RatFunc):
            expr = expr.expr
        s = sp.sstr(expr, order="lex")
        for atom in sorted(expr.atoms(sp.Derivative), key=sp.default_sort_key,
                           reverse=True):
            base = atom.expr
            if base.is_Function and str(base.func) in self.func_param_names:
                dtxt = mono_str(self._deriv_index(atom))
                s = s.replace(sp.sstr(atom), f"{dtxt}({base.func})")
        for name in self.func_param_names:
            s = s.replace(sp.sstr(self.funcs[name]), name)
        return s

    def specialize(self, values):
        """New field with parameters substituted (e.g. the case c = 0)."""
        mapping = {self.symbol(k): sp.sympify(v) for k, v in values.items()}
        kept = tuple(p for p in self.param_names if p not in values)
        new = DiffField(var_names=self.var_names, params=kept,
                        func_params=self.func_param_names)
        for (fname, base), rhs in self.rules.items():
            new.add_rule(fname, base, rhs.xreplace(mapping))
        return new, mapping


class RatFunc:
    """Element of the field: one cancelled fraction of integer polynomials.

    _q is the value as a Fraction when the element is a rational constant
    and None when it is not.  A constant made from a Fraction holds only
    _q until its fraction is first read.
    """

    __slots__ = ("field", "_f", "_q", "_expr")

    def __init__(self, field, value):
        self.field = field
        if isinstance(value, Fraction):
            self._f, self._q = None, value
        else:
            self._f = (value if isinstance(value, FracElement)
                       else field.normalize(value))
            self._q = _rational(self._f)
        self._expr = None

    @property
    def frac(self):
        """The fraction, moved into the field's current generators.  The
        old generators are the very objects the field indexes, so each
        finds its new position by one dictionary lookup.  A constant's is
        built here, as cancel would build it: the reduced Fraction's two
        integers, the denominator positive."""
        f, K = self._f, self.field._frac
        if f is None:
            ring, q = K.ring, self._q
            f = self._f = K.dtype(ring.ground_new(q.numerator),
                                  ring.ground_new(q.denominator))
        elif f.field is not K:
            index = self.field._index
            to = [index[g] for g in f.field.symbols]
            f = self._f = K.dtype(_move(f.numer, to, K.ring),
                                  _move(f.denom, to, K.ring))
        return f

    @property
    def expr(self):
        """sympy view of the element, signed as sympy's cancel signs it."""
        if self._expr is None:
            f = self.frac
            num, den = f.numer, f.denom
            if len(den) > 1 and _cancel_lc(den) < 0:
                num, den = -num, -den
            self._expr = num.as_expr() / den.as_expr()
        return self._expr

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return self._q == 0

    @property
    def is_one(self):
        return self._q == 1

    def generators(self):
        """The generators (sympy symbols and jets) the element involves."""
        if self._q is not None:
            return set()
        return _used(self._f.numer) | _used(self._f.denom)

    def free_of_parameters(self):
        """True when the element lies in Q(x1..xn) only."""
        return self.generators() <= set(self.field.vars)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc) and other.field is self.field:
            return other
        return self.field.ratfunc(other)

    def _apply(self, op, other):
        """self op other, not both rational constants (the operators meet
        those as Fractions).  A product with one constant needs only
        integer gcds (see _scaled), not sympy's polynomial gcd."""
        a, b = self._q, other._q
        if op is operator.mul and a is not None:
            return other._scaled(a)
        if op is operator.mul and b is not None:
            return self._scaled(b)
        if op is operator.truediv and b is not None:
            return self._scaled(1 / b)
        f, g = self.frac, other.frac
        if op is not operator.truediv and f.denom == 1 and g.denom == 1:
            # cancel(p, 1) is p: polynomials add and multiply as they are
            return RatFunc(self.field, f.raw_new(op(f.numer, g.numer)))
        return RatFunc(self.field, op(f, g))

    def _scaled(self, q):
        """self * q for a nonzero Fraction q = a/b.  The numerator p and
        denominator r of self are coprime, so a*p and b*r share only
        gcd(a, content r) * gcd(b, content p), and r keeps its positive
        leading coefficient: the fraction cancel would give."""
        p, r = self.frac.numer, self.frac.denom
        g = math.gcd(q.numerator, int(r.content()))
        h = math.gcd(q.denominator, int(p.content()))
        p = p.mul_ground(q.numerator // g).quo_ground(h)
        r = r.mul_ground(q.denominator // h).quo_ground(g)
        return RatFunc(self.field, self.field._frac.dtype(p, r))

    def __add__(self, other):
        if (self._q is not None and isinstance(other, RatFunc)
                and other._q is not None):
            return RatFunc(self.field, self._q + other._q)
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return self._apply(operator.add, other)

    __radd__ = __add__

    def __neg__(self):
        if self._q is not None:
            return self.field._constant(-self._q)
        return RatFunc(self.field, -self._f)

    def __sub__(self, other):
        return self + -self._coerce(other)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        if (self._q is not None and isinstance(other, RatFunc)
                and other._q is not None):
            return RatFunc(self.field, self._q * other._q)
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return self.field.zero
        if self.is_one:
            return other
        if other.is_one:
            return self
        return self._apply(operator.mul, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise DivisionByZero("division by zero in coefficient field")
        if self._q is not None and other._q is not None:
            return RatFunc(self.field, self._q / other._q)
        if other.is_one:
            return self
        return self._apply(operator.truediv, other)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return self.field.one / self

    def derive(self, i):
        return self.field.derive(i, self)

    # -- structure ------------------------------------------------------

    def nonzero_factors(self):
        """Irreducible numerator factors involving params or funcparams.

        These are exactly the facts a pivot inversion silently relies on;
        factors lying in Q(x) are honest units of the field and dropped.
        They come in sympy's factor_list order over the generators the
        numerator involves.
        """
        K, numer = self.field._frac, self.frac.numer
        if numer.is_ground:
            return []
        # the field's generators are sorted by _gen_key, so the used ones
        # keep their relative order in the factoring ring
        used = [k for k, d in enumerate(numer.degrees()) if d > 0]
        ring = _Ring([K.symbols[k] for k in used], ZZ)
        _, flist = _move(numer, {k: j for j, k in enumerate(used)},
                         ring).factor_list()
        flist.sort(key=lambda t: (len(t[0].to_dense()), t[1], t[0].to_dense()))
        factors = []
        for fac, _mult in flist:
            rf = RatFunc(self.field, K.dtype(_move(fac, used, K.ring)))
            if not rf.free_of_parameters():
                factors.append(rf.canonical_factor())
        return factors

    def canonical_factor(self):
        """The numerator scaled to a canonical representative: primitive,
        with a positive leading coefficient in the generator order.  The
        denominator must be a unit of Q(x1..xn)."""
        if not _used(self.frac.denom) <= set(self.field.vars):
            raise DiffmodError(f"{self.field.coeff_str(self)} divides by a "
                               "parameter or funcparam")
        numer = self.frac.numer
        if numer.is_ground:
            return self.field.one
        _, prim = numer.primitive()
        if prim.LC < 0:
            prim = -prim
        return RatFunc(self.field, self.field._frac.dtype(prim))

    def __eq__(self, other):
        try:
            other = self._coerce(other)
        except (TypeError, ValueError, DiffmodError):
            return NotImplemented
        if self._q is not None or other._q is not None:
            return self._q == other._q
        return self.frac == other.frac

    def __hash__(self):
        return hash(self.expr)

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return sp.sstr(self.expr, order="lex")


def is_zero_under(f, session=None):
    """Zero test with proviso reporting.

    Returns (flag, provisos): flag is True iff f is identically zero as a
    rational function.  A nonzero f that depends on parameters is only a
    unit of the field modulo the assumption that its parameter factors do
    not vanish; those factors are returned (and recorded on the session).
    """
    if not isinstance(f, RatFunc):
        raise TypeError("is_zero_under expects a RatFunc")
    if f.is_zero:
        return True, []
    provisos = f.nonzero_factors()
    if session is not None:
        provisos = [session.note_pivot_factor(p) for p in provisos]
        provisos = [p for p in provisos if p is not None]
    return False, provisos


class Session:
    """Assumption context for one computation.

    Holds the declared-nonzero facts, the parameters that demand an
    explicit case decision, and the append-only proviso log.  Values are
    immutable; sessions are cheap and never shared between branches.
    """

    def __init__(self, field, assume_nonzero=(), split_params=(), case=None):
        self.field = field
        self.assumed = [field.ratfunc(a).canonical_factor()
                         for a in assume_nonzero]
        self.split_params = frozenset(_names(split_params))
        self.case = dict(case or {})
        self.provisos = []

    def copy(self):
        s = Session(self.field, split_params=self.split_params, case=self.case)
        s.assumed = list(self.assumed)
        s.provisos = list(self.provisos)
        return s

    def note_pivot_factor(self, factor):
        """Record one parameter-dependent pivot factor.

        Returns the factor if it became a proviso, None when an existing
        assumption already covers it.  Raises CaseSplitRequired when the
        factor is a declared split parameter with no case decision.
        """
        if factor.canonical_factor() in self.assumed:
            return None
        undecided = {str(g) for g in factor.generators()} & self.split_params
        if undecided:
            raise CaseSplitRequired(sorted(undecided)[0], factor)
        if factor not in self.provisos:
            self.provisos.append(factor)
        return factor

    def check_pivot(self, coeff):
        """Validate inversion of a nonzero pivot, logging provisos."""
        if coeff.is_zero:
            raise PivotNotInvertible(coeff, "attempt to invert zero pivot")
        if coeff.free_of_parameters():
            return
        for factor in coeff.nonzero_factors():
            self.note_pivot_factor(factor)
