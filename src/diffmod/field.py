"""Exact arithmetic in a differential field K = Q(params)(x1..xn).

The field carries n commuting derivations d/dx_i, a list of named
constants (killed by every derivation), and a list of named function
parameters a(x1..xn) whose derivatives stay formal symbols unless a
rewrite rule replaces them (e.g. the structure relation
d1(alpha) = alpha*gamma + c*alpha^2 of a geometric object).

Every element is kept in cancelled p/q normal form, so equality and the
zero test are decidable.  Pivot inversions go through a Session, which
records the nonzero provisos a computation consumed.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

import sympy as sp


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


def _names(seq):
    return tuple(s if isinstance(s, str) else str(s) for s in seq)


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
        self._rule_cache = {}

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
        return RatFunc(self, sp.S.Zero)

    @property
    def one(self):
        return RatFunc(self, sp.S.One)

    def ratfunc(self, value):
        """Coerce an int/Fraction/str/sympy expression into the field."""
        if isinstance(value, RatFunc):
            if value.field is not self:
                return RatFunc(self, value.expr)
            return value
        if isinstance(value, Fraction):
            return RatFunc(self, sp.Rational(value.numerator, value.denominator))
        if isinstance(value, str):
            local = {name: self.symbol(name) for name in
                     itertools.chain(self.var_names, self.param_names,
                                     self.func_param_names)}
            return RatFunc(self, sp.sympify(value, locals=local))
        return RatFunc(self, sp.sympify(value))

    def add_rule(self, func_name, base_index, rhs):
        """Declare a directed rewrite d^base(func) -> rhs.

        Any higher derivative of the funcparam rewrites through the rule,
        so the relation holds identically in all computations.
        """
        if func_name not in self.func_param_names:
            raise KeyError(func_name)
        base_index = tuple(int(b) for b in base_index)
        if len(base_index) != self.n or sum(base_index) < 1:
            raise ValueError("rule must rewrite a genuine derivative")
        rhs = self.ratfunc(rhs)
        self.rules[(func_name, base_index)] = rhs.expr
        self._rule_cache.clear()

    # -- derivatives and rewriting -------------------------------------

    def _deriv_index(self, atom):
        """Multi-index of a Derivative atom of one of our funcparams."""
        counts = {}
        for var, cnt in atom.variable_count:
            counts[var] = counts.get(var, 0) + int(cnt)
        return tuple(counts.get(v, 0) for v in self.vars)

    def _rule_value(self, func_name, index):
        key = (func_name, index)
        if key in self._rule_cache:
            return self._rule_cache[key]
        value = None
        for (fname, base), rhs in self.rules.items():
            if fname != func_name:
                continue
            if all(i >= b for i, b in zip(index, base)):
                extra = tuple(i - b for i, b in zip(index, base))
                value = rhs
                for i, k in enumerate(extra):
                    for _ in range(k):
                        value = sp.diff(value, self.vars[i])
                value = self.reduce_derivatives(value)
                break
        self._rule_cache[key] = value
        return value

    def reduce_derivatives(self, expr):
        """Rewrite funcparam derivatives through the declared rules."""
        if not self.rules:
            return expr
        for _ in range(64):
            subs = {}
            for atom in expr.atoms(sp.Derivative):
                base = atom.expr
                if not (base.is_Function and str(base.func) in self.func_param_names):
                    continue
                value = self._rule_value(str(base.func), self._deriv_index(atom))
                if value is not None:
                    subs[atom] = value
            if not subs:
                return expr
            expr = expr.xreplace(subs)
        raise ResourceLimit("derivative rewrite did not terminate")

    def normalize(self, expr):
        expr = self.reduce_derivatives(expr)
        return sp.cancel(sp.together(expr))

    def derive(self, i, f):
        """Exact partial derivative d/dx_i (1-based index)."""
        if not 1 <= i <= self.n:
            raise IndexError(f"derivation index {i} out of range 1..{self.n}")
        f = self.ratfunc(f)
        return RatFunc(self, self.normalize(sp.diff(f.expr, self.vars[i - 1])))

    def coeff_str(self, expr):
        """Canonical text for a coefficient, funcparam derivatives as d1(a)."""
        if isinstance(expr, RatFunc):
            expr = expr.expr
        s = sp.sstr(expr, order="lex")
        for atom in sorted(expr.atoms(sp.Derivative), key=sp.default_sort_key,
                           reverse=True):
            base = atom.expr
            if base.is_Function and str(base.func) in self.func_param_names:
                mu = self._deriv_index(atom)
                digits = []
                for i, k in enumerate(mu, start=1):
                    digits.extend([i] * k)
                if self.n <= 9:
                    dtxt = "d" + "".join(str(i) for i in digits)
                else:
                    dtxt = "d(" + ",".join(str(i) for i in digits) + ")"
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
            new.rules[(fname, base)] = sp.cancel(rhs.xreplace(mapping))
        new._rule_cache.clear()
        return new, mapping


def _poly_gens(expr):
    """Polynomial generators of a coefficient: its funcparam derivatives,
    then its funcparams, then its symbols, each group in sympy's sort
    order.  Factor order and the sign of a canonical factor follow this
    order, so they do not depend on the hash seed."""
    atoms = expr.free_symbols | expr.atoms(sp.Function, sp.Derivative)
    return sorted(atoms, key=lambda a: (not isinstance(a, sp.Derivative),
                                        not isinstance(a, sp.Function),
                                        sp.default_sort_key(a)))


class RatFunc:
    """Element of the field, stored as a cancelled sympy expression."""

    __slots__ = ("field", "expr")

    def __init__(self, field, expr, normal=False):
        self.field = field
        e = sp.sympify(expr)
        self.expr = e if normal else field.normalize(e)

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return self.expr is sp.S.Zero or self.expr == 0

    @property
    def is_one(self):
        return self.expr == 1

    def free_of_parameters(self):
        """True when the element lies in Q(x1..xn) only."""
        atoms = self.expr.free_symbols | self.expr.atoms(sp.Function)
        allowed = set(self.field.vars)
        return all(a in allowed for a in atoms)

    # -- arithmetic -----------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            return other
        return self.field.ratfunc(other)

    def __add__(self, other):
        other = self._coerce(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        return RatFunc(self.field, self.field.normalize(self.expr + other.expr),
                       normal=True)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(self.field, -self.expr, normal=True)

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __mul__(self, other):
        other = self._coerce(other)
        if self.is_zero or other.is_zero:
            return self.field.zero
        if self.is_one:
            return other
        if other.is_one:
            return self
        return RatFunc(self.field, self.field.normalize(self.expr * other.expr),
                       normal=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other.is_zero:
            raise DivisionByZero("division by zero in coefficient field")
        if other.is_one:
            return self
        return RatFunc(self.field, self.field.normalize(self.expr / other.expr),
                       normal=True)

    def __rtruediv__(self, other):
        return self._coerce(other) / self

    def inverse(self):
        return self.field.one / self

    def derive(self, i):
        return self.field.derive(i, self)

    # -- structure ------------------------------------------------------

    def numer_denom(self):
        return sp.fraction(self.expr)

    def nonzero_factors(self):
        """Irreducible numerator factors involving params or funcparams.

        These are exactly the facts a pivot inversion silently relies on;
        factors lying in Q(x) are honest units of the field and dropped.
        """
        numer, _ = self.numer_denom()
        factors = []
        _, flist = sp.factor_list(numer, *_poly_gens(numer))
        for fac, _mult in flist:
            rf = RatFunc(self.field, fac)
            if rf.free_of_parameters():
                continue
            factors.append(rf.canonical_factor())
        return factors

    def canonical_factor(self):
        """Scale to a canonical representative (primitive, fixed sign)."""
        numer, denom = self.numer_denom()
        expr = sp.cancel(numer / sp.S.One) if denom.is_Rational else self.expr
        gens = _poly_gens(expr)
        if not gens:
            return RatFunc(self.field, sp.S.One)
        _, prim = sp.Poly(expr, *gens).primitive()
        if prim.LC() < 0:
            prim = -prim
        return RatFunc(self.field, prim.as_expr())

    def __eq__(self, other):
        if not isinstance(other, RatFunc):
            try:
                other = self._coerce(other)
            except (sp.SympifyError, TypeError):
                return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        return hash(sp.cancel(self.expr))

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
    provisos = []
    if not f.free_of_parameters():
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
        self.assumed = [field.ratfunc(a).canonical_factor() for a in assume_nonzero]
        self.split_params = frozenset(_names(split_params))
        self.case = dict(case or {})
        self.provisos = []

    def copy(self):
        s = Session(self.field, split_params=self.split_params, case=self.case)
        s.assumed = list(self.assumed)
        s.provisos = list(self.provisos)
        return s

    def _covered(self, factor):
        for g in self.assumed:
            ratio = sp.cancel(factor.expr / g.expr)
            if ratio.is_Rational and ratio != 0:
                return True
        return False

    def note_pivot_factor(self, factor):
        """Record one parameter-dependent pivot factor.

        Returns the factor if it became a proviso, None when an existing
        assumption already covers it.  Raises CaseSplitRequired when the
        factor is a declared split parameter with no case decision.
        """
        if self._covered(factor):
            return None
        syms = {str(s) for s in factor.expr.free_symbols}
        undecided = syms & self.split_params
        if undecided:
            raise CaseSplitRequired(sorted(undecided)[0], factor)
        for p in self.provisos:
            if (p - factor).is_zero:
                return factor
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
