"""The noncommutative ring D = K[d1..dn] of linear differential operators.

Scalar operators store their coefficients to the LEFT of the derivative
monomials; products commute the d_i past coefficients with the Leibniz
rule d_i a = a d_i + da/dx_i.  Every coefficient is a field element, one
cancelled fraction (see field.py); a rational constant is held as a
reduced Fraction until its polynomials are needed.  Matrices over D
represent operators between free modules, with the formal adjoint and
composition used by every duality computation downstream.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass


# ---------------------------------------------------------------------------
# multi-indices

def mono_add(a, b):
    return tuple(map(operator.add, a, b))

def mono_sub(a, b):
    return tuple(map(operator.sub, a, b))

def mono_le(a, b):
    return all(map(operator.le, a, b))

def mono_order(a):
    return sum(a)

def mono_binom(a, b):
    out = 1
    for x, y in zip(a, b):
        out *= math.comb(x, y)
    return out

def mono_str(mu):
    """Render a derivative multi-index, e.g. (1,0,2) -> 'd133'."""
    if all(m == 0 for m in mu):
        return ""
    digits = []
    for i, m in enumerate(mu, start=1):
        digits.extend([i] * m)
    if len(mu) <= 9:
        return "d" + "".join(str(i) for i in digits)
    return "d(" + ",".join(str(i) for i in digits) + ")"


def _add_into(terms, key, c):
    """terms[key] += c, dropping the key when the sum vanishes."""
    prev = terms.get(key)
    s = c if prev is None else prev + c
    if s.is_zero:
        terms.pop(key, None)
    else:
        terms[key] = s


def _compose_into(terms, coeff, mu, other, place=mono_add):
    """terms += coeff * d^mu o other, other a dict of terms, by the Leibniz
    rule d^mu o b = sum over kappa <= mu of binom(mu, kappa) d^kappa(b) d^(mu-kappa).

    place(nu, m) is where the term nu of other goes when multiplied by
    d^m: by default the monomial nu + m; the Janet engine passes its own
    for packed terms.

    The Leibniz terms are summed per monomial first, so coeff multiplies
    each sum once: with fractional coefficients the products are what
    costs.  Each d^kappa(b) is derived once, from d^(kappa - e_j)(b) with
    j the first index where kappa is nonzero, and a derivative that
    vanishes ends its branch, since d of zero is zero: for a coefficient
    free of x only kappa = 0 is visited.  A rational constant b (_q set)
    has no derivatives at all, so its one Leibniz term, binomial 1, goes
    straight into terms as b * coeff, with no branch or per-monomial sum.
    """
    n = len(mu)
    acc = {}
    for nu, b in other.items():
        if b._q is not None:
            _add_into(terms, place(nu, mu), b * coeff)
            continue
        stack = [((0,) * n, b, n)]  # kappa, d^kappa(b), indices it may grow
        while stack:
            kappa, db, top = stack.pop()
            binom = mono_binom(mu, kappa)
            _add_into(acc, place(nu, mono_sub(mu, kappa)),
                      db if binom == 1 else db * binom)
            if db._q is not None:   # a constant: every derivative vanishes
                continue
            for j in range(top):
                if kappa[j] < mu[j]:
                    d = db.derive(j + 1)
                    if not d.is_zero:
                        up = kappa[:j] + (kappa[j] + 1,) + kappa[j + 1:]
                        stack.append((up, d, j + 1))
    for key, v in acc.items():
        _add_into(terms, key, v * coeff)


# ---------------------------------------------------------------------------
# term orders

@dataclass(frozen=True)
class TermOrder:
    """Monomial order on the d_i, extended to module terms.

    kind: degrevlex | deglex | lex.
    var_seq: variable indices (1-based) from lowest to highest priority;
      permuting it reproduces coordinate permutations such as x2<x3<x1.
    Equal monomials in different components are ordered by column index.
    """

    kind: str = "degrevlex"
    var_seq: tuple = None

    def seq(self, n):
        if self.var_seq is None:
            return tuple(range(1, n + 1))
        if sorted(self.var_seq) != list(range(1, n + 1)):
            raise ValueError("var_seq must be a permutation of 1..n")
        return self.var_seq

    def mono_key(self, mu):
        seq = self.seq(len(mu))
        if self.kind == "degrevlex":
            return (sum(mu), tuple(-mu[v - 1] for v in seq))
        if self.kind == "deglex":
            return (sum(mu), tuple(mu[v - 1] for v in reversed(seq)))
        if self.kind == "lex":
            return tuple(mu[v - 1] for v in reversed(seq))
        raise ValueError(f"unknown term order kind {self.kind!r}")

    def module_key(self, term):
        col, mu = term
        return (self.mono_key(mu), -col)


DEFAULT_ORDER = TermOrder()


# ---------------------------------------------------------------------------
# scalar operators

class ScalarOp:
    """A single differential operator: finite sum coeff * d^mu."""

    __slots__ = ("field", "terms")

    def __init__(self, field, terms=None):
        self.field = field
        clean = {}
        for mu, c in (terms or {}).items():
            c = field.ratfunc(c)
            if not c.is_zero:
                clean[tuple(mu)] = c
        self.terms = clean

    # -- constructors ---------------------------------------------------

    @classmethod
    def zero(cls, field):
        return cls(field, {})

    @classmethod
    def constant(cls, field, c):
        return cls(field, {(0,) * field.n: field.ratfunc(c)})

    @classmethod
    def d(cls, field, *indices):
        """The monomial operator d_{i1} d_{i2} ... (1-based indices)."""
        mu = [0] * field.n
        for i in indices:
            if not 1 <= i <= field.n:
                raise IndexError(f"derivative index {i} out of range")
            mu[i - 1] += 1
        return cls(field, {tuple(mu): field.one})

    @classmethod
    def monomial(cls, field, mu, coeff=1):
        return cls(field, {tuple(mu): field.ratfunc(coeff)})

    # -- predicates -----------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    @property
    def order(self):
        """Max |mu| over stored terms; -1 for the zero operator."""
        if not self.terms:
            return -1
        return max(mono_order(mu) for mu in self.terms)

    # -- ring operations -------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, ScalarOp):
            return other
        return ScalarOp.constant(self.field, other)

    @classmethod
    def _of(cls, field, terms):
        """An operator on terms that are already clean."""
        out = cls.__new__(cls)
        out.field, out.terms = field, terms
        return out

    def __add__(self, other):
        other = self._coerce(other)
        terms = dict(self.terms)
        for mu, c in other.terms.items():
            _add_into(terms, mu, c)
        return ScalarOp._of(self.field, terms)

    def __neg__(self):
        return ScalarOp._of(self.field, {mu: -c for mu, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def scale(self, c):
        c = self.field.ratfunc(c)
        if c.is_zero:
            return ScalarOp.zero(self.field)
        return ScalarOp._of(self.field,
                            {mu: v * c for mu, v in self.terms.items()})

    def __mul__(self, other):
        """Composition self o other in the operator sense."""
        other = self._coerce(other)
        total = {}
        for mu, a in self.terms.items():
            _compose_into(total, a, mu, other.terms)
        return ScalarOp._of(self.field, total)

    def __rmul__(self, other):
        return self._coerce(other) * self

    def adjoint(self):
        """Formal adjoint: sum (-1)^|mu| d^mu o (a_mu * ) in normal form."""
        field = self.field
        total = {}
        for mu, a in self.terms.items():
            sign = -1 if mono_order(mu) % 2 else 1
            part = ScalarOp.monomial(field, mu, sign) * ScalarOp.constant(field, a)
            for k, v in part.terms.items():
                _add_into(total, k, v)
        return ScalarOp._of(field, total)

    def apply(self, f):
        """Act on a field element, reading d_i as the derivation d/dx_i."""
        f = self.field.ratfunc(f)
        out = self.field.zero
        for mu, a in self.terms.items():
            g = f
            for i, k in enumerate(mu):
                for _ in range(k):
                    g = g.derive(i + 1)
            out = out + a * g
        return out

    # -- comparisons ------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, ScalarOp):
            try:
                other = self._coerce(other)
            except Exception:
                return NotImplemented
        return (self - other).is_zero

    def __hash__(self):
        return hash(frozenset(self.terms))

    def __repr__(self):
        return self.to_string("y")

    def to_string(self, name="y"):
        if not self.terms:
            return "0"
        order = DEFAULT_ORDER
        bits = []
        for mu in sorted(self.terms, key=order.mono_key, reverse=True):
            c = self.terms[mu]
            d = mono_str(mu)
            if name:
                head = f"{d}({name})" if d else name
            else:
                head = d if d else "1"
            bits.append(_coeff_term(c, head, first=not bits))
        return " ".join(bits)


def _coeff_term(c, head, first):
    expr = c.expr
    neg = expr.could_extract_minus_sign()
    if neg:
        expr = -expr
    s = c.field.coeff_str(expr)
    if s == "1":
        body = head
    else:
        if expr.is_Add or "/" in s or " " in s:
            s = f"({s})"
        body = f"{s}*{head}"
    if head == "1" and s != "1":
        body = s if not (expr.is_Add or " " in s) else f"({s})"
    if first:
        return f"-{body}" if neg else body
    return ("- " if neg else "+ ") + body


# ---------------------------------------------------------------------------
# operator matrices

class ShapeMismatch(ValueError):
    pass


class OpMatrix:
    """p x m matrix over D: an operator between free modules D^m -> D^p."""

    def __init__(self, field, entries, row_labels=None, col_labels=None,
                 cols=None):
        self.field = field
        self.entries = [[self._coerce_entry(field, e) for e in row] for row in entries]
        self.rows = len(self.entries)
        if self.entries:
            self.cols = len(self.entries[0])
        elif cols is not None:
            self.cols = cols
        else:
            self.cols = len(col_labels) if col_labels else 0
        if any(len(r) != self.cols for r in self.entries):
            raise ShapeMismatch("ragged rows")
        self.row_labels = list(row_labels) if row_labels else [
            f"eq{i+1}" for i in range(self.rows)]
        self.col_labels = list(col_labels) if col_labels else [
            f"y{j+1}" for j in range(self.cols)]

    @staticmethod
    def _coerce_entry(field, e):
        if isinstance(e, ScalarOp):
            return e
        return ScalarOp.constant(field, e)

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, field, rows, cols, **kw):
        if rows == 0:
            return cls(field, [], cols=cols, **kw)
        return cls(field, [[ScalarOp.zero(field)] * cols for _ in range(rows)], **kw)

    @classmethod
    def identity(cls, field, size, **kw):
        ent = [[ScalarOp.constant(field, 1 if i == j else 0) for j in range(size)]
               for i in range(size)]
        return cls(field, ent, **kw)

    @classmethod
    def from_rows(cls, field, rows, cols, **kw):
        if not rows:
            return cls.zero(field, 0, cols, **kw)
        return cls(field, rows, **kw)

    # -- basic structure -----------------------------------------------------

    @property
    def order(self):
        orders = [e.order for row in self.entries for e in row]
        return max(orders, default=-1)

    @property
    def is_zero(self):
        return all(e.is_zero for row in self.entries for e in row)

    def row(self, i):
        return list(self.entries[i])

    def stack(self, other):
        if other.cols != self.cols:
            raise ShapeMismatch("column mismatch in stack")
        return OpMatrix(self.field, self.entries + other.entries,
                        row_labels=self.row_labels + other.row_labels,
                        col_labels=self.col_labels)

    def __eq__(self, other):
        if not isinstance(other, OpMatrix):
            return NotImplemented
        if (self.rows, self.cols) != (other.rows, other.cols):
            return False
        return all((self.entries[i][j] - other.entries[i][j]).is_zero
                   for i in range(self.rows) for j in range(self.cols))

    def __hash__(self):
        return hash((self.rows, self.cols))

    # -- algebra ---------------------------------------------------------------

    def compose(self, other):
        """Matrix product self o other over D."""
        if self.cols != other.rows:
            raise ShapeMismatch(
                f"compose: {self.rows}x{self.cols} with {other.rows}x{other.cols}")
        ent = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = ScalarOp.zero(self.field)
                for k in range(self.cols):
                    a = self.entries[i][k]
                    b = other.entries[k][j]
                    if a.is_zero or b.is_zero:
                        continue
                    acc = acc + a * b
                row.append(acc)
            ent.append(row)
        return OpMatrix(self.field, ent, row_labels=self.row_labels,
                        col_labels=other.col_labels)

    def adjoint(self):
        """Formal adjoint matrix: (ad A)[k][tau] = ad(A[tau][k])."""
        ent = [[self.entries[i][j].adjoint() for i in range(self.rows)]
               for j in range(self.cols)]
        return OpMatrix(self.field, ent, row_labels=self.col_labels,
                        col_labels=self.row_labels)

    def apply_to_section(self, section):
        """Act on a column of field elements, d_i read as d/dx_i."""
        if len(section) != self.cols:
            raise ShapeMismatch("section length mismatch")
        sec = [self.field.ratfunc(s) for s in section]
        out = []
        for i in range(self.rows):
            acc = self.field.zero
            for j in range(self.cols):
                acc = acc + self.entries[i][j].apply(sec[j])
            out.append(acc)
        return out

    def specialize(self, values):
        """Substitute parameter values (case split) into every entry."""
        new_field, mapping = self.field.specialize(values)
        ent = [[ScalarOp(new_field, {mu: c.expr.xreplace(mapping)
                                     for mu, c in e.terms.items()})
                for e in row] for row in self.entries]
        return OpMatrix(new_field, ent, row_labels=self.row_labels,
                        col_labels=self.col_labels)

    # -- display ---------------------------------------------------------------

    def row_string(self, i, order=DEFAULT_ORDER):
        terms = []
        for j in range(self.cols):
            for mu in self.entries[i][j].terms:
                terms.append((j, mu))
        if not terms:
            return "0"
        terms.sort(key=order.module_key, reverse=True)
        bits = []
        for j, mu in terms:
            c = self.entries[i][j].terms[mu]
            d = mono_str(mu)
            name = self.col_labels[j]
            head = f"{d}({name})" if d else name
            bits.append(_coeff_term(c, head, first=not bits))
        return " ".join(bits)

    def __repr__(self):
        lines = [f"OpMatrix {self.rows}x{self.cols} over {self.field!r}"]
        for i in range(self.rows):
            lines.append(f"  {self.row_labels[i]}: {self.row_string(i)}")
        return "\n".join(lines)
