"""Janet involutive completion for rows of operator matrices.

The completion works on augmented rows (R | S): R lives over the
unknowns, S records the same row as a D-combination of the input rows.
That single invariant yields three things at once: a replayable trace,
the integrability conditions discovered along the way, and, whenever an
op-part cancels to zero, a compatibility condition expressed in the
original second members.

One `InvolutiveBasis` is the completion engine: `add` puts rows in and
completes in place, so a basis can grow (compatibility conditions are
minimalized on one growing basis).  As in Gerdt and Blinkov, each basis
row carries the set of variables it has already been prolonged by, and
that set survives later insertions and tail reduction, which keep the
row's lead; a nonmultiplicative prolongation is therefore made once per
row, not once per basis change (V. P. Gerdt, Yu. A. Blinkov, "Involutive
bases of polynomial ideals", Math. Comput. Simul. 45, 1998).

A basis reduces its rows over a coefficient ring chosen from the rows it
has been given.  While every coefficient is a rational constant, D acts
as a commutative polynomial ring and the rows hold Python ints: the ring
is ZZ.  Otherwise the rows hold field elements: the ring is K.  There is
one reduction step, w <- a w - c d^kappa o r with a the lead coefficient
of the reducer r.  Over K the basis rows are monic, so a = 1.  Over ZZ
they are primitive; a and c are first divided by their gcd, and the
content of the result, op and src blocks together, is divided out once
per step: fraction-free reduction, the degree-0 case of pseudo-division
(E. H. Bareiss, Math. Comp. 22, 1968; D. Robertz, Formal Algorithmic
Elimination for PDEs, LNM 2121, 2014).  Rational inputs have their
denominators cleared on entry, src included.  The first row with a
coefficient that is not a rational constant moves a basis over ZZ to K,
each row made monic as at the boundary, and a basis never moves back.

Every step over ZZ is a nonzero constant times the step over K, so both
rings make the same steps and meet the same leads.  Everything that
leaves the engine is over K: `matrix()`, `src_matrix()`, `normal_form`
and the trace.  Basis rows and integrability conditions come out monic,
so they are the rows a reduction over K gives.

A basis row carries its own Janet data: its prolonged set and its
multiplicative variables.  The reducer index of each column holds the
rows themselves, so rows are updated in place: tail reduction writes the
reduced blocks into the row, and the move to K converts each row where
it stands.

Inside the engine a term (column, monomial) is one int, packed by
`_Terms` so that integer order is the basis's term order and a shift by
d^kappa adds the packed kappa: a row's lead is the max of its keys, a
reduction sorts plain ints, and an integer step is one addition per
term (packed exponent vectors, as in M. Monagan, R. Pearce, "Polynomial
division using dynamic arrays, heaps, and packed exponent vectors",
CASC 2007).  The packing writes the components of the term order's
module key as balanced base-2**16 digits, so it holds while every
exponent, total order and column stays below 2**15; packing a larger
term, or unpacking an int whose digits overflowed, raises
ResourceLimit.  Terms are packed where rows enter (`_row`) and unpacked
where they leave (`_boundary`); inside, only the reducer search and the
Janet data unpack a term, to read its monomial.

A term's packing depends only on the term order and n, and the Janet
data of a column only on its set of lead monomials and the order's
var_seq.  So a process keeps one `_Terms` per term order and n
(`_terms_of`), shared by every basis under it: each term is packed and
unpacked once per process, and the multiplicative variables and the
minimal Janet leads of each lead set are computed once.  The tables only
grow, and no entry depends on the basis that made it.
"""

from __future__ import annotations

import math
import operator
import struct
from bisect import bisect_left
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain, combinations_with_replacement, product

from .field import ResourceLimit, Session
from .ops import (DEFAULT_ORDER, OpMatrix, ScalarOp, _compose_into, mono_le,
                  mono_order, mono_str, mono_sub)


def janet_multiplicative(leads, seq):
    """Multiplicative variables of each lead monomial (Janet division).

    leads: monomials of one column group; seq: variable indices ordered
    from lowest to highest priority.  Returns a frozenset of 1-based
    variable indices per lead.
    """
    out = []
    for u in leads:
        mult = set()
        group = list(leads)
        for pos in range(len(seq) - 1, -1, -1):
            var = seq[pos]
            mx = max(v[var - 1] for v in group)
            if u[var - 1] == mx:
                mult.add(var)
            group = [v for v in group if v[var - 1] == u[var - 1]]
        out.append(frozenset(mult))
    return out


def minimal_janet_leads(leads, seq):
    """Leads of the minimal Janet basis of the monomial module of leads.

    Janet's decomposition along the highest variable x: each slice of
    x-degree d, from the lowest to the highest x-degree of a minimal
    generator, is the minimal Janet set of its own slice module, and x is
    multiplicative on the top slice.  Every Janet-complete set of the
    module contains these leads.
    """
    mins = {u for u in leads if not any(v != u and mono_le(v, u) for v in leads)}
    if not seq or not mins:
        return mins
    *rest, x = seq
    i = x - 1
    out = set()
    for d in range(min(u[i] for u in mins), max(u[i] for u in mins) + 1):
        out |= minimal_janet_leads(
            {u[:i] + (d,) + u[i + 1:] for u in mins if u[i] <= d}, rest)
    return out


def lead_term(op_row, key):
    """The greatest (column, monomial) term of a row of operators under
    key, a rank of terms such as a basis's _key; None for a zero row."""
    return max(((j, mu) for j, e in enumerate(op_row) for mu in e.terms),
               default=None, key=key)


# Packed terms are balanced digits in base 2**16, each of size below 2**15.
_DIGIT_BITS = 16
_HALF = 1 << (_DIGIT_BITS - 1)


class _Terms(dict):
    """The packed term of each (column, monomial) term of one term order
    on n variables, computed once per process: an int whose integer
    order is the term order.  Every basis under the order shares the one
    table `_terms_of` gives.

    pack writes the components of TermOrder.module_key, flattened, as
    balanced base-2**16 digits, the most significant first: (|mu|, -mu in
    var_seq order, -col) for degrevlex, (|mu|, mu in reversed var_seq,
    -col) for deglex, and the same without |mu| for lex.  While every
    digit is below 2**15 in size, integer order compares the digits in
    turn, so it is module_key order; and each digit is linear in
    (col, mu), so pack(col, mu + kappa) = pack(col, mu) + pack(0, kappa).
    unpack is the inverse, a dict lookup once either way is computed.

    The table also memoizes the Janet data of one column, keyed by its
    set of lead monomials: `janet_data` and `minimal_leads`.
    """

    def __init__(self, order, n):
        super().__init__()
        self.seq = seq = order.seq(n)
        self._mult = {}      # frozenset of leads -> {lead: (mult, nonmult)}
        self._minimal = {}   # frozenset of leads -> minimal Janet leads
        kinds = {"degrevlex": (True, seq, -1), "deglex": (True, seq[::-1], 1),
                 "lex": (False, seq[::-1], 1)}
        if order.kind not in kinds:
            raise ValueError(f"unknown term order kind {order.kind!r}")
        self._deg, slots, sign = kinds[order.kind]
        # pack(0, e_v) for each variable v: +-1 in its digit, whose place
        # above the column digit is n - k for the k-th after |mu|, and 1
        # in the |mu| digit at place n + 1
        self._weights = [0] * n
        for k, v in enumerate(slots):
            self._weights[v - 1] = (sign << _DIGIT_BITS * (n - k)) + (
                self._deg << _DIGIT_BITS * (n + 1))
        self._unpacked = _Unpacked(self._deg, slots, sign)
        self.unpack = self._unpacked.__getitem__

    def __missing__(self, term):
        key = self[term] = self.pack(*term)
        self._unpacked[key] = term
        return key

    def pack(self, col, mu):
        """The int of the term (col, mu)."""
        if col >= _HALF or max(mu, default=0) >= _HALF or (
                self._deg and sum(mu) >= _HALF):
            raise ResourceLimit(f"a term reached the packing bound {_HALF}: "
                                f"column {col}, monomial {mu}")
        return sum(map(operator.mul, mu, self._weights)) - col

    def place(self, t, m):
        """The packed term t multiplied by d^m."""
        return t + self[(0, m)]

    def janet_data(self, leads):
        """The multiplicative variables of each of leads, the lead
        monomials of one column, and the 0-based positions of the others:
        a dict lead -> (frozenset of 1-based variables, list of positions),
        computed once per set of leads with janet_multiplicative."""
        key = frozenset(leads)
        data = self._mult.get(key)
        if data is None:
            data = self._mult[key] = {
                mu: (m, [i for i in range(len(mu)) if i + 1 not in m])
                for mu, m in zip(key, janet_multiplicative(key, self.seq))}
        return data

    def minimal_leads(self, leads):
        """minimal_janet_leads of leads, the lead monomials of one column,
        computed once per set of leads."""
        key = frozenset(leads)
        out = self._minimal.get(key)
        if out is None:
            out = self._minimal[key] = frozenset(
                minimal_janet_leads(key, self.seq))
        return out


# The _Terms of each (order kind, var_seq on n variables) met in this
# process; see the module docstring.
_TABLES = {}


def _terms_of(order, n):
    """The process's one _Terms of order on n variables."""
    key = order.kind, order.seq(n)
    table = _TABLES.get(key)
    if table is None:
        table = _TABLES[key] = _Terms(order, n)
    return table


class _Unpacked(dict):
    """The term (column, monomial) of each packed int, computed once.

    Adding half the radix to every digit makes each one a plain base-2**16
    digit, so the digits are the int's bytes.
    """

    def __init__(self, deg, slots, sign):
        super().__init__()
        n = len(slots)
        ndigits = deg + n + 1
        self._deg, self._sign = deg, sign
        self._offset = sum(_HALF << _DIGIT_BITS * k for k in range(ndigits))
        self._nbytes = 2 * ndigits
        self._digits = struct.Struct(f">{ndigits}H").unpack
        # the digit of each variable, most significant first
        self._pos = [deg + slots.index(v) for v in range(1, n + 1)]

    def __missing__(self, key):
        y = key + self._offset
        if not 0 <= y < 1 << 8 * self._nbytes:
            raise ResourceLimit(f"a term overflowed the packing bound {_HALF}")
        digits = self._digits(y.to_bytes(self._nbytes, "big"))
        sign = self._sign
        mu = tuple(sign * (digits[p] - _HALF) for p in self._pos)
        term = _HALF - digits[-1], mu
        if term[0] < 0 or min(mu, default=0) < 0 or (
                self._deg and digits[0] - _HALF != sum(mu)):
            raise ResourceLimit(f"a term overflowed the packing bound {_HALF}")
        self[key] = term
        return term


def _combine(w, a, c, kappa, r, terms):
    """a * w + c * d^kappa o r for dicts w and r of packed terms, terms
    the basis's _Terms.

    Over ZZ (c an int) every coefficient is a constant, whose only
    Leibniz term is itself, so d^kappa o r is r shifted by kappa: each of
    its terms plus the packed kappa.
    """
    out = dict(w) if a == 1 else {t: a * v for t, v in w.items()}
    if type(c) is not int:
        _compose_into(out, c, kappa, r, terms.place)
        return out
    shift = terms[(0, kappa)]
    for t, b in r.items():
        t += shift
        v = out.get(t, 0) + c * b
        if v:
            out[t] = v
        else:
            del out[t]
    return out


def _class_label(mu, seq):
    """Class of a lead monomial: its highest variable in seq, 0 for 1."""
    return next((v for v in reversed(seq) if mu[v - 1]), 0)


class _Row:
    """Augmented module row: op over the unknowns, src over the inputs.

    Each block is one dict, packed term (see _Terms) to coefficient, the
    coefficients ints over ZZ and field elements over K.  As a basis row
    it carries its Janet data: prolonged, the variables it has been
    prolonged by, and mult, its multiplicative variables; a new row
    starts with none of either.
    """

    __slots__ = ("op", "src", "_top", "prolonged", "mult")

    def __init__(self, op, src):
        self.op = op
        self.src = src
        self._top = None
        self.prolonged = set()
        self.mult = None

    @property
    def top(self):
        """The greatest packed term of op, found once and kept; None for a
        zero row."""
        if self._top is None and self.op:
            self._top = max(self.op)
        return self._top

    def lead(self, terms):
        """The greatest (column, monomial) term, unpacked by terms, the
        basis's _Terms; None for a zero row."""
        top = self.top
        return None if top is None else terms.unpack(top)

    def lead_coeff(self):
        return self.op[self.top]

    def lead_order(self, terms):
        return mono_order(self.lead(terms)[1])

    def apply(self, f):
        """Apply f to each block in place; the lead stays."""
        self.op = f(self.op)
        if self.src is not None:
            self.src = f(self.src)

    def make_primitive(self):
        """Over ZZ: divide the row by the content of both blocks."""
        g = math.gcd(*self.op.values())
        if g != 1 and self.src:
            g = math.gcd(g, *self.src.values())
        if g not in (0, 1):
            self.apply(lambda e: {t: v // g for t, v in e.items()})

    def sub_multiple(self, a, c, kappa, other, terms):
        """a * self - c * d^kappa o other on both blocks, in one pass, with
        terms the basis's _Terms.

        Over ZZ (c an int) a and c are first divided by gcd(a, c), and the
        result is made primitive.  Over K a is 1 when other is a basis
        row, which is monic.
        """
        zz = type(c) is int
        if zz:
            g = math.gcd(a, c)
            a, c = a // g, -(c // g)
        else:
            a, c = 1 if a.is_one else a, -c
        op = _combine(self.op, a, c, kappa, other.op, terms)
        src = (None if self.src is None else
               _combine(self.src, a, c, kappa, other.src, terms))
        row = _Row(op, src)
        if zz:
            row.make_primitive()
        return row


@dataclass
class CompletionTrace:
    steps: list = dc_field(default_factory=list)
    integrability_conditions: list = dc_field(default_factory=list)
    cc_rows: list = dc_field(default_factory=list)


# Reductions one add or one tail reduction may make; prolongations stop at
# order 2q + 6 for rows of order up to q.
MAX_STEPS = 10_000
# The size a coefficient of a row over K may reach in a reduction, its
# numerator terms plus its denominator terms; past it the next step's
# polynomial gcds can run for minutes.  CHANGES.md has the measurements.
MAX_COEFF_SIZE = 32


def _coeff_size(c):
    """Numerator plus denominator terms of a field element, 1 for a
    rational constant."""
    return 1 if c._q is not None else len(c._f.numer) + len(c._f.denom)


class _Budget:
    def __init__(self, max_order):
        self.max_order = max_order
        self.steps = 0

    def tick(self):
        self.steps += 1
        if self.steps > MAX_STEPS:
            raise ResourceLimit(f"reduction budget exceeded ({MAX_STEPS})")

    def check_order(self, o):
        if o > self.max_order:
            raise ResourceLimit(f"prolongation order budget exceeded ({self.max_order})")


class InvolutiveBasis:
    """Janet basis of the row module of an operator matrix, grown by add.

    The basis takes its columns and labels from input_matrix.  With
    track_src every row also records itself as a D-combination of the
    input rows, so such a basis adds its input and nothing else; without
    it the basis can grow by any rows.  A new basis is over ZZ; see the
    module docstring for the ring of a basis.  Each row carries its
    Janet data, and rows are updated in place, so the reducer index
    holds the rows themselves.
    """

    def __init__(self, input_matrix, order, session, track_src=False):
        self.field = input_matrix.field
        self.ncols = input_matrix.cols
        self.order = order
        self.session = session
        self.input = input_matrix
        self.track_src = track_src
        self.trace = CompletionTrace()
        self._zz = True                # the ring of the rows: ZZ, else K
        self._rows = []                # list of _Row, with Janet data
        self._divisors = {}            # col -> [(row, lead, nonmult)]
        self._q = 0                    # highest order added
        self._terms = _terms_of(order, self.field.n)
        self._key = self._terms.__getitem__   # (col, mu) -> packed term

    # -- the ring and the boundary ---------------------------------------

    def _admit(self, op_rows):
        """Move a basis over ZZ to K when some coefficient of op_rows,
        lists of operators, is not a rational constant."""
        if self._zz and any(c._q is None for row in op_rows for e in row
                            for c in e.terms.values()):
            for r in self._rows:
                r.apply(self._to_k(r, monic=True))
            self._zz = False

    def _row(self, op, src=None):
        """Lists of operators as a _Row of packed terms over the basis's
        ring, which _admit has chosen: over ZZ each coefficient is
        multiplied by the lcm of the row's denominators, src included."""
        key = self._key

        def packed(block):
            return {key((j, mu)): c for j, e in enumerate(block)
                    for mu, c in e.terms.items()}

        row = _Row(packed(op), None if src is None else packed(src))
        if self._zz:
            lcm = math.lcm(*(c._q.denominator for c in
                             chain(row.op.values(), (row.src or {}).values())))
            row.apply(lambda e: {
                t: c._q.numerator * (lcm // c._q.denominator)
                for t, c in e.items()})
        return row

    def _to_k(self, row, monic):
        """The map taking a block of row, over ZZ, to K: field constants,
        divided by the row's lead coefficient when monic."""
        const = self.field._constant
        a = row.lead_coeff() if monic else 1
        return lambda e: {t: const(Fraction(v, a)) for t, v in e.items()}

    def _boundary(self, row, monic, block="op"):
        """One block of row, "op" or "src", over K as a list of operators,
        one per unknown or input row; None for a src block the row does
        not have."""
        terms = getattr(row, block)
        if terms is None:
            return None
        if self._zz:
            terms = self._to_k(row, monic)(terms)
        out = [{} for _ in range(self.ncols if block == "op"
                                 else self.input.rows)]
        unpack = self._terms.unpack
        for t, v in terms.items():
            j, mu = unpack(t)
            out[j][mu] = v
        return [ScalarOp._of(self.field, e) for e in out]

    def _basis_row(self, h):
        """Make h, a row no basis holds, a new basis row in place,
        prolonged by no variable yet: primitive over ZZ, monic over K, its
        lead coefficient checked as a pivot."""
        if self._zz:
            h.make_primitive()
        else:
            c = h.lead_coeff()
            self.session.check_pivot(c)
            inv = c.inverse()
            h.apply(lambda e: {t: v * inv for t, v in e.items()})
        h.prolonged = set()

    def _prolong(self, r, i):
        """d_i o r, on the src block too if r has one."""
        e_i = tuple(int(k == i - 1) for k in range(self.field.n))
        one = 1 if self._zz else self.field.one
        return _Row(_combine({}, 1, one, e_i, r.op, self._terms),
                    None if r.src is None else
                    _combine({}, 1, one, e_i, r.src, self._terms))

    # -- Janet structure -------------------------------------------------

    def _leads(self):
        """Lead monomials of the rows, by column."""
        leads = {}
        for r in self._rows:
            col, mu = r.lead(self._terms)
            leads.setdefault(col, []).append(mu)
        return leads

    def _assign_mult(self, col):
        """The Janet data of column col, whose leads have changed: the
        multiplicative variables of each of its rows, and its reducer
        index, each row with its lead monomial and the 0-based positions
        of its nonmultiplicative variables, in row order.  The data of
        other columns depends only on their own leads."""
        terms = self._terms
        rows = [r for r in self._rows if r.lead(terms)[0] == col]
        mus = [r.lead(terms)[1] for r in rows]
        data = terms.janet_data(mus)
        self._divisors[col] = index = []
        for r, mu in zip(rows, mus):
            r.mult, nonmult = data[mu]
            index.append((r, mu, nonmult))

    def __len__(self):
        return len(self._rows)

    @property
    def max_order(self):
        return max((r.lead_order(self._terms) for r in self._rows),
                   default=-1)

    def matrix(self):
        ent = [self._boundary(r, monic=True) for r in self._rows]
        return OpMatrix.from_rows(self.field, ent, self.ncols,
                                  col_labels=self.input.col_labels)

    def src_matrix(self):
        if not self.track_src:
            return None
        ent = [self._boundary(r, monic=True, block="src") for r in self._rows]
        return OpMatrix.from_rows(self.field, ent, self.input.rows,
                                  col_labels=self.input.row_labels)

    # -- reduction --------------------------------------------------------

    def _reducer(self, term):
        """The first row, in basis order, whose lead involutively divides
        term, with the quotient monomial."""
        j, mu = term
        for r, lam, nonmult in self._divisors.get(j, ()):
            if mono_le(lam, mu) and all(mu[i] == lam[i] for i in nonmult):
                return r, mono_sub(mu, lam)
        return None

    def reduce_row(self, row, budget=None, tail=False):
        """Full involutive normal form of an augmented row, in the ring of
        the basis.

        With tail=True the row's own lead term is left alone and only the
        terms below it are reduced.  Each pass sorts the packed terms and
        looks only below the term the last step reduced: the step
        a * w - c * d^kappa o r cancels that term, and every term of
        d^kappa o r lies at or below it (the order is compatible with
        d^kappa and Leibniz terms lower the monomial), so the terms above
        it are only scaled by a constant and stay irreducible.

        Over K a step that leaves a coefficient of more than
        MAX_COEFF_SIZE terms raises ResourceLimit, budget or none.
        """
        terms, reducer = self._terms, self._reducer
        unpack = terms.unpack
        top = row.top if tail else None
        work = row
        while work.op:
            ordered = sorted(work.op)
            k = len(ordered) if top is None else bisect_left(ordered, top)
            for t in reversed(ordered[:k]):
                found = reducer(unpack(t))
                if found is not None:
                    break
            else:
                break
            r, kappa = found
            work = work.sub_multiple(r.lead_coeff(), work.op[t], kappa, r,
                                     terms)
            top = t
            if budget is not None:
                budget.tick()
            if not self._zz:
                size = max(map(_coeff_size, work.op.values()), default=0)
                if size > MAX_COEFF_SIZE:
                    raise ResourceLimit(
                        f"a coefficient of {size} terms passed the size "
                        f"bound of {MAX_COEFF_SIZE} in a reduction")
        return work

    def normal_form(self, op_row):
        """Involutive normal form of a plain row, a list of m operators.

        Over K it is the row minus a D-combination of basis rows; over ZZ
        it is that times a nonzero rational constant.  A row with a
        coefficient that is not a rational constant moves the basis to K.
        """
        self._admit([op_row])
        return self._boundary(self.reduce_row(self._row(op_row)),
                              monic=False)

    def contains(self, op_row):
        return all(e.is_zero for e in self.normal_form(op_row))

    def contains_matrix(self, mat):
        return all(self.contains(mat.row(i)) for i in range(mat.rows))

    def verify_involutive(self):
        """Janet criterion: every nonmultiplicative prolongation reduces to 0."""
        return all(
            not self.reduce_row(self._prolong(_Row(r.op, None), i)).op
            for r in self._rows
            for i in range(1, self.field.n + 1) if i not in r.mult)

    # -- completion -------------------------------------------------------

    def add(self, A, lead_columns=None):
        """Add the rows of A and complete in place.

        Each call has its own budget of MAX_STEPS reductions, and
        prolongations stop at order 2q + 6, q the highest order added.

        With lead_columns set, add returns right after the insertion that
        brings the number of columns holding a lead to that value.  A
        column never loses its lead: an insertion displaces only rows of
        its own column, and the minimality pass, which keeps some lead of
        every column, is skipped.  So when lead_columns bounds the count
        of the completed basis (differential_rank passes min(rows, cols)),
        the lead columns are already final.  The basis left is partial,
        neither Janet-complete nor minimal, and only its lead columns may
        be read.
        """
        if self.track_src and A is not self.input:
            raise ValueError("a basis that tracks sources adds only its input")
        field, terms, trace = self.field, self._terms, self.trace
        self._q = max(self._q, A.order)
        budget = _Budget(2 * self._q + 6)
        op_rows = [A.row(i) for i in range(A.rows)]
        self._admit(op_rows)
        pending = []  # (row, expected order or None, origin)
        for i, op in enumerate(op_rows):
            src = ([ScalarOp.constant(field, int(k == i)) for k in range(A.rows)]
                   if self.track_src else None)
            row = self._row(op, src)
            origin = f"input {A.row_labels[i]}"
            if row.op:
                pending.append((row, None, origin))
            elif row.src:
                trace.cc_rows.append(
                    self._boundary(row, monic=False, block="src"))
                trace.steps.append({"event": "cc", "from": origin})
        while True:
            if not pending:
                task = self._next_prolongation(budget)
                if task is None:
                    break
                pending.append(task)
            pending.sort(key=lambda item: item[0].top)
            row, expected, origin = pending.pop(0)
            h = self.reduce_row(row, budget)
            if not h.op:
                if h.src:
                    trace.cc_rows.append(
                        self._boundary(h, monic=False, block="src"))
                    trace.steps.append({"event": "cc", "from": origin})
                else:
                    trace.steps.append({"event": "zero", "from": origin})
                continue
            lead_ord = h.lead_order(terms)
            self._basis_row(h)
            if expected is not None and lead_ord < expected:
                trace.integrability_conditions.append(OpMatrix.from_rows(
                    field, [self._boundary(h, monic=True)], self.ncols,
                    col_labels=self.input.col_labels))
                trace.steps.append({"event": "integrability", "from": origin,
                                    "order": lead_ord})
            for b in self._insert(h):
                pending.append((b, None, "displaced"))
            trace.steps.append({"event": "add", "from": origin,
                                "lead": h.lead(terms), "order": lead_ord})
            # _divisors has one entry per column holding a lead
            if lead_columns is not None and len(self._divisors) >= lead_columns:
                return
        self._keep_minimal()

    def _keep_minimal(self):
        """Drop the rows whose leads the minimal Janet basis does without.

        Growing a completed basis can leave it complete but not minimal,
        with rows that only the earlier leads needed.  The remaining rows
        still form a Janet basis, since their leads are Janet-complete.
        """
        needed = {(col, mu) for col, mus in self._leads().items()
                  for mu in self._terms.minimal_leads(mus)}
        if len(needed) < len(self._rows):
            self._rows = [r for r in self._rows
                          if r.lead(self._terms) in needed]
            for col in self._leads():
                self._assign_mult(col)

    def _insert(self, h):
        """Put h in the basis; return the rows whose lead h's lead divides."""
        col, mu = h.lead(self._terms)
        kept, displaced = [], []
        for b in self._rows:
            c, lam = b.lead(self._terms)
            if c == col and mono_le(mu, lam):
                displaced.append(b)
            else:
                kept.append(b)
        self._rows = kept + [h]
        self._assign_mult(col)
        return displaced

    def _next_prolongation(self, budget):
        """The first nonmultiplicative prolongation no row has made yet."""
        for r in self._rows:
            for i in range(1, self.field.n + 1):
                if i in r.mult or i in r.prolonged:
                    continue
                r.prolonged.add(i)
                budget.check_order(r.lead_order(self._terms) + 1)
                return (self._prolong(r, i), r.lead_order(self._terms) + 1,
                        f"d{i} prolongation")
        return None

    def tail_reduce(self):
        """Reduce every row below its lead in place; its Janet data stays.

        A row can never reduce its own tail (tail terms are smaller than
        its lead), so the full Janet assignment is safe to use throughout;
        leads are untouched and one pass per row suffices.  Over ZZ a
        reduced row keeps its lead but not its lead coefficient.
        """
        budget = _Budget(2 * self._q + 6)
        for r in self._rows:
            work = self.reduce_row(r, budget, tail=True)
            r.op, r.src = work.op, work.src


def complete(A, order=None, session=None, track_src=False,
             lead_columns=None):
    """Involutive completion of the row module of A (Janet division).

    Returns an InvolutiveBasis whose trace carries the completion steps
    and the integrability conditions (rows whose order dropped below their
    prolongation order).  Only with track_src does each row also record
    its sources, so that src_matrix() and trace.cc_rows, the compatibility
    conditions met on the way, are filled; the basis is the same either
    way, and an untracked completion logs a row that reduces to zero as
    "zero", not "cc".

    The basis reduces over ZZ when every coefficient of A is a rational
    constant and over K otherwise (see the module docstring); its rows,
    matrices and integrability conditions are the same over either ring.
    A raw row of trace.cc_rows met over ZZ is the one met over K times a
    nonzero rational constant, its own for each row; every consumer of
    the raw rows reads them up to such a factor.

    lead_columns stops the completion once that many columns hold a lead
    (see InvolutiveBasis.add) and skips the tail reduction.  The basis
    returned is then partial, not Janet-complete and not tail-reduced:
    only its lead columns, basis._leads(), may be read, and its provisos
    are those of the pivots made before the stop.
    """
    if A.rows and A.cols == 0:
        raise ValueError("cannot complete a matrix with no columns")
    basis = InvolutiveBasis(A, order or DEFAULT_ORDER,
                            session or Session(A.field), track_src)
    basis.add(A, lead_columns)
    if lead_columns is None:
        basis.tail_reduce()
    return basis


def janet_board(basis):
    """Per-row multiplicative variables and class, like the boxed boards."""
    seq = basis.order.seq(basis.field.n)
    board = []
    for r in basis._rows:
        col, mu = r.lead(basis._terms)
        board.append({
            "lead": (mono_str(mu) or "1") + f"({basis.input.col_labels[col]})",
            "mult_vars": sorted(r.mult),
            "nonmult_vars": sorted(set(range(1, basis.field.n + 1)) - r.mult),
            "class": _class_label(mu, seq),
        })
    return board


def board_of_matrix(A, order=None, session=None):
    """Janet board of the rows of A as given (autoreduced, not completed).

    The multiplicative-variable analysis makes sense for any lead set;
    the dots of a non-involutive system show where completion will work.
    """
    order = order or DEFAULT_ORDER
    session = session or Session(A.field)
    basis = InvolutiveBasis(A, order, session)
    op_rows = [A.row(i) for i in range(A.rows)]
    basis._admit(op_rows)
    for op in op_rows:
        r = basis._row(op)
        if r.op:
            basis._basis_row(r)
            basis._rows.append(r)
    for col in basis._leads():
        basis._assign_mult(col)
    return janet_board(basis)


def board_text(basis):
    """Render the board in the boxed style: one line per row."""
    seq = basis.order.seq(basis.field.n)
    lines = []
    for entry in janet_board(basis):
        cells = [str(v) if v in entry["mult_vars"] else "." for v in seq]
        lines.append("| " + " ".join(cells) + " |  " + entry["lead"])
    return "\n".join(lines)


@dataclass
class ParametricCount:
    finite_type: bool
    dim: int | None
    standard_monomials: dict
    hilbert: dict


def count_parametric(basis):
    """Count jet coordinates not reducible modulo the basis leads."""
    n = basis.field.n
    leads = basis._leads()
    std = {}
    for col in range(basis.ncols):
        mus = leads.get(col, [])
        # the least pure power of each variable among the leads, if any
        bounds = [min((mu[i] for mu in mus if sum(mu) == mu[i]), default=None)
                  for i in range(n)]
        std[col] = None if not mus or None in bounds else [
            point for point in product(*[range(b) for b in bounds])
            if not any(mono_le(mu, point) for mu in mus)]
    finite = None not in std.values()
    dim = sum(len(v) for v in std.values()) if finite else None
    return ParametricCount(finite, dim, std, _hilbert(basis, leads))


def _hilbert(basis, leads):
    """Standard-monomial counts by order, up to the basis order + 1."""
    n = basis.field.n
    counts = {}
    for deg in range(max(basis.max_order + 1, 1) + 1):
        points = [tuple(c.count(i) for i in range(n))
                  for c in combinations_with_replacement(range(n), deg)]
        counts[deg] = sum(1 for col in range(basis.ncols) for p in points
                          if not any(mono_le(mu, p) for mu in leads.get(col, [])))
    return counts
