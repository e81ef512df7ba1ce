"""Janet involutive completion for rows of operator matrices.

The completion works on augmented rows (R | S): R lives over the
unknowns, S records the same row as a D-combination of the input rows.
That single invariant yields three things at once: a replayable trace,
the integrability conditions discovered along the way, and, whenever an
op-part cancels to zero, a compatibility condition expressed in the
original second members.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field import ResourceLimit, Session
from .ops import (DEFAULT_ORDER, OpMatrix, ScalarOp, mono_le, mono_order,
                  mono_str, mono_sub)


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


class _Row:
    """Augmented module row: op over the unknowns, src over the inputs."""

    __slots__ = ("op", "src", "_lead")

    def __init__(self, op, src):
        self.op = op
        self.src = src
        self._lead = None

    def lead(self, order):
        if self._lead is None:
            terms = [(j, mu) for j, e in enumerate(self.op) for mu in e.terms]
            self._lead = max(terms, default=None, key=lambda t:
                             order.module_key(t, len(self.op)))
        return self._lead

    @property
    def op_is_zero(self):
        return all(e.is_zero for e in self.op)

    @property
    def src_is_zero(self):
        return self.src is None or all(e.is_zero for e in self.src)

    def lead_coeff(self, order):
        j, mu = self.lead(order)
        return self.op[j].terms[mu]

    def lead_order(self, order):
        return mono_order(self.lead(order)[1])

    def scaled(self, c):
        src = None if self.src is None else [e.scale(c) for e in self.src]
        return _Row([e.scale(c) for e in self.op], src)

    def sub_multiple(self, c, kappa, other, field):
        """self - c * d^kappa o other, on both blocks."""
        mono = ScalarOp.monomial(field, kappa, c)
        op = [a - (mono * b) for a, b in zip(self.op, other.op)]
        if self.src is None:
            src = None
        else:
            src = [a - (mono * b) for a, b in zip(self.src, other.src)]
        return _Row(op, src)


@dataclass
class CompletionTrace:
    steps: list = dc_field(default_factory=list)
    integrability_conditions: list = dc_field(default_factory=list)
    cc_rows: list = dc_field(default_factory=list)
    provisos: list = dc_field(default_factory=list)


class JanetRow:
    """One basis row with its Janet data."""

    def __init__(self, op_row, src_row, lead, mult_vars, class_label):
        self.op = op_row
        self.src = src_row
        self.lead = lead
        self.mult_vars = mult_vars
        self.class_label = class_label

    def __repr__(self):
        col, mu = self.lead
        return f"JanetRow(lead={mono_str(mu) or '1'}@{col}, mult={sorted(self.mult_vars)})"


class InvolutiveBasis:
    """Autoreduced Janet basis of the row module of an operator matrix."""

    def __init__(self, field, ncols, order, rows, trace, input_matrix):
        self.field = field
        self.ncols = ncols
        self.order = order
        self._rows = rows              # list of _Row, monic, with mult vars
        self._mult = []                # parallel list of frozensets
        self.trace = trace
        self.input = input_matrix
        self._assign_mult()

    # -- Janet structure -------------------------------------------------

    def _assign_mult(self):
        groups = {}
        for idx, r in enumerate(self._rows):
            col, mu = r.lead(self.order)
            groups.setdefault(col, []).append((idx, mu))
        self._mult = [None] * len(self._rows)
        seq = self.order.seq(self.field.n)
        for col, members in groups.items():
            mult = janet_multiplicative([mu for _, mu in members], seq)
            for (idx, _), m in zip(members, mult):
                self._mult[idx] = m

    @property
    def rows(self):
        out = []
        seq = self.order.seq(self.field.n)
        for r, mult in zip(self._rows, self._mult):
            col, mu = r.lead(self.order)
            cls = 0
            for var in seq:
                if mu[var - 1] > 0:
                    cls = var
            out.append(JanetRow(list(r.op), None if r.src is None else list(r.src),
                                (col, mu), mult, cls))
        return out

    def __len__(self):
        return len(self._rows)

    @property
    def max_order(self):
        return max((r.lead_order(self.order) for r in self._rows), default=-1)

    def matrix(self):
        ent = [list(r.op) for r in self._rows]
        return OpMatrix.from_rows(self.field, ent, self.ncols,
                                  col_labels=self.input.col_labels)

    def src_matrix(self):
        if any(r.src is None for r in self._rows):
            return None
        ent = [list(r.src) for r in self._rows]
        return OpMatrix.from_rows(self.field, ent, self.input.rows,
                                  col_labels=self.input.row_labels)

    # -- reduction --------------------------------------------------------

    def _reducer(self, term):
        j, mu = term
        for r, mult in zip(self._rows, self._mult):
            col, lam = r.lead(self.order)
            if col != j or not mono_le(lam, mu):
                continue
            kappa = mono_sub(mu, lam)
            if all(kappa[i] == 0 or (i + 1) in mult for i in range(len(kappa))):
                return r, kappa
        return None

    def reduce_row(self, row, budget=None, tail=False):
        """Full involutive normal form of an augmented row.

        With tail=True the row's own lead term is left alone and only the
        terms below it are reduced.
        """
        skip = row.lead(self.order) if tail else None
        work = row
        while True:
            terms = [(j, mu) for j, e in enumerate(work.op) for mu in e.terms
                     if (j, mu) != skip]
            if not terms:
                break
            terms.sort(key=lambda t: self.order.module_key(t, self.ncols),
                       reverse=True)
            hit = None
            for t in terms:
                found = self._reducer(t)
                if found is not None:
                    hit = (t, found)
                    break
            if hit is None:
                break
            (j, mu), (r, kappa) = hit
            c = work.op[j].terms[mu]
            work = work.sub_multiple(c, kappa, r, self.field)
            if budget is not None:
                budget.tick()
        return work

    def normal_form(self, op_row):
        """Involutive normal form of a plain 1 x m row (list or OpMatrix)."""
        if isinstance(op_row, OpMatrix):
            if op_row.rows != 1:
                raise ValueError("normal_form expects a single row")
            op_row = op_row.row(0)
        row = _Row([ScalarOp.constant(self.field, 0) + e for e in op_row], None)
        return self.reduce_row(row).op

    def contains(self, op_row):
        return all(e.is_zero for e in self.normal_form(op_row))

    def contains_matrix(self, mat):
        return all(self.contains(mat.row(i)) for i in range(mat.rows))

    def verify_involutive(self):
        """Janet criterion: every nonmultiplicative prolongation reduces to 0."""
        for r, mult in zip(self._rows, self._mult):
            for i in range(1, self.field.n + 1):
                if i in mult:
                    continue
                di = ScalarOp.d(self.field, i)
                prol = _Row([di * e for e in r.op], None)
                if not all(e.is_zero for e in self.reduce_row(prol).op):
                    return False
        return True


# Reductions one completion may make; prolongations stop at order 2q + 6
# for an input of order q.
MAX_STEPS = 10_000


class _Budget:
    def __init__(self, max_steps, max_order):
        self.max_steps = max_steps
        self.max_order = max_order
        self.steps = 0

    def tick(self):
        self.steps += 1
        if self.steps > self.max_steps:
            raise ResourceLimit(f"reduction budget exceeded ({self.max_steps})")

    def check_order(self, o):
        if o > self.max_order:
            raise ResourceLimit(f"prolongation order budget exceeded ({self.max_order})")


def complete(A, order=None, session=None, track_src=True):
    """Involutive completion of the row module of A (Janet division).

    Returns an InvolutiveBasis whose trace carries the completion steps,
    the integrability conditions (rows whose order dropped below their
    prolongation order) and every compatibility condition met on the way.
    """
    field = A.field
    order = order or DEFAULT_ORDER
    session = session or Session(field)
    if A.rows and A.cols == 0:
        raise ValueError("cannot complete a matrix with no columns")
    q = max(A.order, 0)
    budget = _Budget(MAX_STEPS, 2 * q + 6)
    trace = CompletionTrace(provisos=session.provisos)
    basis = InvolutiveBasis(field, A.cols, order, [], trace, A)

    pending = []  # (row, expected_order or None)
    for i in range(A.rows):
        src = None
        if track_src:
            src = [ScalarOp.constant(field, 1 if k == i else 0)
                   for k in range(A.rows)]
        row = _Row(A.row(i), src)
        if row.op_is_zero:
            if track_src and not row.src_is_zero:
                trace.cc_rows.append(row.src)
                trace.steps.append({"event": "cc", "from": f"input {A.row_labels[i]}"})
            continue
        pending.append((row, None, f"input {A.row_labels[i]}"))

    done_prolongations = set()  # (row index, var) since the last insertion

    def insert(h):
        col, mu = h.lead(order)
        kept, displaced = [], []
        for b in basis._rows:
            bcol, bmu = b.lead(order)
            if bcol == col and mono_le(mu, bmu):
                displaced.append(b)
            else:
                kept.append(b)
        basis._rows = kept + [h]
        basis._assign_mult()
        done_prolongations.clear()
        return displaced

    while True:
        if pending:
            pending.sort(key=lambda item: order.module_key(
                item[0].lead(order), A.cols))
            row, expected, origin = pending.pop(0)
            h = basis.reduce_row(row, budget)
            if h.op_is_zero:
                if track_src and not h.src_is_zero:
                    trace.cc_rows.append(h.src)
                    trace.steps.append({"event": "cc", "from": origin})
                else:
                    trace.steps.append({"event": "zero", "from": origin})
                continue
            lead_ord = h.lead_order(order)
            session.check_pivot(h.lead_coeff(order))
            h = h.scaled(h.lead_coeff(order).inverse())
            if expected is not None and lead_ord < expected:
                trace.integrability_conditions.append(
                    OpMatrix.from_rows(field, [list(h.op)], A.cols,
                                       col_labels=A.col_labels))
                trace.steps.append({"event": "integrability", "from": origin,
                                    "order": lead_ord})
            displaced = insert(h)
            trace.steps.append({"event": "add", "from": origin,
                                "lead": h.lead(order), "order": lead_ord})
            for b in displaced:
                pending.append((b, None, "displaced"))
            continue
        # no pending work: look for an unprocessed nonmultiplicative prolongation
        task = None
        for idx, (r, mult) in enumerate(zip(basis._rows, basis._mult)):
            for i in range(1, field.n + 1):
                if i in mult or (idx, i) in done_prolongations:
                    continue
                task = (idx, i)
                break
            if task:
                break
        if task is None:
            break
        idx, i = task
        done_prolongations.add((idx, i))
        r = basis._rows[idx]
        budget.check_order(r.lead_order(order) + 1)
        di = ScalarOp.d(field, i)
        prol = _Row([di * e for e in r.op],
                    None if r.src is None else [di * e for e in r.src])
        pending.append((prol, r.lead_order(order) + 1,
                        f"d{i} prolongation"))

    # tail reduction: a row can never reduce its own tail (tail terms are
    # smaller than its lead), so the full Janet assignment is safe to use
    # throughout; leads are untouched and one pass per row suffices
    for idx, r in enumerate(list(basis._rows)):
        work = basis.reduce_row(r, budget, tail=True)
        if work is not r:
            work._lead = r.lead(order)
            basis._rows[idx] = work
    return basis


def involutive_normal_form(op_row, basis):
    """Public reduction: no term of the result is Janet-divisible by basis."""
    return basis.normal_form(op_row)


def janet_board(basis):
    """Per-row multiplicative variables and class, like the boxed boards."""
    board = []
    for jr in basis.rows:
        col, mu = jr.lead
        board.append({
            "lead": (mono_str(mu) or "1") + f"({basis.input.col_labels[col]})",
            "mult_vars": sorted(jr.mult_vars),
            "nonmult_vars": sorted(set(range(1, basis.field.n + 1)) - jr.mult_vars),
            "class": jr.class_label,
        })
    return board


def board_of_matrix(A, order=None, session=None):
    """Janet board of the rows of A as given (autoreduced, not completed).

    The multiplicative-variable analysis makes sense for any lead set;
    the dots of a non-involutive system show where completion will work.
    """
    order = order or DEFAULT_ORDER
    session = session or Session(A.field)
    rows = []
    for i in range(A.rows):
        r = _Row(A.row(i), None)
        if r.op_is_zero:
            continue
        session.check_pivot(r.lead_coeff(order))
        rows.append(r.scaled(r.lead_coeff(order).inverse()))
    basis = InvolutiveBasis(A.field, A.cols, order, rows,
                            CompletionTrace(provisos=session.provisos), A)
    return janet_board(basis)


def board_text(basis):
    """Render the board in the boxed style: one line per row."""
    lines = []
    for entry in janet_board(basis):
        cells = []
        seq = basis.order.seq(basis.field.n)
        for var in seq:
            cells.append(str(var) if var in entry["mult_vars"] else ".")
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
    leads = {}
    for r in basis._rows:
        col, mu = r.lead(basis.order)
        leads.setdefault(col, []).append(mu)
    std = {}
    finite = True
    for col in range(basis.ncols):
        mus = leads.get(col, [])
        if not mus:
            finite = False
            std[col] = None
            continue
        bounds = []
        for i in range(n):
            pure = [mu[i] for mu in mus if all(mu[j] == 0 for j in range(n) if j != i)]
            if not pure:
                bounds = None
                break
            bounds.append(min(pure))
        if bounds is None:
            finite = False
            std[col] = None
            continue
        cells = []
        from itertools import product
        for point in product(*[range(b) for b in bounds]):
            if not any(mono_le(mu, point) for mu in mus):
                cells.append(tuple(point))
        std[col] = sorted(cells)
    if not finite:
        return ParametricCount(False, None, std, _hilbert(basis, leads))
    dim = sum(len(v) for v in std.values())
    return ParametricCount(True, dim, std, _hilbert(basis, leads))


def _hilbert(basis, leads):
    """Standard-monomial counts by order, up to the basis order + 1."""
    n = basis.field.n
    top = max(basis.max_order + 1, 1)
    counts = {}
    for deg in range(top + 1):
        total = 0
        for col in range(basis.ncols):
            mus = leads.get(col, [])
            for point in _monos_of_degree(n, deg):
                if not any(mono_le(mu, point) for mu in mus):
                    total += 1
        counts[deg] = total
    return counts


def _monos_of_degree(n, deg):
    if n == 1:
        yield (deg,)
        return
    for first in range(deg + 1):
        for rest in _monos_of_degree(n - 1, deg - first):
            yield (first,) + rest
