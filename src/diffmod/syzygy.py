"""Compatibility conditions, differential sequences, differential rank.

A compatibility condition (CC) of the inhomogeneous system A(y) = eta is
a row L with L o A = 0; the completion engine surfaces every such row in
the original eta coordinates, and a minimalization pass shrinks the
generating set so that unexpectedly low-order conditions are found.

The differential rank needs no CC: it is the number of columns holding a
lead of one Janet basis (Kolchin; W. M. Seiler, Involution, 2010).
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .field import DiffmodError, ResourceLimit, Session
from .janet import InvolutiveBasis, complete, lead_term
from .ops import DEFAULT_ORDER, OpMatrix


class InvalidArgument(DiffmodError, ValueError):
    """A length or index argument out of its range."""


def _minimalize(field, rows, ncols, order, session, labels):
    """Keep an inclusion-minimal generating subset of the given rows.

    One basis grows by each kept row; a row it already contains is
    dropped.
    """
    mats = [OpMatrix.from_rows(field, [list(r)], ncols, col_labels=labels)
            for r in rows]
    kept = InvolutiveBasis(OpMatrix.zero(field, 0, ncols, col_labels=labels),
                           order, session)
    key = kept._key
    mats.sort(key=lambda m: (m.order, key(lead_term(m.row(0), key))))
    kept_rows = []
    for m in mats:
        if kept.contains(m.row(0)):
            continue
        kept_rows.append(m.row(0))
        kept.add(m)
    return kept_rows


def compatibility_conditions(A, order=None, session=None):
    """Generating CC of A, expressed in the original second members.

    The system is completed first (this is not optional: hidden
    integrability conditions produce the low-order CC), every syzygy met
    during completion is collected, and an inclusion-minimal generating
    subset is returned, rows monic and sorted by order; among rows of
    equal order the term order's module key decides.

    When A is zero or has no columns, A(y) = eta forces eta = 0 and the
    result is the identity on the second members in input order, its rows
    labelled z1..zp.
    """
    return _cc_and_completion(A, order or DEFAULT_ORDER,
                              session or Session(A.field))[0]


def _cc_and_completion(A, order, session):
    """(CC of A, the tracked completion of A or None if none was needed)."""
    field = A.field
    if A.cols == 0 or (A.rows and A.is_zero):
        ident = OpMatrix.identity(field, A.rows, col_labels=A.row_labels,
                                  row_labels=[f"z{i+1}" for i in range(A.rows)])
        return ident, None
    if A.rows == 0:
        return OpMatrix.zero(field, 0, 0), None
    basis = complete(A, order=order, session=session, track_src=True)
    raw = basis.trace.cc_rows
    if not raw:
        return OpMatrix.zero(field, 0, A.rows, col_labels=A.row_labels), basis
    # The raw syzygies generate, but the unexpectedly low-order conditions
    # are D-combinations of them: complete the syzygy module first, then
    # extract a minimal generating subset from its involutive basis.
    raw_matrix = OpMatrix.from_rows(field, raw, A.rows, col_labels=A.row_labels)
    syz_basis = complete(raw_matrix, order=order, session=session,
                         track_src=False)
    syz = syz_basis.matrix()
    candidates = [syz.row(i) for i in range(syz.rows)]
    kept = _minimalize(field, candidates, A.rows, order, session, A.row_labels)
    labels = [f"z{i+1}" for i in range(len(kept))]
    return OpMatrix.from_rows(field, kept, A.rows, row_labels=labels,
                              col_labels=A.row_labels), basis


@dataclass
class DiffSequence:
    """A chain of operators, each generating the CC of the one before.

    ops[0] is the presentation; ops[i+1] = CC(ops[i]).  The chain is
    formally exact by construction; the strictly-exact and involutive
    flags follow from the per-operator completion behaviour.
    """

    field: object
    ops: list
    orders: list
    strictly_exact: bool
    involutive: bool
    terminated: bool
    certificates: list = dc_field(default_factory=list)

    def __len__(self):
        return len(self.ops)

    @property
    def shape(self):
        """Free-module sizes (a0, a1, ...) of the resolution."""
        if not self.ops:
            return ()
        return (self.ops[0].cols,) + tuple(op.rows for op in self.ops)

    def alternating_rank_sum(self):
        dims = self.shape
        return sum((-1) ** i * d for i, d in enumerate(dims))


def classify_operator(A, basis):
    """(formally_integrable, involutive) flags of A from its completion.

    Involutive means completion returns the autoreduced input unchanged:
    every basis lead already appears among the input rows' leads.  A
    basis of None stands for an operator that needs no completion (zero,
    or without rows or columns); it is both.  The leads are compared
    under the basis's term order.
    """
    if basis is None:
        return True, True
    formally_integrable = not basis.trace.integrability_conditions
    added = {r.lead(basis._terms) for r in basis._rows}
    input_leads = {lead_term(A.row(i), basis._key) for i in range(A.rows)}
    involutive = added <= input_leads
    return formally_integrable, involutive


def build_sequence(A, max_steps=None, order=None, session=None):
    """Iterate compatibility conditions until they are empty.

    The length is capped at n + 1 operators starting from A; emptiness of
    the final CC is verified rather than assumed.
    """
    order = order or DEFAULT_ORDER
    field = A.field
    session = session or Session(field)
    cap = max_steps if max_steps is not None else field.n + 1
    if cap < 1:
        raise InvalidArgument("max_steps must be >= 1")
    ops = [A]
    per_op = []
    certificates = []
    terminated = False
    while True:
        cc, basis = _cc_and_completion(ops[-1], order, session)
        fi, inv = classify_operator(ops[-1], basis)
        per_op.append({"formally_integrable": fi, "involutive": inv,
                       "order": ops[-1].order})
        if cc.rows == 0:
            terminated = True
            break
        if len(ops) >= cap:
            break
        certificates.append(cc.compose(ops[-1]).is_zero)
        ops.append(cc)
    if not terminated and len(ops) >= field.n + 1:
        raise ResourceLimit("differential sequence exceeded the n+1 bound")
    return DiffSequence(
        field=field,
        ops=ops,
        orders=[op.order for op in ops],
        strictly_exact=all(p["formally_integrable"] for p in per_op),
        involutive=all(p["involutive"] for p in per_op),
        terminated=terminated,
        certificates=certificates,
    )


def differential_rank(A, order=None, session=None):
    """Rank of A over the skew quotient field of D: the number of columns
    holding a lead of one Janet basis of A's row module.

    A column without a lead is a free unknown; the parametric derivatives
    of a column with a lead form cones of dimension below n.  So
    cols(A) - rk A counts the arbitrary functions of all n variables, the
    leading coefficient of Kolchin's differential dimension polynomial
    (Seiler, Involution, 2010).  Equals rk ad(A).

    rk A <= min(rows, cols), and a column that holds a lead keeps one
    for the rest of the completion, so the completion stops once
    min(rows, cols) columns hold a lead: the count is final there.  That
    partial basis is counted and dropped; the session records only the
    provisos of the pivots made before the stop, and a tracer's per-basis
    row count (janet.basis_rows) counts its rows.
    """
    if A.cols == 0:
        return 0
    basis = complete(A, order, session, lead_columns=min(A.rows, A.cols))
    return len(basis._leads())
