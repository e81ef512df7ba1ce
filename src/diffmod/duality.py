"""Double duality, torsion, parametrization and ext modules.

Everything here runs on left row modules: a presentation matrix A gives
M = D^(1xm) / (rows of A).  Duality is taken with the formal adjoint so
that both sides stay left modules; the five-step test compares the
bidualized compatibility conditions with the original presentation, and
the rows that fail to reduce generate the torsion submodule.

The five-step test on D1 is the i = 1 step of ext on the chain
[ad D1, CC(ad D1)]: its generators are CC(D) and its image is D1, so both
find the generators outside the image with the same `_outside`.  Each
torsion certificate is built by `_certificates` and replayed.  The raw
syzygies of one completion of [row; presentation] generate its syzygy
module (as `compatibility_conditions` assumes), so their first components
generate the annihilator ideal of row; the least-order one, made monic, is
the annihilator, not necessarily of least order in the ideal.
"""

from __future__ import annotations

from dataclasses import dataclass

from .field import DiffmodError, Session
from .janet import complete, count_parametric, lead_term
from .ops import DEFAULT_ORDER, OpMatrix, ScalarOp
from .syzygy import (InvalidArgument, compatibility_conditions,
                     differential_rank)


class NotParametrizable(DiffmodError):
    def __init__(self, certificates):
        self.certificates = certificates
        super().__init__(
            "operator admits no parametrization: torsion generators "
            f"{[c.describe() for c in certificates]}")


@dataclass
class TorsionCertificate:
    """A torsion element with a replayable annihilator identity.

    annihilator o element == witness o presentation holds exactly, and the
    element itself does not reduce modulo the presentation rows.
    """

    element: OpMatrix          # 1 x m row in the presentation coordinates
    annihilator: ScalarOp      # nonzero P with P*element in the row module
    witness: OpMatrix          # 1 x p row with P*element = witness o A
    presentation: OpMatrix

    def describe(self):
        return self.element.row_string(0)

    def verify(self):
        left = OpMatrix(self.element.field,
                        [[self.annihilator]]).compose(self.element)
        right = self.witness.compose(self.presentation)
        return left == right and not self.annihilator.is_zero


@dataclass
class DualityResult:
    torsion_free: bool
    parametrizing: OpMatrix | None    # the operator D with CC(D) ~ D1
    adjoint_cc: OpMatrix              # CC(ad D1) = ad(D)
    d1_prime: OpMatrix                # CC(D)
    extra_cc: list                    # rows of d1_prime not in the row module of D1


@dataclass
class ExtReport:
    index: int
    generators: OpMatrix
    image: OpMatrix | None
    surviving: list                   # rows of generators not in the image
    torsion_generators: list

    @property
    def vanishing(self):
        return not self.surviving


@dataclass
class ParametrizationResult:
    parametrizing: OpMatrix
    d1_prime: OpMatrix
    certified: bool
    minimal_rank_bound: int


def kernel_analysis(A, order=None, session=None):
    """Formal solutions of the homogeneous system A(lam) = 0.

    Completes the system; injective when no parametric derivative is
    left.  The nonzero conditions consumed by pivots along the way are
    exactly the constraints under which injectivity holds.
    """
    order = order or DEFAULT_ORDER
    session = session or Session(A.field)
    basis = complete(A, order=order, session=session, track_src=False)
    count = count_parametric(basis)
    injective = count.finite_type and count.dim == 0
    conditions = list(session.provisos)
    status = "injective" if injective and not conditions else (
        "conditional" if injective else "not injective")
    return {
        "injective": injective,
        "status": status,
        "conditions": conditions,
        "kernel_basis": basis,
        "parametric": count,
    }


def double_duality_test(D1, order=None, session=None):
    """The five-step torsion test on the module presented by D1.

    ad(D1) -> its CC (called ad of the parametrizing operator) -> adjoint
    back -> its CC D1' -> reduce D1' against D1.  Rows of D1' that do not
    reduce generate t(M); their absence certifies torsion-freeness.
    """
    order = order or DEFAULT_ORDER
    session = session or Session(D1.field)
    ad1 = D1.adjoint()
    ad_d = compatibility_conditions(ad1, order=order, session=session)
    D = ad_d.adjoint()
    d1_prime = compatibility_conditions(D, order=order, session=session)
    extra = _outside(d1_prime, D1, order, session)
    return DualityResult(
        torsion_free=not extra,
        parametrizing=D,
        adjoint_cc=ad_d,
        d1_prime=d1_prime,
        extra_cc=extra,
    )


def annihilator_of(row, presentation, order=None, session=None):
    """A nonzero P with P o row inside the row module of the presentation.

    The raw syzygies (P, -witness) of one completion of [row; presentation]
    generate its syzygy module.  Returns the least-order one with P nonzero
    (the first on a tie) as (P, witness), made monic; P need not be of
    least order in the annihilator ideal.  None when row is not torsion.
    """
    order = order or DEFAULT_ORDER
    session = session or Session(presentation.field)
    raw = complete(row.stack(presentation), order=order, session=session,
                   track_src=True).trace.cc_rows
    syz = min((s for s in raw if not s[0].is_zero), default=None,
              key=lambda s: s[0].order)
    if syz is None:
        return None
    P = syz[0]
    c = P.terms[lead_term([P], order.module_key)[1]]
    session.check_pivot(c)
    inv = c.inverse()
    return P.scale(inv), OpMatrix.from_rows(
        presentation.field, [[(-e).scale(inv) for e in syz[1:]]],
        presentation.rows, col_labels=presentation.row_labels)


def torsion_submodule(presentation, order=None, session=None):
    """Generating torsion certificates of M = coker(presentation)."""
    order = order or DEFAULT_ORDER
    session = session or Session(presentation.field)
    result = double_duality_test(presentation, order=order, session=session)
    return _certificates(result.extra_cc, presentation, order, session)


def _outside(gens, image, order, session):
    """The rows of gens, as 1-row matrices, that do not reduce modulo the
    rows of image; an image that is None, empty or zero reduces nothing."""
    rows = [OpMatrix.from_rows(gens.field, [gens.row(k)], gens.cols,
                               col_labels=gens.col_labels)
            for k in range(gens.rows)]
    if image is None or image.rows == 0 or image.is_zero:
        return [r for r in rows if not r.is_zero]
    basis = complete(image, order=order, session=session, track_src=False)
    return [r for r in rows if not basis.contains(r.row(0))]


def _certificates(rows, presentation, order, session):
    """A replayed TorsionCertificate for each 1-row matrix in rows."""
    certs = []
    for row in rows:
        found = annihilator_of(row, presentation, order=order,
                               session=session)
        if found is None:
            raise DiffmodError(
                f"no annihilator found for row {row.row_string(0)}")
        P, witness = found
        cert = TorsionCertificate(element=row, annihilator=P, witness=witness,
                                  presentation=presentation)
        if not cert.verify():
            raise DiffmodError("torsion certificate failed to replay")
        certs.append(cert)
    return certs


def ext_module(sequence, i, order=None, session=None):
    """ext^i of the module presented by sequence.ops[0].

    Computed as the cohomology of the adjoint chain: generators are the
    CC of ad(ops[i]) (kernel on the dual side), the image is the row
    module of ad(ops[i-1]), and the report carries torsion certificates
    for the generators that survive reduction.
    """
    order = order or DEFAULT_ORDER
    ops = sequence.ops
    field = ops[0].field
    session = session or Session(field)
    if i < 0:
        raise InvalidArgument("ext index must be >= 0")
    if i >= len(ops) and not sequence.terminated:
        raise InvalidArgument("resolution too short for the requested index")
    if i > len(ops):
        return ExtReport(index=i, generators=OpMatrix.zero(field, 0, 0),
                         image=None, surviving=[], torsion_generators=[])
    image = ops[i - 1].adjoint() if i >= 1 else None
    if i < len(ops):
        gens = compatibility_conditions(ops[i].adjoint(), order=order,
                                        session=session)
    else:
        # one step past a terminated resolution: the dual chain ends in 0,
        # the kernel is everything
        width = ops[-1].rows
        gens = OpMatrix.identity(field, width,
                                 col_labels=[f"m{k+1}" for k in range(width)])
    if gens.rows and image is not None and gens.cols != image.cols:
        raise DiffmodError("chain shapes do not match")
    surviving = _outside(gens, image, order, session)
    torsion = ([] if image is None else
               _certificates(surviving, image, order, session))
    return ExtReport(index=i, generators=gens, image=image,
                     surviving=surviving, torsion_generators=torsion)


def parametrize(D1, order=None, session=None):
    """Parametrizing operator of a torsion-free presentation.

    Returns the operator D from the double-duality test together with a
    mutual-reduction certificate that CC(D) and D1 generate the same row
    module, plus the rank bound a minimal parametrization would need.
    One direction of the certificate is the test's torsion-free verdict:
    every row of CC(D) reduces to zero modulo D1.
    """
    order = order or DEFAULT_ORDER
    session = session or Session(D1.field)
    result = double_duality_test(D1, order=order, session=session)
    if not result.torsion_free:
        raise NotParametrizable(
            _certificates(result.extra_cc, D1, order, session))
    D = result.parametrizing
    certified = D1.compose(D).is_zero
    if D1.rows and not D1.is_zero and result.d1_prime.rows:
        basis_prime = complete(result.d1_prime, order=order, session=session,
                               track_src=False)
        certified = certified and basis_prime.contains_matrix(D1)
    rank_m = D1.cols - differential_rank(D1, order=order,
                                         session=session)
    return ParametrizationResult(
        parametrizing=D,
        d1_prime=result.d1_prime,
        certified=certified,
        minimal_rank_bound=rank_m,
    )
