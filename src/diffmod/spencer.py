"""Symbol spaces, prolongations and Spencer delta-cohomology dimensions.

A symbol is read off an operator: `SymbolSpace.of(A)` takes the top-order
terms of each row of a constant-coefficient operator A of one order q as
the linear equations cutting g_q out of S_q T* (x) E.  From there
everything is finite linear algebra over exact rationals (sympy's sparse
`DomainMatrix` over QQ, each rank taken on the tall side of its matrix,
where elimination is several times faster): the prolongations shift those
equations up in symmetric degree (mu -> mu + 1_i is injective, so the
coefficients just move), and the delta complex

    wedge^{s-1} (x) g_{l+1}  ->  wedge^s (x) g_l  ->  wedge^{s+1} (x) g_{l-1}

has cohomology dimensions computed from the ranks of delta on a basis of
each g_l:

    dim H^s(g_l) = C(n, s) dim g_l - rk delta|wedge^s (x) g_l
                                   - rk delta|wedge^{s-1} (x) g_{l+1}.

Every count reads its bases off one ladder, `SymbolSpace.ladder`: g_q,
g_{q+1}, ..., each prolonged once from the level below, up to the first
zero space.  The Killing and conformal symbols are read off the operators
of `families`, and their tables come from one rule on these groups: F0 = E,
F1 = S_q T* (x) E / g_q, and F_{s-1} = H^s(g_{q+r_s}) for s = 2..n, where
r_s is the least r giving a nonzero group.  Only the contact family,
which is not of finite type, keeps a closed form.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from sympy import QQ
from sympy.polys.matrices import DomainMatrix

from . import families
from .field import DiffmodError, ResourceLimit


class UnsupportedDimension(DiffmodError, ValueError):
    pass


# ---------------------------------------------------------------------------
# exact linear algebra

def _matrix(rows, ncols):
    dod = {}
    for i, row in enumerate(rows):
        entries = {c: QQ(v.numerator, v.denominator)
                   for c, v in row.items() if v}
        if entries:
            dod[i] = entries
    return DomainMatrix.from_dod(dod, (len(rows), ncols), QQ)


def rank(rows, ncols):
    """Rank of a matrix given as a list of {col: value} dicts."""
    M = _matrix(rows, ncols)
    return (M if len(rows) >= ncols else M.transpose()).rank()


# ---------------------------------------------------------------------------
# index bookkeeping

def sym_monos(n, q):
    """Multi-indices of total degree q (coordinates of S_q T*)."""
    if q < 0:
        return []
    out = []
    for combo in itertools.combinations_with_replacement(range(n), q):
        mu = [0] * n
        for i in combo:
            mu[i] += 1
        out.append(tuple(mu))
    return out


def wedge_sets(n, s):
    """Ascending index tuples (coordinates of wedge^s T*)."""
    if s < 0 or s > n:
        return []
    return list(itertools.combinations(range(n), s))


def sym_dim(n, q):
    return math.comb(n + q - 1, q) if q >= 0 else 0


# ---------------------------------------------------------------------------
# symbol spaces

@dataclass
class SymbolSpace:
    """g_q inside S_q T* (x) E, cut out by linear equations.

    equations: list of {(mu, k): Fraction} with |mu| = q, 0 <= k < m.
    """

    n: int
    m: int
    q: int
    equations: list

    @classmethod
    def of(cls, A):
        """The symbol of A, a constant-coefficient operator whose nonzero
        rows all have one order q: per nonzero row, the equation of its
        order-q terms.  Any other operator raises UnsupportedDimension."""
        eqs, orders = [], set()
        for row in A.entries:
            terms = [(mu, k, c) for k, e in enumerate(row)
                     for mu, c in e.terms.items()]
            for _, _, c in terms:
                if c._q is None:
                    raise UnsupportedDimension(
                        f"{c.field.coeff_str(c)} is not a rational constant")
            if terms:
                q = max(sum(mu) for mu, _, _ in terms)
                orders.add(q)
                eqs.append({(mu, k): c._q for mu, k, c in terms
                            if sum(mu) == q})
        if len(orders) != 1:
            raise UnsupportedDimension(
                f"rows of orders {sorted(orders)}: a symbol needs one order")
        return cls(A.field.n, A.cols, orders.pop(), eqs)

    def _coordinates(self):
        """The keys (mu, k) of S_q T* (x) E, and the equations as rows
        over their positions."""
        keys = [(mu, k) for mu in sym_monos(self.n, self.q)
                for k in range(self.m)]
        index = {key: i for i, key in enumerate(keys)}
        return keys, [{index[key]: v for key, v in eq.items()}
                      for eq in self.equations]

    @property
    def dim(self):
        keys, rows = self._coordinates()
        return len(keys) - rank(rows, len(keys))

    def basis(self):
        """A basis of g_q, as {(mu, k): value} dicts."""
        keys, rows = self._coordinates()
        null = _matrix(rows, len(keys)).nullspace().to_dod()
        return [{keys[c]: v for c, v in vec.items()} for vec in null.values()]

    def prolong(self, r=1):
        """g_{q+r}: every equation shifted by every degree-r monomial."""
        if r < 1:
            raise ValueError("prolongation steps must be >= 1")
        g = self
        for _ in range(r):
            eqs = [{(mu[:i] + (mu[i] + 1,) + mu[i + 1:], k): v
                    for (mu, k), v in eq.items()}
                   for eq in g.equations for i in range(g.n)]
            g = SymbolSpace(g.n, g.m, g.q + 1, eqs)
        return g

    def ladder(self, levels):
        """Bases of g_q, g_{q+1}, ..., g_{q+levels-1}, each level prolonged
        once from the one below; the list ends early with the first zero
        space, above which every prolongation is zero too."""
        g, bases = self, [self.basis()]
        while len(bases) < levels and bases[-1]:
            g = g.prolong()
            bases.append(g.basis())
        return bases


# ---------------------------------------------------------------------------
# the delta complex

def _delta(I, mu):
    """delta(e_I (x) x^mu): one d_j moves from the symmetric factor to the
    wedge factor.  Yields (sign, J, nu) with J = I + {j} ascending,
    nu = mu - 1_j and sign (-1)^(position of j in J); E is a spectator."""
    for j, mj in enumerate(mu):
        if mj and j not in I:
            J = tuple(sorted(I + (j,)))
            yield (-1) ** J.index(j), J, mu[:j] + (mj - 1,) + mu[j + 1:]


def _delta_rank(n, s, basis):
    """Rank of delta on wedge^s (x) span(basis)."""
    cols = {}
    rows = []
    for I in wedge_sets(n, s):
        for vec in basis:
            row = {}
            for (mu, k), v in vec.items():
                for sign, J, nu in _delta(I, mu):
                    c = cols.setdefault((J, nu, k), len(cols))
                    row[c] = row.get(c, 0) + sign * v
            rows.append(row)
    return rank(rows, len(cols))


def _cohomology_dim(n, s, bases, r):
    """dim H^s(g_{q+r}) from a ladder g_q, g_{q+1}, ..., zero past its end."""
    here, above = (bases[i] if i < len(bases) else [] for i in (r, r + 1))
    return (math.comb(n, s) * len(here) - _delta_rank(n, s, here)
            - _delta_rank(n, s - 1, above))


def delta_cohomology_dim(g, s, r=0):
    """dim H^s(g_{q+r}): kernel minus image at wedge^s (x) g_{q+r}."""
    if r < 0:
        raise ValueError("r must be >= 0")
    return _cohomology_dim(g.n, s, g.ladder(r + 2), r)


def acyclicity_check(g, k):
    """True iff H^s(g_{q+r}) = 0 for 1 <= s <= k and all needed r.

    Prolongations are checked until the symbol dies (finite type) or
    r = n + 2, a small safety margin past stabilisation.
    """
    return _acyclic(g.n, g.ladder(g.n + 4), k)


def _acyclic(n, bases, k):
    """acyclicity_check on the ladder bases of g, n + 4 levels or to the
    first zero space."""
    return all(_cohomology_dim(n, s, bases, r) == 0
               for r in range(min(len(bases), n + 3)) if bases[r]
               for s in range(1, k + 1))


# ---------------------------------------------------------------------------
# dimension tables

# The largest n of a table; CHANGES.md has the timings it was set from.
MAX_N = 12


def _bounded(n):
    if n > MAX_N:
        raise ResourceLimit(f"n = {n} is past the bound of {MAX_N} on the "
                            "dimension of a Spencer table")


def _symbol(family, n):
    """The symbol of the flat Killing or conformal operator in n variables."""
    builders = {"killing": (families.killing, 2),
                "conformal": (families.conformal, 3)}
    if family not in builders:
        raise UnsupportedDimension(f"unknown family {family!r}")
    build, least = builders[family]
    if n < least:
        raise UnsupportedDimension(f"{family} needs n >= {least}")
    return SymbolSpace.of(build(n))


def contact_bundle_dim(n, r):
    """Fiber dimension n! / ((r+2)! (n-r-2)!) of the contact sequence."""
    return math.comb(n, r + 2)


def classical_dims(family, n):
    """Bundle dimensions and operator orders of the Janet-type sequence.

    Killing and conformal, with symbol g_q on E: F0 = E,
    F1 = S_q T* (x) E / g_q, and F_{s-1} = H^s(g_{q+r_s}) for s = 2..n,
    where r_s is the least r with a nonzero group.  The operator orders
    are q, then q + 1 + r_2, then 1 + r_s - r_{s-1}.  Both symbols are of
    finite type, so their ladder ends where g_{q+r} = 0, inside its n + 4
    levels.  A table that lacks n + 1 entries or a vanishing alternating
    sum raises instead of being returned.

    Contact is not of finite type and keeps its combinatorial formula.
    """
    _bounded(n)
    if family == "contact":
        if n < 3 or n % 2 == 0:
            raise UnsupportedDimension("contact needs odd n >= 3")
        dims = [n] + [contact_bundle_dim(n, r) for r in range(0, n - 1)]
        orders = [1] * (n - 1)
        return {"family": family, "n": n, "dims": dims, "orders": orders}
    g = _symbol(family, n)
    bases = g.ladder(n + 4)
    dims = [g.m, g.m * sym_dim(n, g.q) - len(bases[0])]
    orders = [g.q]
    for s in range(2, n + 1):
        for r in range(len(bases) - 1):
            h = _cohomology_dim(n, s, bases, r)
            if h:
                break
        else:
            raise UnsupportedDimension(
                f"{family} n={n}: H^{s} vanishes on every prolongation")
        dims.append(h)
        orders.append(g.q + 1 + r if s == 2 else 1 + r - last)
        last = r
    if len(dims) != n + 1 or sum((-1) ** i * d for i, d in enumerate(dims)):
        raise UnsupportedDimension(
            f"{family} n={n}: table {dims} is not an exact sequence")
    return {"family": family, "n": n, "dims": dims, "orders": orders}


def symbol_counts(family, n):
    """The counts `diffmod spencer` prints beside the Killing or conformal
    table, all read off one ladder g_q, ..., g_{q+n+4} of the symbol:
    H2 and H3 of g_q for Killing; dim g_{q+2} (ghat3_dim), H3 of g_q
    (H3_ghat1) and whether g_{q+1} is 2-acyclic for conformal.  The
    ladder of g_{q+1} is this one without its first level."""
    _bounded(n)
    g = _symbol(family, n)
    bases = g.ladder(n + 5)
    if family == "killing":
        return {"H2": _cohomology_dim(n, 2, bases, 0),
                "H3": _cohomology_dim(n, 3, bases, 0)}
    return {"ghat3_dim": len(bases[2]) if len(bases) > 2 else 0,
            "H3_ghat1": _cohomology_dim(n, 3, bases, 0),
            "ghat2_2acyclic": _acyclic(n, bases[1:], 2)}


def conformal_diagram_dims(n=5):
    """Fiber dimensions of the commutative diagram tying the two
    third-cohomology descriptions together (the n = 5 instance).

    Returns the six distinct fiber dimensions: Z^3 of the isometry
    symbol, Z^3 and H^3 of the conformal symbol, wedge^2 (x) g2hat,
    delta(T* (x) S_2 T*), and wedge^3 T*.
    """
    _bounded(n)
    if n < 5:
        raise UnsupportedDimension("the diagram needs n >= 5")
    gh1, gh2 = _symbol("conformal", n).ladder(2)
    z3_isometry, z3_conformal = (
        math.comb(n, 3) * len(b) - _delta_rank(n, 3, b)
        for b in (_symbol("killing", n).basis(), gh1))
    return {
        "z3_isometry": z3_isometry,
        "z3_conformal": z3_conformal,
        # H^3 = Z^3 / delta(wedge^2 (x) ghat_2)
        "h3_conformal": z3_conformal - _delta_rank(n, 2, gh2),
        "wedge2_g2hat": math.comb(n, 2) * len(gh2),
        # delta(T* x S2 T*) inside wedge^2 x T*: image dimension of delta
        "delta_T_S2": _delta_rank(n, 1, SymbolSpace(n, 1, 2, []).basis()),
        "wedge3": math.comb(n, 3),
    }


# ---------------------------------------------------------------------------
# the n = 4 potential identification

def _perm_sign(perm):
    sign = 1
    perm = list(perm)
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def potential_identification_check(n=4):
    """The two descriptions of the degree-3 cocycle space agree for n = 4.

    Compares, inside wedge^3 T* (x) g_1 (flat metric, so g_1 = so(4)),
    the four closure equations of the delta map against the four cyclic
    equations of the 3-index potential obtained by double Hodge duality.
    Returns True when the two constraint sets cut the same subspace.
    """
    if n != 4:
        raise UnsupportedDimension("the identification only holds for n = 4")
    pairs = list(itertools.combinations(range(n), 2))   # g_1 = so(4) coords
    triples = wedge_sets(n, 3)
    coords = {(p, I): i for i, (p, I) in enumerate(
        (p, I) for p in pairs for I in triples)}

    def b(pair, I):
        (a, c) = pair
        if a == c:
            return {}
        sign = 1
        if a > c:
            a, c = c, a
            sign = -1
        return {coords[((a, c), I)]: Fraction(sign)}

    def add(row, other, scale=1):
        for k, v in other.items():
            row[k] = row.get(k, Fraction(0)) + Fraction(scale) * v

    # closure equations: the delta map on wedge^3 (x) T* (x) T written in
    # ambient coordinates, then restricted to so(4) pair coordinates
    amb = {}
    for i in range(n):
        for k in range(n):
            for I in triples:
                amb[(i, k, I)] = len(amb)
    delta_rows = []
    for k in range(n):
        row = {}
        full = (0, 1, 2, 3)
        for t, jt in enumerate(full):
            I = tuple(x for x in full if x != jt)
            row[amb[(jt, k, I)]] = Fraction((-1) ** t)
        delta_rows.append(row)
    # restriction so(4): B_{ik} = -B_{ki}: express ambient through pair coords
    def to_pairs(row):
        out = {}
        for (i, k, I), col in amb.items():
            if col in row:
                add(out, b((i, k), I), row[col])
        return out
    closure = [to_pairs(r) for r in delta_rows]

    # potential equations: L_{ij,k} = eps(ij|comp) eps(k|comp) B_{comp(ij), comp(k)}
    def L(i, j, k):
        rest_pair = tuple(x for x in range(n) if x not in (i, j))
        rest_k = tuple(x for x in range(n) if x != k)
        s1 = _perm_sign((i, j) + rest_pair)
        s2 = _perm_sign((k,) + rest_k)
        out = {}
        add(out, b(rest_pair, rest_k), s1 * s2)
        return out
    cyclic = []
    for (i, j, k) in itertools.combinations(range(n), 3):
        row = {}
        add(row, L(i, j, k))
        add(row, L(j, k, i))
        add(row, L(k, i, j))
        cyclic.append(row)

    ncols = len(coords)
    r1 = rank(closure, ncols)
    r2 = rank(cyclic, ncols)
    r12 = rank(closure + cyclic, ncols)
    return r1 == r2 == r12
