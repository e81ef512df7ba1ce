"""The benchmark's workloads and the references their outputs are checked
against.

Each workload turns a seed into a list of `Op`s; the runner draws the
order of the ops in each pass from the same seed.  `prepare` is the set-up
a user pays before the first answer (parse and elaborate the inputs); the
references an op is checked against are built by `make_reference`, which
the runner calls after set-up and outside every timed region.  No
reference comes from the layer the op exercises: corpus verdicts come
from the hand-written fixtures, constant-coefficient Hilbert counts from
a rank computation with sympy's DomainMatrix, and Spencer tables from
closed forms and the two invariants every table must satisfy.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass
from typing import Callable

from diffmod import corpus, dsl, janet, spencer, syzygy


@dataclass
class Op:
    """One closed-loop request: `run` is timed, `check` is not.

    check(output, reference) returns a list of problems, empty on success.
    known_failure names a documented defect the op reproduces today; such
    an op is a defect probe, run once outside the timed workload.
    """

    label: str
    run: Callable[[], object]
    check: Callable[[object, object], list]
    make_reference: Callable[[], object] = lambda: None
    known_failure: str | None = None


# ---------------------------------------------------------------------------
# corpus: every fixture check of the shipped .dms systems

def _corpus_op(name, directory, check):
    def run():
        # looked up at call time so that a traced run sees the wrapper
        return corpus.run_case(name, directory=directory)

    def verdict(results, _reference):
        if len(results) != 1:
            return [f"expected one check result, got {len(results)}"]
        return list(results[0].details) or ([] if results[0].passed
                                             else ["check failed"])

    label = f"{name}[{check['op']}"
    label += f",i={check['i']}" if "i" in check else ""
    label += f",case={check['case']}" if check.get("case") else ""
    return Op(label + "]", run, verdict)


def corpus_ops(seed, workdir):
    """One op per fixture check, each on a copy of its fixture holding
    only that check, so parse and elaborate count toward every check the
    way they do for a user running one command."""
    ops = []
    for name in corpus.available_cases():
        source, fixture = corpus.load_case(name)
        dsl.elaborate(dsl.parse_system(source))
        for k, check in enumerate(fixture["checks"]):
            directory = workdir / f"{name}.{k}"
            directory.mkdir()
            (directory / f"{name}.dms").write_text(source)
            (directory / f"{name}.expected.json").write_text(
                json.dumps(dict(fixture, checks=[check])))
            ops.append(_corpus_op(name, directory, check))
    return ops


# ---------------------------------------------------------------------------
# const_systems: seeded constant-coefficient operator matrices

CONST_SYSTEMS = 40
CONST_VARS = 3
CONST_UNKNOWNS = 2
CONST_ROWS = 3
CONST_MAX_TERMS = 3          # derivative monomials per matrix entry
CONST_COEFFS = tuple(c for c in range(-9, 10) if c)
# Which derivatives appear in which entry is drawn once from this fixed
# seed; the run seed draws the coefficients.  The pattern sets most of a
# system's cost, so a pass takes about as long whatever the seed.  With
# coefficients from only a few values, some seeds draw rows that cancel
# and make a system several times cheaper, which reorders the tail.
CONST_PATTERN_SEED = 0
HILBERT_ORDERS = 4           # Hilbert counts compared for orders 0..4
MACAULAY_MAX = 14            # highest prolongation order of the reference

_MONOS = [mu for q in range(3) for mu in
          itertools.combinations_with_replacement(range(1, CONST_VARS + 1), q)]


def _patterns():
    """Per system, per row, per unknown: indices into _MONOS."""
    rng = random.Random(CONST_PATTERN_SEED)
    out = []
    for _ in range(CONST_SYSTEMS):
        rows = []
        for _ in range(CONST_ROWS):
            row = []
            while not any(row):
                row = [sorted(rng.sample(range(len(_MONOS)),
                                         rng.randint(0, CONST_MAX_TERMS)))
                       for _ in range(CONST_UNKNOWNS)]
            rows.append(row)
        out.append(rows)
    return out


def const_system_source(k, pattern, rng):
    """.dms text of system k: the pattern's monomials, seeded coefficients."""
    lines = [f"system const{k};",
             "vars " + ", ".join(f"x{i}" for i in range(1, CONST_VARS + 1)) + ";",
             "unknowns " + ", ".join(f"y{j}" for j in
                                     range(1, CONST_UNKNOWNS + 1)) + ";"]
    for r, row in enumerate(pattern, start=1):
        terms = []
        for j, monos in enumerate(row, start=1):
            for m in monos:
                mu = _MONOS[m]
                head = ("d" + "".join(map(str, mu)) + f"(y{j})") if mu else f"y{j}"
                terms.append(f"{rng.choice(CONST_COEFFS)}*{head}")
        lines.append(f"R{r}: " + " + ".join(terms) + f" = e{r};")
    return "\n".join(lines) + "\n"


def _monomials(n, q):
    for combo in itertools.combinations_with_replacement(range(n), q):
        mu = [0] * n
        for i in combo:
            mu[i] += 1
        yield tuple(mu)


def macaulay_counts(A, top):
    """Cumulative parametric-derivative counts H(s), s <= HILBERT_ORDERS,
    from the span of all prolongations of the rows of A up to order `top`.

    Columns are the jet coordinates ordered from the highest order down,
    so after row reduction over QQ the pivots with order <= s span the
    prolonged rows that live in order <= s.  H(s) is the number of jet
    coordinates of order <= s minus that dimension.  It can only fall as
    `top` grows, and equals the true count once `top` is large enough.
    """
    from sympy import QQ
    from sympy.polys.matrices import DomainMatrix

    n, m = A.field.n, A.cols
    cols = [(j, mu) for q in range(top, -1, -1)
            for mu in _monomials(n, q) for j in range(m)]
    index = {c: k for k, c in enumerate(cols)}
    rows = {}
    for i in range(A.rows):
        entries = A.row(i)
        order = max(e.order for e in entries)
        for q in range(top - order + 1):
            for kappa in _monomials(n, q):
                row = {}
                for j, e in enumerate(entries):
                    for mu, c in e.terms.items():
                        if not c.expr.is_Rational:
                            raise ValueError("reference needs constant coefficients")
                        shifted = tuple(a + b for a, b in zip(mu, kappa))
                        row[index[(j, shifted)]] = QQ(int(c.expr.p),
                                                      int(c.expr.q))
                rows[len(rows)] = row
    _, pivots = DomainMatrix(rows, (len(rows), len(cols)), QQ).rref()
    lead_orders = [sum(cols[p][1]) for p in pivots]
    counts = []
    for s in range(HILBERT_ORDERS + 1):
        jets = m * math.comb(n + s, s)
        counts.append(jets - sum(1 for o in lead_orders if o <= s))
    return counts


def const_reference(A):
    """Prolong until the counts agree at three successive orders."""
    top = HILBERT_ORDERS + 2
    history = [macaulay_counts(A, top)]
    while top < MACAULAY_MAX and (len(history) < 3
                                  or history[-1] != history[-3]):
        top += 1
        history.append(macaulay_counts(A, top))
    return {"top": top, "counts": history[-1]}


def const_check(A):
    def check(output, reference):
        basis, cc = output
        problems = []
        if not cc.compose(A).is_zero:
            problems.append("CC o A != 0")
        hilbert = janet.count_parametric(basis).hilbert
        orders = [s for s in range(HILBERT_ORDERS + 1) if s in hilbert]
        got = list(itertools.accumulate(hilbert[s] for s in orders))
        want = reference["counts"][:len(got)]
        top = reference["top"]
        # the reference can only fall as it prolongs further: keep going
        # while the basis claims fewer parametric derivatives than it
        while any(g < w for g, w in zip(got, want)) and top < MACAULAY_MAX:
            top += 1
            want = macaulay_counts(A, top)[:len(got)]
        if got != want:
            problems.append(f"cumulative Hilbert counts {got} != reference {want}")
        return problems
    return check


def const_ops(seed, workdir=None):
    """complete + compatibility_conditions on each seeded system."""
    rng = random.Random(seed)
    ops = []
    for k, pattern in enumerate(_patterns()):
        _, A, _ = dsl.elaborate(dsl.parse_system(
            const_system_source(k, pattern, rng)))

        def run(A=A):
            return janet.complete(A), syzygy.compatibility_conditions(A)

        ops.append(Op(f"const{k}", run, const_check(A),
                      make_reference=lambda A=A: const_reference(A)))
    return ops


# ---------------------------------------------------------------------------
# spencer: classical dimension tables

F3 = ("F3: classical_dims('conformal', n) copies the n = 5 shape for n >= 6 "
      "(6 entries, alternating sum -56 at n = 6)")


def _alternating(dims):
    return sum((-1) ** i * d for i, d in enumerate(dims))


def _table_problems(res, n, length, alt_sum, closed):
    dims, orders = res["dims"], res["orders"]
    problems = []
    if len(dims) != length:
        problems.append(f"{len(dims)} entries, expected {length}")
    if _alternating(dims) != alt_sum:
        problems.append(f"alternating sum {_alternating(dims)}, expected {alt_sum}")
    if len(orders) != len(dims) - 1:
        problems.append(f"{len(orders)} operator orders for {len(dims)} bundles")
    for k, value in closed.items():
        if k < len(dims) and dims[k] != value:
            problems.append(f"entry {k} is {dims[k]}, closed form gives {value}")
    return problems


def killing_closed_forms(n):
    """Vector fields, Killing equations, Riemann tensor, Bianchi identities."""
    return {0: n, 1: n * (n + 1) // 2, 2: n * n * (n * n - 1) // 12,
            3: n * n * (n * n - 1) * (n - 2) // 24}


def conformal_closed_forms(n):
    """Vector fields, conformal Killing equations, Cotton (n = 3) or Weyl."""
    weyl = 5 if n == 3 else n * (n + 1) * (n + 2) * (n - 3) // 12
    return {0: n, 1: n * (n + 1) // 2 - 1, 2: weyl}


def _table_op(family, n, check, known_failure=None):
    def run():
        return spencer.classical_dims(family, n)
    return Op(f"{family}(n={n})", run, check, known_failure=known_failure)


def _conformal_op(n, known_failure=None):
    return _table_op("conformal", n, lambda r, _: _table_problems(
        r, n, n + 1, 0, conformal_closed_forms(n)), known_failure)


def spencer_ops(seed, workdir=None):
    """Killing and conformal (finite type) sequences have n+1 bundles and
    alternating sum 0.  A contact vector field is fixed by one arbitrary
    generating function, so the contact table has n bundles and
    alternating sum 1."""
    ops = []
    for n in range(2, 8):
        ops.append(_table_op("killing", n, lambda r, _, n=n: _table_problems(
            r, n, n + 1, 0, killing_closed_forms(n))))
    for n in range(3, 6):
        ops.append(_conformal_op(n))
    for n in (3, 5, 7, 9):
        ops.append(_table_op("contact", n, lambda r, _, n=n: _table_problems(
            r, n, n, 1, {0: n})))

    def diagram():
        return spencer.conformal_diagram_dims(5)

    ops.append(Op("conformal_diagram(n=5)", diagram, _diagram_problems))
    return ops


def _diagram_problems(d, _reference, n=5):
    want = {"wedge3": math.comb(n, 3),
            "delta_T_S2": n * math.comb(n + 1, 2) - math.comb(n + 2, 3),
            "wedge2_g2hat": math.comb(n, 2) * n,
            "z3_isometry": killing_closed_forms(n)[3]}
    problems = [f"{k} is {d[k]}, closed form gives {v}"
                for k, v in want.items() if d[k] != v]
    # delta is injective on wedge^2 (x) g2hat, so Z^3 = H^3 + its image
    if d["z3_conformal"] != d["h3_conformal"] + d["wedge2_g2hat"]:
        problems.append("Z3 != H3 + dim wedge2 (x) g2hat for the conformal symbol")
    return problems


WORKLOADS = {"corpus": corpus_ops, "const_systems": const_ops,
             "spencer": spencer_ops}

# Ops that fail today because of a documented defect.  They are not part
# of any workload, so every timed op of a run must pass its check; the
# runner runs each probe once per run, outside the timed region, and
# reports whether the defect still shows.
DEFECT_PROBES = {"spencer": [_conformal_op(6, known_failure=F3)]}
