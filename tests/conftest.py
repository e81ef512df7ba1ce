import random

import pytest
import sympy as sp

from diffmod.dsl import elaborate, load_problem, parse_system
from diffmod.field import DiffField, RatFunc
from diffmod.ops import OpMatrix, ScalarOp


CORPUS_NAMES = [
    "finite_type_pair", "mixed_wave_pair", "unexpected_cc_pair",
    "single_input_ode", "kalman_like_ode", "double_pendulum",
    "od_lie_pair", "oneform_area_lie", "contact_pfaffian",
    "contact_density", "contact_flat", "unimodular_oneform",
    "unimodular_flat", "killing_flat_n2", "contact_pfaffian_n5",
]


def load_corpus_system(name):
    from diffmod.corpus import corpus_dir
    src = (corpus_dir() / f"{name}.dms").read_text()
    return elaborate(parse_system(src))


# (name, assume) of the 16 corpus problems: every system, and both cases of
# the split parameter of oneform_area_lie.
CORPUS_PROBLEMS = [
    pytest.param(name, assume, id="-".join([name, *assume]))
    for name in CORPUS_NAMES
    for assume in ((("c!=0",), ("c=0",)) if name == "oneform_area_lie"
                   else ((),))]


def load_corpus_problem(name, assume=()):
    """The Problem (field, matrix, session, order, ...) of a corpus system
    under --assume style items."""
    return load_problem(load_corpus_system(name), list(assume))


def corpus_session(field, matrix, meta, extra=()):
    """Session of a corpus system, extra being --assume style items."""
    return load_problem((field, matrix, meta), extra).session


@pytest.fixture
def field2():
    return DiffField(2)


@pytest.fixture
def field3():
    return DiffField(3)


def random_ratfunc(field, rng, max_deg=2):
    """Small random polynomial coefficient (keeps products cheap)."""
    expr = sp.Integer(rng.randint(-3, 3))
    for v in field.vars:
        if rng.random() < 0.5:
            expr = expr + rng.randint(-2, 2) * v ** rng.randint(1, max_deg)
    return RatFunc(field, expr)


def random_scalar_op(field, rng, max_order=2, terms=2):
    op = ScalarOp.zero(field)
    for _ in range(terms):
        mu = [0] * field.n
        for _ in range(rng.randint(0, max_order)):
            mu[rng.randrange(field.n)] += 1
        op = op + ScalarOp.monomial(field, tuple(mu), random_ratfunc(field, rng))
    return op


def random_constant_system(seed):
    """A seeded constant-coefficient system: 2 or 3 variables, 1 to 3
    unknowns, 2 to 4 rows of up to two terms of order 1 or 2 per entry,
    coefficients in +-1..+-3."""
    rng = random.Random(seed)
    field = DiffField(rng.choice((2, 3)))
    cols = rng.randint(1, 3)
    rows = []
    for _ in range(rng.randint(2, 4)):
        row = []
        for _ in range(cols):
            op = ScalarOp.zero(field)
            for _ in range(rng.randint(0, 2)):
                mu = [0] * field.n
                for _ in range(rng.randint(1, 2)):
                    mu[rng.randrange(field.n)] += 1
                c = rng.choice((-3, -2, -1, 1, 2, 3))
                op = op + ScalarOp.monomial(field, tuple(mu), field.ratfunc(c))
            row.append(op)
        rows.append(row)
    return OpMatrix(field, rows)


def random_matrix(field, rng, rows, cols, max_order=1):
    return OpMatrix(field, [[random_scalar_op(field, rng, max_order)
                             for _ in range(cols)] for _ in range(rows)])


def random_poly(field, rng, deg=3):
    expr = sp.Integer(0)
    for _ in range(4):
        term = sp.Integer(rng.randint(-3, 3))
        for v in field.vars:
            term *= v ** rng.randint(0, deg)
        expr += term
    return RatFunc(field, expr)


@pytest.fixture
def rng():
    return random.Random(20230817)
