"""Parser and elaborator for the .dms system-description format.

A system file declares the independent variables, the unknowns, named
constants and function parameters, optional nonzero assumptions, rewrite
relations between funcparam derivatives, and one labelled equation per
line:

    vars x1, x2;
    unknowns y;
    P: d222(y) + x2*y = u;
    Q: d2(y) + d1(y) = v;

Derivatives are written d<digits>(...) with the digit string read as a
multi-index of repeated 1-based indices; d(1,10,2) is accepted when the
number of variables exceeds nine.  An equation must be linear over the
coefficient field in the unknowns.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field as dc_field
from pathlib import Path

import sympy as sp

from .field import DiffField, DiffmodError, RatFunc, Session
from .ops import OpMatrix, ScalarOp, TermOrder, mono_str


class ParseError(DiffmodError):
    def __init__(self, message, span=(0, 0), expected=()):
        self.span = span
        self.expected = tuple(expected)
        where = f" at {span[0]}..{span[1]}" if span != (0, 0) else ""
        hint = f" (expected one of: {', '.join(expected)})" if expected else ""
        super().__init__(message + where + hint)


class ElaborationError(DiffmodError):
    pass


# ---------------------------------------------------------------------------
# tokens

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+|\#[^\n]*)
  | (?P<num>\d+(?:/\d+)?)
  | (?P<deriv>d(?:\d+|\(\s*\d+(?:\s*,\s*\d+)*\s*\))(?=\s*\())
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>\*\*|!=|[-+*/^();:,=])
""", re.VERBOSE)

_KEYWORDS = {"system", "vars", "unknowns", "params", "funcparams",
             "assume", "order", "split", "rel"}


@dataclass
class Token:
    kind: str
    text: str
    pos: int

    @property
    def span(self):
        return (self.pos, self.pos + len(self.text))


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}",
                             span=(pos, pos + 1))
        pos = m.end()
        kind = m.lastgroup
        if kind == "ws":
            continue
        tokens.append(Token(kind, m.group(), m.start()))
    tokens.append(Token("eof", "", len(text)))
    return tokens


# ---------------------------------------------------------------------------
# AST

@dataclass
class Equation:
    label: str
    expr: object            # expression tree
    member: str
    span: tuple


@dataclass
class SystemDecl:
    name: str = ""
    vars: list = dc_field(default_factory=list)
    unknowns: list = dc_field(default_factory=list)
    params: list = dc_field(default_factory=list)
    func_params: list = dc_field(default_factory=list)
    assumptions: list = dc_field(default_factory=list)   # expression trees
    relations: list = dc_field(default_factory=list)     # (indices, funcparam, expr)
    equations: list = dc_field(default_factory=list)
    order_kind: str = None
    var_seq: list = None
    splits: list = dc_field(default_factory=list)


# expression nodes: ("num", str) ("name", str) ("bin", op, a, b)
# ("neg", a) ("pow", a, int) ("deriv", indices, a)

class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = tokenize(text)
        self.k = 0

    def peek(self):
        return self.tokens[self.k]

    def next(self):
        t = self.tokens[self.k]
        self.k += 1
        return t

    def expect(self, kind, text=None):
        t = self.peek()
        if t.kind != kind or (text is not None and t.text != text):
            raise ParseError(f"unexpected {t.text!r}", span=t.span,
                             expected=[text or kind])
        return self.next()

    # -- statements -----------------------------------------------------

    def parse(self):
        decl = SystemDecl()
        while self.peek().kind != "eof":
            t = self.peek()
            if t.kind == "ident" and t.text in _KEYWORDS:
                self._statement(decl)
            elif t.kind == "ident":
                self._equation(decl)
            else:
                raise ParseError(f"unexpected {t.text!r}", span=t.span,
                                 expected=sorted(_KEYWORDS) + ["label"])
        if not decl.vars:
            raise ParseError("no variables declared", expected=["vars"])
        if not decl.unknowns:
            raise ParseError("no unknowns declared", expected=["unknowns"])
        return decl

    def _ident_list(self):
        names = [self.expect("ident").text]
        while self.peek().text == ",":
            self.next()
            names.append(self.expect("ident").text)
        return names

    def _statement(self, decl):
        kw = self.next().text
        if kw == "system":
            decl.name = self.expect("ident").text
        elif kw == "vars":
            decl.vars.extend(self._ident_list())
        elif kw == "unknowns":
            decl.unknowns.extend(self._ident_list())
        elif kw == "params":
            decl.params.extend(self._ident_list())
        elif kw == "funcparams":
            decl.func_params.extend(self._ident_list())
        elif kw == "assume":
            while True:
                expr = self._expr()
                if self.peek().text == "!=":
                    self.next()
                    z = self.expect("num")
                    if z.text != "0":
                        raise ParseError("assumptions read 'expr != 0'",
                                         span=z.span, expected=["0"])
                decl.assumptions.append(expr)
                if self.peek().text != ",":
                    break
                self.next()
        elif kw == "order":
            decl.order_kind = self.expect("ident").text
            if self.peek().kind == "ident" and self.peek().text == "vars":
                self.next()
                self.expect("op", "(")
                decl.var_seq = self._ident_list()
                self.expect("op", ")")
        elif kw == "split":
            decl.splits.extend(self._ident_list())
        elif kw == "rel":
            t = self.expect("deriv")
            indices = _deriv_indices(t.text)
            self.expect("op", "(")
            target = self.expect("ident").text
            self.expect("op", ")")
            self.expect("op", "=")
            rhs = self._expr()
            decl.relations.append((indices, target, rhs))
        self.expect("op", ";")

    def _equation(self, decl):
        label = self.expect("ident")
        self.expect("op", ":")
        expr = self._expr()
        self.expect("op", "=")
        t = self.peek()
        if t.kind == "num" and t.text == "0":
            self.next()
            member = f"rhs_{label.text}"
        else:
            member = self.expect("ident").text
        self.expect("op", ";")
        decl.equations.append(Equation(label.text, expr, member,
                                       label.span))

    # -- expressions ------------------------------------------------------

    def _expr(self):
        node = self._term()
        while self.peek().text in ("+", "-"):
            op = self.next().text
            rhs = self._term()
            node = ("bin", op, node, rhs)
        return node

    def _term(self):
        node = self._factor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            rhs = self._factor()
            node = ("bin", op, node, rhs)
        return node

    def _factor(self):
        t = self.peek()
        if t.text == "-":
            self.next()
            return ("neg", self._factor())
        if t.text == "+":
            self.next()
            return self._factor()
        return self._power()

    def _power(self):
        base = self._atom()
        if self.peek().text in ("^", "**"):
            self.next()
            sign = 1
            if self.peek().text == "-":
                self.next()
                sign = -1
            e = self.expect("num")
            if "/" in e.text:
                raise ParseError("integer exponent required", span=e.span)
            return ("pow", base, sign * int(e.text))
        return base

    def _atom(self):
        t = self.peek()
        if t.kind == "num":
            self.next()
            return ("num", t.text)
        if t.kind == "deriv":
            self.next()
            self.expect("op", "(")
            inner = self._expr()
            self.expect("op", ")")
            return ("deriv", _deriv_indices(t.text), inner)
        if t.kind == "ident":
            self.next()
            return ("name", t.text, t.span)
        if t.text == "(":
            self.next()
            inner = self._expr()
            self.expect("op", ")")
            return inner
        raise ParseError(f"unexpected {t.text!r}", span=t.span,
                         expected=["number", "name", "derivative", "("])


def _deriv_indices(text):
    body = text[1:]
    if body.startswith("("):
        return tuple(int(x) for x in body[1:-1].replace(" ", "").split(","))
    return tuple(int(ch) for ch in body)


def read_source(path):
    """The text of a .dms file, which is UTF-8."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path} is not UTF-8 text: {exc}") from None


def parse_system(text):
    """Parse .dms source text into a SystemDecl."""
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# elaboration

class _Lin:
    """Value of an expression: coeff + sum_k op_k(unknown_k)."""

    def __init__(self, field, coeff=None, ops=None):
        self.field = field
        self.coeff = coeff if coeff is not None else field.zero
        self.ops = ops or {}

    def is_pure_coeff(self):
        return not self.ops

    def _zip(self, other, fn):
        ops = dict(self.ops)
        for k, v in other.ops.items():
            ops[k] = fn(ops.get(k, ScalarOp.zero(self.field)), v)
            if ops[k].is_zero:
                del ops[k]
        return ops

    def add(self, other):
        return _Lin(self.field, self.coeff + other.coeff,
                    self._zip(other, lambda a, b: a + b))

    def neg(self):
        return _Lin(self.field, -self.coeff,
                    {k: -v for k, v in self.ops.items()})

    def mul(self, other):
        if not self.is_pure_coeff() and not other.is_pure_coeff():
            raise ElaborationError("nonlinear term: product of unknowns")
        if other.is_pure_coeff():
            self, other = other, self
        c = self.coeff
        ops = {k: v.scale(c) for k, v in other.ops.items()}
        ops = {k: v for k, v in ops.items() if not v.is_zero}
        return _Lin(self.field, c * other.coeff, ops)

    def div(self, other):
        if not other.is_pure_coeff():
            raise ElaborationError("division by an unknown")
        inv = self.field.one / other.coeff
        return _Lin(self.field, self.coeff * inv,
                    {k: v.scale(inv) for k, v in self.ops.items()})

    def deriv(self, indices):
        mono = ScalarOp.d(self.field, *indices)
        c = self.coeff
        for i in indices:
            c = c.derive(i)
        return _Lin(self.field, c, {k: mono * v for k, v in self.ops.items()})


class UnknownIdentifier(ElaborationError):
    pass


class IndexOutOfRange(ElaborationError):
    pass


def _eval(node, field, unknowns):
    """Value of an expression tree over the field, linear in the unknowns
    (a list of names); every other name must be declared in the field."""
    kind = node[0]
    if kind == "num":
        return _Lin(field, field.ratfunc(sp.Rational(node[1])))
    if kind == "name":
        name, span = node[1], node[2]
        if name in unknowns:
            return _Lin(field, ops={unknowns.index(name):
                                    ScalarOp.constant(field, 1)})
        try:
            return _Lin(field, field.ratfunc(field.symbol(name)))
        except KeyError:
            raise UnknownIdentifier(
                f"unknown identifier {name!r} at {span[0]}") from None
    if kind == "neg":
        return _eval(node[1], field, unknowns).neg()
    if kind == "pow":
        base, e = _eval(node[1], field, unknowns), node[2]
        if not base.is_pure_coeff():
            raise ElaborationError("cannot raise an unknown to a power")
        c = field.one
        for _ in range(abs(e)):
            c = c * base.coeff if e > 0 else c / base.coeff
        return _Lin(field, c)
    if kind == "bin":
        op = node[1]
        va, vb = (_eval(x, field, unknowns) for x in node[2:])
        if op == "+":
            return va.add(vb)
        if op == "-":
            return va.add(vb.neg())
        if op == "*":
            return va.mul(vb)
        if op == "/":
            return va.div(vb)
    if kind == "deriv":
        indices = node[1]
        for i in indices:
            if not 1 <= i <= field.n:
                raise IndexOutOfRange(
                    f"derivative index {i} exceeds {field.n} variables")
        return _eval(node[2], field, unknowns).deriv(indices)
    raise ElaborationError(f"cannot elaborate node {kind!r}")


def _coefficient(node, field, unknowns, what):
    value = _eval(node, field, unknowns)
    if not value.is_pure_coeff():
        raise ElaborationError(f"{what} must be coefficient expressions")
    return value.coeff


def _operator_row(value, ncols, what):
    if not value.coeff.is_zero:
        raise ElaborationError(
            f"{what} has a non-operator part ({value.coeff}); systems must "
            "be linear homogeneous in the unknowns")
    return [value.ops.get(k, ScalarOp.zero(value.field)) for k in range(ncols)]


def elaborate(decl):
    """Build the differential field and the operator matrix of a SystemDecl.

    Returns (field, matrix, meta) with meta carrying the assumptions,
    split parameters and term order named in the source.
    """
    field = DiffField(var_names=decl.vars, params=decl.params,
                      func_params=decl.func_params)
    for indices, target, rhs in decl.relations:
        if target not in field.func_param_names:
            raise UnknownIdentifier(f"relation on {target!r}, which is not "
                                    "a declared funcparam")
        mu = [0] * field.n
        for i in indices:
            if not 1 <= i <= field.n:
                raise IndexOutOfRange(f"relation index {i} out of range")
            mu[i - 1] += 1
        if (target, tuple(mu)) in field.rules:
            raise ElaborationError(
                f"second relation for {mono_str(tuple(mu))}({target})")
        field.add_rule(target, tuple(mu),
                       _coefficient(rhs, field, decl.unknowns,
                                    "relation right sides"))
    _check_relations(field)
    assumptions = [_coefficient(node, field, decl.unknowns, "assumptions")
                   for node in decl.assumptions]
    members = []
    rows = []
    for eq in decl.equations:
        value = _eval(eq.expr, field, decl.unknowns)
        row = _operator_row(value, len(decl.unknowns), f"equation {eq.label}")
        if eq.member in members:
            raise ElaborationError(f"duplicate second member {eq.member}")
        members.append(eq.member)
        rows.append(row)
    matrix = OpMatrix.from_rows(field, rows, len(decl.unknowns),
                                row_labels=members,
                                col_labels=list(decl.unknowns))
    var_seq = None
    if decl.var_seq is not None:
        if not set(decl.var_seq) <= set(decl.vars):
            raise UnknownIdentifier(f"order names {decl.var_seq}, not all "
                                    f"among the variables {decl.vars}")
        var_seq = tuple(decl.vars.index(v) + 1 for v in decl.var_seq)
    kind = decl.order_kind or "degrevlex"
    if kind not in ("degrevlex", "deglex", "lex"):
        raise ElaborationError(f"unknown term order {kind!r}: the orders "
                               "are degrevlex, deglex and lex")
    order = TermOrder(kind=kind, var_seq=var_seq)
    meta = {
        "assumptions": assumptions,
        "splits": list(decl.splits),
        "order": order,
        "name": decl.name,
    }
    return field, matrix, meta


def _check_relations(field):
    """Reject relations whose cross-derivatives disagree.

    Two rules on one funcparam, d^a(f) = r and d^b(f) = s, both rewrite
    d^m(f) at m = max(a, b); the derivations commute only if
    d^(m-a)(r) and d^(m-b)(s) agree once every rule has been applied.
    """
    rules = sorted(field.rules.items())
    for k, ((name, a), r) in enumerate(rules):
        for (other, b), s in rules[k + 1:]:
            if other != name:
                continue
            m = tuple(max(x, y) for x, y in zip(a, b))
            lhs, rhs = RatFunc(field, r), RatFunc(field, s)
            for i in range(field.n):
                for _ in range(m[i] - a[i]):
                    lhs = lhs.derive(i + 1)
                for _ in range(m[i] - b[i]):
                    rhs = rhs.derive(i + 1)
            if lhs != rhs:
                raise ElaborationError(
                    f"relations on {name} disagree at {mono_str(m)}({name}): "
                    f"{field.coeff_str(lhs)} against {field.coeff_str(rhs)}")


def parse_row(field, text, labels):
    """Read an operator row such as 'd2(u) - x1*v' over the given unknowns.

    Returns one ScalarOp per label, in label order.
    """
    parser = _Parser(text)
    node = parser._expr()
    parser.expect("eof")
    value = _eval(node, field, list(labels))
    return _operator_row(value, len(labels), f"row {text!r}")


# ---------------------------------------------------------------------------
# problems

@dataclass
class Problem:
    """Everything a computation on one system needs.

    field and matrix are specialised to the case (a dict param -> value);
    the session holds the nonzero assumptions and the split parameters
    left undecided; order is the term order to complete with.
    """
    field: DiffField
    matrix: OpMatrix
    session: Session
    order: TermOrder
    case: dict
    meta: dict


def _assumption(text, field):
    """Read one assumption item: ('nonzero', node) or ('case', (param, k))."""
    parser = _Parser(text)
    node = parser._expr()
    if parser.peek().text == "=":
        parser.next()
        k = _coefficient(parser._expr(), field, (), "case values").expr
        parser.expect("eof")
        if node[0] != "name" or node[1] not in field.param_names \
                or not k.is_Integer:
            raise ElaborationError(
                f"a case reads 'param=k' with k an integer and param one of "
                f"the declared parameters ({', '.join(field.param_names)})")
        return "case", (node[1], int(k))
    if parser.peek().text == "!=":
        parser.next()
        z = parser.expect("num")
        if z.text != "0":
            raise ParseError("nonzero assumptions read 'expr!=0'",
                             span=z.span, expected=["0"])
    parser.expect("eof")
    return "nonzero", node


def load_problem(system, assume=(), var_seq=None):
    """Build the Problem of an elaborated system.

    system is the (field, matrix, meta) triple of `elaborate`.  Each
    assume item reads 'expr!=0' or 'expr', a nonzero assumption written in
    the .dms expression grammar (so d1(a) is a funcparam derivative), or
    'param=k', the case param = k for a declared parameter and an integer
    k.  var_seq, a permutation of 1..n, replaces the variable priority of
    the declared term order.
    """
    field, matrix, meta = system
    case, nonzero = {}, []
    for text in assume:
        kind, value = _assumption(text, field)
        if kind == "case":
            case[value[0]] = value[1]
        else:
            nonzero.append(_coefficient(value, field, matrix.col_labels,
                                        "assumptions"))
    assumptions = list(meta["assumptions"])
    if case:
        mapping = {field.symbol(k): v for k, v in case.items()}
        matrix = matrix.specialize(case)
        field = matrix.field

        def remap(group):
            return [RatFunc(field, a.expr.xreplace(mapping)) for a in group]

        assumptions, nonzero = remap(assumptions), remap(nonzero)
        if any(a.is_zero for a in nonzero):
            raise ElaborationError(f"a nonzero assumption fails in the case "
                                   f"{case}")
        assumptions = [a for a in assumptions if not a.is_zero]
    assumptions += nonzero
    splits = [s for s in meta["splits"]
              if s not in case and all(str(a.expr) != s for a in assumptions)]
    session = Session(field, assume_nonzero=assumptions, split_params=splits,
                      case=case)
    order = meta["order"]
    if var_seq is not None:
        order = TermOrder(kind=order.kind, var_seq=tuple(var_seq))
    if order.var_seq and sorted(order.var_seq) != list(range(1, field.n + 1)):
        raise DiffmodError(f"variable order {list(order.var_seq)} is not a "
                           f"permutation of 1..{field.n}")
    return Problem(field, matrix, session, order, case, meta)


# ---------------------------------------------------------------------------
# rendering

def render_system(matrix, decl_name="", assumptions=(), splits=()):
    """Render an operator matrix back to .dms source.

    parse(render(A)) elaborates to a matrix equal to A.
    """
    field = matrix.field
    lines = []
    if decl_name:
        lines.append(f"system {decl_name};")
    lines.append("vars " + ", ".join(field.var_names) + ";")
    lines.append("unknowns " + ", ".join(matrix.col_labels) + ";")
    if field.param_names:
        lines.append("params " + ", ".join(field.param_names) + ";")
    if field.func_param_names:
        lines.append("funcparams " + ", ".join(field.func_param_names) + ";")
    for a in assumptions:
        lines.append(f"assume {field.coeff_str(a)} != 0;")
    for (fname, base), rhs in field.rules.items():
        lines.append(
            f"rel {mono_str(base)}({fname}) = "
            f"{field.coeff_str(RatFunc(field, rhs))};")
    if splits:
        lines.append("split " + ", ".join(splits) + ";")
    for i in range(matrix.rows):
        lines.append(f"E{i+1}: {matrix.row_string(i)} = "
                     f"{matrix.row_labels[i]};")
    return "\n".join(lines) + "\n"
