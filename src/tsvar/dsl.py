"""Expression language for Lagrangians L(t, u, v, w).

A small recursive-descent parser builds an immutable AST.  Evaluation compiles
the AST, once per expression and derivative order, into a straight-line numpy
program: order 0 gives the value, order 1 adds the gradient and order 2 the
Hessian with respect to the three active variables (u, v, w), as second-order
forward-mode jets, each returned as one array of rows (``eval_grad`` 4,
``eval_jet2`` 10).  Derivative entries that are structurally zero are dropped
while compiling, and one call evaluates a whole grid of points at once.  The
time variable t is a passive parameter: no theorem used here ever needs L_t,
so jets simply treat any t-subexpression as a constant.  a^b with a variable b
has one value at all orders; orders 1 and 2 need ln a, so refuse a <= 0.

Grammar (standard precedence, ^ right-associative and binding tighter than
unary minus):

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?
    atom   := NUMBER | 'pi' | 'e' | var | func '(' expr ')' | '(' expr ')'
    var    := 't' | 'u' | 'v' | 'w'
    func   := 'ln' | 'exp' | 'sin' | 'cos' | 'sqrt' | 'abs'
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ExprSyntaxError

# ---------------------------------------------------------------------------
# AST


@dataclass(frozen=True)
class Num:
    value: float


@dataclass(frozen=True)
class Var:
    name: str  # one of t, u, v, w


@dataclass(frozen=True)
class Bin:
    op: str  # + - * / ^
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Neg:
    arg: "Expr"


@dataclass(frozen=True)
class Call:
    fn: str  # ln exp sin cos sqrt abs
    arg: "Expr"


Expr = Union[Num, Var, Bin, Neg, Call]

_FUNCTIONS = ("ln", "exp", "sin", "cos", "sqrt", "abs")
_VARIABLES = ("t", "u", "v", "w")
_CONSTANTS = {"pi": math.pi, "e": math.e}
_MAX_DEPTH = 100  # nesting levels the parser accepts


# ---------------------------------------------------------------------------
# Tokenizer / parser


class _Token:
    __slots__ = ("kind", "text", "pos")

    def __init__(self, kind, text, pos):
        self.kind = kind
        self.text = text
        self.pos = pos


def _tokenize(text: str):
    tokens = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        if c.isdigit() or (c == "." and i + 1 < n and text[i + 1].isdigit()):
            j = i
            while j < n and (text[j].isdigit() or text[j] == "."):
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k].isdigit():
                    j = k
                    while j < n and text[j].isdigit():
                        j += 1
            tokens.append(_Token("num", text[i:j], i))
            i = j
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("ident", text[i:j], i))
            i = j
            continue
        if c in "+-*/^()":
            tokens.append(_Token(c, c, i))
            i += 1
            continue
        raise ExprSyntaxError(i, f"unexpected character {c!r}")
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def next(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, kind: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ExprSyntaxError(tok.pos, f"expected {kind!r}, found {tok.text or 'end of input'!r}")
        return self.next()

    def parse(self) -> Expr:
        e = self.expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ExprSyntaxError(tok.pos, f"unexpected {tok.text!r} after expression")
        return e

    def expr(self) -> Expr:
        e = self.term()
        while self.peek().kind in ("+", "-"):
            op = self.next().kind
            e = Bin(op, e, self.term())
        return e

    def term(self) -> Expr:
        e = self.unary()
        while self.peek().kind in ("*", "/"):
            op = self.next().kind
            e = Bin(op, e, self.unary())
        return e

    def unary(self) -> Expr:
        # every nesting (parentheses, calls, signs, exponents) passes through
        # here; capping it keeps the recursive parser and evaluators in stack
        tok = self.peek()
        if self.depth >= _MAX_DEPTH:
            raise ExprSyntaxError(tok.pos, f"expression nested more than {_MAX_DEPTH} levels deep")
        self.depth += 1
        try:
            if tok.kind == "-":
                self.next()
                return Neg(self.unary())
            return self.power()
        finally:
            self.depth -= 1

    def power(self) -> Expr:
        base = self.atom()
        if self.peek().kind == "^":
            self.next()
            return Bin("^", base, self.unary())    # right-associative
        return base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "num":
            self.next()
            try:
                value = float(tok.text)
            except ValueError:
                raise ExprSyntaxError(tok.pos, f"malformed number {tok.text!r}") from None
            if math.isinf(value):
                raise ExprSyntaxError(tok.pos, f"number {tok.text!r} is out of range")
            return Num(value)
        if tok.kind == "ident":
            self.next()
            name = tok.text
            if name in _FUNCTIONS:
                self.expect("(")
                arg = self.expr()
                self.expect(")")
                return Call(name, arg)
            if name in _VARIABLES:
                return Var(name)
            if name in _CONSTANTS:
                return Num(_CONSTANTS[name])
            raise ExprSyntaxError(tok.pos, f"unknown identifier {name!r}")
        if tok.kind == "(":
            self.next()
            e = self.expr()
            self.expect(")")
            return e
        raise ExprSyntaxError(tok.pos, f"expected a value, found {tok.text or 'end of input'!r}")


def parse(text: str) -> Expr:
    """Parse an expression string into an AST (raises ExprSyntaxError)."""
    return _Parser(text).parse()


def _children(node) -> tuple:
    if isinstance(node, Bin):
        return (node.left, node.right)
    if isinstance(node, (Neg, Call)):
        return (node.arg,)
    if isinstance(node, (Num, Var)):
        return ()
    raise TypeError(f"not an Expr: {node!r}")


def _fold(e: Expr, visit):
    """Bottom-up pass: visit(node, results of its children), once per node.

    A long operator chain parses into a tree as deep as the chain is long, so
    the walk keeps an explicit stack instead of recursing.
    """
    done, stack = {}, [e]
    while stack:
        kids = _children(stack[-1])
        todo = [k for k in reversed(kids) if id(k) not in done]
        if todo:
            stack.extend(todo)
            continue
        node = stack.pop()
        if id(node) not in done:
            done[id(node)] = visit(node, [done[id(k)] for k in kids])
    return done[id(e)]


# Binding strength of each printed form: sums 1, products 2, signs 3,
# powers 4, atoms 5.
_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "^": 4}


def to_string(e: Expr) -> str:
    """Render an AST as text that parses back to the same AST.

    Parentheses appear only where precedence or associativity needs them, so
    a long flat sum prints flat and stays under the parser's nesting cap.
    """

    def wrap(kid, min_prec):
        text, prec = kid
        return text if prec >= min_prec else f"({text})"

    def visit(node, kids):
        if isinstance(node, Num):
            text = repr(node.value)
            return text, 3 if text.startswith("-") else 5
        if isinstance(node, Var):
            return node.name, 5
        if isinstance(node, Call):
            return f"{node.fn}({kids[0][0]})", 5
        if isinstance(node, Neg):
            return "-" + wrap(kids[0], 3), 3
        prec = _PREC[node.op]
        # + - * / group to the left and ^ to the right, over a signed exponent
        left, right = (5, 3) if node.op == "^" else (prec, prec + 1)
        return f"{wrap(kids[0], left)} {node.op} {wrap(kids[1], right)}", prec

    return _fold(e, visit)[0]


def ensure_expr(e) -> Expr:
    """Accept either an AST or source text; return the AST."""
    if isinstance(e, str):
        return parse(e)
    return e


# ---------------------------------------------------------------------------
# Compiled evaluation
#
# Each order compiles to a Python function of one numpy assignment per
# operation, by the forward-mode rules for sums, products and f(a) (Griewank
# & Walther, "Evaluating Derivatives", 2nd ed., 2008).  A derivative needs
# more than the value does, so the domain rules depend on the order: sqrt and
# abs fail at 0, x^c at x = 0 once c drops below the order, and a variable
# exponent needs a positive base.

# Hessian rows (uu, uv, uw, vv, vw, ww) as pairs of gradient rows
_PAIRS = ((1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3))
# entry (a, b) of the symmetric 3 x 3 Hessian is Hessian row HESS_INDEX[a, b]
HESS_INDEX = np.array([[0, 1, 2], [1, 3, 4], [2, 4, 5]])


def _fail(bad, x, message: str):
    first = np.broadcast_to(x, np.shape(bad))[bad][0]
    raise DomainError(f"{message}: {float(first)!r}")


def _power(x, c, order: int) -> tuple:
    """x^c and its first ``order`` derivatives in x for an exponent that is
    only known at run time, under the rules of a constant exponent point by
    point (the constants 0 and 1 need nothing)."""
    r = np.round(c)
    c = np.where(np.abs(c - r) <= 1e-12, r, c)
    trivial = (c == 0.0) | (c == 1.0)
    rules = (((x < 0.0) & (c != np.round(c)), "negative base with non-integer exponent"),
             ((x == 0.0) & (c < order) & ~trivial, "0 raised to a negative power"))
    for bad, message in rules:
        if np.count_nonzero(bad):
            _fail(bad, x, message)
    return (x ** c, np.where(c == 0.0, 0.0, c * x ** (c - 1.0)),
            np.where(trivial, 0.0, c * (c - 1.0) * x ** (c - 2.0)))[:order + 1]


_TESTS = {"<": operator.lt, "<=": operator.le, "==": operator.eq}
_FOLD = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv}
_UFUNCS = {"+": "_np.add", "-": "_np.subtract", "*": "_np.multiply", "/": "_np.divide"}
_NAME = re.compile(r"\br\d+\b")  # a variable of the generated program


def _is(x, c: float) -> bool:
    return isinstance(x, float) and x == c


def _nonzero(jet: dict) -> dict:
    return {k: x for k, x in jet.items() if not _is(x, 0.0)}


class _Compiler:
    """Emits the program of one expression at one order.

    While compiling, a node's jet is a dict from output row (0 the value, 1-3
    the gradient, 4-9 the Hessian) to an operand: a float known at compile
    time, folded where it meets another, or the name of a variable of the
    generated program.  A missing row is structurally zero and costs nothing
    at run time.
    """

    def __init__(self, order: int, value: bool = True):
        self.order = order
        self.value = value
        self.lines = []
        self.consts = {}
        self.checked = set()
        self.ufuncs = {}  # name -> (its line, that line as one ufunc call into ``out``)

    # -- operands ------------------------------------------------------------

    def src(self, x) -> str:
        if isinstance(x, str):
            return x
        name = f"k{len(self.consts)}"
        self.consts[name] = np.float64(x)
        return name

    def emit(self, template: str, *args, ufunc: str = "") -> str:
        name, srcs = f"r{len(self.lines)}", [self.src(x) for x in args]
        if ufunc:
            self.ufuncs[name] = (len(self.lines), f"{ufunc}({', '.join(srcs)}, out=out[{{}}, ...])")
        self.lines.append(f"{name} = " + template.format(*srcs))
        return name

    def call(self, fn: str, x) -> str:
        return self.emit(f"_np.{fn}({{}})", x, ufunc=f"_np.{fn}")

    def check(self, x, op: str, message: str) -> None:
        """Raise DomainError at run time wherever ``x op 0`` holds."""
        if isinstance(x, float) and not _TESTS[op](x, 0.0):
            return
        arg = self.src(x)
        test = f"{arg} {op} 0.0"
        if test not in self.checked:
            self.checked.add(test)
            self.lines.append(f"if _count({test}): _fail({test}, {arg}, {message!r})")

    def binary(self, op: str, a, b):
        if isinstance(a, float) and isinstance(b, float) and (op != "/" or b != 0.0):
            return _FOLD[op](a, b)
        return self.emit(f"{{}} {op} {{}}", a, b, ufunc=_UFUNCS[op])

    def add(self, a, b):
        if _is(a, 0.0) or _is(b, 0.0):
            return b if _is(a, 0.0) else a
        return self.binary("+", a, b)

    def sub(self, a, b):
        if _is(a, 0.0):
            return self.neg(b)
        return a if _is(b, 0.0) else self.binary("-", a, b)

    def mul(self, a, b):
        if _is(a, 0.0) or _is(b, 0.0):
            return 0.0
        if _is(a, 1.0) or _is(b, 1.0):
            return b if _is(a, 1.0) else a
        return self.binary("*", a, b)

    def div(self, a, b):
        return a if _is(b, 1.0) else self.binary("/", a, b)

    def neg(self, a):
        return -a if isinstance(a, float) else self.emit("-{}", a, ufunc="_np.negative")

    def power(self, x, c: float):
        if c == 0.0 or c == 1.0:
            return 1.0 if c == 0.0 else x
        return self.emit("{} ** {}", x, c)

    # -- jets ----------------------------------------------------------------

    def product(self, a: dict, b: dict, val=None) -> dict:
        """a * b; ``val`` stands in for the product of the values."""
        A, B = a.get, b.get
        x, y = A(0, 0.0), B(0, 0.0)
        out = {0: self.mul(x, y) if val is None else val}
        for i in (1, 2, 3):
            out[i] = self.add(self.mul(A(i, 0.0), y), self.mul(B(i, 0.0), x))
        if self.order == 2:
            for k, (i, j) in enumerate(_PAIRS, start=4):
                h = self.add(self.mul(A(k, 0.0), y), self.mul(B(k, 0.0), x))
                h = self.add(h, self.mul(A(i, 0.0), B(j, 0.0)))
                out[k] = self.add(h, self.mul(A(j, 0.0), B(i, 0.0)))
        return _nonzero(out)

    def chain(self, a: dict, f0, d1, d2) -> dict:
        """f(a) from f0 = f(a's value); d1 and d2 emit f' and f'' there."""
        if not a.keys() - {0}:
            return _nonzero({0: f0})
        A = a.get
        f1 = d1()
        out = {0: f0, **{i: self.mul(f1, A(i, 0.0)) for i in (1, 2, 3)}}
        if self.order == 2:
            f2 = d2()
            for k, (i, j) in enumerate(_PAIRS, start=4):
                curvature = self.mul(self.mul(f2, A(i, 0.0)), A(j, 0.0))
                out[k] = self.add(self.mul(f1, A(k, 0.0)), curvature)
        return _nonzero(out)

    def quotient(self, a: dict, b: dict) -> dict:
        x, y = a.get(0, 0.0), b.get(0, 0.0)
        self.check(y, "==", "division by zero")
        q = self.div(x, y)
        if not (a.keys() | b.keys()) - {0}:
            return _nonzero({0: q})
        inv = self.div(1.0, y)
        recip = self.chain(b, inv, lambda: self.neg(self.mul(inv, inv)),
                           lambda: self.mul(2.0, self.mul(inv, self.mul(inv, inv))))
        return self.product(a, recip, val=q)

    def pow(self, a: dict, b: dict) -> dict:
        x, c = a.get(0, 0.0), b.get(0, 0.0)
        if self.order and b.keys() - {0}:
            # variable exponent: the derivatives come from a^b = exp(b ln a),
            # the value is order 0's own, so it does not depend on the order
            self.check(x, "<=", "power with variable exponent needs positive base")
            jet = self.function("exp", self.product(b, self.function("ln", a)))
            jet[0] = f"{self.emit('_power({}, {}, 0)', x, c)}[0]"
            return jet
        if not isinstance(c, float):
            parts = self.emit(f"_power({{}}, {{}}, {self.order})", x, c)
            return self.chain(a, f"{parts}[0]", lambda: f"{parts}[1]", lambda: f"{parts}[2]")
        if math.isfinite(c) and abs(c - round(c)) <= 1e-12:
            c = float(round(c))
        if c == 0.0 or c == 1.0:
            return {0: 1.0} if c == 0.0 else a
        # the rules of x^c and, at order k, of x^(c-1) ... x^(c-k)
        if not c.is_integer():
            self.check(x, "<", "negative base with non-integer exponent")
        if c - self.order < 0.0:
            self.check(x, "==", "0 raised to a negative power")
        return self.chain(a, self.power(x, c), lambda: self.mul(c, self.power(x, c - 1.0)),
                          lambda: self.mul(c * (c - 1.0), self.power(x, c - 2.0)))

    def function(self, fn: str, a: dict) -> dict:
        x = a.get(0, 0.0)
        if fn == "ln":
            self.check(x, "<=", "ln of non-positive value")
            return self.chain(a, self.call("log", x), lambda: self.div(1.0, x),
                              lambda: self.neg(self.div(1.0, self.mul(x, x))))
        if fn == "exp":
            e = self.call("exp", x)
            return self.chain(a, e, lambda: e, lambda: e)
        if fn == "sin":
            s = self.call("sin", x)
            return self.chain(a, s, lambda: self.call("cos", x), lambda: self.neg(s))
        if fn == "cos":
            c = self.call("cos", x)
            return self.chain(a, c, lambda: self.neg(self.call("sin", x)), lambda: self.neg(c))
        if fn == "sqrt":
            if self.order:
                self.check(x, "<=", "sqrt needs a positive argument for differentiation")
            else:
                self.check(x, "<", "sqrt of negative value")
            r = self.call("sqrt", x)
            return self.chain(a, r, lambda: self.div(0.5, r),
                              lambda: self.div(-0.25, self.mul(x, r)))
        if fn == "abs":
            if self.order:
                self.check(x, "==", "abs is not differentiable at 0")
            return self.chain(a, self.call("abs", x), lambda: self.call("sign", x), lambda: 0.0)
        raise TypeError(f"unknown function {fn}")

    def visit(self, node, kids) -> dict:
        if isinstance(node, Num):
            return _nonzero({0: float(node.value)})
        if isinstance(node, Var):
            if node.name == "t" or not self.order:
                return {0: node.name}
            return {0: node.name, 1 + "uvw".index(node.name): 1.0}
        if isinstance(node, Neg):
            return {k: self.neg(x) for k, x in kids[0].items()}
        if isinstance(node, Call):
            return self.function(node.fn, kids[0])
        a, b = kids
        if node.op in "+-":
            op = self.add if node.op == "+" else self.sub
            return _nonzero({k: op(a.get(k, 0.0), b.get(k, 0.0)) for k in a.keys() | b.keys()})
        if node.op == "*":
            return self.product(a, b)
        return self.quotient(a, b) if node.op == "/" else self.pow(a, b)

    def compile(self, e: Expr):
        root = _fold(e, self.visit)
        n_rows = (1, 4, 10)[self.order]
        rows = {k: x for k, x in sorted(root.items()) if k or self.value}
        # a constant row is written once, where the program allocates ``out``
        fixed = [f"    out[{k}] = {self.src(x)}" for k, x in rows.items() if isinstance(x, float)]
        rows = {k: x for k, x in rows.items() if isinstance(x, str)}
        lines = self._live(rows)
        # a row whose last operation is one ufunc, read nowhere else, is
        # written in place: out[k, ...] is a view at 0-d shapes as well
        texts = [self.lines[i] for i in lines] + list(rows.values())
        reads = [name for text in texts for name in _NAME.findall(text)]
        for k, x in list(rows.items()):
            if x in self.ufuncs and reads.count(x) == 2:  # its own line's target, and row k
                i, call = self.ufuncs[x]
                self.lines[i] = call.format(k)
                del rows[k]
        body = ["if out is None:", f"    out = _zeros(({n_rows},) + shape)", *fixed]
        body += [self.lines[i] for i in lines] + [f"out[{k}] = {x}" for k, x in rows.items()]
        source = "def program(t, u, v, w, shape, out=None):\n" + "".join(
            f"    {line}\n" for line in body) + "    return out\n"
        namespace = {"_np": np, "_zeros": np.zeros, "_count": np.count_nonzero,
                     "_fail": _fail, "_power": _power, **self.consts}
        exec(compile(source, "<tsvar.dsl>", "exec"), namespace)
        run = namespace["program"]
        run.rows = tuple(None if isinstance(x, str) else x
                         for x in (root.get(k, 0.0) if k or self.value else 0.0
                                   for k in range(n_rows)))
        return run

    def _live(self, rows: dict) -> list:
        """Indices of the lines the program keeps, in order.  A program with
        the value row keeps all; one without it drops each line that only the
        value row reads, but keeps every line that can raise DomainError (the
        checks and ``_power``) and every line those read."""
        if self.value:
            return list(range(len(self.lines)))
        live = {name for x in rows.values() for name in _NAME.findall(x)}
        kept = []
        for i in reversed(range(len(self.lines))):
            target, _, expr = self.lines[i].partition(" = ")
            if target in live or target.startswith("if ") or "_power(" in expr:
                live.update(_NAME.findall(expr or target))
                kept.append(i)
        return kept[::-1]


# id(expression) -> its programs by (order, value); an entry leaves with its
# expression.  Keying by the tree itself would hash it recursively on every lookup.
_PROGRAMS = {}


def program(e: Expr, order: int, value: bool = True):
    """The compiled program of ``e`` at ``order`` (0, 1 or 2), built once.

    ``program(e, order)(t, u, v, w, shape)`` takes float arrays that broadcast
    to ``shape`` and returns 1, 4 or 10 rows of that shape: the value, then the
    gradient rows (u, v, w) and the Hessian rows (uu, uv, uw, vv, vw, ww).  It
    raises DomainError as the ``eval_*`` functions do, but runs under the
    caller's ``np.errstate``: a caller that wants overflow to give inf
    silently, as they do, sets ``np.errstate(all="ignore")`` itself.

    ``value=False`` (orders 1 and 2) gives the derivative-only program, for a
    caller that never reads the value: its row 0 is 0.0, and it drops every
    operation only the value reads.  Its other rows are the full program's,
    bit for bit, and it keeps every domain check, so it raises DomainError at
    exactly the same points.

    Its ``rows`` attribute tells, row by row and without evaluating, what the
    compiler knows: a float for a row that is the same at every point (0.0
    for a structurally zero row, one the program never writes; the compiler
    drops every other zero), None for a row that varies with (t, u, v, w).

    ``program(e, order)(t, u, v, w, shape, out)`` runs into ``out``, the
    array an earlier run of the same program returned, and returns it.  The
    program writes the constant rows only where it allocates its array, so
    given ``out`` it rewrites just the varying rows (None in ``rows``), with
    the bits a fresh array gets, and the other rows keep what they hold.  A
    run that raises DomainError leaves some varying rows of ``out`` half
    written; the next run that returns rewrites them all.
    """
    if not (value or order):
        raise ValueError("an order-0 program is its value row")
    programs = _PROGRAMS.get(id(e))
    if programs is None:
        programs = _PROGRAMS[id(e)] = {}
        weakref.finalize(e, _PROGRAMS.pop, id(e), None)
    run = programs.get((order, value))
    if run is None:
        run = programs[order, value] = _Compiler(order, value).compile(e)
    return run


def _run(e: Expr, order: int, t, u, v, w) -> np.ndarray:
    t, u, v, w = [np.asarray(x, dtype=float) for x in (t, u, v, w)]
    with np.errstate(all="ignore"):  # overflow gives inf, as float arithmetic does
        return program(e, order)(t, u, v, w, np.broadcast(t, u, v, w).shape)


def eval_value(e: Expr, t, u=0.0, v=0.0, w=0.0):
    """L at (t, u, v, w): a float for scalar arguments, otherwise an array of
    the arguments' broadcast shape."""
    value = _run(e, 0, t, u, v, w)[0]
    return float(value) if value.ndim == 0 else value


def eval_grad(e: Expr, t, u, v, w) -> np.ndarray:
    """Rows (L, L_u, L_v, L_w), each of the arguments' broadcast shape."""
    return _run(e, 1, t, u, v, w)


def eval_jet2(e: Expr, t, u, v, w) -> np.ndarray:
    """Rows (L, L_u, L_v, L_w, L_uu, L_uv, L_uw, L_vv, L_vw, L_ww), each of the
    arguments' broadcast shape; entry (a, b) of the Hessian is row 4 + HESS_INDEX[a, b]."""
    return _run(e, 2, t, u, v, w)
