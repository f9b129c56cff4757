"""Expression language for Lagrangians L(t, u, v, w).

A small recursive-descent parser builds an immutable AST, and evaluation runs
either as plain floats or as second-order forward-mode duals ("jets") carrying
value, gradient, and Hessian with respect to the three active variables
(u, v, w).  The time variable t is a passive parameter: no theorem used here
ever needs L_t, so jets simply treat any t-subexpression as a constant.

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
from dataclasses import dataclass
from typing import Union

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
                return Num(float(tok.text))
            except ValueError:
                raise ExprSyntaxError(tok.pos, f"malformed number {tok.text!r}") from None
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


def to_string(e: Expr) -> str:
    """Render an AST back to parseable text (conservatively parenthesized)."""
    if isinstance(e, Num):
        return repr(e.value)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, Neg):
        return f"(-{to_string(e.arg)})"
    if isinstance(e, Bin):
        return f"({to_string(e.left)} {e.op} {to_string(e.right)})"
    if isinstance(e, Call):
        return f"{e.fn}({to_string(e.arg)})"
    raise TypeError(f"not an Expr: {e!r}")


def ensure_expr(e) -> Expr:
    """Accept either an AST or source text; return the AST."""
    if isinstance(e, str):
        return parse(e)
    return e


# ---------------------------------------------------------------------------
# Plain evaluation


def eval_value(e: Expr, t: float, u: float = 0.0, v: float = 0.0, w: float = 0.0) -> float:
    env = {"t": t, "u": u, "v": v, "w": w}

    def rec(node):
        if isinstance(node, Num):
            return node.value
        if isinstance(node, Var):
            return env[node.name]
        if isinstance(node, Neg):
            return -rec(node.arg)
        if isinstance(node, Bin):
            a, b = rec(node.left), rec(node.right)
            if node.op == "+":
                return a + b
            if node.op == "-":
                return a - b
            if node.op == "*":
                return a * b
            if node.op == "/":
                if b == 0.0:
                    raise DomainError("division by zero")
                return a / b
            return _safe_pow(a, b)
        if isinstance(node, Call):
            return _apply_scalar(node.fn, rec(node.arg))
        raise TypeError(f"not an Expr: {node!r}")

    return rec(e)


def _safe_pow(x: float, c: float) -> float:
    ci = round(c)
    if abs(c - ci) <= 1e-12:
        c = float(ci)
    if x > 0.0:
        return math.pow(x, c)
    if x == 0.0:
        if c > 0.0:
            return 0.0
        if c == 0.0:
            return 1.0
        raise DomainError("0 raised to a negative power")
    if c == round(c):
        return math.pow(x, c)
    raise DomainError(f"negative base {x} with non-integer exponent {c}")


def _apply_scalar(fn: str, x: float) -> float:
    if fn == "ln":
        if x <= 0.0:
            raise DomainError(f"ln of non-positive value {x}")
        return math.log(x)
    if fn == "exp":
        return math.exp(x)
    if fn == "sin":
        return math.sin(x)
    if fn == "cos":
        return math.cos(x)
    if fn == "sqrt":
        if x < 0.0:
            raise DomainError(f"sqrt of negative value {x}")
        return math.sqrt(x)
    if fn == "abs":
        return abs(x)
    raise TypeError(f"unknown function {fn}")


# ---------------------------------------------------------------------------
# Second-order jets over (u, v, w)

# Hessian entries stored as (uu, uv, uw, vv, vw, ww)
_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))


class Jet2:
    """Value + gradient + symmetric Hessian with respect to (u, v, w)."""

    __slots__ = ("value", "grad", "hess")

    def __init__(self, value, grad=(0.0, 0.0, 0.0), hess=(0.0,) * 6):
        self.value = value
        self.grad = tuple(grad)
        self.hess = tuple(hess)

    def hess_matrix(self):
        (huu, huv, huw, hvv, hvw, hww) = self.hess
        return [[huu, huv, huw], [huv, hvv, hvw], [huw, hvw, hww]]

    def __repr__(self):
        return f"Jet2(value={self.value}, grad={self.grad}, hess={self.hess})"


def _j_const(c):
    return (c, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)


_VAR_JETS = {
    "u": (0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "v": (0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
    "w": (0.0, 0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0),
}

# jet tuple layout: (v, gu, gv, gw, huu, huv, huw, hvv, hvw, hww)


def _j_add(a, b):
    return tuple(x + y for x, y in zip(a, b))


def _j_sub(a, b):
    return tuple(x - y for x, y in zip(a, b))


def _j_neg(a):
    return tuple(-x for x in a)


def _j_mul(a, b):
    av, au, avv_, aw = a[0], a[1], a[2], a[3]
    bv, bu, bvv_, bw = b[0], b[1], b[2], b[3]
    ag = (au, avv_, aw)
    bg = (bu, bvv_, bw)
    out = [av * bv, au * bv + bu * av, avv_ * bv + bvv_ * av, aw * bv + bw * av]
    for k, (i, j) in enumerate(_PAIRS):
        out.append(a[4 + k] * bv + b[4 + k] * av + ag[i] * bg[j] + ag[j] * bg[i])
    return tuple(out)


def _j_chain(a, f0, d1, d2):
    """Compose scalar f with jet a given f(a), f'(a), f''(a)."""
    ag = (a[1], a[2], a[3])
    out = [f0, d1 * a[1], d1 * a[2], d1 * a[3]]
    for k, (i, j) in enumerate(_PAIRS):
        out.append(d1 * a[4 + k] + d2 * ag[i] * ag[j])
    return tuple(out)


def _j_div(a, b):
    if b[0] == 0.0:
        raise DomainError("division by zero")
    inv = _j_chain(b, 1.0 / b[0], -1.0 / b[0] ** 2, 2.0 / b[0] ** 3)
    return _j_mul(a, inv)


def _is_const_jet(a):
    return all(x == 0.0 for x in a[1:])


def _j_pow(a, b):
    if _is_const_jet(b):
        c = b[0]
        ci = round(c)
        if abs(c - ci) <= 1e-12:
            c = float(ci)
        if c == 0.0:
            return _j_const(1.0)
        if c == 1.0:
            return a
        x = a[0]
        f0 = _safe_pow(x, c)
        d1 = c * _safe_pow(x, c - 1.0)
        d2 = c * (c - 1.0) * _safe_pow(x, c - 2.0) if c != 1.0 else 0.0
        return _j_chain(a, f0, d1, d2)
    # variable exponent: a^b = exp(b ln a), needs a > 0
    if a[0] <= 0.0:
        raise DomainError(f"power with variable exponent needs positive base, got {a[0]}")
    ln_a = _j_chain(a, math.log(a[0]), 1.0 / a[0], -1.0 / a[0] ** 2)
    prod = _j_mul(b, ln_a)
    return _j_chain(prod, math.exp(prod[0]), math.exp(prod[0]), math.exp(prod[0]))


def _j_call(fn, a):
    x = a[0]
    if fn == "ln":
        if x <= 0.0:
            raise DomainError(f"ln of non-positive value {x}")
        return _j_chain(a, math.log(x), 1.0 / x, -1.0 / x**2)
    if fn == "exp":
        ex = math.exp(x)
        return _j_chain(a, ex, ex, ex)
    if fn == "sin":
        return _j_chain(a, math.sin(x), math.cos(x), -math.sin(x))
    if fn == "cos":
        return _j_chain(a, math.cos(x), -math.sin(x), -math.cos(x))
    if fn == "sqrt":
        if x <= 0.0:
            raise DomainError(f"sqrt needs a positive argument for differentiation, got {x}")
        r = math.sqrt(x)
        return _j_chain(a, r, 0.5 / r, -0.25 / (x * r))
    if fn == "abs":
        if x == 0.0:
            raise DomainError("abs is not differentiable at 0")
        s = 1.0 if x > 0.0 else -1.0
        return _j_chain(a, abs(x), s, 0.0)
    raise TypeError(f"unknown function {fn}")


def _eval_jet(node, t, u, v, w):
    if isinstance(node, Num):
        return _j_const(node.value)
    if isinstance(node, Var):
        if node.name == "t":
            return _j_const(t)
        base = _VAR_JETS[node.name]
        return (
            {"u": u, "v": v, "w": w}[node.name],
        ) + base[1:]
    if isinstance(node, Neg):
        return _j_neg(_eval_jet(node.arg, t, u, v, w))
    if isinstance(node, Bin):
        a = _eval_jet(node.left, t, u, v, w)
        b = _eval_jet(node.right, t, u, v, w)
        if node.op == "+":
            return _j_add(a, b)
        if node.op == "-":
            return _j_sub(a, b)
        if node.op == "*":
            return _j_mul(a, b)
        if node.op == "/":
            return _j_div(a, b)
        return _j_pow(a, b)
    if isinstance(node, Call):
        return _j_call(node.fn, _eval_jet(node.arg, t, u, v, w))
    raise TypeError(f"not an Expr: {node!r}")


def eval_jet2(e: Expr, t: float, u: float, v: float, w: float) -> Jet2:
    """Evaluate value, (u,v,w)-gradient, and Hessian at the given point."""
    j = _eval_jet(e, t, u, v, w)
    return Jet2(j[0], j[1:4], j[4:])


# First-order-only jets: (value, du, dv, dw).  Solver hot loops only need
# gradients, and skipping the Hessian entries roughly halves the work.


def _g_chain(a, f0, d1):
    return (f0, d1 * a[1], d1 * a[2], d1 * a[3])


def _g_call(fn, a):
    x = a[0]
    if fn == "ln":
        if x <= 0.0:
            raise DomainError(f"ln of non-positive value {x}")
        return _g_chain(a, math.log(x), 1.0 / x)
    if fn == "exp":
        ex = math.exp(x)
        return _g_chain(a, ex, ex)
    if fn == "sin":
        return _g_chain(a, math.sin(x), math.cos(x))
    if fn == "cos":
        return _g_chain(a, math.cos(x), -math.sin(x))
    if fn == "sqrt":
        if x <= 0.0:
            raise DomainError(f"sqrt needs a positive argument for differentiation, got {x}")
        r = math.sqrt(x)
        return _g_chain(a, r, 0.5 / r)
    if fn == "abs":
        if x == 0.0:
            raise DomainError("abs is not differentiable at 0")
        return _g_chain(a, abs(x), 1.0 if x > 0.0 else -1.0)
    raise TypeError(f"unknown function {fn}")


def _eval_grad(node, t, u, v, w):
    if isinstance(node, Num):
        return (node.value, 0.0, 0.0, 0.0)
    if isinstance(node, Var):
        if node.name == "t":
            return (t, 0.0, 0.0, 0.0)
        if node.name == "u":
            return (u, 1.0, 0.0, 0.0)
        if node.name == "v":
            return (v, 0.0, 1.0, 0.0)
        return (w, 0.0, 0.0, 1.0)
    if isinstance(node, Neg):
        a = _eval_grad(node.arg, t, u, v, w)
        return (-a[0], -a[1], -a[2], -a[3])
    if isinstance(node, Bin):
        a = _eval_grad(node.left, t, u, v, w)
        b = _eval_grad(node.right, t, u, v, w)
        op = node.op
        if op == "+":
            return (a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3])
        if op == "-":
            return (a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3])
        if op == "*":
            av, bv = a[0], b[0]
            return (av * bv, a[1] * bv + b[1] * av, a[2] * bv + b[2] * av,
                    a[3] * bv + b[3] * av)
        if op == "/":
            if b[0] == 0.0:
                raise DomainError("division by zero")
            q = a[0] / b[0]
            inv = 1.0 / b[0]
            return (q, (a[1] - q * b[1]) * inv, (a[2] - q * b[2]) * inv,
                    (a[3] - q * b[3]) * inv)
        # power
        if b[1] == 0.0 and b[2] == 0.0 and b[3] == 0.0:
            c = b[0]
            ci = round(c)
            if abs(c - ci) <= 1e-12:
                c = float(ci)
            if c == 0.0:
                return (1.0, 0.0, 0.0, 0.0)
            if c == 1.0:
                return a
            d1 = c * _safe_pow(a[0], c - 1.0)
            return _g_chain(a, _safe_pow(a[0], c), d1)
        if a[0] <= 0.0:
            raise DomainError(f"power with variable exponent needs positive base, got {a[0]}")
        ln_a = _g_chain(a, math.log(a[0]), 1.0 / a[0])
        prod = (b[0] * ln_a[0], b[1] * ln_a[0] + ln_a[1] * b[0],
                b[2] * ln_a[0] + ln_a[2] * b[0], b[3] * ln_a[0] + ln_a[3] * b[0])
        return _g_chain(prod, math.exp(prod[0]), math.exp(prod[0]))
    if isinstance(node, Call):
        return _g_call(node.fn, _eval_grad(node.arg, t, u, v, w))
    raise TypeError(f"not an Expr: {node!r}")


def eval_grad(e: Expr, t: float, u: float, v: float, w: float):
    """Value and (u,v,w)-gradient only (cheaper than eval_jet2)."""
    return _eval_grad(e, t, u, v, w)
