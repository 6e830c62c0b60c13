"""Sparse multivariate polynomials over Q(rho)[lambda].

Exponent vectors map to LambdaPoly coefficients, so an equation can keep
lambda symbolic: the sextic family, the orbit obstruction, --lambda
specialization.  A lambda-free curve is cleared over Z[rho] once
(MultiPoly.cleared) and its algorithms run on the int pairs of _zrho.
The module supplies the text grammar used everywhere (integers, `/`,
`rho`, `lambda`, identifiers, + - * ^, parentheses), parsed into flat
term dicts, graded-lex canonical rendering, calculus (partials,
substitution), the Sylvester resultant of a chart elimination over
Z[rho], a primitive-PRS gcd, and the built-in sextic family with its
quadratic coordinate map.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import _zrho
from .scalars import (
    LAMBDA,
    ONE,
    RHO,
    ZERO,
    EisensteinScalar,
    LambdaPoly,
    lambda_term_text,
    render_lambda_poly,
)

_RESERVED = ("rho", "lambda")


class PolyParseError(ValueError):
    """Syntax or name error in polynomial text; position is a 0-based
    character offset into the input."""

    def __init__(self, message: str, position: int):
        super().__init__("%s at offset %d" % (message, position))
        self.position = position


def _check_variables(variables) -> tuple:
    """The variable names as a tuple; ValueError if one is reserved or
    two are equal."""
    variables = tuple(variables)
    for v in variables:
        if v in _RESERVED:
            raise ValueError("variable name %r is reserved" % v)
    if len(set(variables)) != len(variables):
        raise ValueError("duplicate variable names")
    return variables


def _coerce_coeff(c) -> LambdaPoly:
    if isinstance(c, LambdaPoly):
        return c
    if isinstance(c, (int, Fraction, EisensteinScalar)):
        return LambdaPoly((c,))
    raise TypeError("cannot use %r as a coefficient" % (c,))


def _add(p, q):
    """The sum of two term dicts (exponent -> nonzero coefficient)."""
    out = dict(p)
    for e, c in q.items():
        s = out.get(e)
        s = c if s is None else s + c
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def _mul(p, q):
    """The product of two term dicts."""
    out = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple([a + b for a, b in zip(e1, e2)])
            c = c1 * c2
            s = out.get(e)
            out[e] = c if s is None else s + c
    return {e: c for e, c in out.items() if c}


def _power(p, n, one):
    """p^n of a term dict p, for n >= 0 and one the term dict of 1."""
    if len(p) == 1:  # a monomial: scale its exponent
        (e, c), = p.items()
        return {tuple([k * n for k in e]): c**n}
    out = one
    for _ in range(n):
        out = _mul(out, p)
    return out


class MultiPoly:
    """Polynomial in declared variables with LambdaPoly coefficients.

    terms maps exponent tuples (one slot per variable) to nonzero
    coefficients.  Instances are immutable by convention: no method
    mutates self.
    """

    __slots__ = ("vars", "terms")

    def __init__(self, variables, terms=None):
        variables = _check_variables(variables)
        clean = {}
        for exp, coeff in (terms or {}).items():
            exp = tuple(int(e) for e in exp)
            if len(exp) != len(variables):
                raise ValueError(
                    "exponent vector %r does not match %d variables"
                    % (exp, len(variables))
                )
            if any(e < 0 for e in exp):
                raise ValueError("negative exponent in %r" % (exp,))
            coeff = _coerce_coeff(coeff)
            if coeff:
                clean[exp] = clean[exp] + coeff if exp in clean else coeff
        clean = {e: c for e, c in clean.items() if c}
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value=None):
        raise AttributeError("MultiPoly is immutable")

    __delattr__ = __setattr__

    def __reduce__(self):
        return MultiPoly._raw, (self.vars, self.terms)

    @classmethod
    def _raw(cls, variables, terms) -> "MultiPoly":
        self = object.__new__(cls)
        object.__setattr__(self, "vars", variables)
        object.__setattr__(self, "terms", terms)
        return self

    @classmethod
    def zero(cls, variables) -> "MultiPoly":
        return cls(variables, {})

    @classmethod
    def constant(cls, variables, value) -> "MultiPoly":
        value = _coerce_coeff(value)
        variables = tuple(variables)
        if not value:
            return cls._raw(variables, {})
        return cls._raw(variables, {(0,) * len(variables): value})

    @classmethod
    def variable(cls, variables, name) -> "MultiPoly":
        variables = tuple(variables)
        exp = [0] * len(variables)
        exp[variables.index(name)] = 1
        return cls._raw(variables, {tuple(exp): LambdaPoly((ONE,))})

    @property
    def arity(self) -> int:
        return len(self.vars)

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.terms)

    def constant_coefficient(self) -> LambdaPoly:
        return self.terms.get((0,) * len(self.vars), LambdaPoly(()))

    def total_degree(self) -> int:
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def degree_in(self, var: str) -> int:
        i = self._var_index(var)
        if not self.terms:
            return -1
        return max(e[i] for e in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def lambda_free(self) -> bool:
        return all(c.is_constant() for c in self.terms.values())

    def cleared(self):
        """The lambda-free polynomial cleared over Z[rho]: (form, den), the
        form mapping each exponent to the pair (a, b) of den times its
        coefficient a + b*rho, and den the lcm of the denominators."""
        pairs, den = _zrho.clear([c.coeffs[0] for c in self.terms.values()])
        return dict(zip(self.terms, pairs)), den

    def _var_index(self, var: str) -> int:
        try:
            return self.vars.index(var)
        except ValueError:
            raise ValueError(
                "unknown variable %r (declared: %s)" % (var, ", ".join(self.vars))
            ) from None

    def _check_same_vars(self, other: "MultiPoly"):
        if self.vars != other.vars:
            raise ValueError(
                "mixed variable sets: %r vs %r" % (self.vars, other.vars)
            )

    @staticmethod
    def _coerce(other, variables):
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction, EisensteinScalar, LambdaPoly)):
            return MultiPoly.constant(variables, other)
        return None

    def __add__(self, other):
        o = self._coerce(other, self.vars)
        if o is None:
            return NotImplemented
        self._check_same_vars(o)
        return MultiPoly._raw(self.vars, _add(self.terms, o.terms))

    __radd__ = __add__

    def __neg__(self):
        return MultiPoly._raw(self.vars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        o = self._coerce(other, self.vars)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other, self.vars)
        if o is None:
            return NotImplemented
        self._check_same_vars(o)
        return MultiPoly._raw(self.vars, _mul(self.terms, o.terms))

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        one = {(0,) * len(self.vars): LambdaPoly((ONE,))}
        return MultiPoly._raw(self.vars, _power(self.terms, n, one))

    def scale(self, factor) -> "MultiPoly":
        factor = _coerce_coeff(factor)
        if not factor:
            return MultiPoly._raw(self.vars, {})
        return MultiPoly._raw(
            self.vars, {e: c * factor for e, c in self.terms.items()}
        )

    def __eq__(self, other):
        o = other if isinstance(other, MultiPoly) else self._coerce(other, self.vars)
        if o is None:
            return NotImplemented
        return self.vars == o.vars and self.terms == o.terms

    def __bool__(self):
        return bool(self.terms)

    # -- calculus ----------------------------------------------------------

    def evaluate(self, point) -> LambdaPoly:
        if len(point) != len(self.vars):
            raise ValueError(
                "point has %d coordinates, polynomial has %d variables"
                % (len(point), len(self.vars))
            )
        pt = []
        for x in point:
            if not isinstance(x, EisensteinScalar):
                x = EisensteinScalar(x)
            pt.append(x)
        acc = LambdaPoly(())
        for exp, coeff in self.terms.items():
            s = ONE
            for x, e in zip(pt, exp):
                if e:
                    s = s * x**e
            if s:
                acc = acc + coeff.scale(s)
        return acc

    def partial_derivative(self, var: str) -> "MultiPoly":
        i = self._var_index(var)
        out = {}
        for exp, coeff in self.terms.items():
            e = exp[i]
            if not e:
                continue
            nexp = exp[:i] + (e - 1,) + exp[i + 1 :]
            c = coeff.scale(EisensteinScalar(e))
            s = out.get(nexp)
            out[nexp] = c if s is None else s + c
        return MultiPoly._raw(self.vars, {e: c for e, c in out.items() if c})

    def substitute(self, images) -> "MultiPoly":
        images = list(images)
        if len(images) != len(self.vars):
            raise ValueError(
                "%d images for %d variables" % (len(images), len(self.vars))
            )
        tvars = images[0].vars
        for im in images:
            if im.vars != tvars:
                raise ValueError("images use mixed variable sets")
        # precompute image powers
        maxe = [0] * len(self.vars)
        for exp in self.terms:
            for i, e in enumerate(exp):
                maxe[i] = max(maxe[i], e)
        powers = []
        for im, top in zip(images, maxe):
            ps = [MultiPoly.constant(tvars, 1)]
            for _ in range(top):
                ps.append(ps[-1] * im)
            powers.append(ps)
        acc = MultiPoly.zero(tvars)
        for exp, coeff in self.terms.items():
            term = MultiPoly.constant(tvars, coeff)
            for i, e in enumerate(exp):
                if e:
                    term = term * powers[i][e]
            acc = acc + term
        return acc

    def specialize_lambda(self, value) -> "MultiPoly":
        if not isinstance(value, EisensteinScalar):
            value = EisensteinScalar(value)
        out = {}
        for exp, coeff in self.terms.items():
            c = coeff.evaluate(value)
            if c:
                out[exp] = LambdaPoly((c,))
        return MultiPoly._raw(self.vars, out)

    def coefficients_in(self, var: str):
        """Coefficients of var^0, var^1, ... as var-free MultiPolys."""
        i = self._var_index(var)
        d = self.degree_in(var)
        out = [dict() for _ in range(max(d, 0) + 1)]
        for exp, coeff in self.terms.items():
            nexp = exp[:i] + (0,) + exp[i + 1 :]
            out[exp[i]][nexp] = coeff
        return [MultiPoly._raw(self.vars, t) for t in out]

    # -- leading terms and division ---------------------------------------

    @staticmethod
    def _grlex_key(exp):
        return (sum(exp), exp)

    def leading_term(self):
        if not self.terms:
            raise ValueError("zero polynomial has no leading term")
        exp = max(self.terms, key=self._grlex_key)
        return exp, self.terms[exp]

    def exact_div(self, other: "MultiPoly") -> "MultiPoly":
        """Exact division; raises ValueError when other does not divide
        self in the polynomial ring (lambda included)."""
        o = self._coerce(other, self.vars)
        self._check_same_vars(o)
        if o.is_zero():
            raise ZeroDivisionError("division by zero polynomial")
        if self.is_zero():
            return self
        dexp, dcoeff = o.leading_term()
        rem = dict(self.terms)
        out = {}
        while rem:
            rexp = max(rem, key=self._grlex_key)
            nexp = tuple(a - b for a, b in zip(rexp, dexp))
            if any(e < 0 for e in nexp):
                raise ValueError("inexact division (leading monomial)")
            q = rem[rexp].exact_div(dcoeff)
            out[nexp] = q
            for oexp, ocoeff in o.terms.items():
                t = tuple(a + b for a, b in zip(nexp, oexp))
                s = rem.get(t, LambdaPoly(())) - q * ocoeff
                if s:
                    rem[t] = s
                elif t in rem:
                    del rem[t]
        return MultiPoly._raw(self.vars, out)

    def divides(self, other: "MultiPoly") -> bool:
        try:
            other.exact_div(self)
            return True
        except ValueError:
            return False

    def __str__(self):
        return render_poly(self)

    def __repr__(self):
        return render_poly(self)


# ---------------------------------------------------------------------------
# Parsing

# a token, or the first character that cannot start one
_TOKEN_RE = re.compile(r"\s*(?:(\d+|[A-Za-z_][A-Za-z0-9_]*|[\^+\-*/()])|(\S))")


class _Parser:
    """Recursive descent over the tokens of the text.  Every value is a
    term dict: exponent tuples, one slot per variable and a last one for
    lambda, to nonzero EisensteinScalars; parse_poly makes a MultiPoly of
    the result once, at the end."""

    def __init__(self, text: str, variables):
        self.vars = _check_variables(variables)
        self.tokens = []
        for m in _TOKEN_RE.finditer(text):
            if m.group(2):
                raise PolyParseError("unexpected character %r" % m.group(2), m.start(2))
            self.tokens.append((m.group(1), m.start(1)))
        self.tokens.append((None, len(text)))
        self.i = 0
        self.zero = zero = (0,) * (len(self.vars) + 1)
        self.units = {v: zero[:k] + (1,) + zero[k + 1 :] for k, v in enumerate(self.vars)}
        self.units["lambda"] = zero[:-1] + (1,)

    def peek(self):
        return self.tokens[self.i][0]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def parse(self) -> dict:
        p = self.expr()
        tok, pos = self.tokens[self.i]
        if tok is not None:
            raise PolyParseError("syntax error (expected operator or end of input)", pos)
        return p

    def expr(self) -> dict:
        op = self.advance()[0] if self.peek() in ("+", "-") else "+"
        acc = {}
        while True:
            t = self.term()
            acc = _add(acc, {e: -c for e, c in t.items()} if op == "-" else t)
            if self.peek() not in ("+", "-"):
                return acc
            op = self.advance()[0]

    def term(self) -> dict:
        acc = self.power()
        while self.peek() in ("*", "/"):
            op, oppos = self.advance()
            rhs = self.power()
            if op == "*":
                acc = _mul(acc, rhs)
                continue
            if any(any(e[:-1]) for e in rhs):
                raise PolyParseError("can only divide by a constant", oppos)
            if any(e[-1] for e in rhs):
                raise PolyParseError("cannot divide by a lambda-dependent value", oppos)
            if not rhs:
                raise PolyParseError("division by zero", oppos)
            inv = rhs[self.zero].inverse()
            acc = {e: c * inv for e, c in acc.items()}
        return acc

    def power(self) -> dict:
        base = self.atom()
        if self.peek() != "^":
            return base
        self.advance()
        tok, pos = self.advance()
        if tok is None or not tok.isdigit():
            raise PolyParseError("expected integer exponent", pos)
        return _power(base, int(tok), {self.zero: ONE})

    def atom(self) -> dict:
        tok, pos = self.advance()
        if tok is None:
            raise PolyParseError("unexpected end of input", pos)
        if tok.isdigit():
            n = int(tok)
            return {self.zero: EisensteinScalar._raw(n, 0, 1)} if n else {}
        if tok == "(":
            inner = self.expr()
            closer, cpos = self.advance()
            if closer != ")":
                raise PolyParseError("expected ')'", cpos)
            return inner
        if tok == "rho":
            return {self.zero: RHO}
        if tok in self.units:
            return {self.units[tok]: ONE}
        if re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", tok):
            raise PolyParseError("unknown variable %r" % tok, pos)
        raise PolyParseError("syntax error", pos)


def parse_poly(text: str, variables) -> MultiPoly:
    """Parse polynomial text over the given variables.

    Grammar: integers, `/` for rational constants, `rho`, `lambda`,
    declared variable names, `+ - * ^` and parentheses; whitespace is
    insignificant.  Raises PolyParseError with a character offset, and
    ValueError, as MultiPoly does, for a reserved or repeated variable
    name.
    """
    parser = _Parser(text, variables)
    terms = {}
    for (*exp, k), c in parser.parse().items():
        coeffs = terms.setdefault(tuple(exp), [])
        coeffs.extend([ZERO] * (k + 1 - len(coeffs)))
        coeffs[k] = c
    return MultiPoly._raw(parser.vars, {e: LambdaPoly._raw(cs) for e, cs in terms.items()})


# ---------------------------------------------------------------------------
# Rendering

def _simple_coeff_text(c: LambdaPoly):
    """Rendering of a coefficient that needs no parentheses when glued
    onto a monomial with '*': a single lambda power, a two-part scalar
    parenthesized.  Returns (negate, text or None)."""
    live = [(k, s) for k, s in enumerate(c.coeffs) if s]
    if len(live) != 1:
        return False, None
    k, s = live[0]
    neg = s.an < 0 or (s.an == 0 and s.bn < 0)
    if neg:
        s = -s
    return neg, lambda_term_text(s, k)


def _monomial_text(exp, names):
    parts = []
    for name, e in zip(names, exp):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append("%s^%d" % (name, e))
    return "*".join(parts)


def render_poly(p: MultiPoly) -> str:
    """Canonical form: graded-lex descending terms, explicit `*`."""
    if p.is_zero():
        return "0"
    order = sorted(p.terms, key=MultiPoly._grlex_key, reverse=True)
    chunks = []
    for exp in order:
        coeff = p.terms[exp]
        mono = _monomial_text(exp, p.vars)
        neg, simple = _simple_coeff_text(coeff)
        if simple is None:
            body = "(%s)" % render_lambda_poly(coeff)
            if mono:
                body += "*" + mono
            neg = False
        else:
            if not mono:
                body = simple
            elif simple == "1":
                body = mono
            else:
                body = simple + "*" + mono
        if not chunks:
            chunks.append("-" + body if neg else body)
        else:
            chunks.append(("- " if neg else "+ ") + body)
    return " ".join(chunks)


# ---------------------------------------------------------------------------
# Resultants

def resultant(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    """Sylvester resultant of a chart elimination, eliminating var: p and
    q are lambda-free with at most one live variable j besides var (other
    inputs raise ValueError naming lambda or the variables).  _zrho.resultant
    runs a subresultant PRS on dense polynomials in j over Z[rho], scaled
    back by D_p^-deg(q) * D_q^-deg(p) for the cleared denominators."""
    p._check_same_vars(q)
    if p.is_zero() or q.is_zero():
        raise ValueError("resultant of a zero polynomial")
    if p.degree_in(var) < 1 or q.degree_in(var) < 1:
        raise ValueError("resultant needs positive degree in %r" % var)
    if not (p.lambda_free() and q.lambda_free()):
        raise ValueError("resultant needs lambda-free polynomials, but lambda is still symbolic")
    i = p._var_index(var)
    others = sorted({k for f in (p, q) for e in f.terms for k, n in enumerate(e) if n and k != i})
    if len(others) > 1:
        names = ", ".join(p.vars[k] for k in others)
        raise ValueError("resultant in %r allows one other live variable, got %s" % (var, names))
    j = others[0] if others else None
    (pf, p_den), (qf, q_den) = p.cleared(), q.cleared()
    pc, qc = _zrho.table(pf, i, j)[::-1], _zrho.table(qf, i, j)[::-1]
    det = _zrho.resultant(pc, qc)
    scale = p_den ** (len(qc) - 1) * q_den ** (len(pc) - 1)
    zero = (0,) * len(p.vars)
    terms = {}
    for e, (a, b) in enumerate(det):
        if a or b:
            exp = zero if j is None else zero[:j] + (e,) + zero[j + 1 :]
            terms[exp] = LambdaPoly._raw((EisensteinScalar._raw(a, b, scale),))
    return MultiPoly._raw(p.vars, terms)


# ---------------------------------------------------------------------------
# GCD and content

def _content_in(p: MultiPoly, var: str) -> MultiPoly:
    coeffs = [c for c in p.coefficients_in(var) if not c.is_zero()]
    g = MultiPoly.zero(p.vars)
    for c in coeffs:
        g = mv_gcd(g, c)
    return g


def _primitive_in(p: MultiPoly, var: str):
    cont = _content_in(p, var)
    return cont, p.exact_div(cont)


def _pseudo_rem(p: MultiPoly, q: MultiPoly, var: str) -> MultiPoly:
    dp = p.degree_in(var)
    dq = q.degree_in(var)
    lc_q = q.coefficients_in(var)[dq]
    v = MultiPoly.variable(p.vars, var)
    r = p
    steps = dp - dq + 1
    while not r.is_zero() and r.degree_in(var) >= dq:
        dr = r.degree_in(var)
        lc_r = r.coefficients_in(var)[dr]
        r = r * lc_q - q * lc_r * v ** (dr - dq)
        steps -= 1
    if steps > 0:
        r = r * lc_q**steps
    return r


def normalize_leading(p: MultiPoly) -> MultiPoly:
    """Scale so the graded-lex leading coefficient is monic in lambda."""
    if p.is_zero():
        return p
    _, lead = p.leading_term()
    return p.scale(LambdaPoly((lead.leading().inverse(),)))


def mv_gcd(p: MultiPoly, q: MultiPoly) -> MultiPoly:
    """Greatest common divisor via primitive pseudo-remainder sequences,
    normalized to a lambda-monic leading coefficient."""
    if p.is_zero():
        return normalize_leading(q)
    if q.is_zero():
        return normalize_leading(p)
    p._check_same_vars(q)
    var = None
    for v in reversed(p.vars):
        if p.degree_in(v) > 0 or q.degree_in(v) > 0:
            var = v
            break
    if var is None:
        # both constant in every variable: gcd of lambda polynomials
        g = p.constant_coefficient().gcd(q.constant_coefficient())
        return MultiPoly.constant(p.vars, g)
    if p.degree_in(var) == 0:
        return mv_gcd(p, _content_in(q, var))
    if q.degree_in(var) == 0:
        return mv_gcd(_content_in(p, var), q)
    cp, a = _primitive_in(p, var)
    cq, b = _primitive_in(q, var)
    cont = mv_gcd(cp, cq)
    if a.degree_in(var) < b.degree_in(var):
        a, b = b, a
    while not b.is_zero():
        r = _pseudo_rem(a, b, var)
        if r.is_zero():
            a, b = b, r
        else:
            a, b = b, _primitive_in(r, var)[1]
    return normalize_leading(cont * a)


def parse_scalar(text: str) -> EisensteinScalar:
    """Parse constant text (`-1`, `1/2`, `rho`, `1 + 2*rho`) to a scalar."""
    terms = _Parser(text, ()).parse()
    if any(e != (0,) for e in terms):
        raise PolyParseError("expected a constant, found lambda", 0)
    return terms.get((0,), ZERO)


# ---------------------------------------------------------------------------
# Built-in equations

X_VARS = ("x0", "x1", "x2")
Y_VARS = ("y0", "y1", "y2")
U_VARS = ("u0", "u1", "u2")

SEXTIC_NOTE = (
    "one transcription of this sextic contains a variable y3; with only "
    "y0,y1,y2 in play the term is read as y0*y1*y2*(y0^3+y1^3+y2^3), the "
    "unique homogeneous degree-6 completion"
)


def quadratic_map() -> list:
    """The quadratic coordinate change (y0,y1,y2) as polynomials in
    x0,x1,x2 with lambda symbolic: yi = 3*xi^2 - 3*lambda*xj*xk."""
    out = []
    for i, (j, k) in ((0, (1, 2)), (1, (0, 2)), (2, (0, 1))):
        sq = MultiPoly.variable(X_VARS, X_VARS[i]) ** 2
        cross = MultiPoly.variable(X_VARS, X_VARS[j]) * MultiPoly.variable(
            X_VARS, X_VARS[k]
        )
        out.append(sq.scale(3) - cross.scale(LAMBDA.scale(EisensteinScalar(3))))
    return out


def bl2_sextic() -> MultiPoly:
    """The built-in lambda family of sextics in y0,y1,y2.

    (y0^6+y1^6+y2^6) + 2(2 lambda^3 - 1)(y0^3 y1^3 + y0^3 y2^3 + y1^3 y2^3)
    - 6 lambda^2 y0 y1 y2 (y0^3+y1^3+y2^3) - 3 lambda (lambda^3 - 4)
    y0^2 y1^2 y2^2.  See SEXTIC_NOTE for the reading of the third term.
    Built from its 10 terms: each coefficient, lowest power of lambda
    first, with the exponents that carry it.
    """
    terms = {}
    for coeffs, exponents in (
        ((1,), ((6, 0, 0), (0, 6, 0), (0, 0, 6))),
        ((-2, 0, 0, 4), ((3, 3, 0), (3, 0, 3), (0, 3, 3))),
        ((0, 0, -6), ((4, 1, 1), (1, 4, 1), (1, 1, 4))),
        ((0, 12, 0, 0, -3), ((2, 2, 2),)),
    ):
        terms.update(dict.fromkeys(exponents, LambdaPoly._raw(EisensteinScalar._raw(c, 0, 1) for c in coeffs)))
    return MultiPoly._raw(Y_VARS, terms)
