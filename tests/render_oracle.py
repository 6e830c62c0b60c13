"""Text rendering of lambda-polynomials and MultiPolys, spelled out in full.

The library renders the unsigned term c*lambda^k in one place
(`scalars.lambda_term_text`), shared by `render_lambda_poly` and
`polynomials.render_poly`.  This oracle keeps a rendering that writes
each rule out where it is used: the lambda-power names, the unit
coefficient and the parentheses of a two-part scalar.  tests/
test_polynomials.py compares both renderers with it under hypothesis.
"""

from plucker_lab.polynomials import MultiPoly
from plucker_lab.scalars import ONE, EisensteinScalar, LambdaPoly, render_scalar


def _scalar_factor_text(c: EisensteinScalar) -> str:
    s = render_scalar(c)
    if c.an and c.bn:
        return "(%s)" % s
    return s


def render_lambda_poly(p: LambdaPoly) -> str:
    """Ascending powers, e.g. `3 - 3*lambda + lambda^2`."""
    if p.is_zero():
        return "0"
    parts = []
    for k, c in enumerate(p.coeffs):
        if not c:
            continue
        if k == 0:
            mono = None
        elif k == 1:
            mono = "lambda"
        else:
            mono = "lambda^%d" % k
        neg = c.an < 0 or (c.an == 0 and c.bn < 0)
        if neg:
            c = -c
        if mono is None:
            body = render_scalar(c)
            if neg and c.an and c.bn:
                body = "(%s)" % body
        elif c == ONE:
            body = mono
        else:
            body = "%s*%s" % (_scalar_factor_text(c), mono)
        if not parts:
            parts.append("-" + body if neg else body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    return " ".join(parts)


def _simple_coeff_text(c: LambdaPoly):
    """(negate, text) of a coefficient with one lambda power, which needs
    no parentheses when glued onto a monomial; (False, None) otherwise."""
    live = [(k, s) for k, s in enumerate(c.coeffs) if s]
    if len(live) != 1:
        return False, None
    k, s = live[0]
    neg = s.an < 0 or (s.an == 0 and s.bn < 0)
    if neg:
        s = -s
    if k == 0:
        lam = None
    elif k == 1:
        lam = "lambda"
    else:
        lam = "lambda^%d" % k
    if s == ONE:
        stext = None
    elif s.an and s.bn:
        stext = "(%s)" % str(s)
    else:
        stext = str(s)
    if stext is None and lam is None:
        return neg, "1"
    if stext is None:
        return neg, lam
    if lam is None:
        return neg, stext
    return neg, "%s*%s" % (stext, lam)


def render_poly(p: MultiPoly) -> str:
    """Graded-lex descending terms with explicit `*`."""
    if p.is_zero():
        return "0"
    chunks = []
    for exp in sorted(p.terms, key=lambda e: (sum(e), e), reverse=True):
        coeff = p.terms[exp]
        mono = "*".join(name if e == 1 else "%s^%d" % (name, e) for name, e in zip(p.vars, exp) if e)
        neg, simple = _simple_coeff_text(coeff)
        if simple is None:
            body = "(%s)" % render_lambda_poly(coeff)
            if mono:
                body += "*" + mono
            neg = False
        elif not mono:
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
