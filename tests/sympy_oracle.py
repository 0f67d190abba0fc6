"""Independent CAS recomputation of the symbolic pipeline.

Rebuilds the Ricci matrix and the derivation residuals with sympy from
nothing but an algebra's bracket table, sharing no arithmetic code with
the package.  The tests compare this pipeline's output entrywise against
the package's, which guards the whole symbolic chain (structure tensor ->
ad/J operators -> Ricci -> candidate derivation -> residuals) with an
oracle that cannot share its bugs.
"""

from __future__ import annotations

import sympy as sp

from nilschouten.liealg import MetricLieAlgebra
from nilschouten.quadfield import QuadRat
from nilschouten.ratpoly import Polynomial

_SYMBOLS: dict[str, sp.Symbol] = {}


def _symbol(name: str) -> sp.Symbol:
    if name not in _SYMBOLS:
        _SYMBOLS[name] = sp.Symbol(name)
    return _SYMBOLS[name]


def poly_to_sympy(p: Polynomial) -> sp.Expr:
    total = sp.Integer(0)
    for mono, coeff in p.terms().items():
        term = sp.Rational(coeff.numerator, coeff.denominator)
        for name, exp in mono.exps:
            term *= _symbol(name) ** exp
        total += term
    return sp.expand(total)


def sympy_scalar(value) -> sp.Expr:
    """An int, Fraction or QuadRat a + b*sqrt(m) as an exact sympy number."""
    if isinstance(value, QuadRat):
        return sympy_scalar(value.a) + sympy_scalar(value.b) * sp.sqrt(value.m)
    return sp.Rational(value.numerator, value.denominator)


def _structure(g: MetricLieAlgebra) -> list:
    n = g.dim
    return [
        [[poly_to_sympy(g.c[i][j][k]) for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def sympy_ricci(g: MetricLieAlgebra) -> sp.Matrix:
    """Ricci matrix from the two-term formula, all sympy."""
    n = g.dim
    c = _structure(g)
    ad = [sp.Matrix(n, n, lambda k, j, i=i: c[i][j][k]) for i in range(n)]
    jop = [sp.Matrix(n, n, lambda k, j, i=i: c[j][k][i]) for i in range(n)]
    return sp.Matrix(
        n,
        n,
        lambda i, j: sp.expand(
            sp.Rational(-1, 2) * (ad[i] * ad[j].T).trace()
            + sp.Rational(-1, 4) * (jop[i] * jop[j]).trace()
        ),
    )


def sympy_candidate_residuals(g: MetricLieAlgebra) -> dict[tuple[int, int], sp.Matrix]:
    """Residuals of D = Ric - (lambda0*s + c)*Id for every pair i < j (1-based)."""
    n = g.dim
    c = _structure(g)
    ric = sympy_ricci(g)
    s = ric.trace()
    d = ric - (_symbol("lambda0") * s + _symbol("c")) * sp.eye(n)

    def bracket(u: sp.Matrix, v: sp.Matrix) -> sp.Matrix:
        out = [sp.Integer(0)] * n
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    out[k] += u[i] * v[j] * c[i][j][k]
        return sp.Matrix(n, 1, out)

    residuals = {}
    for i in range(n):
        for j in range(i + 1, n):
            ei = sp.Matrix(n, 1, lambda r, _: 1 if r == i else 0)
            ej = sp.Matrix(n, 1, lambda r, _: 1 if r == j else 0)
            image = sp.Matrix(n, 1, [c[i][j][k] for k in range(n)])
            res = d * image - bracket(d[:, i], ej) - bracket(ei, d[:, j])
            residuals[(i + 1, j + 1)] = res.applyfunc(sp.expand)
    return residuals


def sympy_nilsoliton_constant(g: MetricLieAlgebra, sample: dict) -> sp.Expr:
    """tr(Ric^2)/scal at the sample, from the sympy Ricci matrix.

    For a nilpotent algebra tr(Ric*D) = 0 for every derivation D (Lauret,
    Math. Ann. 319, 2001), so if Ric - mu*Id is a derivation then
    mu = tr(Ric^2)/tr(Ric).  scal = tr(Ric) is nonzero unless the algebra
    is abelian at the sample.
    """
    subs = {_symbol(name): sympy_scalar(v) for name, v in sample.items()}
    ric = sympy_ricci(g).subs(subs)
    return sp.radsimp((ric * ric).trace() / ric.trace())
