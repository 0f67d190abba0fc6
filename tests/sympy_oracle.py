"""Independent CAS recomputation of the symbolic pipeline.

Rebuilds the Ricci matrix (trace form) and the residuals of the candidate
D = Ric - (lambda0*s + c)*Id in plain loops over an algebra's entry table,
in the sparse ring ``sympy.polys.rings.ring(params + [lambda0, c], QQ)``,
sharing no arithmetic code with the package.  Tests map the package's
polynomials into that ring and compare with ``==``; values become sympy
expressions only at samples, where Q(sqrt m) needs ``sqrt`` and ``radsimp``.
"""

from __future__ import annotations

import sympy as sp
from sympy.polys.domains import QQ
from sympy.polys.rings import PolyElement, PolyRing, ring

from nilschouten.liealg import MetricLieAlgebra
from nilschouten.quadfield import QuadRat
from nilschouten.ratpoly import Polynomial


def oracle_ring(names) -> PolyRing:
    """QQ[names..., lambda0, c], the parameter names sorted."""
    return ring(sorted(names) + ["lambda0", "c"], QQ)[0]


def poly_to_ring(p: Polynomial, R: PolyRing) -> PolyElement:
    names = [str(s) for s in R.symbols]
    return R.from_dict({
        tuple(dict(mono).get(name, 0) for name in names): QQ(coeff.numerator, coeff.denominator)
        for mono, coeff in p
    })


def _structure(g: MetricLieAlgebra) -> tuple[PolyRing, dict]:
    """The ring and the sparse table {(i, j): {k: c_ijk}}, 0-based."""
    R = oracle_ring(g.parameters())
    table: dict = {}
    for i, j, k, entry in g.entries:
        table.setdefault((i, j), {})[k] = poly_to_ring(entry, R)
    return R, table


def _ricci(n: int, R: PolyRing, c: dict) -> list:
    """ric_ij = -1/2 sum_{l,k} c_ilk c_jlk + 1/4 sum_{a,b} c_abi c_abj."""
    ric = [[R.zero] * n for _ in range(n)]
    for (i, l), row in c.items():
        for j in range(n):
            other = c.get((j, l), {})
            for k in row.keys() & other.keys():
                ric[i][j] -= QQ(1, 2) * row[k] * other[k]
    for column in c.values():
        for i, x in column.items():
            for j, y in column.items():
                ric[i][j] += QQ(1, 4) * x * y
    return ric


def sympy_ricci(g: MetricLieAlgebra) -> list:
    """The Ricci matrix as nested lists of ring elements."""
    return _ricci(g.dim, *_structure(g))


def sympy_candidate_residuals(g: MetricLieAlgebra) -> dict[tuple[int, int], list]:
    """D[v_i, v_j] - [D v_i, v_j] - [v_i, D v_j] of D = Ric - (lambda0*s + c)*Id,
    coordinates as ring elements, for every pair i < j (1-based)."""
    n = g.dim
    R, c = _structure(g)
    ric = _ricci(n, R, c)
    lambda0, mu = R.gens[-2:]
    shift = lambda0 * sum(ric[i][i] for i in range(n)) + mu
    d = [[ric[k][l] - shift if k == l else ric[k][l] for l in range(n)] for k in range(n)]
    residuals = {}
    for i in range(n):
        for j in range(i + 1, n):
            res = [R.zero] * n
            for l, x in c.get((i, j), {}).items():
                for k in range(n):
                    res[k] += d[k][l] * x
            for l in range(n):
                for k, x in c.get((l, j), {}).items():
                    res[k] -= d[l][i] * x
                for k, x in c.get((i, l), {}).items():
                    res[k] -= d[l][j] * x
            residuals[(i + 1, j + 1)] = res
    return residuals


def sympy_scalar(value) -> sp.Expr:
    """An int, Fraction or QuadRat a + b*sqrt(m) as an exact sympy number."""
    if isinstance(value, QuadRat):
        return sympy_scalar(value.a) + sympy_scalar(value.b) * sp.sqrt(value.m)
    return sp.Rational(value.numerator, value.denominator)


def at_sample(p: PolyElement, sample: dict) -> sp.Expr:
    """A ring element at a sample {name: int, Fraction or QuadRat}, expanded."""
    subs = {sp.Symbol(name): sympy_scalar(v) for name, v in sample.items()}
    return sp.expand(p.as_expr().xreplace(subs))


def sympy_ricci_at(g: MetricLieAlgebra, sample: dict) -> sp.Matrix:
    return sp.Matrix([[at_sample(x, sample) for x in row] for row in sympy_ricci(g)])


def sympy_nilsoliton_constant(g: MetricLieAlgebra, sample: dict) -> sp.Expr:
    """tr(Ric^2)/scal at the sample, from the sympy Ricci matrix.

    For a nilpotent algebra tr(Ric*D) = 0 for every derivation D (Lauret,
    Math. Ann. 319, 2001), so if Ric - mu*Id is a derivation then
    mu = tr(Ric^2)/tr(Ric).  scal = tr(Ric) is nonzero unless the algebra
    is abelian at the sample.
    """
    ric = sympy_ricci_at(g, sample)
    return sp.radsimp((ric * ric).trace() / ric.trace())
