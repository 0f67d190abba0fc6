"""Ricci curvature of the left-invariant metric, from structure constants.

Two entry points compute the Ricci tensor.  The general four-term formula

    ric(u, v) = -1/2 B(u, v) - 1/2 tr(ad_u ad*_v) - 1/4 tr(J_u J_v)
                - 1/2 (<ad_H u, v> + <ad_H v, u>)

keeps the Killing-form and mean-curvature terms; the nilpotent two-term
formula drops them because B and H vanish identically on nilpotent
algebras.  The general formula is computed independently, from the ad,
ad* and J matrices, so its agreement with the two-term kernel on the
catalog checks the -1/2 and -1/4 coefficients as well as the vanishing of
B and H.  Nilpotency is not re-verified here: deciding it needs a
parameter sample, and the built-in catalog guarantees it.

The mean-curvature term is implemented with the sign written above; its
convention varies across the literature, and since H vanishes identically
on every algebra this package ships, the choice is untestable here.

In the orthonormal basis the musical isomorphism is the identity on
matrices, so the Ricci operator and the (0,2) Ricci tensor share one
matrix; ``ricci_operator`` is a second name for ``ricci_tensor_nilpotent``
that keeps the distinction visible in the interface.  Trace convention:
tr(A compose B) = sum_{i,j} A[i][j]B[j][i].  The two-term formula sums
over an entry table (liealg.nonzero_entries) and builds no ad or J
matrices; an algebra passes its stored ``entries``.  It sums the upper
triangle and mirrors it, so Ric is symmetric bit for bit in every scalar
ring, and the scalar curvature -1/4 * sum c_ijk^2 is read off the table
without a Ricci matrix.

One kernel, integer_ricci, serves every scalar ring: it sums the table
with the integer weights -2 and 1, giving 4*Ric.  scaled_ricci is the only
function that knows how a table's ring is summed.  A nonempty table of
Fractions (a rational or float sample) is first cleared of denominators,
X = d*c with d their least common denominator, so the kernel sums ints and
gives 4*d^2*Ric; any other table (Polynomial, QuadRat or float) is summed
in its own ring.  ricci_nilpotent_from_entries divides each upper-triangle
entry once, by that scale, and mirrors it.  Scaling by 4 and by 1/4 is
exact in binary floating point, so a float table gives the matrix of the
weights -1/2 and 1/4 bit for bit wherever no partial sum leaves the normal
range.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .liealg import (
    Matrix,
    MetricLieAlgebra,
    basis_vector,
    nonzero_entries,
    trace_product,
)
from .ratpoly import Polynomial

_HALF = Fraction(1, 2)
_QUARTER = Fraction(1, 4)


def ricci_nilpotent_from_tensor(tensor: list) -> Matrix:
    """Two-term Ricci matrix of an (evaluated or symbolic) dense structure tensor."""
    return ricci_nilpotent_from_entries(nonzero_entries(tensor), len(tensor), tensor[0][0][0])


def ricci_nilpotent_from_entries(entries, n: int, zero) -> Matrix:
    """Two-term Ricci matrix from the entry table of an n-dimensional algebra.

    ric_ij = -1/2 sum_{l,k} c_ilk c_jlk + 1/4 sum_{a,b} c_abi c_abj, i.e.
    -1/2 tr(ad_i ad*_j) - 1/4 tr(J_i J_j), summed over pairs of nonzero
    entries sharing their last, respectively first, two indices.  Generic
    over the scalar ring whose zero is given: it yields the polynomial
    matrices of the symbolic pipeline and the numeric ones of the oracle,
    as scaled_ricci's s*Ric divided once by s.
    """
    s, _, ric = scaled_ricci(entries, n, zero)
    inverse = Fraction(1, s)
    for i, row in enumerate(ric):
        for j in range(i, n):
            x = row[j]
            if type(x) is int:
                x = Fraction(x, s) if x else zero
            elif x:
                x = x * inverse
            row[j] = ric[j][i] = x
    return ric


def scaled_ricci(entries, n: int, zero) -> tuple[int, list, Matrix]:
    """(s, X, s*Ric) for an entry table, s*Ric summed over the table X.

    A nonempty table of Fractions is cleared into ints, X = d*c with d
    the least common denominator of its entries and s = 4*d^2; any other
    table is summed in its own ring, X = c and s = 4.
    """
    if entries and all(type(x) is Fraction for *_, x in entries):
        # a list, not a generator: lcm(*generator) grew peak memory over long runs
        d = lcm(*[x.denominator for *_, x in entries])
        entries = [(i, j, k, x.numerator * (d // x.denominator)) for i, j, k, x in entries]
        return 4 * d * d, entries, integer_ricci(entries, n, 0)
    return 4, entries, integer_ricci(entries, n, zero)


def integer_ricci(entries, n: int, zero) -> Matrix:
    """4*Ric of an entry table in its own ring: -2 * sum c_ilk c_jlk +
    sum c_abi c_abj, so an int table stays in ints.

    Each group is ordered by index, so only ric_ij with i <= j is summed
    and then copied to ric_ji, symmetric bit for bit.
    """
    by_tail: dict = {}  # (l, k) -> [(i, c_ilk)]
    by_head: dict = {}  # (a, b) -> [(i, c_abi)]
    for a, b, k, entry in entries:
        by_tail.setdefault((b, k), []).append((a, entry))
        by_head.setdefault((a, b), []).append((k, entry))
    ric = [[zero] * n for _ in range(n)]
    for group in by_tail.values():
        for p, (i, x) in enumerate(group):
            row = ric[i]
            for j, y in group[p:]:
                row[j] = row[j] - 2 * (x * y)
    for group in by_head.values():
        for p, (i, x) in enumerate(group):
            row = ric[i]
            for j, y in group[p:]:
                row[j] = row[j] + x * y
    for i in range(n):
        for j in range(i):
            ric[i][j] = ric[j][i]
    return ric


def ricci_tensor_nilpotent(g: MetricLieAlgebra) -> Matrix:
    """ric(v_i, v_j) by the nilpotent two-term formula, as a Polynomial matrix."""
    return ricci_nilpotent_from_entries(g.entries, g.dim, Polynomial.zero())


# The Ricci operator Ric, with ric(u, v) = <Ric u, v>: raising an index with
# an orthonormal inner product does not change the matrix.
ricci_operator = ricci_tensor_nilpotent


def ricci_tensor_general(g: MetricLieAlgebra) -> Matrix:
    """ric(v_i, v_j) by the four-term formula with Killing and ad_H terms.

    Built from the ad, ad* and J matrices and trace_product, independently
    of ricci_nilpotent_from_entries, which the tests compare it against.
    """
    n = g.dim
    basis = [basis_vector(n, i) for i in range(n)]
    ads = [g.ad_matrix(v) for v in basis]
    ad_stars = [g.ad_star_matrix(v) for v in basis]
    jops = [g.j_operator_matrix(v) for v in basis]
    killing = g.killing_form()
    ad_h = g.ad_matrix(g.mean_curvature_vector())
    return [
        [
            Polynomial.zero()
            - _HALF * killing[i][j]
            - _HALF * trace_product(ads[i], ad_stars[j])
            - _QUARTER * trace_product(jops[i], jops[j])
            - _HALF * (ad_h[j][i] + ad_h[i][j])
            for j in range(n)
        ]
        for i in range(n)
    ]


def scalar_curvature(g: MetricLieAlgebra) -> Polynomial:
    """Trace of the Ricci operator, -1/4 * sum of x^2 over the entry table:
    each entry c_abk = x enters the -1/2 sum of ric_aa and the +1/4 sum of
    ric_kk once, so no Ricci matrix is needed."""
    return -_QUARTER * sum((x * x for _, _, _, x in g.entries), Polynomial.zero())
