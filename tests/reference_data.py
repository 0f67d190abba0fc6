"""Frozen reference data for the five-dimensional classification.

Ricci operators are entered as the inner matrix M with Ric = -1/2 * M;
obstruction systems are entered as prefactored generator strings.  Every
value was re-derived by hand from the bracket tables and cross-checked
against an independent computer-algebra pipeline (tests/sympy_oracle.py)
before freezing, so these literals and the package's symbolic code are
genuinely separate routes to the same objects.  Inline notes record the
identities that pin the entries most at risk of transcription slips: the
trace identity scal = -1/4 * sum_ij |[v_i, v_j]|^2 for Ricci entries, and
the reduction of every generator to a polynomial in mu = lambda0*s + c for
the lambda0 coefficients.
"""

from __future__ import annotations

from fractions import Fraction

from nilschouten.ratpoly import Polynomial

# -- Ricci operators: Ric = -1/2 * M ----------------------------------------

RICCI_INNER_MATRICES: dict[str, list[list[str]]] = {
    "5A1": [["0"] * 5 for _ in range(5)],
    "A5_4": [
        ["alpha^2+beta^2", "alpha*gamma", "0", "0", "0"],
        ["alpha*gamma", "gamma^2", "0", "0", "0"],
        ["0", "0", "alpha^2+gamma^2", "alpha*beta", "0"],
        ["0", "0", "alpha*beta", "beta^2", "0"],
        ["0", "0", "0", "0", "-alpha^2-beta^2-gamma^2"],
    ],
    "A3_1+2A1": [
        ["alpha^2", "0", "0", "0", "0"],
        ["0", "alpha^2", "0", "0", "0"],
        ["0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "0"],
        ["0", "0", "0", "0", "-alpha^2"],
    ],
    "A4_1+A1_case1": [
        ["alpha^2+beta^2+gamma^2", "0", "0", "0", "0"],
        ["0", "alpha^2+gamma^2", "beta*gamma", "0", "0"],
        ["0", "beta*gamma", "beta^2-alpha^2", "0", "-alpha*gamma"],
        ["0", "0", "0", "0", "0"],
        ["0", "0", "-alpha*gamma", "0", "-beta^2-gamma^2"],
    ],
    # entry (3, 3): beta^2 - alpha^2 is pinned by the trace identity
    # scal = -1/4 * sum |[v_i, v_j]|^2 = -1/2*(alpha^2+beta^2+gamma^2).
    "A4_1+A1_case2": [
        ["alpha^2+beta^2+gamma^2", "0", "0", "0", "0"],
        ["0", "alpha^2+gamma^2", "0", "0", "0"],
        ["0", "0", "beta^2-alpha^2", "-alpha*gamma", "0"],
        ["0", "0", "-alpha*gamma", "-gamma^2", "0"],
        ["0", "0", "0", "0", "-beta^2"],
    ],
    # entry (2, 2): the sigma^2 term comes from [v2, v3] = sigma*v5 feeding
    # |ad_{v2}|^2; it is pinned by the trace identity, whose right-hand side
    # -1/2*(alpha^2+beta^2+gamma^2+delta^2+epsilon^2+sigma^2) must contain sigma^2.
    "A5_6": [
        ["alpha^2+beta^2+gamma^2+delta^2+epsilon^2", "delta*sigma", "0", "0", "0"],
        ["delta*sigma", "alpha^2+beta^2+sigma^2", "beta*gamma", "0", "0"],
        ["0", "beta*gamma", "gamma^2+delta^2+sigma^2-alpha^2", "delta*epsilon-alpha*beta", "0"],
        ["0", "0", "delta*epsilon-alpha*beta", "epsilon^2-beta^2-gamma^2", "-delta*gamma"],
        ["0", "0", "0", "-delta*gamma", "-delta^2-epsilon^2-sigma^2"],
    ],
    "A5_5": [
        ["alpha^2+beta^2+gamma^2", "gamma*delta", "-beta*delta", "-beta*epsilon", "0"],
        ["gamma*delta", "alpha^2+beta^2+delta^2+epsilon^2", "beta*gamma", "0", "0"],
        ["-beta*delta", "beta*gamma", "gamma^2+delta^2", "delta*epsilon", "0"],
        ["-beta*epsilon", "0", "delta*epsilon", "epsilon^2-alpha^2", "-alpha*beta"],
        ["0", "0", "0", "-alpha*beta", "-beta^2-gamma^2-delta^2-epsilon^2"],
    ],
    "A5_3": [
        ["alpha^2+beta^2+gamma^2+delta^2", "delta*epsilon", "0", "0", "0"],
        ["delta*epsilon", "alpha^2+beta^2+epsilon^2", "beta*gamma", "0", "0"],
        ["0", "beta*gamma", "gamma^2+delta^2+epsilon^2-alpha^2", "-alpha*beta", "0"],
        ["0", "0", "-alpha*beta", "-beta^2-gamma^2", "-delta*gamma"],
        ["0", "0", "0", "-delta*gamma", "-delta^2-epsilon^2"],
    ],
    "A5_1": [
        ["alpha^2+beta^2+gamma^2", "0", "0", "0", "0"],
        ["0", "alpha^2+beta^2", "beta*gamma", "0", "0"],
        ["0", "beta*gamma", "gamma^2", "0", "0"],
        ["0", "0", "0", "-alpha^2", "-alpha*beta"],
        ["0", "0", "0", "-alpha*beta", "-beta^2-gamma^2"],
    ],
    "A5_2": [
        ["alpha^2+beta^2+gamma^2+delta^2", "0", "0", "0", "0"],
        ["0", "alpha^2+beta^2", "beta*gamma", "0", "0"],
        ["0", "beta*gamma", "gamma^2-alpha^2", "-alpha*beta", "0"],
        ["0", "0", "-alpha*beta", "delta^2-beta^2-gamma^2", "0"],
        ["0", "0", "0", "0", "-delta^2"],
    ],
}


def reference_ricci(algebra_id: str) -> list[list[Polynomial]]:
    """Ric = -1/2 * M as an exact Polynomial matrix."""
    half = Fraction(-1, 2)
    return [
        [half * Polynomial.parse(entry) for entry in row]
        for row in RICCI_INNER_MATRICES[algebra_id]
    ]


# -- obstruction systems, prefactored ------------------------------------------
#
# Signs and coefficients most at risk of transcription slips, with what pins
# them (all re-derived by hand and by CAS):
#   A4_1+A1_case1: beta generator ends in +2*c; gamma generator carries
#                  (3-lambda0)*alpha^2.
#   A4_1+A1_case2: follows the (3,3) = beta^2-alpha^2 Ricci entry; beta
#                  generator carries (1-lambda0)*gamma^2 and ends in +2*c.
#   A5_5:          epsilon generator carries -lambda0*alpha^2 (any generator
#                  reduces to a polynomial in mu = lambda0*s + c at fixed
#                  parameters, which forces this sign).
#   A5_1:          beta generator ends in +2*c.
#   A5_2:          alpha generator carries -lambda0*gamma^2 + (1-lambda0)*delta^2.

REFERENCE_SYSTEMS: dict[str, list[str]] = {
    "A5_4": [
        "alpha*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+2*c)",
        "beta*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(1-lambda0)*gamma^2+2*c)",
        "gamma*((3-lambda0)*alpha^2+(1-lambda0)*beta^2+(3-lambda0)*gamma^2+2*c)",
        "alpha*beta*gamma",
    ],
    "A3_1+2A1": [
        "alpha*((3-lambda0)*alpha^2+2*c)",
    ],
    "A4_1+A1_case1": [
        "alpha*((3-lambda0)*alpha^2-lambda0*beta^2+(3-lambda0)*gamma^2+2*c)",
        "beta*(-lambda0*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+2*c)",
        "gamma*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+2*c)",
        "alpha*beta*gamma",
    ],
    "A4_1+A1_case2": [
        "alpha*((3-lambda0)*alpha^2-lambda0*beta^2+(3-lambda0)*gamma^2+2*c)",
        "beta*(-lambda0*alpha^2+(3-lambda0)*beta^2+(1-lambda0)*gamma^2+2*c)",
        "gamma*((3-lambda0)*alpha^2+(1-lambda0)*beta^2+(3-lambda0)*gamma^2+2*c)",
        "alpha*beta*gamma",
    ],
    "A5_5": [
        "alpha*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(1-lambda0)*gamma^2+(1-lambda0)*delta^2-lambda0*epsilon^2+2*c)",
        "beta*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+(3-lambda0)*delta^2+(3-lambda0)*epsilon^2+2*c)",
        "gamma*((1-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+(3-lambda0)*delta^2+(1-lambda0)*epsilon^2+2*c)",
        "delta*((1-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+(3-lambda0)*delta^2+(3-lambda0)*epsilon^2+2*c)",
        "epsilon*(-lambda0*alpha^2+(3-lambda0)*beta^2+(1-lambda0)*gamma^2+(3-lambda0)*delta^2+(3-lambda0)*epsilon^2+2*c)",
        "alpha*beta*gamma",
        "alpha*beta*delta",
        "alpha*beta*epsilon",
        "alpha*delta*epsilon",
        "gamma*delta*epsilon",
        "beta*gamma*epsilon",
    ],
    "A5_3": [
        "alpha*((3-lambda0)*alpha^2+(3-lambda0)*beta^2-lambda0*gamma^2-lambda0*delta^2-lambda0*epsilon^2+2*c)",
        "beta*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+(1-lambda0)*delta^2+(1-lambda0)*epsilon^2+2*c)",
        "gamma*(-lambda0*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+(3-lambda0)*delta^2+(1-lambda0)*epsilon^2+2*c)",
        "delta*(-lambda0*alpha^2+(1-lambda0)*beta^2+(3-lambda0)*gamma^2+(3-lambda0)*delta^2+(3-lambda0)*epsilon^2+2*c)",
        "epsilon*(-lambda0*alpha^2+(1-lambda0)*beta^2+(1-lambda0)*gamma^2+(3-lambda0)*delta^2+(3-lambda0)*epsilon^2+2*c)",
        "alpha*beta*gamma",
        "alpha*beta*delta",
        "alpha*beta*epsilon",
        "beta*gamma*delta",
        "gamma*delta*epsilon",
    ],
    "A5_1": [
        "alpha*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(1-lambda0)*gamma^2+2*c)",
        "beta*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+2*c)",
        "gamma*((1-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2+2*c)",
        "alpha*beta*gamma",
    ],
    "A5_2": [
        "delta*((1-lambda0)*alpha^2-lambda0*beta^2-lambda0*gamma^2+(3-lambda0)*delta^2+2*c)",
        "beta*((3-lambda0)*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2-lambda0*delta^2+2*c)",
        "alpha*((3-lambda0)*alpha^2+(3-lambda0)*beta^2-lambda0*gamma^2+(1-lambda0)*delta^2+2*c)",
        "gamma*(-lambda0*alpha^2+(3-lambda0)*beta^2+(3-lambda0)*gamma^2-lambda0*delta^2+2*c)",
        "alpha*beta*gamma",
        "alpha*beta*delta",
    ],
}


def reference_system(algebra_id: str) -> set[Polynomial]:
    """Sign-normalized reference generators as a set."""
    return {
        Polynomial.parse(text).sign_normalized()
        for text in REFERENCE_SYSTEMS[algebra_id]
    }


# Two consequences of the derivation condition for A5_6 that already decide
# its verdict: gamma*delta*epsilon = 0 and
# sigma*(2*delta*epsilon - alpha*beta) = 0.
A5_6_KNOWN_CONSEQUENCES = [
    "gamma*delta*epsilon",
    "sigma*(2*delta*epsilon-alpha*beta)",
]

# Solution families, as documented in the classification table:
#   A5_4:          alpha = 0, beta = gamma
#   A3_1+2A1, 5A1: every inner product
#   A4_1+A1 (both): gamma = 0, alpha = beta
#   A5_6:          none
#   A5_5:          beta = delta = 0, alpha = epsilon = sqrt(2)*gamma
#   A5_3:          beta = delta = 0, gamma = epsilon = (sqrt(3)/2)*alpha
#   A5_1:          beta = 0, alpha = gamma
#   A5_2:          beta = 0, alpha = delta = (sqrt(3)/2)*gamma
EXPECTED_VERDICTS: dict[str, str] = {
    "5A1": "always",
    "A5_4": "family",
    "A3_1+2A1": "always",
    "A4_1+A1_case1": "family",
    "A4_1+A1_case2": "family",
    "A5_6": "never",
    "A5_5": "family",
    "A5_3": "family",
    "A5_1": "family",
    "A5_2": "family",
}


# -- seeded sample stream ----------------------------------------------------
# Recorded from the sampling code as first released; for each (seed, id) one
# random.Random(seed) draws, in turn, an admissible sample, an on-family
# sample (None for 'never') and an off-family sample (None for 'always').
# Samples are written as sorted "name=value" pairs joined by spaces.  Any
# refactor of the catalog must reproduce this stream exactly, because seeded
# verification reports and replay inputs are defined through it.
SAMPLE_STREAM: dict[tuple[int, str], tuple[str | None, str | None, str | None]] = {
    (0, '5A1'): (
        '',
        '',
        None,
    ),
    (0, 'A5_4'): (
        'alpha=-14 beta=17/8 gamma=13/5',
        'alpha=0 beta=8/3 gamma=8/3',
        'alpha=-1 beta=19/4 gamma=19/4',
    ),
    (0, 'A3_1+2A1'): (
        'alpha=13/7',
        'alpha=2/5',
        None,
    ),
    (0, 'A4_1+A1_case1'): (
        'alpha=13/7 beta=2/5 gamma=16/7',
        'alpha=5/4 beta=5/4 gamma=0',
        'alpha=3 beta=3 gamma=-1',
    ),
    (0, 'A4_1+A1_case2'): (
        'alpha=13/7 beta=2/5 gamma=16/7',
        'alpha=5/4 beta=5/4 gamma=0',
        'alpha=3 beta=3 gamma=-1',
    ),
    (0, 'A5_6'): (
        'alpha=-13/7 beta=0 delta=16/7 epsilon=5/4 gamma=3 sigma=17/3',
        None,
        'alpha=-10/3 beta=4 delta=-23/3 epsilon=12 gamma=11/3 sigma=8',
    ),
    (0, 'A5_5'): (
        'alpha=13/7 beta=0 delta=16/7 epsilon=5/4 gamma=3',
        'alpha=17/3*sqrt(2) beta=0 delta=0 epsilon=17/3*sqrt(2) gamma=17/3',
        'alpha=10/3*sqrt(2) beta=2 delta=0 epsilon=10/3*sqrt(2) gamma=10/3',
    ),
    (0, 'A5_3'): (
        'alpha=13/7 beta=0 delta=16/7 epsilon=5/4 gamma=3',
        'alpha=17/3 beta=0 delta=0 epsilon=17/6*sqrt(3) gamma=17/6*sqrt(3)',
        'alpha=10/3 beta=2 delta=0 epsilon=5/3*sqrt(3) gamma=5/3*sqrt(3)',
    ),
    (0, 'A5_1'): (
        'alpha=13/7 beta=0 gamma=17/8',
        'alpha=13/5 beta=0 gamma=13/5',
        'alpha=8/3 beta=-17/10 gamma=8/3',
    ),
    (0, 'A5_2'): (
        'alpha=13/7 beta=0 delta=17/8 gamma=13/5',
        'alpha=4/3*sqrt(3) beta=0 delta=4/3*sqrt(3) gamma=8/3',
        'alpha=19/8*sqrt(3) beta=0 delta=1/2 + 19/8*sqrt(3) gamma=19/4',
    ),
    (1, '5A1'): (
        '',
        '',
        None,
    ),
    (1, 'A5_4'): (
        'alpha=0 beta=3/5 gamma=1/2',
        'alpha=0 beta=15/8 gamma=15/8',
        'alpha=-2/5 beta=3 gamma=3',
    ),
    (1, 'A3_1+2A1'): (
        'alpha=5/2',
        'alpha=9/2',
        None,
    ),
    (1, 'A4_1+A1_case1'): (
        'alpha=5/2 beta=9/2 gamma=15/8',
        'alpha=7/2 beta=7/2 gamma=0',
        'alpha=87/5 beta=16 gamma=0',
    ),
    (1, 'A4_1+A1_case2'): (
        'alpha=5/2 beta=9/2 gamma=15/8',
        'alpha=7/2 beta=7/2 gamma=0',
        'alpha=87/5 beta=16 gamma=0',
    ),
    (1, 'A5_6'): (
        'alpha=-5/2 beta=-2 delta=-7/2 epsilon=13/7 gamma=20 sigma=23/8',
        None,
        'alpha=-9/4 beta=-2/3 delta=0 epsilon=18 gamma=13/4 sigma=14',
    ),
    (1, 'A5_5'): (
        'alpha=5/2 beta=-2 delta=-7/2 epsilon=13/7 gamma=20',
        'alpha=23/8*sqrt(2) beta=0 delta=0 epsilon=23/8*sqrt(2) gamma=23/8',
        'alpha=9/4*sqrt(2) beta=0 delta=0 epsilon=9/4*sqrt(2) gamma=53/20',
    ),
    (1, 'A5_3'): (
        'alpha=5/2 beta=-2 delta=-7/2 epsilon=13/7 gamma=20',
        'alpha=23/8 beta=0 delta=0 epsilon=23/16*sqrt(3) gamma=23/16*sqrt(3)',
        'alpha=9/4 beta=-11/10 delta=0 epsilon=9/8*sqrt(3) gamma=9/8*sqrt(3)',
    ),
    (1, 'A5_1'): (
        'alpha=5/2 beta=-2 gamma=13/4',
        'alpha=1/2 beta=0 gamma=1/2',
        'alpha=15/7 beta=0 gamma=1/7',
    ),
    (1, 'A5_2'): (
        'alpha=5/2 beta=-2 delta=13/4 gamma=1/2',
        'alpha=1/14*sqrt(3) beta=0 delta=1/14*sqrt(3) gamma=1/7',
        'alpha=7*sqrt(3) beta=0 delta=3/2 + 7*sqrt(3) gamma=14',
    ),
    (2, '5A1'): (
        '',
        '',
        None,
    ),
    (2, 'A5_4'): (
        'alpha=-1 beta=6/5 gamma=9/4',
        'alpha=0 beta=20 gamma=20',
        'alpha=0 beta=229/30 gamma=19/3',
    ),
    (2, 'A3_1+2A1'): (
        'alpha=1',
        'alpha=1/2',
        None,
    ),
    (2, 'A4_1+A1_case1'): (
        'alpha=1 beta=1/2 gamma=-24/5',
        'alpha=7 beta=7 gamma=0',
        'alpha=229/30 beta=19/3 gamma=0',
    ),
    (2, 'A4_1+A1_case2'): (
        'alpha=1 beta=1/2 gamma=-24/5',
        'alpha=7 beta=7 gamma=0',
        'alpha=229/30 beta=19/3 gamma=0',
    ),
    (2, 'A5_6'): (
        'alpha=-1 beta=0 delta=-24/5 epsilon=7 gamma=19/3 sigma=2',
        None,
        'alpha=-4 beta=3 delta=3/2 epsilon=13/7 gamma=17/3 sigma=6',
    ),
    (2, 'A5_5'): (
        'alpha=1 beta=0 delta=-24/5 epsilon=7 gamma=19/3',
        'alpha=2*sqrt(2) beta=0 delta=0 epsilon=2*sqrt(2) gamma=2',
        'alpha=4*sqrt(2) beta=0 delta=0 epsilon=4*sqrt(2) gamma=11/2',
    ),
    (2, 'A5_3'): (
        'alpha=1 beta=0 delta=-24/5 epsilon=7 gamma=19/3',
        'alpha=2 beta=0 delta=0 epsilon=sqrt(3) gamma=sqrt(3)',
        'alpha=4 beta=0 delta=0 epsilon=17/10 + 2*sqrt(3) gamma=2*sqrt(3)',
    ),
    (2, 'A5_1'): (
        'alpha=1 beta=0 gamma=6/5',
        'alpha=9/4 beta=0 gamma=9/4',
        'alpha=20 beta=7/5 gamma=20',
    ),
    (2, 'A5_2'): (
        'alpha=1 beta=0 delta=6/5 gamma=9/4',
        'alpha=10*sqrt(3) beta=0 delta=10*sqrt(3) gamma=20',
        'alpha=13/10 + 19/6*sqrt(3) beta=0 delta=19/6*sqrt(3) gamma=19/3',
    ),
    (3, '5A1'): (
        '',
        '',
        None,
    ),
    (3, 'A5_4'): (
        'alpha=0 beta=6 gamma=3/2',
        'alpha=0 beta=21/2 gamma=21/2',
        'alpha=0 beta=209/10 gamma=20',
    ),
    (3, 'A3_1+2A1'): (
        'alpha=8/3',
        'alpha=3/2',
        None,
    ),
    (3, 'A4_1+A1_case1'): (
        'alpha=8/3 beta=3/2 gamma=3',
        'alpha=16/5 beta=16/5 gamma=0',
        'alpha=9/2 beta=9/2 gamma=8/5',
    ),
    (3, 'A4_1+A1_case2'): (
        'alpha=8/3 beta=3/2 gamma=3',
        'alpha=16/5 beta=16/5 gamma=0',
        'alpha=9/2 beta=9/2 gamma=8/5',
    ),
    (3, 'A5_6'): (
        'alpha=-8/3 beta=5/2 delta=0 epsilon=1/8 gamma=9/4 sigma=7/8',
        None,
        'alpha=-9/4 beta=5/4 delta=17/7 epsilon=11 gamma=6 sigma=10',
    ),
    (3, 'A5_5'): (
        'alpha=8/3 beta=5/2 delta=0 epsilon=1/8 gamma=9/4',
        'alpha=7/8*sqrt(2) beta=0 delta=0 epsilon=7/8*sqrt(2) gamma=7/8',
        'alpha=9/4*sqrt(2) beta=0 delta=0 epsilon=1/2 + 9/4*sqrt(2) gamma=9/4',
    ),
    (3, 'A5_3'): (
        'alpha=8/3 beta=5/2 delta=0 epsilon=1/8 gamma=9/4',
        'alpha=7/8 beta=0 delta=0 epsilon=7/16*sqrt(3) gamma=7/16*sqrt(3)',
        'alpha=9/4 beta=0 delta=0 epsilon=1/2 + 9/8*sqrt(3) gamma=9/8*sqrt(3)',
    ),
    (3, 'A5_1'): (
        'alpha=8/3 beta=5/2 gamma=3',
        'alpha=16/5 beta=0 gamma=16/5',
        'alpha=9/2 beta=8/5 gamma=9/2',
    ),
    (3, 'A5_2'): (
        'alpha=8/3 beta=5/2 delta=3 gamma=16/5',
        'alpha=9/4*sqrt(3) beta=0 delta=9/4*sqrt(3) gamma=9/2',
        'alpha=7/16*sqrt(3) beta=0 delta=9/5 + 7/16*sqrt(3) gamma=7/8',
    ),
    (4, '5A1'): (
        '',
        '',
        None,
    ),
    (4, 'A5_4'): (
        'alpha=0 beta=4/7 gamma=16/3',
        'alpha=0 beta=3/2 gamma=3/2',
        'alpha=0 beta=12/35 gamma=1/7',
    ),
    (4, 'A3_1+2A1'): (
        'alpha=8/5',
        'alpha=4/7',
        None,
    ),
    (4, 'A4_1+A1_case1'): (
        'alpha=8/5 beta=4/7 gamma=-3/2',
        'alpha=18/5 beta=18/5 gamma=0',
        'alpha=7/5 beta=1/2 gamma=0',
    ),
    (4, 'A4_1+A1_case2'): (
        'alpha=8/5 beta=4/7 gamma=-3/2',
        'alpha=18/5 beta=18/5 gamma=0',
        'alpha=7/5 beta=1/2 gamma=0',
    ),
    (4, 'A5_6'): (
        'alpha=-8/5 beta=0 delta=-5/2 epsilon=13/5 gamma=1/2 sigma=17/6',
        None,
        'alpha=-3 beta=9/4 delta=0 epsilon=21/5 gamma=9/4 sigma=6/5',
    ),
    (4, 'A5_5'): (
        'alpha=8/5 beta=0 delta=-5/2 epsilon=13/5 gamma=1/2',
        'alpha=17/6*sqrt(2) beta=0 delta=0 epsilon=17/6*sqrt(2) gamma=17/6',
        'alpha=3*sqrt(2) beta=-9/10 delta=0 epsilon=3*sqrt(2) gamma=3',
    ),
    (4, 'A5_3'): (
        'alpha=8/5 beta=0 delta=-5/2 epsilon=13/5 gamma=1/2',
        'alpha=17/6 beta=0 delta=0 epsilon=17/12*sqrt(3) gamma=17/12*sqrt(3)',
        'alpha=3 beta=-9/10 delta=0 epsilon=3/2*sqrt(3) gamma=3/2*sqrt(3)',
    ),
    (4, 'A5_1'): (
        'alpha=8/5 beta=0 gamma=13/8',
        'alpha=5/2 beta=0 gamma=5/2',
        'alpha=24/5 beta=0 gamma=3',
    ),
    (4, 'A5_2'): (
        'alpha=8/5 beta=0 delta=13/8 gamma=5/2',
        'alpha=3/2*sqrt(3) beta=0 delta=3/2*sqrt(3) gamma=3',
        'alpha=13/10*sqrt(3) beta=4/5 delta=13/10*sqrt(3) gamma=13/5',
    ),
}
