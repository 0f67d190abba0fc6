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


# -- built-in definition texts --------------------------------------------------
# `nilschouten print-builtin <id>` for every catalog id, recorded before the
# catalog was rewritten as one table; the built-ins must print byte for byte
# the same, so a reordered bracket, term or constraint shows.
BUILTIN_TEXTS: dict[str, str] = {
    '5A1': (
        'dim 5\n'
    ),
    'A5_4': (
        'dim 5\n'
        'param alpha free\n'
        'param beta positive\n'
        'param gamma positive\n'
        'bracket 1 3 : (alpha)*e5\n'
        'bracket 1 4 : (beta)*e5\n'
        'bracket 2 3 : (gamma)*e5\n'
    ),
    'A3_1+2A1': (
        'dim 5\n'
        'param alpha positive\n'
        'bracket 1 2 : (alpha)*e5\n'
    ),
    'A4_1+A1_case1': (
        'dim 5\n'
        'param alpha positive\n'
        'param beta positive\n'
        'param gamma free\n'
        'bracket 1 2 : (alpha)*e3 + (gamma)*e5\n'
        'bracket 1 3 : (beta)*e5\n'
    ),
    'A4_1+A1_case2': (
        'dim 5\n'
        'param alpha positive\n'
        'param beta positive\n'
        'param gamma free\n'
        'bracket 1 2 : (alpha)*e3 + (gamma)*e4\n'
        'bracket 1 3 : (beta)*e5\n'
    ),
    'A5_6': (
        'dim 5\n'
        'param alpha negative\n'
        'param beta free\n'
        'param delta free\n'
        'param epsilon positive\n'
        'param gamma positive\n'
        'param sigma positive\n'
        'bracket 1 2 : (alpha)*e3 + (beta)*e4\n'
        'bracket 1 3 : (gamma)*e4 + (delta)*e5\n'
        'bracket 1 4 : (epsilon)*e5\n'
        'bracket 2 3 : (sigma)*e5\n'
    ),
    'A5_5': (
        'dim 5\n'
        'param alpha positive\n'
        'param beta free\n'
        'param delta free\n'
        'param epsilon positive\n'
        'param gamma positive\n'
        'bracket 1 2 : (alpha)*e4 + (beta)*e5\n'
        'bracket 1 3 : (gamma)*e5\n'
        'bracket 2 3 : (delta)*e5\n'
        'bracket 2 4 : (epsilon)*e5\n'
    ),
    'A5_3': (
        'dim 5\n'
        'param alpha positive\n'
        'param beta free\n'
        'param delta free\n'
        'param epsilon positive\n'
        'param gamma positive\n'
        'bracket 1 2 : (alpha)*e3 + (beta)*e4\n'
        'bracket 1 3 : (gamma)*e4 + (delta)*e5\n'
        'bracket 2 3 : (epsilon)*e5\n'
    ),
    'A5_1': (
        'dim 5\n'
        'param alpha positive\n'
        'param beta free\n'
        'param gamma positive\n'
        'bracket 1 2 : (alpha)*e4 + (beta)*e5\n'
        'bracket 1 3 : (gamma)*e5\n'
    ),
    'A5_2': (
        'dim 5\n'
        'param alpha positive\n'
        'param beta free\n'
        'param delta positive\n'
        'param gamma positive\n'
        'bracket 1 2 : (alpha)*e3 + (beta)*e4\n'
        'bracket 1 3 : (gamma)*e4\n'
        'bracket 1 4 : (delta)*e5\n'
    ),
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


# -- oracle answers on the seeded sample stream -------------------------------
# Recorded from the oracle before QuadRat operations built their results
# without re-validation; any speed-up must reproduce it exactly, scalar types
# included.  For each draw of SAMPLE_STREAM (None where there is no draw):
# exact status, str and type name of witness_mu, the sorted type names of the
# witness_d entries, repr(residual_norm), schouten_like_check at mu and at
# mu + 1 (None when infeasible), the float-mode status, and the witness_d
# rows as " ; "-joined strings.
ORACLE_STREAM: dict[tuple[int, str], tuple] = {
    (0, '5A1'): (
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        None,
    ),
    (0, 'A5_4'): (
        ('infeasible', 'None', 'NoneType', None, '79.43069860300079', None, 'infeasible', None),
        ('feasible', '-128/9', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '32/3 ; 0 ; 0 ; 0 ; 0',
            '0 ; 32/3 ; 0 ; 0 ; 0',
            '0 ; 0 ; 32/3 ; 0 ; 0',
            '0 ; 0 ; 0 ; 32/3 ; 0',
            '0 ; 0 ; 0 ; 0 ; 64/3',
        )),
        ('infeasible', 'None', 'NoneType', None, '31.73477812189333', None, 'infeasible', None),
    ),
    (0, 'A3_1+2A1'): (
        ('feasible', '-507/98', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '169/49 ; 0 ; 0 ; 0 ; 0',
            '0 ; 169/49 ; 0 ; 0 ; 0',
            '0 ; 0 ; 507/98 ; 0 ; 0',
            '0 ; 0 ; 0 ; 507/98 ; 0',
            '0 ; 0 ; 0 ; 0 ; 338/49',
        )),
        ('feasible', '-6/25', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '4/25 ; 0 ; 0 ; 0 ; 0',
            '0 ; 4/25 ; 0 ; 0 ; 0',
            '0 ; 0 ; 6/25 ; 0 ; 0',
            '0 ; 0 ; 0 ; 6/25 ; 0',
            '0 ; 0 ; 0 ; 0 ; 8/25',
        )),
        None,
    ),
    (0, 'A4_1+A1_case1'): (
        ('infeasible', 'None', 'NoneType', None, '2.9146801290907436', None, 'infeasible', None),
        ('feasible', '-75/32', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '25/32 ; 0 ; 0 ; 0 ; 0',
            '0 ; 25/16 ; 0 ; 0 ; 0',
            '0 ; 0 ; 75/32 ; 0 ; 0',
            '0 ; 0 ; 0 ; 75/32 ; 0',
            '0 ; 0 ; 0 ; 0 ; 25/8',
        )),
        ('infeasible', 'None', 'NoneType', None, '17.151031885482638', None, 'infeasible', None),
    ),
    (0, 'A4_1+A1_case2'): (
        ('infeasible', 'None', 'NoneType', None, '4.135051993134105', None, 'infeasible', None),
        ('feasible', '-75/32', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '25/32 ; 0 ; 0 ; 0 ; 0',
            '0 ; 25/16 ; 0 ; 0 ; 0',
            '0 ; 0 ; 75/32 ; 0 ; 0',
            '0 ; 0 ; 0 ; 75/32 ; 0',
            '0 ; 0 ; 0 ; 0 ; 25/8',
        )),
        ('infeasible', 'None', 'NoneType', None, '6.959469126759296', None, 'infeasible', None),
    ),
    (0, 'A5_6'): (
        ('infeasible', 'None', 'NoneType', None, '129.40085378596297', None, 'infeasible', None),
        None,
        ('infeasible', 'None', 'NoneType', None, '1836.3291946431102', None, 'infeasible', None),
    ),
    (0, 'A5_5'): (
        ('infeasible', 'None', 'NoneType', None, '23.979309446297613', None, 'infeasible', None),
        ('feasible', '-2023/18', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '578/9 ; 0 ; 0 ; 0 ; 0',
            '0 ; 289/6 ; 0 ; 0 ; 0',
            '0 ; 0 ; 289/3 ; 0 ; 0',
            '0 ; 0 ; 0 ; 2023/18 ; 0',
            '0 ; 0 ; 0 ; 0 ; 1445/9',
        )),
        ('infeasible', 'None', 'NoneType', None, '110.94514968746718', None, 'infeasible', None),
    ),
    (0, 'A5_3'): (
        ('infeasible', 'None', 'NoneType', None, '31.04402514389345', None, 'infeasible', None),
        ('feasible', '-289/6', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '1445/72 ; 0 ; 0 ; 0 ; 0',
            '0 ; 1445/72 ; 0 ; 0 ; 0',
            '0 ; 0 ; 1445/36 ; 0 ; 0',
            '0 ; 0 ; 0 ; 1445/24 ; 0',
            '0 ; 0 ; 0 ; 0 ; 1445/24',
        )),
        ('infeasible', 'None', 'NoneType', None, '43.100203684293156', None, 'infeasible', None),
    ),
    (0, 'A5_1'): (
        ('infeasible', 'None', 'NoneType', None, '1.4915650717489215', None, 'infeasible', None),
        ('feasible', '-338/25', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '169/25 ; 0 ; 0 ; 0 ; 0',
            '0 ; 507/50 ; 0 ; 0 ; 0',
            '0 ; 0 ; 507/50 ; 0 ; 0',
            '0 ; 0 ; 0 ; 169/10 ; 0',
            '0 ; 0 ; 0 ; 0 ; 169/10',
        )),
        ('infeasible', 'None', 'NoneType', None, '16.35852642099557', None, 'infeasible', None),
    ),
    (0, 'A5_2'): (
        ('infeasible', 'None', 'NoneType', None, '4.290808542122102', None, 'infeasible', None),
        ('feasible', '-32/3', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '16/9 ; 0 ; 0 ; 0 ; 0',
            '0 ; 8 ; 0 ; 0 ; 0',
            '0 ; 0 ; 88/9 ; 0 ; 0',
            '0 ; 0 ; 0 ; 104/9 ; 0',
            '0 ; 0 ; 0 ; 0 ; 40/3',
        )),
        ('infeasible', 'None', 'NoneType', None, '21.93958468172728', None, 'infeasible', None),
    ),
    (1, '5A1'): (
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        None,
    ),
    (1, 'A5_4'): (
        ('infeasible', 'None', 'NoneType', None, '0.04225217037785567', None, 'infeasible', None),
        ('feasible', '-225/32', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '675/128 ; 0 ; 0 ; 0 ; 0',
            '0 ; 675/128 ; 0 ; 0 ; 0',
            '0 ; 0 ; 675/128 ; 0 ; 0',
            '0 ; 0 ; 0 ; 675/128 ; 0',
            '0 ; 0 ; 0 ; 0 ; 675/64',
        )),
        ('infeasible', 'None', 'NoneType', None, '5.079942418765548', None, 'infeasible', None),
    ),
    (1, 'A3_1+2A1'): (
        ('feasible', '-75/8', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '25/4 ; 0 ; 0 ; 0 ; 0',
            '0 ; 25/4 ; 0 ; 0 ; 0',
            '0 ; 0 ; 75/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 75/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 25/2',
        )),
        ('feasible', '-243/8', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '81/4 ; 0 ; 0 ; 0 ; 0',
            '0 ; 81/4 ; 0 ; 0 ; 0',
            '0 ; 0 ; 243/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 243/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 81/2',
        )),
        None,
    ),
    (1, 'A4_1+A1_case1'): (
        ('infeasible', 'None', 'NoneType', None, '58.40196995153268', None, 'infeasible', None),
        ('feasible', '-147/8', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '49/8 ; 0 ; 0 ; 0 ; 0',
            '0 ; 49/4 ; 0 ; 0 ; 0',
            '0 ; 0 ; 147/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 147/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 49/2',
        )),
        ('infeasible', 'None', 'NoneType', None, '826.0804383274851', None, 'infeasible', None),
    ),
    (1, 'A4_1+A1_case2'): (
        ('infeasible', 'None', 'NoneType', None, '40.0469120229039', None, 'infeasible', None),
        ('feasible', '-147/8', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '49/8 ; 0 ; 0 ; 0 ; 0',
            '0 ; 49/4 ; 0 ; 0 ; 0',
            '0 ; 0 ; 147/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 147/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 49/2',
        )),
        ('infeasible', 'None', 'NoneType', None, '826.0804383274851', None, 'infeasible', None),
    ),
    (1, 'A5_6'): (
        ('infeasible', 'None', 'NoneType', None, '2180.768798564507', None, 'infeasible', None),
        None,
        ('infeasible', 'None', 'NoneType', None, '2122.1850011193924', None, 'infeasible', None),
    ),
    (1, 'A5_5'): (
        ('infeasible', 'None', 'NoneType', None, '1260.4202954637624', None, 'infeasible', None),
        ('feasible', '-3703/128', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '529/32 ; 0 ; 0 ; 0 ; 0',
            '0 ; 1587/128 ; 0 ; 0 ; 0',
            '0 ; 0 ; 1587/64 ; 0 ; 0',
            '0 ; 0 ; 0 ; 3703/128 ; 0',
            '0 ; 0 ; 0 ; 0 ; 2645/64',
        )),
        ('infeasible', 'None', 'NoneType', None, '4.475607406320834', None, 'infeasible', None),
    ),
    (1, 'A5_3'): (
        ('infeasible', 'None', 'NoneType', None, '1694.7724497105928', None, 'infeasible', None),
        ('feasible', '-1587/128', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '2645/512 ; 0 ; 0 ; 0 ; 0',
            '0 ; 2645/512 ; 0 ; 0 ; 0',
            '0 ; 0 ; 2645/256 ; 0 ; 0',
            '0 ; 0 ; 0 ; 7935/512 ; 0',
            '0 ; 0 ; 0 ; 0 ; 7935/512',
        )),
        ('infeasible', 'None', 'NoneType', None, '10.701095020663036', None, 'infeasible', None),
    ),
    (1, 'A5_1'): (
        ('infeasible', 'None', 'NoneType', None, '23.15954582467006', None, 'infeasible', None),
        ('feasible', '-1/2', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '1/4 ; 0 ; 0 ; 0 ; 0',
            '0 ; 3/8 ; 0 ; 0 ; 0',
            '0 ; 0 ; 3/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 5/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 5/8',
        )),
        ('infeasible', 'None', 'NoneType', None, '0.6516147969675813', None, 'infeasible', None),
    ),
    (1, 'A5_2'): (
        ('infeasible', 'None', 'NoneType', None, '13.147491398494562', None, 'infeasible', None),
        ('feasible', '-3/98', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '1/196 ; 0 ; 0 ; 0 ; 0',
            '0 ; 9/392 ; 0 ; 0 ; 0',
            '0 ; 0 ; 11/392 ; 0 ; 0',
            '0 ; 0 ; 0 ; 13/392 ; 0',
            '0 ; 0 ; 0 ; 0 ; 15/392',
        )),
        ('infeasible', 'None', 'NoneType', None, '573.001432433109', None, 'infeasible', None),
    ),
    (2, '5A1'): (
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        None,
    ),
    (2, 'A5_4'): (
        ('infeasible', 'None', 'NoneType', None, '5.134116252264786', None, 'infeasible', None),
        ('feasible', '-800', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '600 ; 0 ; 0 ; 0 ; 0',
            '0 ; 600 ; 0 ; 0 ; 0',
            '0 ; 0 ; 600 ; 0 ; 0',
            '0 ; 0 ; 0 ; 600 ; 0',
            '0 ; 0 ; 0 ; 0 ; 1200',
        )),
        ('infeasible', 'None', 'NoneType', None, '88.49764986855723', None, 'infeasible', None),
    ),
    (2, 'A3_1+2A1'): (
        ('feasible', '-3/2', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '1 ; 0 ; 0 ; 0 ; 0',
            '0 ; 1 ; 0 ; 0 ; 0',
            '0 ; 0 ; 3/2 ; 0 ; 0',
            '0 ; 0 ; 0 ; 3/2 ; 0',
            '0 ; 0 ; 0 ; 0 ; 2',
        )),
        ('feasible', '-3/8', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '1/4 ; 0 ; 0 ; 0 ; 0',
            '0 ; 1/4 ; 0 ; 0 ; 0',
            '0 ; 0 ; 3/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 3/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 1/2',
        )),
        None,
    ),
    (2, 'A4_1+A1_case1'): (
        ('infeasible', 'None', 'NoneType', None, '3.052862152463355', None, 'infeasible', None),
        ('feasible', '-147/2', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '49/2 ; 0 ; 0 ; 0 ; 0',
            '0 ; 49 ; 0 ; 0 ; 0',
            '0 ; 0 ; 147/2 ; 0 ; 0',
            '0 ; 0 ; 0 ; 147/2 ; 0',
            '0 ; 0 ; 0 ; 0 ; 98',
        )),
        ('infeasible', 'None', 'NoneType', None, '132.74647480283596', None, 'infeasible', None),
    ),
    (2, 'A4_1+A1_case2'): (
        ('infeasible', 'None', 'NoneType', None, '12.13982626445556', None, 'infeasible', None),
        ('feasible', '-147/2', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '49/2 ; 0 ; 0 ; 0 ; 0',
            '0 ; 49 ; 0 ; 0 ; 0',
            '0 ; 0 ; 147/2 ; 0 ; 0',
            '0 ; 0 ; 0 ; 147/2 ; 0',
            '0 ; 0 ; 0 ; 0 ; 98',
        )),
        ('infeasible', 'None', 'NoneType', None, '132.74647480283596', None, 'infeasible', None),
    ),
    (2, 'A5_6'): (
        ('infeasible', 'None', 'NoneType', None, '427.4723071444177', None, 'infeasible', None),
        None,
        ('infeasible', 'None', 'NoneType', None, '236.51879036928523', None, 'infeasible', None),
    ),
    (2, 'A5_5'): (
        ('infeasible', 'None', 'NoneType', None, '305.24442514755566', None, 'infeasible', None),
        ('feasible', '-14', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '8 ; 0 ; 0 ; 0 ; 0',
            '0 ; 6 ; 0 ; 0 ; 0',
            '0 ; 0 ; 12 ; 0 ; 0',
            '0 ; 0 ; 0 ; 14 ; 0',
            '0 ; 0 ; 0 ; 0 ; 20',
        )),
        ('infeasible', 'None', 'NoneType', None, '64.5842858091254', None, 'infeasible', None),
    ),
    (2, 'A5_3'): (
        ('infeasible', 'None', 'NoneType', None, '315.9666348945675', None, 'infeasible', None),
        ('feasible', '-6', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '5/2 ; 0 ; 0 ; 0 ; 0',
            '0 ; 5/2 ; 0 ; 0 ; 0',
            '0 ; 0 ; 5 ; 0 ; 0',
            '0 ; 0 ; 0 ; 15/2 ; 0',
            '0 ; 0 ; 0 ; 0 ; 15/2',
        )),
        ('infeasible', 'None', 'NoneType', None, '72.29561981192882', None, 'infeasible', None),
    ),
    (2, 'A5_1'): (
        ('infeasible', 'None', 'NoneType', None, '0.33801736302284535', None, 'infeasible', None),
        ('feasible', '-81/8', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '81/16 ; 0 ; 0 ; 0 ; 0',
            '0 ; 243/32 ; 0 ; 0 ; 0',
            '0 ; 0 ; 243/32 ; 0 ; 0',
            '0 ; 0 ; 0 ; 405/32 ; 0',
            '0 ; 0 ; 0 ; 0 ; 405/32',
        )),
        ('infeasible', 'None', 'NoneType', None, '791.4755572874192', None, 'infeasible', None),
    ),
    (2, 'A5_2'): (
        ('infeasible', 'None', 'NoneType', None, '6.570783686379155', None, 'infeasible', None),
        ('feasible', '-600', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '100 ; 0 ; 0 ; 0 ; 0',
            '0 ; 450 ; 0 ; 0 ; 0',
            '0 ; 0 ; 550 ; 0 ; 0',
            '0 ; 0 ; 0 ; 650 ; 0',
            '0 ; 0 ; 0 ; 0 ; 750',
        )),
        ('infeasible', 'None', 'NoneType', None, '113.07491760081824', None, 'infeasible', None),
    ),
    (3, '5A1'): (
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        None,
    ),
    (3, 'A5_4'): (
        ('infeasible', 'None', 'NoneType', None, '49.11346406985743', None, 'infeasible', None),
        ('feasible', '-441/2', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '1323/8 ; 0 ; 0 ; 0 ; 0',
            '0 ; 1323/8 ; 0 ; 0 ; 0',
            '0 ; 0 ; 1323/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 1323/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 1323/4',
        )),
        ('infeasible', 'None', 'NoneType', None, '531.8983811139547', None, 'infeasible', None),
    ),
    (3, 'A3_1+2A1'): (
        ('feasible', '-32/3', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '64/9 ; 0 ; 0 ; 0 ; 0',
            '0 ; 64/9 ; 0 ; 0 ; 0',
            '0 ; 0 ; 32/3 ; 0 ; 0',
            '0 ; 0 ; 0 ; 32/3 ; 0',
            '0 ; 0 ; 0 ; 0 ; 128/9',
        )),
        ('feasible', '-27/8', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '9/4 ; 0 ; 0 ; 0 ; 0',
            '0 ; 9/4 ; 0 ; 0 ; 0',
            '0 ; 0 ; 27/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 27/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 9/2',
        )),
        None,
    ),
    (3, 'A4_1+A1_case1'): (
        ('infeasible', 'None', 'NoneType', None, '20.676493848861245', None, 'infeasible', None),
        ('feasible', '-384/25', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '128/25 ; 0 ; 0 ; 0 ; 0',
            '0 ; 256/25 ; 0 ; 0 ; 0',
            '0 ; 0 ; 384/25 ; 0 ; 0',
            '0 ; 0 ; 0 ; 384/25 ; 0',
            '0 ; 0 ; 0 ; 0 ; 512/25',
        )),
        ('infeasible', 'None', 'NoneType', None, '61.613122995191716', None, 'infeasible', None),
    ),
    (3, 'A4_1+A1_case2'): (
        ('infeasible', 'None', 'NoneType', None, '24.622046579457365', None, 'infeasible', None),
        ('feasible', '-384/25', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '128/25 ; 0 ; 0 ; 0 ; 0',
            '0 ; 256/25 ; 0 ; 0 ; 0',
            '0 ; 0 ; 384/25 ; 0 ; 0',
            '0 ; 0 ; 0 ; 384/25 ; 0',
            '0 ; 0 ; 0 ; 0 ; 512/25',
        )),
        ('infeasible', 'None', 'NoneType', None, '25.33747888278597', None, 'infeasible', None),
    ),
    (3, 'A5_6'): (
        ('infeasible', 'None', 'NoneType', None, '29.724589674847216', None, 'infeasible', None),
        None,
        ('infeasible', 'None', 'NoneType', None, '969.7788964688582', None, 'infeasible', None),
    ),
    (3, 'A5_5'): (
        ('infeasible', 'None', 'NoneType', None, '19.659045488345004', None, 'infeasible', None),
        ('feasible', '-343/128', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '49/32 ; 0 ; 0 ; 0 ; 0',
            '0 ; 147/128 ; 0 ; 0 ; 0',
            '0 ; 0 ; 147/64 ; 0 ; 0',
            '0 ; 0 ; 0 ; 343/128 ; 0',
            '0 ; 0 ; 0 ; 0 ; 245/64',
        )),
        ('infeasible', 'None', 'NoneType', None, '12.646262721849471', None, 'infeasible', None),
    ),
    (3, 'A5_3'): (
        ('infeasible', 'None', 'NoneType', None, '26.360464914773665', None, 'infeasible', None),
        ('feasible', '-147/128', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '245/512 ; 0 ; 0 ; 0 ; 0',
            '0 ; 245/512 ; 0 ; 0 ; 0',
            '0 ; 0 ; 245/256 ; 0 ; 0',
            '0 ; 0 ; 0 ; 735/512 ; 0',
            '0 ; 0 ; 0 ; 0 ; 735/512',
        )),
        ('infeasible', 'None', 'NoneType', None, '5.585027723153449', None, 'infeasible', None),
    ),
    (3, 'A5_1'): (
        ('infeasible', 'None', 'NoneType', None, '26.4274571230964', None, 'infeasible', None),
        ('feasible', '-512/25', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '256/25 ; 0 ; 0 ; 0 ; 0',
            '0 ; 384/25 ; 0 ; 0 ; 0',
            '0 ; 0 ; 384/25 ; 0 ; 0',
            '0 ; 0 ; 0 ; 128/5 ; 0',
            '0 ; 0 ; 0 ; 0 ; 128/5',
        )),
        ('infeasible', 'None', 'NoneType', None, '45.134352156007495', None, 'infeasible', None),
    ),
    (3, 'A5_2'): (
        ('infeasible', 'None', 'NoneType', None, '44.992888723047855', None, 'infeasible', None),
        ('feasible', '-243/8', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '81/16 ; 0 ; 0 ; 0 ; 0',
            '0 ; 729/32 ; 0 ; 0 ; 0',
            '0 ; 0 ; 891/32 ; 0 ; 0',
            '0 ; 0 ; 0 ; 1053/32 ; 0',
            '0 ; 0 ; 0 ; 0 ; 1215/32',
        )),
        ('infeasible', 'None', 'NoneType', None, '8.270295364133098', None, 'infeasible', None),
    ),
    (4, '5A1'): (
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        ('feasible', '0', 'Fraction', ('Fraction',), '0.0', (True, True), 'feasible', (
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
            '0 ; 0 ; 0 ; 0 ; 0',
        )),
        None,
    ),
    (4, 'A5_4'): (
        ('infeasible', 'None', 'NoneType', None, '15.975942349991097', None, 'infeasible', None),
        ('feasible', '-9/2', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '27/8 ; 0 ; 0 ; 0 ; 0',
            '0 ; 27/8 ; 0 ; 0 ; 0',
            '0 ; 0 ; 27/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 27/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 27/4',
        )),
        ('infeasible', 'None', 'NoneType', None, '0.01281004709576138', None, 'infeasible', None),
    ),
    (4, 'A3_1+2A1'): (
        ('feasible', '-96/25', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '64/25 ; 0 ; 0 ; 0 ; 0',
            '0 ; 64/25 ; 0 ; 0 ; 0',
            '0 ; 0 ; 96/25 ; 0 ; 0',
            '0 ; 0 ; 0 ; 96/25 ; 0',
            '0 ; 0 ; 0 ; 0 ; 128/25',
        )),
        ('feasible', '-24/49', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '16/49 ; 0 ; 0 ; 0 ; 0',
            '0 ; 16/49 ; 0 ; 0 ; 0',
            '0 ; 0 ; 24/49 ; 0 ; 0',
            '0 ; 0 ; 0 ; 24/49 ; 0',
            '0 ; 0 ; 0 ; 0 ; 32/49',
        )),
        None,
    ),
    (4, 'A4_1+A1_case1'): (
        ('infeasible', 'None', 'NoneType', None, '2.6506457913275963', None, 'infeasible', None),
        ('feasible', '-486/25', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '162/25 ; 0 ; 0 ; 0 ; 0',
            '0 ; 324/25 ; 0 ; 0 ; 0',
            '0 ; 0 ; 486/25 ; 0 ; 0',
            '0 ; 0 ; 0 ; 486/25 ; 0',
            '0 ; 0 ; 0 ; 0 ; 648/25',
        )),
        ('infeasible', 'None', 'NoneType', None, '1.207784001620379', None, 'infeasible', None),
    ),
    (4, 'A4_1+A1_case2'): (
        ('infeasible', 'None', 'NoneType', None, '3.21795010534135', None, 'infeasible', None),
        ('feasible', '-486/25', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '162/25 ; 0 ; 0 ; 0 ; 0',
            '0 ; 324/25 ; 0 ; 0 ; 0',
            '0 ; 0 ; 486/25 ; 0 ; 0',
            '0 ; 0 ; 0 ; 486/25 ; 0',
            '0 ; 0 ; 0 ; 0 ; 648/25',
        )),
        ('infeasible', 'None', 'NoneType', None, '1.207784001620379', None, 'infeasible', None),
    ),
    (4, 'A5_6'): (
        ('infeasible', 'None', 'NoneType', None, '39.16679794597596', None, 'infeasible', None),
        None,
        ('infeasible', 'None', 'NoneType', None, '42.28841132383087', None, 'infeasible', None),
    ),
    (4, 'A5_5'): (
        ('infeasible', 'None', 'NoneType', None, '20.645882335121975', None, 'infeasible', None),
        ('feasible', '-2023/72', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '289/18 ; 0 ; 0 ; 0 ; 0',
            '0 ; 289/24 ; 0 ; 0 ; 0',
            '0 ; 0 ; 289/12 ; 0 ; 0',
            '0 ; 0 ; 0 ; 2023/72 ; 0',
            '0 ; 0 ; 0 ; 0 ; 1445/36',
        )),
        ('infeasible', 'None', 'NoneType', None, '41.07673828690353', None, 'infeasible', None),
    ),
    (4, 'A5_3'): (
        ('infeasible', 'None', 'NoneType', None, '23.598261163951754', None, 'infeasible', None),
        ('feasible', '-289/24', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '1445/288 ; 0 ; 0 ; 0 ; 0',
            '0 ; 1445/288 ; 0 ; 0 ; 0',
            '0 ; 0 ; 1445/144 ; 0 ; 0',
            '0 ; 0 ; 0 ; 1445/96 ; 0',
            '0 ; 0 ; 0 ; 0 ; 1445/96',
        )),
        ('infeasible', 'None', 'NoneType', None, '15.390966998679456', None, 'infeasible', None),
    ),
    (4, 'A5_1'): (
        ('infeasible', 'None', 'NoneType', None, '0.09192111970884467', None, 'infeasible', None),
        ('feasible', '-25/2', 'Fraction', ('Fraction',), '0.0', (True, False), 'feasible', (
            '25/4 ; 0 ; 0 ; 0 ; 0',
            '0 ; 75/8 ; 0 ; 0 ; 0',
            '0 ; 0 ; 75/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 125/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 125/8',
        )),
        ('infeasible', 'None', 'NoneType', None, '35.717688564694306', None, 'infeasible', None),
    ),
    (4, 'A5_2'): (
        ('infeasible', 'None', 'NoneType', None, '7.032613006608356', None, 'infeasible', None),
        ('feasible', '-27/2', 'QuadRat', ('QuadRat',), '0.0', (True, False), 'feasible', (
            '9/4 ; 0 ; 0 ; 0 ; 0',
            '0 ; 81/8 ; 0 ; 0 ; 0',
            '0 ; 0 ; 99/8 ; 0 ; 0',
            '0 ; 0 ; 0 ; 117/8 ; 0',
            '0 ; 0 ; 0 ; 0 ; 135/8',
        )),
        ('infeasible', 'None', 'NoneType', None, '8.871449937862469', None, 'infeasible', None),
    ),
}


# -- symbolic outputs on generated algebras -------------------------------------
# Recorded from the symbolic pipeline before its Ricci kernel computed one
# triangle and its obstruction system used the affine split; any speed-up
# must reproduce it exactly.  For each algebra of
# test_generated_algebras.symbolic_stream_algebras(): the label, the Ricci
# operator rows as " ; "-joined strings, the scalar curvature, and the
# obstruction system as "i j k : generator" lines.
SYMBOLIC_STREAM: list[tuple[str, tuple[str, ...], str, tuple[str, ...]]] = [
    ('H3', (
        '-1/2*a1^2 ; 0 ; 0',
        '0 ; -1/2*a1^2 ; 0',
        '0 ; 0 ; 1/2*a1^2',
    ), '-1/2*a1^2', (
        '1 2 3 : a1^3*lambda0 - 3*a1^3 - 2*a1*c',
    )),
    ('H5', (
        '-1/2*a1^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*a2^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; -1/2*a1^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; -1/2*a2^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 1/2*a1^2 + 1/2*a2^2',
    ), '-1/2*a1^2 - 1/2*a2^2', (
        '1 3 5 : a1^3*lambda0 + a1*a2^2*lambda0 - 3*a1^3 - a1*a2^2 - 2*a1*c',
        '2 4 5 : a1^2*a2*lambda0 + a2^3*lambda0 - a1^2*a2 - 3*a2^3 - 2*a2*c',
    )),
    ('H7', (
        '-1/2*a1^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*a2^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; -1/2*a3^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; -1/2*a1^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; -1/2*a2^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; -1/2*a3^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*a1^2 + 1/2*a2^2 + 1/2*a3^2',
    ), '-1/2*a1^2 - 1/2*a2^2 - 1/2*a3^2', (
        '1 4 7 : a1^3*lambda0 + a1*a2^2*lambda0 + a1*a3^2*lambda0 - 3*a1^3 - a1*a2^2 - a1*a3^2 - 2*a1*c',
        '2 5 7 : a1^2*a2*lambda0 + a2^3*lambda0 + a2*a3^2*lambda0 - a1^2*a2 - 3*a2^3 - a2*a3^2 - 2*a2*c',
        '3 6 7 : a1^2*a3*lambda0 + a2^2*a3*lambda0 + a3^3*lambda0 - a1^2*a3 - a2^2*a3 - 3*a3^3 - 2*a3*c',
    )),
    ('H9', (
        '-1/2*a1^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*a2^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; -1/2*a3^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; -1/2*a4^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; -1/2*a1^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; -1/2*a2^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; -1/2*a3^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; -1/2*a4^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*a1^2 + 1/2*a2^2 + 1/2*a3^2 + 1/2*a4^2',
    ), '-1/2*a1^2 - 1/2*a2^2 - 1/2*a3^2 - 1/2*a4^2', (
        '1 5 9 : a1^3*lambda0 + a1*a2^2*lambda0 + a1*a3^2*lambda0 + a1*a4^2*lambda0 - 3*a1^3 - a1*a2^2 - a1*a3^2 - a1*a4^2 - 2*a1*c',
        '2 6 9 : a1^2*a2*lambda0 + a2^3*lambda0 + a2*a3^2*lambda0 + a2*a4^2*lambda0 - a1^2*a2 - 3*a2^3 - a2*a3^2 - a2*a4^2 - 2*a2*c',
        '3 7 9 : a1^2*a3*lambda0 + a2^2*a3*lambda0 + a3^3*lambda0 + a3*a4^2*lambda0 - a1^2*a3 - a2^2*a3 - 3*a3^3 - a3*a4^2 - 2*a3*c',
        '4 8 9 : a1^2*a4*lambda0 + a2^2*a4*lambda0 + a3^2*a4*lambda0 + a4^3*lambda0 - a1^2*a4 - a2^2*a4 - a3^2*a4 - 3*a4^3 - 2*a4*c',
    )),
    ('two-step dim 6', (
        '-2*p0^2 - 1/2*p1^2 ; p0*p2 ; 0 ; 2*p0*p3 + p1*p4 ; 0 ; 0',
        'p0*p2 ; -1/2*p2^2 ; 0 ; -p2*p3 ; 0 ; 0',
        '0 ; 0 ; -2*p0^2 - 1/2*p2^2 - 2*p3^2 ; 0 ; -p0*p1 - 2*p3*p4 ; 0',
        '2*p0*p3 + p1*p4 ; -p2*p3 ; 0 ; -2*p3^2 - 2*p4^2 ; 0 ; 0',
        '0 ; 0 ; -p0*p1 - 2*p3*p4 ; 0 ; -1/2*p1^2 - 2*p4^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 2*p0^2 + 1/2*p1^2 + 1/2*p2^2 + 2*p3^2 + 2*p4^2',
    ), '-2*p0^2 - 1/2*p1^2 - 1/2*p2^2 - 2*p3^2 - 2*p4^2', (
        '1 3 6 : 4*lambda0*p0^3 + lambda0*p0*p1^2 + lambda0*p0*p2^2 + 4*lambda0*p0*p3^2 + 4*lambda0*p0*p4^2 - 12*p0^3 - 3*p0*p1^2 - 3*p0*p2^2 - 12*p0*p3^2 - 4*p0*p4^2 - 4*p1*p3*p4 - 2*c*p0',
        '1 5 6 : 4*lambda0*p0^2*p1 + lambda0*p1^3 + lambda0*p1*p2^2 + 4*lambda0*p1*p3^2 + 4*lambda0*p1*p4^2 - 12*p0^2*p1 - 16*p0*p3*p4 - 3*p1^3 - p1*p2^2 - 4*p1*p3^2 - 12*p1*p4^2 - 2*c*p1',
        '2 3 6 : 4*lambda0*p0^2*p2 + lambda0*p1^2*p2 + lambda0*p2^3 + 4*lambda0*p2*p3^2 + 4*lambda0*p2*p4^2 - 12*p0^2*p2 - p1^2*p2 - 3*p2^3 - 12*p2*p3^2 - 4*p2*p4^2 - 2*c*p2',
        '2 5 6 : p0*p1*p2 + 2*p2*p3*p4',
        '3 4 6 : 4*lambda0*p0^2*p3 + lambda0*p1^2*p3 + lambda0*p2^2*p3 + 4*lambda0*p3^3 + 4*lambda0*p3*p4^2 - 12*p0^2*p3 - 4*p0*p1*p4 - p1^2*p3 - 3*p2^2*p3 - 12*p3^3 - 12*p3*p4^2 - 2*c*p3',
        '4 5 6 : 4*lambda0*p0^2*p4 + lambda0*p1^2*p4 + lambda0*p2^2*p4 + 4*lambda0*p3^2*p4 + 4*lambda0*p4^3 - 4*p0^2*p4 - 4*p0*p1*p3 - 3*p1^2*p4 - p2^2*p4 - 12*p3^2*p4 - 12*p4^3 - 2*c*p4',
    )),
    ('two-step dim 6', (
        '-1/2*p0^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*p0^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 1/2*p0^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0',
    ), '-1/2*p0^2', (
        '1 2 3 : lambda0*p0^3 - 3*p0^3 - 2*c*p0',
    )),
    ('two-step dim 6', (
        '-2*p0^2 - 2*p1^2 - 1/2*p2^2 - 1/2*p3^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -2*p0^2 - 2*p1^2 - 1/2*p2^2 - 1/2*p3^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 2*p0^2 ; -2*p0*p1 ; p0*p2 ; p0*p3',
        '0 ; 0 ; -2*p0*p1 ; 2*p1^2 ; -p1*p2 ; -p1*p3',
        '0 ; 0 ; p0*p2 ; -p1*p2 ; 1/2*p2^2 ; 1/2*p2*p3',
        '0 ; 0 ; p0*p3 ; -p1*p3 ; 1/2*p2*p3 ; 1/2*p3^2',
    ), '-2*p0^2 - 2*p1^2 - 1/2*p2^2 - 1/2*p3^2', (
        '1 2 3 : 4*lambda0*p0^3 + 4*lambda0*p0*p1^2 + lambda0*p0*p2^2 + lambda0*p0*p3^2 - 12*p0^3 - 12*p0*p1^2 - 3*p0*p2^2 - 3*p0*p3^2 - 2*c*p0',
        '1 2 4 : 4*lambda0*p0^2*p1 + 4*lambda0*p1^3 + lambda0*p1*p2^2 + lambda0*p1*p3^2 - 12*p0^2*p1 - 12*p1^3 - 3*p1*p2^2 - 3*p1*p3^2 - 2*c*p1',
        '1 2 5 : 4*lambda0*p0^2*p2 + 4*lambda0*p1^2*p2 + lambda0*p2^3 + lambda0*p2*p3^2 - 12*p0^2*p2 - 12*p1^2*p2 - 3*p2^3 - 3*p2*p3^2 - 2*c*p2',
        '1 2 6 : 4*lambda0*p0^2*p3 + 4*lambda0*p1^2*p3 + lambda0*p2^2*p3 + lambda0*p3^3 - 12*p0^2*p3 - 12*p1^2*p3 - 3*p2^2*p3 - 3*p3^3 - 2*c*p3',
    )),
    ('filiform dim 6', (
        '-1/2*f2^2 - 2*f3^2 - 1/2*f4^2 - 1/2*f5^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*f2^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 1/2*f2^2 - 2*f3^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 2*f3^2 - 1/2*f4^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 1/2*f4^2 - 1/2*f5^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 1/2*f5^2',
    ), '-1/2*f2^2 - 2*f3^2 - 1/2*f4^2 - 1/2*f5^2', (
        '1 2 3 : f2^3*lambda0 + 4*f2*f3^2*lambda0 + f2*f4^2*lambda0 + f2*f5^2*lambda0 - 3*f2^3 - f2*f4^2 - f2*f5^2 - 2*c*f2',
        '1 3 4 : f2^2*f3*lambda0 + 4*f3^3*lambda0 + f3*f4^2*lambda0 + f3*f5^2*lambda0 - 12*f3^3 - f3*f5^2 - 2*c*f3',
        '1 4 5 : f2^2*f4*lambda0 + 4*f3^2*f4*lambda0 + f4^3*lambda0 + f4*f5^2*lambda0 - f2^2*f4 - 3*f4^3 - 2*c*f4',
        '1 5 6 : f2^2*f5*lambda0 + 4*f3^2*f5*lambda0 + f4^2*f5*lambda0 + f5^3*lambda0 - f2^2*f5 - 4*f3^2*f5 - 3*f5^3 - 2*c*f5',
    )),
    ('two-step dim 7', (
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*p0^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; -1/2*p0^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*p0^2',
    ), '-1/2*p0^2', (
        '2 4 7 : lambda0*p0^3 - 3*p0^3 - 2*c*p0',
    )),
    ('two-step dim 7', (
        '-1/2*p0^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*p0^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 1/2*p0^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
    ), '-1/2*p0^2', (
        '1 2 3 : lambda0*p0^3 - 3*p0^3 - 2*c*p0',
    )),
    ('two-step dim 7', (
        '-2*p0^2 - 2*p1^2 ; -p1*p2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '-p1*p2 ; -1/2*p2^2 - 2*p3^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; -2*p0^2 ; 0 ; -2*p0*p1 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; -2*p0*p1 ; 0 ; -2*p1^2 - 1/2*p2^2 - 2*p3^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 2*p0^2 + 2*p1^2 + 1/2*p2^2 ; p2*p3',
        '0 ; 0 ; 0 ; 0 ; 0 ; p2*p3 ; 2*p3^2',
    ), '-2*p0^2 - 2*p1^2 - 1/2*p2^2 - 2*p3^2', (
        '1 3 6 : 4*lambda0*p0^3 + 4*lambda0*p0*p1^2 + lambda0*p0*p2^2 + 4*lambda0*p0*p3^2 - 12*p0^3 - 12*p0*p1^2 - p0*p2^2 - 2*c*p0',
        '1 3 7 : p0*p2*p3',
        '1 5 6 : 4*lambda0*p0^2*p1 + 4*lambda0*p1^3 + lambda0*p1*p2^2 + 4*lambda0*p1*p3^2 - 12*p0^2*p1 - 12*p1^3 - 3*p1*p2^2 - 4*p1*p3^2 - 2*c*p1',
        '1 5 7 : p1*p2*p3',
        '2 3 6 : p0*p1*p2',
        '2 3 7 : p0*p1*p3',
        '2 5 6 : 4*lambda0*p0^2*p2 + 4*lambda0*p1^2*p2 + lambda0*p2^3 + 4*lambda0*p2*p3^2 - 4*p0^2*p2 - 12*p1^2*p2 - 3*p2^3 - 12*p2*p3^2 - 2*c*p2',
        '2 5 7 : 4*lambda0*p0^2*p3 + 4*lambda0*p1^2*p3 + lambda0*p2^2*p3 + 4*lambda0*p3^3 - 4*p1^2*p3 - 3*p2^2*p3 - 12*p3^3 - 2*c*p3',
    )),
    ('filiform dim 7', (
        '-1/2*f2^2 - 2*f3^2 - 2*f4^2 - 1/2*f5^2 - 1/2*f6^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*f2^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 1/2*f2^2 - 2*f3^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 2*f3^2 - 2*f4^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 2*f4^2 - 1/2*f5^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 1/2*f5^2 - 1/2*f6^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*f6^2',
    ), '-1/2*f2^2 - 2*f3^2 - 2*f4^2 - 1/2*f5^2 - 1/2*f6^2', (
        '1 2 3 : f2^3*lambda0 + 4*f2*f3^2*lambda0 + 4*f2*f4^2*lambda0 + f2*f5^2*lambda0 + f2*f6^2*lambda0 - 3*f2^3 - 4*f2*f4^2 - f2*f5^2 - f2*f6^2 - 2*c*f2',
        '1 3 4 : f2^2*f3*lambda0 + 4*f3^3*lambda0 + 4*f3*f4^2*lambda0 + f3*f5^2*lambda0 + f3*f6^2*lambda0 - 12*f3^3 - f3*f5^2 - f3*f6^2 - 2*c*f3',
        '1 4 5 : f2^2*f4*lambda0 + 4*f3^2*f4*lambda0 + 4*f4^3*lambda0 + f4*f5^2*lambda0 + f4*f6^2*lambda0 - f2^2*f4 - 12*f4^3 - f4*f6^2 - 2*c*f4',
        '1 5 6 : f2^2*f5*lambda0 + 4*f3^2*f5*lambda0 + 4*f4^2*f5*lambda0 + f5^3*lambda0 + f5*f6^2*lambda0 - f2^2*f5 - 4*f3^2*f5 - 3*f5^3 - 2*c*f5',
        '1 6 7 : f2^2*f6*lambda0 + 4*f3^2*f6*lambda0 + 4*f4^2*f6*lambda0 + f5^2*f6*lambda0 + f6^3*lambda0 - f2^2*f6 - 4*f3^2*f6 - 4*f4^2*f6 - 3*f6^3 - 2*c*f6',
    )),
    ('two-step dim 8', (
        '-2*p0^2 - 1/2*p1^2 ; -2*p0*p2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '-2*p0*p2 ; -2*p2^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; -2*p0^2 - 2*p2^2 - 2*p3^2 - 1/2*p4^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; -1/2*p1^2 - 2*p3^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; -1/2*p4^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 1/2*p1^2 + 1/2*p4^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 2*p0^2 + 2*p2^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 2*p3^2',
    ), '-2*p0^2 - 1/2*p1^2 - 2*p2^2 - 2*p3^2 - 1/2*p4^2', (
        '1 3 7 : 4*lambda0*p0^3 + lambda0*p0*p1^2 + 4*lambda0*p0*p2^2 + 4*lambda0*p0*p3^2 + lambda0*p0*p4^2 - 12*p0^3 - p0*p1^2 - 12*p0*p2^2 - 4*p0*p3^2 - p0*p4^2 - 2*c*p0',
        '1 4 6 : 4*lambda0*p0^2*p1 + lambda0*p1^3 + 4*lambda0*p1*p2^2 + 4*lambda0*p1*p3^2 + lambda0*p1*p4^2 - 4*p0^2*p1 - 3*p1^3 - 4*p1*p3^2 - p1*p4^2 - 2*c*p1',
        '2 3 7 : 4*lambda0*p0^2*p2 + lambda0*p1^2*p2 + 4*lambda0*p2^3 + 4*lambda0*p2*p3^2 + lambda0*p2*p4^2 - 12*p0^2*p2 - 12*p2^3 - 4*p2*p3^2 - p2*p4^2 - 2*c*p2',
        '2 4 6 : p0*p1*p2',
        '3 4 8 : 4*lambda0*p0^2*p3 + lambda0*p1^2*p3 + 4*lambda0*p2^2*p3 + 4*lambda0*p3^3 + lambda0*p3*p4^2 - 4*p0^2*p3 - p1^2*p3 - 4*p2^2*p3 - 12*p3^3 - p3*p4^2 - 2*c*p3',
        '3 5 6 : 4*lambda0*p0^2*p4 + lambda0*p1^2*p4 + 4*lambda0*p2^2*p4 + 4*lambda0*p3^2*p4 + lambda0*p4^3 - 4*p0^2*p4 - p1^2*p4 - 4*p2^2*p4 - 4*p3^2*p4 - 3*p4^3 - 2*c*p4',
    )),
    ('two-step dim 8', (
        '-1/2*p0^2 - 2*p1^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*p0^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; -2*p1^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 2*p1^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*p0^2',
    ), '-1/2*p0^2 - 2*p1^2', (
        '1 2 8 : lambda0*p0^3 + 4*lambda0*p0*p1^2 - 3*p0^3 - 4*p0*p1^2 - 2*c*p0',
        '1 3 6 : lambda0*p0^2*p1 + 4*lambda0*p1^3 - p0^2*p1 - 12*p1^3 - 2*c*p1',
    )),
    ('two-step dim 8', (
        '-1/2*p0^2 - 2*p1^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*p0^2 - 2*p1^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 1/2*p0^2 ; 0 ; 0 ; p0*p1 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; p0*p1 ; 0 ; 0 ; 2*p1^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
    ), '-1/2*p0^2 - 2*p1^2', (
        '1 2 4 : lambda0*p0^3 + 4*lambda0*p0*p1^2 - 3*p0^3 - 12*p0*p1^2 - 2*c*p0',
        '1 2 7 : lambda0*p0^2*p1 + 4*lambda0*p1^3 - 3*p0^2*p1 - 12*p1^3 - 2*c*p1',
    )),
    ('filiform dim 8', (
        '-2*f2^2 - 1/2*f3^2 - 2*f4^2 - 1/2*f5^2 - 1/2*f6^2 - 2*f7^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -2*f2^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 2*f2^2 - 1/2*f3^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 1/2*f3^2 - 2*f4^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 2*f4^2 - 1/2*f5^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 1/2*f5^2 - 1/2*f6^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*f6^2 - 2*f7^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 2*f7^2',
    ), '-2*f2^2 - 1/2*f3^2 - 2*f4^2 - 1/2*f5^2 - 1/2*f6^2 - 2*f7^2', (
        '1 2 3 : 4*f2^3*lambda0 + f2*f3^2*lambda0 + 4*f2*f4^2*lambda0 + f2*f5^2*lambda0 + f2*f6^2*lambda0 + 4*f2*f7^2*lambda0 - 12*f2^3 - 4*f2*f4^2 - f2*f5^2 - f2*f6^2 - 4*f2*f7^2 - 2*c*f2',
        '1 3 4 : 4*f2^2*f3*lambda0 + f3^3*lambda0 + 4*f3*f4^2*lambda0 + f3*f5^2*lambda0 + f3*f6^2*lambda0 + 4*f3*f7^2*lambda0 - 3*f3^3 - f3*f5^2 - f3*f6^2 - 4*f3*f7^2 - 2*c*f3',
        '1 4 5 : 4*f2^2*f4*lambda0 + f3^2*f4*lambda0 + 4*f4^3*lambda0 + f4*f5^2*lambda0 + f4*f6^2*lambda0 + 4*f4*f7^2*lambda0 - 4*f2^2*f4 - 12*f4^3 - f4*f6^2 - 4*f4*f7^2 - 2*c*f4',
        '1 5 6 : 4*f2^2*f5*lambda0 + f3^2*f5*lambda0 + 4*f4^2*f5*lambda0 + f5^3*lambda0 + f5*f6^2*lambda0 + 4*f5*f7^2*lambda0 - 4*f2^2*f5 - f3^2*f5 - 3*f5^3 - 4*f5*f7^2 - 2*c*f5',
        '1 6 7 : 4*f2^2*f6*lambda0 + f3^2*f6*lambda0 + 4*f4^2*f6*lambda0 + f5^2*f6*lambda0 + f6^3*lambda0 + 4*f6*f7^2*lambda0 - 4*f2^2*f6 - f3^2*f6 - 4*f4^2*f6 - 3*f6^3 - 2*c*f6',
        '1 7 8 : 4*f2^2*f7*lambda0 + f3^2*f7*lambda0 + 4*f4^2*f7*lambda0 + f5^2*f7*lambda0 + f6^2*f7*lambda0 + 4*f7^3*lambda0 - 4*f2^2*f7 - f3^2*f7 - 4*f4^2*f7 - f5^2*f7 - 12*f7^3 - 2*c*f7',
    )),
    ('two-step dim 9', (
        '-1/2*p0^2 - 2*p1^2 - 2*p2^2 - 1/2*p3^2 - 2*p4^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -1/2*p0^2 ; -p0*p4 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -p0*p4 ; -2*p1^2 - 2*p2^2 - 1/2*p3^2 - 2*p4^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 2*p1^2 ; 2*p1*p2 ; 0 ; 0 ; -p1*p3 ; 2*p1*p4',
        '0 ; 0 ; 0 ; 2*p1*p2 ; 2*p2^2 ; 0 ; 0 ; -p2*p3 ; 2*p2*p4',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; -p1*p3 ; -p2*p3 ; 0 ; 0 ; 1/2*p3^2 ; -p3*p4',
        '0 ; 0 ; 0 ; 2*p1*p4 ; 2*p2*p4 ; 0 ; 0 ; -p3*p4 ; 1/2*p0^2 + 2*p4^2',
    ), '-1/2*p0^2 - 2*p1^2 - 2*p2^2 - 1/2*p3^2 - 2*p4^2', (
        '1 2 4 : p0*p1*p4',
        '1 2 5 : p0*p2*p4',
        '1 2 8 : p0*p3*p4',
        '1 2 9 : lambda0*p0^3 + 4*lambda0*p0*p1^2 + 4*lambda0*p0*p2^2 + lambda0*p0*p3^2 + 4*lambda0*p0*p4^2 - 3*p0^3 - 4*p0*p1^2 - 4*p0*p2^2 - p0*p3^2 - 12*p0*p4^2 - 2*c*p0',
        '1 3 4 : lambda0*p0^2*p1 + 4*lambda0*p1^3 + 4*lambda0*p1*p2^2 + lambda0*p1*p3^2 + 4*lambda0*p1*p4^2 - p0^2*p1 - 12*p1^3 - 12*p1*p2^2 - 3*p1*p3^2 - 12*p1*p4^2 - 2*c*p1',
        '1 3 5 : lambda0*p0^2*p2 + 4*lambda0*p1^2*p2 + 4*lambda0*p2^3 + lambda0*p2*p3^2 + 4*lambda0*p2*p4^2 - p0^2*p2 - 12*p1^2*p2 - 12*p2^3 - 3*p2*p3^2 - 12*p2*p4^2 - 2*c*p2',
        '1 3 8 : lambda0*p0^2*p3 + 4*lambda0*p1^2*p3 + 4*lambda0*p2^2*p3 + lambda0*p3^3 + 4*lambda0*p3*p4^2 - p0^2*p3 - 12*p1^2*p3 - 12*p2^2*p3 - 3*p3^3 - 12*p3*p4^2 - 2*c*p3',
        '1 3 9 : lambda0*p0^2*p4 + 4*lambda0*p1^2*p4 + 4*lambda0*p2^2*p4 + lambda0*p3^2*p4 + 4*lambda0*p4^3 - 3*p0^2*p4 - 12*p1^2*p4 - 12*p2^2*p4 - 3*p3^2*p4 - 12*p4^3 - 2*c*p4',
    )),
    ('two-step dim 9', (
        '-1/2*p0^2 - 1/2*p1^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; -1/2*p0^2 - 2*p2^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; -1/2*p1^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; -2*p2^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 1/2*p0^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 2*p2^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*p1^2',
    ), '-1/2*p0^2 - 1/2*p1^2 - 2*p2^2', (
        '1 3 6 : lambda0*p0^3 + lambda0*p0*p1^2 + 4*lambda0*p0*p2^2 - 3*p0^3 - p0*p1^2 - 4*p0*p2^2 - 2*c*p0',
        '1 4 9 : lambda0*p0^2*p1 + lambda0*p1^3 + 4*lambda0*p1*p2^2 - p0^2*p1 - 3*p1^3 - 2*c*p1',
        '3 5 7 : lambda0*p0^2*p2 + lambda0*p1^2*p2 + 4*lambda0*p2^3 - p0^2*p2 - 12*p2^3 - 2*c*p2',
    )),
    ('two-step dim 9', (
        '-2*p0^2 - 2*p1^2 - 1/2*p2^2 - 1/2*p3^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -2*p0^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; -2*p1^2 - 1/2*p2^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; -1/2*p3^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 2*p1^2 ; 0 ; -p1*p2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 2*p0^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; -p1*p2 ; 0 ; 1/2*p2^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*p3^2',
    ), '-2*p0^2 - 2*p1^2 - 1/2*p2^2 - 1/2*p3^2', (
        '1 2 6 : 4*lambda0*p0^3 + 4*lambda0*p0*p1^2 + lambda0*p0*p2^2 + lambda0*p0*p3^2 - 12*p0^3 - 4*p0*p1^2 - p0*p2^2 - p0*p3^2 - 2*c*p0',
        '1 3 5 : 4*lambda0*p0^2*p1 + 4*lambda0*p1^3 + lambda0*p1*p2^2 + lambda0*p1*p3^2 - 4*p0^2*p1 - 12*p1^3 - 3*p1*p2^2 - p1*p3^2 - 2*c*p1',
        '1 3 7 : 4*lambda0*p0^2*p2 + 4*lambda0*p1^2*p2 + lambda0*p2^3 + lambda0*p2*p3^2 - 4*p0^2*p2 - 12*p1^2*p2 - 3*p2^3 - p2*p3^2 - 2*c*p2',
        '1 4 9 : 4*lambda0*p0^2*p3 + 4*lambda0*p1^2*p3 + lambda0*p2^2*p3 + lambda0*p3^3 - 4*p0^2*p3 - 4*p1^2*p3 - p2^2*p3 - 3*p3^3 - 2*c*p3',
    )),
    ('filiform dim 9', (
        '-2*f2^2 - 2*f3^2 - 2*f4^2 - 1/2*f5^2 - 1/2*f6^2 - 1/2*f7^2 - 2*f8^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; -2*f2^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 2*f2^2 - 2*f3^2 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 2*f3^2 - 2*f4^2 ; 0 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 2*f4^2 - 1/2*f5^2 ; 0 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 1/2*f5^2 - 1/2*f6^2 ; 0 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*f6^2 - 1/2*f7^2 ; 0 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 1/2*f7^2 - 2*f8^2 ; 0',
        '0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 0 ; 2*f8^2',
    ), '-2*f2^2 - 2*f3^2 - 2*f4^2 - 1/2*f5^2 - 1/2*f6^2 - 1/2*f7^2 - 2*f8^2', (
        '1 2 3 : 4*f2^3*lambda0 + 4*f2*f3^2*lambda0 + 4*f2*f4^2*lambda0 + f2*f5^2*lambda0 + f2*f6^2*lambda0 + f2*f7^2*lambda0 + 4*f2*f8^2*lambda0 - 12*f2^3 - 4*f2*f4^2 - f2*f5^2 - f2*f6^2 - f2*f7^2 - 4*f2*f8^2 - 2*c*f2',
        '1 3 4 : 4*f2^2*f3*lambda0 + 4*f3^3*lambda0 + 4*f3*f4^2*lambda0 + f3*f5^2*lambda0 + f3*f6^2*lambda0 + f3*f7^2*lambda0 + 4*f3*f8^2*lambda0 - 12*f3^3 - f3*f5^2 - f3*f6^2 - f3*f7^2 - 4*f3*f8^2 - 2*c*f3',
        '1 4 5 : 4*f2^2*f4*lambda0 + 4*f3^2*f4*lambda0 + 4*f4^3*lambda0 + f4*f5^2*lambda0 + f4*f6^2*lambda0 + f4*f7^2*lambda0 + 4*f4*f8^2*lambda0 - 4*f2^2*f4 - 12*f4^3 - f4*f6^2 - f4*f7^2 - 4*f4*f8^2 - 2*c*f4',
        '1 5 6 : 4*f2^2*f5*lambda0 + 4*f3^2*f5*lambda0 + 4*f4^2*f5*lambda0 + f5^3*lambda0 + f5*f6^2*lambda0 + f5*f7^2*lambda0 + 4*f5*f8^2*lambda0 - 4*f2^2*f5 - 4*f3^2*f5 - 3*f5^3 - f5*f7^2 - 4*f5*f8^2 - 2*c*f5',
        '1 6 7 : 4*f2^2*f6*lambda0 + 4*f3^2*f6*lambda0 + 4*f4^2*f6*lambda0 + f5^2*f6*lambda0 + f6^3*lambda0 + f6*f7^2*lambda0 + 4*f6*f8^2*lambda0 - 4*f2^2*f6 - 4*f3^2*f6 - 4*f4^2*f6 - 3*f6^3 - 4*f6*f8^2 - 2*c*f6',
        '1 7 8 : 4*f2^2*f7*lambda0 + 4*f3^2*f7*lambda0 + 4*f4^2*f7*lambda0 + f5^2*f7*lambda0 + f6^2*f7*lambda0 + f7^3*lambda0 + 4*f7*f8^2*lambda0 - 4*f2^2*f7 - 4*f3^2*f7 - 4*f4^2*f7 - f5^2*f7 - 3*f7^3 - 2*c*f7',
        '1 8 9 : 4*f2^2*f8*lambda0 + 4*f3^2*f8*lambda0 + 4*f4^2*f8*lambda0 + f5^2*f8*lambda0 + f6^2*f8*lambda0 + f7^2*f8*lambda0 + 4*f8^3*lambda0 - 4*f2^2*f8 - 4*f3^2*f8 - 4*f4^2*f8 - f5^2*f8 - f6^2*f8 - 12*f8^3 - 2*c*f8',
    )),
]
