"""The paper's qubit and qutrit Kraus sets, written out once for the tests.

Each set is a list of (c, E), the operator c * E as printed.  The sets take
``sqrt`` and ``omega`` = exp(2 pi i / 3), so one copy gives the table test
and the per-point oracle their floats (``floats``) and ``esd_roots`` its
50-digit operators.  Variants and level orders are those of ``channels``.
"""

import math

import numpy as np

from unruhsim import channels as ch

OMEGA = complex(np.exp(2j * np.pi / 3))
_ONE = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]


def qubit(kind, p, sqrt=math.sqrt):
    """``kind``'s qubit operators at p."""
    if kind == ch.DEPHASING:
        return [(1, [[1, 0], [0, sqrt(1 - p)]]), (1, [[0, 0], [0, sqrt(p)]])]
    second = {ch.PHASE_FLIP: [[1, 0], [0, -1]], ch.BIT_TRIT_FLIP: [[0, 1], [1, 0]],
              ch.BIT_TRIT_PHASE_FLIP: [[0, -1j], [1j, 0]]}[kind]
    return [(sqrt(1 - p / 2), [[1, 0], [0, 1]]), (sqrt(p / 2), second)]


def qutrit(kind, p, variant, order, sqrt=math.sqrt, omega=OMEGA):
    """``kind``'s qutrit operators at p, in ``variant`` and level ``order``."""
    q, s, w = sqrt(1 - p), sqrt(p), sqrt(p / 3)
    if kind == ch.PHASE_FLIP:
        ops = [(1, [[1, 0, 0], [0, q, 0], [0, 0, q]]),
               (s, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]), (s, [[0, 0, 1], [0, 0, 0], [0, 0, 0]])]
    elif kind == ch.DEPHASING:
        stray = int(variant == ch.AS_PRINTED)
        ops = [(1, [[1, 0, 0], [0, q, 0], [0, 0, q]]),
               (1, [[stray, 0, 0], [0, s, 0], [0, 0, 0]]),
               (1, [[stray, 0, 0], [0, 0, 0], [0, 0, s]])]
    elif kind == ch.BIT_TRIT_FLIP:
        ops = [(sqrt(1 - 2 * p / 3), _ONE), (w, [[0, 0, 1], [1, 0, 0], [0, 1, 0]]),
               (w, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])]
    else:
        om, omc = omega, omega.conjugate()
        ops = [(sqrt(1 - 2 * p / 3) if variant == ch.AS_PRINTED else q, _ONE),
               (w, [[0, 0, om], [1, 0, 0], [0, omc, 0]]),
               (w, [[0, omc, 0], [0, 0, om], [1, 0, 0]]),
               (w, [[0, om, 0], [0, 0, omc], [1, 0, 0]])]
    if order == ch.REVERSED:
        return [(c, [row[::-1] for row in e[::-1]]) for c, e in ops]
    return ops


def floats(ops):
    """The operators of a set as complex arrays, c * E as numpy multiplies it."""
    return [c * np.array(e, dtype=complex) for c, e in ops]
