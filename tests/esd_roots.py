"""Exact sudden-death roots at r = pi/4: det PT(p) of the linked flip
channels, built from the paper's matrices at 50 digits with mpmath.

The state is ``unruh_state(pi/4)``, whose six nonzero entries are exactly
1/4.  The operators are the paper's, from the one written-out copy in
``paper_kraus.py``: corrected variant, reversed qutrit level order (level 2
first), every parameter linked to p.
Multilocal coupling applies the product set {A_i (x) B_j} at (p, p) once;
global coupling applies it, then the product collective set at (p, p),
which is the same set.  The PPT test is exact in 2 (x) 3, so the state
disentangles where an eigenvalue of PT crosses zero: a sign change of
det PT.
"""

import mpmath as mp

from unruhsim import channels as ch

import paper_kraus

DPS = 50


def _product_set(kind, p):
    """The 6x6 operators c_A c_B (A (x) B) of the paper's sets, corrected,
    reversed, each as its nonzero entries {(3A + a, 3B + b): value}."""
    with mp.workdps(DPS):
        om = mp.expjpi(mp.mpf(2) / 3)  # exp(2 pi i / 3)
        qutrit = paper_kraus.qutrit(kind, p, ch.CORRECTED, ch.REVERSED, mp.sqrt, om)
        return [{(3 * i + a, 3 * j + b): ca * cb * mp.mpmathify(x) * mp.mpmathify(y)
                 for i, row in enumerate(ea) for j, x in enumerate(row) if x
                 for a, rowb in enumerate(eb) for b, y in enumerate(rowb) if y}
                for ca, ea in paper_kraus.qubit(kind, p, mp.sqrt) for cb, eb in qutrit]


def _apply(ops, rho):
    """sum_E E rho E^dagger."""
    out = [[mp.mpf(0)] * 6 for _ in range(6)]
    for e in ops:
        for (i, k), x in e.items():
            for (j, l), y in e.items():
                if rho[k][l]:
                    out[i][j] += x * rho[k][l] * mp.conj(y)
    return out


def det_pt(kind, coupling, p):
    """det of the partial transpose over the qubit of the state at r = pi/4
    evolved through the linked channel at p; real up to 50-digit rounding."""
    with mp.workdps(DPS):
        p = mp.mpf(p)
        rho = [[mp.mpf(0)] * 6 for _ in range(6)]
        for i, j in [(1, 1), (1, 3), (3, 1), (3, 3), (2, 2), (5, 5)]:
            rho[i][j] = mp.mpf(1) / 4
        ops = _product_set(kind, p)
        for _ in range(2 if coupling == ch.GLOBAL else 1):
            rho = _apply(ops, rho)
        pt = mp.matrix(6, 6)
        for i in range(6):
            for j in range(6):  # (3A+a, 3B+b) <- (3B+a, 3A+b)
                pt[i, j] = rho[3 * (j // 3) + i % 3][3 * (i // 3) + j % 3]
        return +mp.re(mp.det(pt))


def esd_root(kind, coupling):
    """The first root of det PT(p) in (0, 1), at 50 digits: the first sign
    change on the grid p = k/100, refined by a bracketing solver."""
    with mp.workdps(DPS):
        f = lambda p: det_pt(kind, coupling, p)
        lo = mp.mpf(1) / 100
        sign = mp.sign(f(lo))
        for k in range(2, 100):
            hi = mp.mpf(k) / 100
            if mp.sign(f(hi)) != sign:
                return mp.findroot(f, (lo, hi), solver="anderson")
            lo = hi
        raise AssertionError(f"det PT keeps its sign on (0, 1) for {kind}, {coupling}")
