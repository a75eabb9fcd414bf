"""Laws of the physics that bound every value the grids print, on any kernel.

Each figure preset and each verify grid runs through ``sweep.evaluate`` as
the CLI runs it; a spy keeps every row's r = 0 negativity and its full PT
spectra.  The laws, for a qubit-qutrit state:

* 0 <= N <= 1/2, the 2 (x) 3 bound (min(d) - 1) / 2, for every row: the
  correlated sets are subsets of the product pairs, so no row raises the
  trace;
* the PT eigenvalues of a trace-preserving row sum to tr PT(rho) = 1;
* convexity in r: rho(r) = cos^2 r A + sin^2 r B with B a product state, and
  every operator is a product a (x) b, so N(p, r) <= cos^2 r N(p, 0)
  (Vidal & Werner, Phys. Rev. A 65, 032314 (2002));
* monotone in each p: the local sets of phase flip, dephasing and bit-trit
  flip compose as E_p o E_q = E_p' with 1 - p' = (1 - p)(1 - q), and the
  product collective set is a local operation too, so N never rises along
  p1 or p2, nor along p under global product coupling.  Bit-trit phase
  flip composes no such way, and its N revives along p2.

One test runs figure 3 and a verify report in a child process under each
OpenBLAS core type and checks the laws there, pinning no bytes.

The negativity laws hold to 4 ulps of 1/2, a bound fixed before the first
run; the monotone laws to the same bound.  The eigenvalue sum holds to 32
ulps of 1/2: it carries the rounding of
the evolved trace (up to 8 ulps of 1/2 on figure 3) and of the eigensolver
(up to 10), and reached 14 there.
"""

import math

import numpy as np
import pytest

import openblas_cores
import paper_kraus
from unruhsim import analytic, channels, cli, sweep

ULP = math.ulp(0.5)
NEGATIVITY_TOL = 4 * ULP
TRACE_TOL = 32 * ULP


def _complete(spec, p):
    """Whether the row at collective p is trace preserving: the corrected
    local sets and the product pairs always are; a correlated set holds the
    first min(Ka, Kb) pairs of the qubit and qutrit sets index by index."""
    if spec.coupling == channels.MULTILOCAL or spec.global_mode == channels.PRODUCT:
        return True
    qubit = paper_kraus.floats(paper_kraus.qubit(spec.kind, p))
    qutrit = paper_kraus.floats(
        paper_kraus.qutrit(spec.kind, p, spec.variant, spec.level_order))
    ops = [np.kron(a, b) for a, b in zip(qubit, qutrit)]
    return channels.completeness_defect(ops) <= channels.COMPLETENESS_TOL


@pytest.fixture
def grids(monkeypatch):
    return _record_grids(monkeypatch)


def _record_grids(monkeypatch):
    """Every (spec, rows, r axis, negativity, PT spectra, N at r = 0) that
    ``sweep.evaluate`` gives while the callers run."""
    evaluate, spectra = sweep.evaluate, sweep.pt_spectra
    seen, eigs = [], []

    def spy_spectra(*args, **kwargs):
        eig, neg = spectra(*args, **kwargs)
        eigs.append(eig)
        return eig, neg

    def spy(spec, axes, r_values, allow_incomplete=False):
        eigs.clear()
        params, min_eig, neg = evaluate(spec, axes, r_values, allow_incomplete)
        eig = np.concatenate(eigs)
        at_zero = evaluate(spec, axes, [0.0], allow_incomplete)[2][:, 0]
        seen.append((spec, params, np.asarray(r_values), neg.copy(), eig, at_zero))
        return params, min_eig, neg

    monkeypatch.setattr(sweep, "pt_spectra", spy_spectra)
    monkeypatch.setattr(sweep, "evaluate", spy)
    monkeypatch.setattr(analytic, "evaluate", spy)
    return seen


def _check_laws(seen):
    assert seen
    for spec, params, r, neg, eig, at_zero in seen:
        assert neg.shape == eig.shape[:2] == (len(params), len(r))
        assert np.all(neg >= 0.0) and np.all(neg <= 0.5 + NEGATIVITY_TOL), spec
        tp = np.array([_complete(spec, p) for p in params[:, 2].tolist()])
        excess = np.abs(eig[tp].sum(axis=-1) - 1.0)
        assert excess.size == 0 or excess.max() <= TRACE_TOL, spec
        cos2 = np.cos(r) ** 2
        assert np.all(neg <= cos2 * at_zero[:, None] + NEGATIVITY_TOL), spec


@pytest.mark.parametrize("figure", sweep.FIGURES)
def test_figure_presets_keep_the_laws(grids, figure):
    for figure_sweep in sweep.figure_sweeps(figure):
        sweep.run_sweep(figure_sweep)
    assert len(grids) == len(channels.KINDS)
    _check_laws(grids)


@pytest.mark.parametrize("kind,coupling,mode", cli._REPORTS)
def test_verify_grids_keep_the_laws(grids, kind, coupling, mode):
    analytic.verify_against_numeric(kind, coupling,
                                    global_mode=mode or channels.PRODUCT)
    assert len(grids) == 1
    _check_laws(grids)


# Corrected sets in the reversed level order, over six r values.
_MONOTONE_R = np.linspace(0.0, math.pi / 4, 6)


def _largest_rises(kind, coupling, points):
    """The largest rise of N between neighbours along p1, p2 and, under
    global product coupling, p, on a grid of ``points`` per p axis."""
    axis = np.linspace(0.0, 1.0, points)
    p_axis = axis if coupling == channels.GLOBAL else np.array([0.0])
    params = np.stack(np.meshgrid(axis, axis, p_axis, indexing="ij"), -1).reshape(-1, 3)
    spec = channels.ChannelSpec(kind, coupling, global_mode=channels.PRODUCT,
                                variant=channels.CORRECTED,
                                level_order=channels.REVERSED)
    _, _, neg = sweep.evaluate(spec, tuple(params.T), _MONOTONE_R)
    neg = neg.reshape(points, points, len(p_axis), len(_MONOTONE_R))
    return [np.diff(neg, axis=a).max() for a in range(2 if len(p_axis) == 1 else 3)]


_MONOTONE_GRIDS = pytest.mark.parametrize("coupling, points", [
    (channels.MULTILOCAL, 21), (channels.GLOBAL, 11)])


@_MONOTONE_GRIDS
@pytest.mark.parametrize("kind", [channels.PHASE_FLIP, channels.DEPHASING,
                                  channels.BIT_TRIT_FLIP])
def test_negativity_never_rises_along_any_p(kind, coupling, points):
    assert max(_largest_rises(kind, coupling, points)) <= NEGATIVITY_TOL


@_MONOTONE_GRIDS
def test_bit_trit_phase_flip_keeps_no_monotone_law(coupling, points):
    assert max(_largest_rises(channels.BIT_TRIT_PHASE_FLIP, coupling, points)) \
        > NEGATIVITY_TOL


# Figure 3 at 21 steps and the dephasing global correlated verify report (its
# non-TP rows included), under one OpenBLAS core: the laws are checked there,
# and every printed value is saved to the .npz file named by argv[1].
_LAWS_UNDER_CORE = """
import sys
from dataclasses import replace

import numpy as np
import pytest

import test_laws
from unruhsim import analytic, channels, sweep

printed = {}
with pytest.MonkeyPatch.context() as monkeypatch:
    seen = test_laws._record_grids(monkeypatch)
    for figure_sweep in sweep.figure_sweeps("3"):
        res = sweep.run_sweep(replace(figure_sweep, steps=21))
        for name in ("negativity", "min_pt_eigenvalue"):
            printed[f"fig3 {res.channel.kind} {name}"] = getattr(res, name)
    report = analytic.verify_against_numeric(channels.DEPHASING, channels.GLOBAL,
                                             channels.CORRELATED)
test_laws._check_laws(seen)
printed["verify max_abs_deviation"] = report.max_abs_deviation
printed["verify worst_point"] = report.worst_point
np.savez(sys.argv[1], **printed)
"""


def test_laws_hold_under_each_openblas_core(tmp_path):
    # The children run side by side, each under its own BLAS kernel.
    children = {core: openblas_cores.start(core, _LAWS_UNDER_CORE,
                                           str(tmp_path / f"{core}.npz"))
                for core, flag in openblas_cores.CORES
                if openblas_cores.unavailable(flag) is None}
    if not children:
        pytest.skip(openblas_cores.unavailable(None))
    errors = {core: child.communicate(timeout=60)[1]
              for core, child in children.items()}
    printed = []
    for core, child in children.items():
        if child.returncode == 0:
            with np.load(tmp_path / f"{core}.npz") as saved:
                printed.append(dict(saved))
    # The largest difference between cores of every printed value; no bytes
    # are pinned, as each core rounds its own way.
    spread = []
    for name in (printed[0] if printed else []):
        values = np.stack([p[name] for p in printed])
        spread.append(f"{name}: {(values.max(axis=0) - values.min(axis=0)).max()}")
    spread = "\n".join(spread)
    for core, child in children.items():
        assert child.returncode == 0, f"under {core}:\n{errors[core]}\n{spread}"
