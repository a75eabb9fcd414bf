"""Spec lists in the form ``channels.evolve`` and ``sweep.evaluate`` take."""

from dataclasses import replace

import numpy as np


def spec_rows(specs):
    """(template, params) of a nonempty list of specs that differ only in
    p1, p2 and p: the first spec, and the (n, 3) array of each spec's
    (p1, p2, p) in list order."""
    template = specs[0]
    assert all(s == replace(template, p1=s.p1, p2=s.p2, p=s.p) for s in specs)
    return template, np.array([(s.p1, s.p2, s.p) for s in specs], float)


def spec_axes(specs):
    """(template, axes) of the same specs for ``sweep.evaluate``: the (p1, p2,
    p) columns of ``spec_rows``' params, whose broadcast is those rows."""
    template, params = spec_rows(specs)
    return template, tuple(params.T)
