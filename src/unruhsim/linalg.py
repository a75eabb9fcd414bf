"""``state.hermitian_eigenvalues`` re-exported: only perfbench/spans.py ``TARGETS``
reaches this name, until ROADMAP items 1-2 fold it."""

from .state import hermitian_eigenvalues
