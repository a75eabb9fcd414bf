"""``state.hermitian_eigenvalues`` under the name that perfbench/spans.py
``TARGETS`` traces and the tests reach; it stays until ROADMAP items 1-2
repoint them."""

from .state import hermitian_eigenvalues
