"""Decoherence of a qubit-qutrit state shared with an accelerated observer.

Numeric pipeline: build the state, evolve it through Kraus channels under
multilocal or global coupling, take the partial transpose over the qubit,
and read entanglement off the negativity.  Closed-form eigenvalue
expressions are kept as hypotheses and verified against the pipeline.
"""

from .channels import ChannelSpec, evolve
from .entanglement import negativity
from . import linalg  # loaded with the package, as perfbench's tracer wraps it
from .state import unruh_state

__version__ = "0.1.0"
