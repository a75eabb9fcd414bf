"""``python -m unruhsim``: the same command line as the ``unruhsim`` script."""

from .cli import run

run()
