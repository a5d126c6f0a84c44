"""Desk-scale downlink cell-free massive MIMO simulator.

Topology and mobility generation, a three-slope/map-based channel model with
intra-block aging, a family of user-centric AP selection algorithms, Monte-
Carlo link evaluation with partial MMSE precoding, and a config-driven
experiment harness.

Import what you use from the submodules (``cfmimo.topology``, ``mobility``,
``channel``, ``selection``, ``evaluation``, ``harness``, ``cli``); importing
the package itself loads none of them, so a command starts only what it runs.
"""

from contextlib import contextmanager

__version__ = "0.1.0"


class InputError(ValueError):
    """A bad configuration or input file; the CLI exits 2 on it."""


@contextmanager
def open_text(path, error):
    """Open an input file as UTF-8 text whose lines end only at ``\\n``,
    ``\\r\\n`` or ``\\r`` (each read as ``\\n``). A byte that is not UTF-8,
    met anywhere in the ``with`` block, raises ``error`` naming the file."""
    with open(path, encoding="utf-8") as f:
        try:
            yield f
        except UnicodeDecodeError:
            raise error(f"{path}: not UTF-8 text") from None
