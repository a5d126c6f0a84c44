"""Desk-scale downlink cell-free massive MIMO simulator.

Topology and mobility generation, a three-slope/map-based channel model with
intra-block aging, a family of user-centric AP selection algorithms, Monte-
Carlo link evaluation with partial MMSE precoding, and a config-driven
experiment harness.

Import what you use from the submodules (``cfmimo.topology``, ``mobility``,
``channel``, ``selection``, ``evaluation``, ``harness``, ``cli``); importing
the package itself loads none of them, so a command starts only what it runs.
"""

__version__ = "0.1.0"


class InputError(ValueError):
    """A bad configuration or input file; the CLI exits 2 on it."""
