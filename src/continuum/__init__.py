"""Executable set theory around the size of the unit interval.

Four layers, each fully computable:

* :mod:`continuum.finite_sets` -- finite sets, covering-sets, cardinal
  arithmetic by enumeration, exponent-law witnesses.
* :mod:`continuum.dyadic` -- exact rationals on [0, 1] and the
  indexing of the doubly-represented dyadic points.
* :mod:`continuum.binary_streams` -- eventually periodic binary streams
  with exact valuation, canonical forms and dual-representation pairing.
* :mod:`continuum.bijection` -- the explicit Hilbert-hotel bijection
  between canonical streams and all streams, plus a machine-checked
  derivation trace.

:mod:`continuum.cli` exposes everything as batch subcommands. Each name is
imported from its module; the package itself re-exports nothing.
"""

__version__ = "0.1.0"
