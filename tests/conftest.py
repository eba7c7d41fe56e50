"""Shared test set-up.

`qclocksim` is imported here, before any test module imports numpy, so that
its one-BLAS-thread setting is in place when numpy loads.  The tests then
compute on the same path as the command line, and values compared with
frozen fixtures do not depend on the machine's core count.
"""

import qclocksim  # noqa: F401
