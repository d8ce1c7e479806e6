"""Name of the linear-algebra implementation, for environment stamps.

``wreathq.linalg`` is the only implementation: sparse rows of exact
``Scalar`` entries, in pure Python.  This module survives only so that
benchmark result files keep recording the implementation they measured,
and results stay comparable with those recorded before it was the only
one.
"""

IMPLEMENTATION = "python"
