"""Exact computations with modules over deformed wreath products of
preprojective algebras: reflection functors, cube complexes, and the
symplectic-reflection-algebra parameter dictionary.

The namespace re-exports nothing: each name is imported from the module
that defines it, so a caller loads only that module and its dependencies.
"""

__version__ = "0.1.0"
