"""Combinatorial Schubert calculus on partial flag varieties via
Gelfand-Cetlin polytopes: structure constants, toric-degeneration face
arithmetic and transversality certificates."""

__version__ = "0.1.0"

from .weyl import ParabolicShape, Permutation  # noqa: E402,F401
from .ladder import LadderDiagram  # noqa: E402,F401
from .gc_polytope import Face, Polytope  # noqa: E402,F401
from .coeffs import structure_constant  # noqa: E402,F401
from .certify import Certificate, evaluate, search, sweep_conjecture  # noqa: E402,F401
