"""Exact first- and second-order generalized derivatives, regularity
moduli, and tilt-stability verdicts for quadratic-plus-polyhedral
functions on R^n.

The exact class keeps every object polyhedral: subdifferentials are
gradient-plus-normal-cone unions, subgradient graphs are finite unions of
polyhedra, and generalized Hessians are limiting normal cones to those
graphs, all in rational arithmetic.  Estimators for metric (sub)regularity
and quadratic growth run on deterministic float grids with refinement
convergence flags, and a verifier ties the two sides together on a fixture
corpus.
"""

from . import cli  # imports every other submodule, binding each as tiltkit.<module>

__version__ = "0.1.0"
