"""2D quasistatic SGBEM solver for visco-elastic two-body frictional contact.

Normal compliance plus Coulomb friction, semi-implicit time stepping, and a
bound-constrained QP per step solved by a primal active-set method.
"""

__version__ = "0.1.0"
