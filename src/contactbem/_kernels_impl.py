"""Run metadata of the quadrature: the kernels in kernels.py are numpy only.

perfbench/probe.py imports this module and reports USE_NUMBA in every CLI
run (modes 0 and 1), so the name stays until the probe stops reading it.
"""

USE_NUMBA = False
