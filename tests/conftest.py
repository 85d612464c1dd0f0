"""Pin the BLAS thread pools to one thread before anything imports numpy.

The solver's iterates on the qubit-qutrit programs depend on the BLAS
thread count (one rank-1 state takes 29 iterations with one thread and
92 with two), so the suite pins it to get the same iterates on every
machine; it also runs faster on the solver's small matrices.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
