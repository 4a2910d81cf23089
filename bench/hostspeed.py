"""Reference work that measures the host's current speed.

    python3 bench/hostspeed.py

Reads one line per request on stdin and answers each with the seconds one
fixed piece of numeric work took: a sparse LU solve of a 2-D Laplacian and
elementwise numpy arithmetic on arrays larger than the L2 cache, the kinds
of work the package's solvers and quadrature do.  It never imports the
package, so its time depends on the host alone.
"""

import sys
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla


def main() -> None:
    n = 110
    line = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    laplacian = (sp.kron(line, sp.eye(n)) + sp.kron(sp.eye(n), line)).tocsc()
    rhs = np.ones(laplacian.shape[0])
    x = np.linspace(0.0, 1.0, 400_000)
    for _ in sys.stdin:
        start = time.perf_counter()
        spla.splu(laplacian).solve(rhs)
        for _ in range(10):
            np.sqrt(x) * np.sin(x) + x**1.5
        print(time.perf_counter() - start, flush=True)


if __name__ == "__main__":
    main()
