"""Reference job: fixed work that uses none of the program's code.

The benchmark runs this script next to every job, through the same
launcher and environment, and divides each job's time by the reference
job's time around it.  The shared host's speed drifts by 20% to 40% over
minutes; the ratio does not.  The work mirrors a job's: interpreter
start-up and the numpy import, a small complex eigensolve, pure-Python
arithmetic and a few passes over an array larger than the caches.
"""

import numpy as np

rng = np.random.default_rng(0)
matrix = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
np.linalg.eigvals(matrix)

total = 0
for i in range(100_000):
    total += i * i

block = np.ones(1 << 22)
for _ in range(4):
    block = block + 1.0
