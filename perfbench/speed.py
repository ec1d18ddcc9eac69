"""Gauge of the machine's speed, for converting measured seconds to nominal ones.

The shared 2-core machine this benchmark was tuned on (a 2.0 GHz Xeon) runs
the same code up to twice as slowly for spells of a second or two and for
eras of seconds to minutes, while other tenants load it: over 8-second
windows the median time of one library call had a quartile spread of
30-49 %.  A fixed kernel of the same kind of work as the library's slows
down with it: divided by the kernel's time, the spread fell to 9-14 %.  Timing the kernel next to
each measurement and scaling by NOMINAL_S / kernel time gives "nominal
seconds": what the measurement would read were the kernel to take NOMINAL_S,
about its median on that machine.  Raw seconds are reported beside them.
"""

import statistics
import time

import numpy as np

NOMINAL_S = 4.0e-3
_SMALL = np.eye(96) + 0.01
_LARGE = np.eye(200) + 0.01
_ADJACENCY = {v: [(7 * v + j) % 200 for j in (1, 2, 3)] for v in range(200)}


def _rotate(a, rotations):
    n = a.shape[0]
    for r in range(rotations):
        p, q = r % n, (7 * r + 1) % n
        col_p, col_q = a[:, p].copy(), a[:, q].copy()
        a[:, p] = 0.8 * col_p - 0.6 * col_q
        a[:, q] = 0.6 * col_p + 0.8 * col_q
        row_p, row_q = a[p, :].copy(), a[q, :].copy()
        a[p, :] = 0.8 * row_p - 0.6 * row_q
        a[q, :] = 0.6 * row_p + 0.8 * row_q


def _search(repeats):
    for _ in range(repeats):
        for source in range(0, 200, 25):
            seen, queue = {source}, [source]
            for x in queue:
                for y in _ADJACENCY[x]:
                    if y not in seen:
                        seen.add(y)
                        queue.append(y)


def kernel_s():
    """Seconds the speed kernel takes now.  Its parts, in time about 1:1:2 on
    a quiet machine, are Jacobi-style plane rotations on a 96 x 96 and on a
    200 x 200 array (the second strides through memory like eig_sym at the
    benchmark's largest sizes) and breadth-first searches over a 200-vertex
    graph.  That blend tracked eig_sym, perron_of_inverse and a whole
    `verify` call best among the blends tried."""
    small, large = _SMALL.copy(), _LARGE.copy()
    start = time.perf_counter()
    _rotate(small, 70)
    _rotate(large, 50)
    _search(5)
    return time.perf_counter() - start


def median_kernel_s():
    return statistics.median(kernel_s() for _ in range(5))


def nominal(seconds, kernel):
    """`seconds` measured while the kernel took `kernel` seconds, in nominal seconds."""
    return seconds * NOMINAL_S / kernel
