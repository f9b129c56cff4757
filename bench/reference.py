"""Host-speed reference: a fixed kernel that runs no tsvar code.

The shared machines the benchmark runs on change speed by up to 2x within
seconds and drift over minutes; CPU time tracks wall time, so the process is
not descheduled, it runs slower.  Timing this kernel between solves measures
the speed of the moment, and dividing a solve time by the kernel times around
it cancels the drift.  The kernel mixes what tsvar's hot paths do: recursive
evaluation of a small expression tree in pure Python, and small numpy calls.
"""

from __future__ import annotations

import time

import numpy as np

# Kernel seconds on the uncontended 2-vCPU Intel Xeon (KVM) guest the
# benchmark was defined on; scaled times are seconds at that speed.
NOMINAL_S = 0.04


class _Node:
    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        self.op, self.left, self.right = op, left, right


def _tree(depth: int):
    if depth == 0:
        return None
    return _Node("+*-"[depth % 3], _tree(depth - 1), _tree(depth - 1))


def _evaluate(node, x: float) -> float:
    if node is None:
        return x
    a = _evaluate(node.left, x)
    b = _evaluate(node.right, 0.5 * x)
    if node.op == "+":
        return a + b
    if node.op == "*":
        return 1e-3 * a * b
    return a - b


_TREE = _tree(9)
_VEC = np.arange(5.0)


def kernel_seconds() -> float:
    """Wall time of one run of the kernel (about NOMINAL_S on a quiet host)."""
    start = time.perf_counter()
    for i in range(600):
        _evaluate(_TREE, 0.1 * i)
        np.convolve(_VEC, _VEC)
        np.linalg.norm(_VEC)
    return time.perf_counter() - start
