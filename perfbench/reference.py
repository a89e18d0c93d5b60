"""Machine-speed reference for the benchmark's timed figures.

On a shared host the speed of a CPU drifts by 15-25% over tens of seconds,
and CPU time drifts with wall time, so raw item times from two runs a minute
apart are not comparable.  The benchmark runs a fixed reference kernel
between items and reports each item's time scaled by
nominal / (kernel time around it): the item's time at the machine speed
where the kernel takes its nominal time.

The kernel is built from components that load the machine the way the
layers of charpforms do.  Each workload names the mix that matches its
profile (see Workload.reference_mix), because a component tracks the drift
only of work like its own: on the same 2-minute traces, dense numpy updates
left 11% spread on orbit_equiv and sparse dict products left 8% on
contact_split, while the matching mixes left 1-3%.  The components share no
code with the package, so a change to charpforms cannot move them.
"""
from __future__ import annotations

import time

import numpy as np

P = 13


def _small_elimination() -> None:
    """Modular elimination on 16x16 Python lists (the small-rref path)."""
    n = 16
    for seed in range(1, 13):
        rows = [[(i * 7 + j * 5 + i * j * seed) % P for j in range(n)]
                for i in range(n)]
        r = 0
        for c in range(n):
            piv = next((i for i in range(r, n) if rows[i][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = pow(rows[r][c], P - 2, P)
            rows[r] = [(x * inv) % P for x in rows[r]]
            for i in range(n):
                f = rows[i][c]
                if f and i != r:
                    rows[i] = [(x - f * y) % P for x, y in zip(rows[i], rows[r])]
            r += 1


def _tiny_arrays() -> None:
    """Many numpy calls on 4x4 arrays (call overhead, not bandwidth)."""
    a = np.arange(16, dtype=np.int64).reshape(4, 4)
    for _ in range(400):
        b = np.asarray(a, dtype=np.int64) % P
        np.concatenate([b, b], axis=0).tolist()


def _sparse_product() -> None:
    """Products of sparse dicts keyed by exponent tuples (the algebra)."""
    a = {(i, j, k): (i + 2 * j + k) % P + 1
         for i in range(6) for j in range(6) for k in range(3)}
    out: dict = {}
    for m1, c1 in a.items():
        for m2, c2 in a.items():
            key = (m1[0] + m2[0], m1[1] + m2[1], m1[2] + m2[2])
            out[key] = (out.get(key, 0) + c1 * c2) % P


def _dense_updates() -> None:
    """Rank-one int64 updates of a 200x200 matrix (the large-rref path)."""
    A = (np.arange(200 * 200, dtype=np.int64).reshape(200, 200) * 7919) % P
    for r in range(40):
        A -= np.outer(A[:, r], A[r])
        A %= P


# name -> (component, nominal seconds: its median on a 2-core Xeon, 2026)
COMPONENTS = {
    "small": (_small_elimination, 0.0015),
    "tiny": (_tiny_arrays, 0.0015),
    "sparse": (_sparse_product, 0.0035),
    "dense": (_dense_updates, 0.009),
}


class Reference:
    """A kernel made of COMPONENTS, each run the given number of times,
    sampled every `every_s` seconds of timed work."""

    every_s = 0.5

    def __init__(self, mix: dict):
        self.parts = [(COMPONENTS[name][0], reps) for name, reps in mix.items()]
        self.nominal_s = sum(COMPONENTS[name][1] * reps
                             for name, reps in mix.items())

    def sample(self) -> float:
        """Wall time of one run of the kernel."""
        t0 = time.perf_counter()
        for fn, reps in self.parts:
            for _ in range(reps):
                fn()
        return time.perf_counter() - t0
