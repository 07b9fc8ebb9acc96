"""A fixed piece of work that tells how fast the machine runs right now.

The benchmark shares a few cores of a host with other tenants, and how
fast those cores run Python code flips between levels a third or more
apart, for seconds at a time and for minutes on end. ``chunk`` does the
same mix of work as carcino's scoring chain (decode a float raster from
bytes, threshold and count it, label the row runs of a mask with a
union-find in Python, round-trip a JSON report) on inputs built once
from a fixed seed; none of it calls carcino, so a change to carcino
never changes it.

The benchmark runs chunks between the operations it times, and scales
each operation's wall time by ``(NOMINAL_S / c) ** ELASTICITY``, where
``c`` is the median time of the ``NEIGHBOURS`` chunks run last before
the operation and the ``NEIGHBOURS`` run first after it. ``NOMINAL_S``
is about the chunk's median on a 2-vCPU Intel Xeon at 2.1 GHz (Python
3.11, numpy 2.4) when the host is quiet. ``ELASTICITY`` is below 1
because carcino's operations slow down less than the chunk does: in 20
runs of the seed code (wide-256 and dense-96, five seeds each, twice),
regressing each operation's log time on the log of its nearby chunk
times gave slopes of 0.13 to 0.53. Of the exponents tried (0, 0.35, 0.5,
0.65 and 1), 0.5 and 0.65 left the smallest run-to-run spreads, about
half those of the raw times.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_S = 0.0075
ELASTICITY = 0.5
NEIGHBOURS = 4

_rng = np.random.default_rng(20251217)
_RASTER = np.round(_rng.random((3, 256, 256)), 3).astype(np.float32).tobytes()
# blobs of a few pixels, like the nodules of a dense frame
_MASK = (_rng.random((96, 96)) > 0.8) | (_rng.random((96, 96)) > 0.8)[::-1]
_REPORT = {
    f"v{i:04d}": {
        "fs": int(i % 7),
        "its": "surgery" if i % 3 else "no-surgery",
        "stations": [bool((i >> k) & 1) for k in range(6)],
        "dice": [round(float(x), 6) for x in _rng.random(9)],
    }
    for i in range(120)
}


def _label_runs(mask: np.ndarray) -> int:
    """Number of 8-connected components of a mask, by row runs and union-find."""
    parent: list[int] = []

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    prev: list[tuple[int, int, int]] = []
    width = mask.shape[1]
    for row in mask:
        padded = np.zeros(width + 2, dtype=bool)
        padded[1:-1] = row
        edges = np.flatnonzero(padded[1:] != padded[:-1])
        cur = []
        for s, e in zip(edges[0::2].tolist(), edges[1::2].tolist()):
            parent.append(len(parent))
            cur.append((len(parent) - 1, s, e))
            for idx, ps, pe in prev:
                if ps <= e and s <= pe:
                    a, b = find(idx), find(len(parent) - 1)
                    if a != b:
                        parent[max(a, b)] = min(a, b)
        prev = cur
    return sum(1 for i in range(len(parent)) if find(i) == i)


def chunk() -> int:
    """One piece of the fixed work; returns a checksum so none of it is skipped."""
    planes = np.frombuffer(_RASTER, dtype=np.float32).reshape(3, 256, 256).copy()
    if not np.isfinite(planes).all():
        raise ValueError("yardstick raster is not finite")
    counts = (planes >= 0.5).sum(axis=(1, 2))
    blob = json.dumps(_REPORT, sort_keys=True, separators=(",", ":"))
    components = _label_runs(_MASK) + _label_runs(_MASK.T)
    return int(counts.sum()) + components + len(json.loads(blob))


def timed_chunk() -> float:
    start = time.perf_counter()
    chunk()
    return time.perf_counter() - start


def normalise(seconds: float, chunks: list[float], at: int) -> float:
    """Scale an operation's wall time to the nominal machine speed.

    ``chunks`` holds the wall times of every chunk of the run in order,
    and the operation ran between ``chunks[at - 1]`` and ``chunks[at]``.
    """
    near = chunks[max(0, at - NEIGHBOURS) : at + NEIGHBOURS]
    return seconds * (NOMINAL_S / statistics.median(near)) ** ELASTICITY
