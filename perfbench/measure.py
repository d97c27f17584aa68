"""Sample statistics and the bit-exact output encoding.

Both are pure functions with no dependency on ``repro``, so the
benchmark's self-tests exercise them without running a simulation.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from fractions import Fraction

#: Tail percentiles reported when enough samples lie beyond them.
TAILS = (90.0, 99.0, 99.9)
#: The least number of samples that must lie beyond a reported tail.
MIN_BEYOND = 10


def summarize(samples) -> dict:
    """Sample count, median, and each tail backed by >= 10 samples.

    The median is always reported (it is the centre, not a tail).  A
    tail percentile ``p`` (nearest rank) is reported only when at least
    :data:`MIN_BEYOND` samples rank above it; with fewer, the "p99" of
    a small sample would just be its maximum.
    """
    values = sorted(samples)
    n = len(values)
    if n == 0:
        raise ValueError("no samples")
    out = {"n": n, "p50": statistics.median(values)}
    for p in TAILS:
        rank = _nearest_rank(n, p)
        if n - rank >= MIN_BEYOND:
            out[f"p{p:g}"] = values[rank - 1]
    return out


def _nearest_rank(n: int, p: float) -> int:
    # Exact arithmetic: 0.9 * 100 is not 90 in binary floating point.
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def encode(value):
    """Canonical JSON-safe form of a point's outputs, floats as hex.

    ``float.hex`` is exact, so two encodings are equal iff every float
    is bit-identical (and every other value equal).  Mapping keys are
    sorted; tuples become lists.
    """
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, dict):
        return {str(k): encode(v) for k, v in sorted(value.items(),
                                                      key=lambda kv: str(kv[0]))}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    raise TypeError(f"cannot encode output value {value!r} "
                    f"({type(value).__name__})")


def point_id(point: dict) -> str:
    """Stable identity of one DES point (kind plus digest of params)."""
    text = json.dumps(point["params"], sort_keys=True, separators=(",", ":"))
    return f"{point['kind']}:{hashlib.sha256(text.encode()).hexdigest()[:12]}"

