"""Exact (correctly rounded) float sums, the same bits as ``math.fsum``.

``math.fsum`` returns the exact sum of its inputs rounded once to the
nearest float (Shewchuk 1997), so any method that forms the exact sum
and rounds it once returns the same bits.  On a numpy array ``fsum``
first converts every element to a Python float, which costs tens of
milliseconds per million elements; :func:`exact_sum` instead picks the
cheapest exact method the array admits:

1. **constant** (``lo == hi``): ``float(n) * lo`` -- ``n`` is an exact
   float, so this is one correctly rounded product of the exact sum;
2. **two values**: the two value counts weight the two values' exact
   integer ratios, rounded once;
3. **otherwise**: every element is split into an integer mantissa and
   an exponent, the mantissa halves are summed per exponent with
   ``np.bincount`` (exactly, below 2**53), and the buckets are combined
   as Python ints and rounded once.

Tiers 2 and 3 round with one ``int / int`` true division, which CPython
rounds correctly, subnormal results included.

Inputs ``fsum`` treats specially -- non-finite values, magnitudes where
its partials could overflow, and zero totals (whose sign is ``fsum``'s
to decide) -- go to ``math.fsum`` itself, so results and errors there
are unchanged by construction.
"""

from __future__ import annotations

import math

import numpy as np

#: Mantissas from ``np.frexp`` lie in [0.5, 1); scaling by 2**53 makes
#: them exact 53-bit integers.
_MANTISSA_BITS = 53
#: Low-half width: a mantissa splits into a signed 27-bit high half and
#: an unsigned 26-bit low half.
_LOW_BITS = 26
_LOW_MASK = (1 << _LOW_BITS) - 1
#: ``np.frexp`` exponents start at -1073 (the smallest subnormal is
#: 0.5 * 2**-1073); shifting by this makes every exponent a bucket index.
_EXPONENT_BIAS = 1073
#: Elements per bincount pass: each bucket then sums at most 2**26
#: halves below 2**27 in magnitude, so every float64 partial sum is an
#: integer below 2**53 and exact.
_CHUNK = 1 << 26
#: ``fsum``'s running partials stay within a few times ``n * max|v|``;
#: totals bounded by this cannot overflow on its path, so the fast
#: methods cannot miss an ``OverflowError`` it would raise.
_SAFE_BOUND = 2.0**1020


def exact_sum(values: np.ndarray, lo: float, hi: float) -> float:
    """Return ``math.fsum(values)`` without a Python float per element.

    ``lo`` and ``hi`` must be ``values.min()`` and ``values.max()``;
    callers usually have them already, and they select the method (see
    the module docstring).
    """
    values = np.asarray(values, dtype=np.float64)
    count = values.size
    lo, hi = float(lo), float(hi)
    total = 0.0
    # ``not <=`` also routes NaN and infinite extremes to fsum.
    if count and max(abs(lo), abs(hi)) * count <= _SAFE_BOUND:
        if lo == hi:
            total = float(count) * lo
        else:
            lo_count = int(np.count_nonzero(values == lo))
            hi_count = count - lo_count
            if hi_count == int(np.count_nonzero(values == hi)):
                lo_num, lo_den = lo.as_integer_ratio()
                hi_num, hi_den = hi.as_integer_ratio()
                total = (lo_num * hi_den * lo_count + hi_num * lo_den * hi_count) / (
                    lo_den * hi_den
                )
            else:
                total = _bucketed_sum(values)
    if total == 0.0:
        return math.fsum(values)
    return total


def _bucketed_sum(values: np.ndarray) -> float:
    """Exact sum of finite float64 ``values``, rounded once."""
    scaled = 0  # the exact sum times 2**(_EXPONENT_BIAS + _MANTISSA_BITS)
    for start in range(0, values.size, _CHUNK):
        mantissas, exponents = np.frexp(values[start : start + _CHUNK])
        mantissas *= 2.0**_MANTISSA_BITS
        ints = mantissas.astype(np.int64)
        buckets = exponents + _EXPONENT_BIAS
        high = np.bincount(buckets, weights=ints >> _LOW_BITS)
        low = np.bincount(buckets, weights=ints & _LOW_MASK)
        for index in np.flatnonzero((high != 0) | (low != 0)).tolist():
            half_sum = (int(high[index]) << _LOW_BITS) + int(low[index])
            scaled += half_sum << index
    return scaled / (1 << (_EXPONENT_BIAS + _MANTISSA_BITS))
