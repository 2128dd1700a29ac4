"""One bounded cache for the arrays a sweep recomputes.

In the projected pair the entry (j, k) depends only on the gap k - j, so
every gap, noise level and trial of a sweep reads the same forcing-norm
panel tables (``measurement``) and kernel overlaps (``minimax``): a
``convergence`` sweep ceil(log2(m_max - 1)) + 1 tables and three overlap
arrays (the grid's forcing Gram and the representers of components 0 and
1 at t*), ``deriv-scaling`` one table and two overlap arrays per D.
``content_cache`` memoizes them by content:

* an array argument is keyed by its dtype, shape and bytes, so an int64
  and a float64 array with the same bytes, or shapes (6,), (2, 3) and
  (3, 2), are different keys; any other argument is keyed by value, as
  ``functools.lru_cache`` keys it (1 and 1.0 are one key, so callers
  check that an order or a component is an integer first);
* the function receives read-only arrays rebuilt from the key, never the
  caller's, and the array it returns is made read-only, because a hit
  hands the miss's object to every later caller;
* each function holds at most 256 entries.  At the dense cap (N = 4096)
  the eigenvalues and weights in a panel-table key take 64 KB, so those
  keys take at most 16 MB.

Every input check belongs to the caller and runs before the lookup, so a
hit cannot skip it.
"""

from __future__ import annotations

import functools

import numpy as np

# heads the key of an array argument, so that no other argument equals it
_ARRAY = object()


def _rebuild(key):
    if type(key) is tuple and key and key[0] is _ARRAY:
        _, dtype, shape, data = key
        return np.frombuffer(data, dtype=dtype).reshape(shape)
    return key


def content_cache(fn):
    """Memoize fn, which returns an array, by the content of its
    positional arguments (see the module docstring)."""

    @functools.lru_cache(maxsize=256)
    def cached(*keys):
        result = fn(*map(_rebuild, keys))
        result.flags.writeable = False
        return result

    # a hit runs only this line, so the keys are built inline
    @functools.wraps(fn)
    def wrapper(*args):
        return cached(*[(_ARRAY, a.dtype, a.shape, a.tobytes())
                        if isinstance(a, np.ndarray) else a for a in args])

    wrapper.cache_info = cached.cache_info
    wrapper.cache_clear = cached.cache_clear
    return wrapper
