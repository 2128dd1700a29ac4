from pathlib import Path

import numpy as np
import pytest

import superkrylov
from superkrylov._cache import content_cache


@pytest.fixture
def recorded():
    """A cached copy function that records the arguments each miss gets."""
    seen = []

    @content_cache
    def copy(a, scale=1):
        seen.append((a, scale))
        return a * scale

    return copy, seen


class TestContentCache:
    def test_dtype_and_shape_are_part_of_the_key(self, recorded):
        copy, seen = recorded
        zeros = [np.zeros(6, dtype=np.int64), np.zeros(6),
                 np.zeros((2, 3)), np.zeros((3, 2))]
        assert len({a.tobytes() for a in zeros}) == 1
        for i, a in enumerate(zeros, start=1):
            got = copy(a)
            assert copy.cache_info().misses == i
            assert (got.dtype, got.shape) == (a.dtype, a.shape)
        # the function saw read-only arrays rebuilt from the key, not the
        # caller's own
        for (a, _), original in zip(seen, zeros):
            assert a is not original and not a.flags.writeable
            assert (a.dtype, a.shape) == (original.dtype, original.shape)

    def test_hit_returns_the_miss_object(self, recorded):
        copy, seen = recorded
        a = np.arange(5.0)
        miss = copy(a)
        a[0] = 7.0  # the key holds the bytes, not the caller's array
        assert copy(np.arange(5.0)) is miss
        assert copy.cache_info().hits == 1 and len(seen) == 1
        assert copy(a) is not miss

    def test_result_is_read_only(self, recorded):
        copy, _ = recorded
        got = copy(np.arange(3.0))
        with pytest.raises(ValueError):
            got[0] = 1.0

    def test_scalar_arguments_pass_through(self, recorded):
        copy, seen = recorded
        assert copy(np.ones(2), 3).tolist() == [3.0, 3.0]
        assert seen[-1][1] == 3
        copy(np.ones(2), 4)
        assert copy.cache_info().misses == 2
        copy(np.ones(2), 3)
        assert copy.cache_info().hits == 1

    def test_bound_and_clear(self, recorded):
        copy, _ = recorded
        copy(np.ones(1))
        assert copy.cache_info().maxsize == 256
        copy.cache_clear()
        assert copy.cache_info().currsize == 0


def test_no_other_lru_cache_in_the_package():
    # every memoized array goes through content_cache, so one module holds
    # the key, the read-only rule and the bound
    package = Path(superkrylov.__file__).parent
    users = sorted(p.name for p in package.glob("*.py")
                   if "lru_cache" in p.read_text())
    assert users == ["_cache.py"]
