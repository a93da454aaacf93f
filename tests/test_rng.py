import warnings

import pytest

from gravcat_coding import SplitMix64

MASK64 = (1 << 64) - 1


def reference_floats(seed: int, n: int) -> list[float]:
    """The documented stream on Python integers, one output at a time."""
    state, out = seed & MASK64, []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & MASK64
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
        out.append(((z ^ (z >> 31)) >> 11) * 2.0**-53)
    return out


def test_reference_vector_seed_zero():
    # published reference output for this generator
    rng = SplitMix64(0)
    assert rng.next_uint64() == 0xE220A8397B1DCDAF
    assert rng.next_uint64() == 0x6E789E6AA1B965F4
    assert rng.next_uint64() == 0x06C45D188009454F


def test_reference_vector_seed_42():
    rng = SplitMix64(42)
    assert [rng.next_uint64() for _ in range(5)] == [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
        701532786141963250,
    ]


def test_streams_are_deterministic():
    a = SplitMix64(987654321)
    b = SplitMix64(987654321)
    assert [a.next_uint64() for _ in range(100)] == [b.next_uint64() for _ in range(100)]


def test_float_mapping_uses_top_53_bits():
    rng = SplitMix64(42)
    raw = SplitMix64(42)
    for _ in range(100):
        assert rng.next_float() == (raw.next_uint64() >> 11) * 2.0**-53


def test_floats_land_in_unit_interval():
    rng = SplitMix64(7)
    values = [rng.next_float() for _ in range(1000)]
    assert all(0.0 <= v < 1.0 for v in values)
    # the stream should not be degenerate
    assert max(values) > 0.9 and min(values) < 0.1


def test_seed_is_masked_to_64_bits():
    wide = SplitMix64((1 << 64) + 42)
    narrow = SplitMix64(42)
    assert wide.next_uint64() == narrow.next_uint64()


@pytest.mark.parametrize("seed", [0, 42, 1 << 63, MASK64])
def test_array_draw_equals_single_draws(seed):
    for n in (0, 1, 7, 4096, 4097):
        batched, single = SplitMix64(seed), SplitMix64(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # uint64 wraparound must stay silent
            values = batched.next_floats(n)
        assert values.tolist() == [single.next_float() for _ in range(n)], n  # bit for bit
        assert values.tolist() == reference_floats(seed, n), n
        assert batched.state == single.state, n
        assert batched.next_uint64() == single.next_uint64(), n
