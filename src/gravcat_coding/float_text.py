"""Shortest round-trip decimal text of float arrays, for the CSV and JSON writers.

Grid cells are rendered by an array kernel that writes the bytes of `repr`:
the shortest decimal that reads back as the same double, and the nearest
one of those (Steele & White, PLDI 1990; Gay's dtoa mode 0, which CPython
uses).  For v = m 2^x with m < 2^53 and the decade guess e = floor(log10 v),
p = 14 - e scales v to 15 integer digits: v 10^p = m 5^p / 2^s with
s = -(x + p), split exactly into q = floor(m 5^p / 2^s) and r = m 5^p mod
2^s.  Each further factor 10 gives the 16- and 17-digit scalings.  The
nearest k-digit integer reads back as v iff it lies within half an ulp of v:
twice its distance, in units of 2^-s, is below 5^p 10^j at the j-th
scaling.  The test is exact and never ties, since 2r carries one more
factor 2 than 5^p 10^j.  The first k of 15, 16, 17 that passes gives repr's
digits: at 15 digits the round-trip interval holds at most one decimal, and
the interval is symmetric, so if any k-digit decimal lies inside, the
nearest one does.  (At a power of two it is not symmetric, but every power
of two in range has at most 13 digits and is hit exactly at k = 15.)
The text "0.000ddd" or "d.ddd" is laid out for 1e-4 <= v < 10, which holds
every positional value a capacity can take.  Every other cell goes through
`repr`: zero, negative and non-finite values, values outside [1e-4, 10), a
rounding tie (r exactly 2^(s-1)), the integers 1-9, and a wrong decade
guess, which shows as a candidate with other than k digits.
"""

from __future__ import annotations

import functools

import numpy as np

CHUNK_CELLS = 8192  # cells per rendered block: the fastest of 2k-16k, temporaries about 2 MB
_POW5 = np.array([5**i for i in range(20)], dtype=np.uint64)  # 5^p; p = 14 - e lies in [13, 19]
_LOW32 = 0xFFFFFFFF


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """Byte tables of the cell layout, built on first use.

    ``prefixes[10 (e + 4) + d]`` is the first 8 bytes of a cell whose value
    has decade e in [-4, 0] and leading digit d: the separator "," then "0."
    and -e - 1 zeros then d for e < 0, or d then "." for e = 0.
    ``groups[g]`` is the 4-digit group g with its trailing zeros as NUL bytes
    (so 0 is all NUL), and ``groups[g + 10000]`` the group with every digit.
    """
    prefixes = b"".join(
        ("," + (f"{d}." if e == 0 else "0." + "0" * (-e - 1) + str(d))).encode().ljust(8, b"\0")
        for e in range(-4, 1)
        for d in range(10)
    )
    group = np.arange(10000, dtype=np.uint16)
    digits = np.stack([group // 1000, group // 100 % 10, group // 10 % 10, group % 10], axis=-1)
    digits = digits.astype(np.uint8)
    # a digit is kept if it or a later digit of its group is nonzero
    kept = np.maximum.accumulate(digits[:, ::-1], axis=-1)[:, ::-1] > 0
    chars = digits + np.uint8(ord("0"))
    groups = np.concatenate([np.where(kept, chars, np.uint8(0)), chars]).view(np.uint32).ravel()
    return np.frombuffer(prefixes, dtype=np.uint64), groups


def _divmod(x: np.ndarray, d: int) -> tuple[np.ndarray, np.ndarray]:
    """(x // d, x % d) for integer x >= 0; numpy's % by a scalar is several times slower."""
    quotient = x // d
    return quotient, x - quotient * d


def repr_slots(values: np.ndarray) -> np.ndarray:
    """``"," + repr(v)`` for each value of a 1-D float64 array, one row each.

    Returns a (n, words) uint64 array; row i, read as bytes with the NUL
    bytes deleted, is the text of value i.  Rows are 24 bytes, or 32 when a
    repr needs more than 23 bytes.
    """
    exact = (values >= 1e-4) & (values < 10.0)
    v = np.where(exact, values, 1.5)  # a stand-in keeps the other cells' arithmetic defined
    fraction, exponent = np.frexp(v)
    m = (fraction * 2.0**53).astype(np.uint64)  # v = m 2^(exponent - 53), exactly
    e = np.floor(np.log10(v)).astype(np.int64)  # decade guess, in [-5, 1]
    p = 14 - e
    s = (53 - p - exponent).astype(np.uint64)  # v 10^p = m 5^p / 2^s; s lies in [34, 49]
    five = _POW5[p]
    # N = m 5^p < 2^98 as hi 2^64 + lo, from 32-bit limbs
    m_hi, m_lo, five_hi, five_lo = m >> 32, m & _LOW32, five >> 32, five & _LOW32
    low = m_lo * five_lo
    mid = m_hi * five_lo + m_lo * five_hi + (low >> 32)
    hi = m_hi * five_hi + (mid >> 32)
    lo = (mid << 32) | (low & _LOW32)  # uint64 arithmetic on arrays wraps, as intended here
    one = np.uint64(1) << s
    q = (hi << (64 - s)) | (lo >> s)  # floor(N / 2^s) < 10^16
    r = lo & (one - 1)  # N mod 2^s
    half, two = one >> 1, one << 1
    # the nearest k-digit integer to v 10^(p + k - 15), k = 15, 16, 17, and
    # whether it reads back as v
    limit = five
    nearest, inside = [], []
    tie = np.zeros(v.shape, dtype=bool)
    for k in (15, 16, 17):
        if k > 15:
            r = r * 10
            q = q * 10 + (r >> s)
            r &= one - 1
            limit = limit * 10
        twice = r << 1  # twice the distance from q; q + 1 is two - twice away
        inside.append((twice < limit) | (two - twice < limit))
        tie |= r == half
        nearest.append(q + (r > half))
    digits = np.where(inside[0], nearest[0] * 100, np.where(inside[1], nearest[1] * 10, nearest[2]))
    lead, tail = _divmod(digits.view(np.int64), 10**16)
    fallback = (
        ~exact
        | ~inside[2]  # no candidate passes (a passing 15- or 16-digit one implies a 17-digit one)
        | tie
        | (lead < 1) | (lead > 9)  # not 17 digits: a wrong decade guess
        | (e == 0) & (tail == 0)  # the integers 1-9 need ".0" after the point
    )

    texts = ["," + repr(x) for x in values[fallback].tolist()]
    words = 3 if max(map(len, texts), default=0) <= 24 else 4
    slots = np.zeros((values.size, words), dtype=np.uint64)
    prefixes, groups = _digit_tables()
    slots[:, 0] = prefixes.take(10 * (e + 4) + lead, mode="clip")
    upper, lower = _divmod(tail, 10**8)
    (g1, g2), (g3, g4) = _divmod(upper, 10**4), _divmod(lower, 10**4)
    quads = slots.view(np.uint32)  # columns 2-5 hold digits 2-17 in 4-digit groups
    later = np.zeros(v.shape, dtype=bool)  # a nonzero group follows
    for column, group in ((5, g4), (4, g3), (3, g2), (2, g1)):
        quads[:, column] = groups[group + 10000 * later]
        later |= group != 0
    if texts:
        slots[fallback] = np.array(texts, dtype=f"S{8 * words}").view(np.uint64).reshape(-1, words)
    return slots


def text_rows(values: np.ndarray, heads: list[str]):
    """Yield ``head + "," + ",".join(map(repr, row)) + "\n"`` for each row of a
    2-D float64 array and its head, as one string per block of rows."""
    rows, cols = values.shape
    head_words = max(map(len, heads)) // 8 + 1
    newline = np.frombuffer(b"\n".ljust(8, b"\0"), dtype=np.uint64)
    step = max(1, CHUNK_CELLS // cols)
    for start in range(0, rows, step):
        block = values[start:start + step]
        slots = repr_slots(block.ravel())
        count, words = block.shape[0], slots.shape[1]
        out = np.empty((count, head_words + cols * words + 1), dtype=np.uint64)
        head_bytes = np.array(heads[start:start + count], dtype=f"S{8 * head_words}")
        out[:, :head_words] = head_bytes.view(np.uint64).reshape(count, head_words)
        out[:, head_words:-1] = slots.reshape(count, cols * words)
        out[:, -1] = newline
        yield out.tobytes().translate(None, b"\0").decode("ascii")
