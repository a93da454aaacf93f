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

Footprint: rows are rendered in blocks of about CHUNK_CELLS cells.  Each
stage (the scaling v 10^p = q + r / 2^s, the candidate selection, the digit
emission, the block's text) is a helper whose arrays are freed when it
returns, and the three candidates share one digits array and one mask.  So
a block holds at most about 116 bytes per cell beside its input (0.95 MB at
8,192 cells, in the digit emission), and under tracemalloc a 200x200 render
peaks 6 bytes per chunk cell above twice its text (the blocks, then their
join).  A heap that small is reused by the next render, not trimmed and
faulted in again.  8,192 stays: in interleaved runs of the ten 200x200
figures, blocks of 4,096 and 16,384 cells rendered 13 % and 21 % slower.
"""

from __future__ import annotations

import functools

import numpy as np

CHUNK_CELLS = 8192  # cells per rendered block: the fastest of 4k-16k, temporaries at most 0.95 MB
_POW5 = np.array([5**i for i in range(20)], dtype=np.uint64)  # 5^p; p = 14 - e lies in [13, 19]
_LOW32 = 0xFFFFFFFF
_NEWLINE = np.frombuffer(b"\n".ljust(8, b"\0"), dtype=np.uint64)


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


def _scaled(v: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(q, r, s, e) with v 10^p = q + r / 2^s exactly and 0 <= r < 2^s, for the
    decade guess e = floor(log10 v) and p = 14 - e."""
    fraction, exponent = np.frexp(v)
    e = np.floor(np.log10(v)).astype(np.int64)  # in [-5, 1]
    s = (39 + e - exponent).astype(np.uint64)  # 53 - p - exponent, in [34, 49]
    # v = m 2^(exponent - 53) exactly, so v 10^p = N / 2^s with N = m 5^p < 2^98
    hi, lo = _wide_product((fraction * 2.0**53).astype(np.uint64), _POW5[14 - e])
    q = (hi << (64 - s)) | (lo >> s)  # floor(N / 2^s) < 10^16
    lo &= (np.uint64(1) << s) - 1  # r = N mod 2^s
    return q, lo, s, e


def _wide_product(m: np.ndarray, five: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(hi, lo) with m five = hi 2^64 + lo, for m < 2^53 and five < 2^45, from
    32-bit limbs; m and five are overwritten by their low limbs."""
    m_hi, five_hi = m >> 32, five >> 32
    m &= _LOW32
    five &= _LOW32
    low = m * five
    mid = m_hi * five
    mid += m * five_hi
    mid += low >> 32
    hi = m_hi * five_hi
    hi += mid >> 32
    mid <<= 32  # uint64 arithmetic on arrays wraps, as intended here
    low &= _LOW32
    mid |= low
    return hi, mid


def _selected(q: np.ndarray, r: np.ndarray, s: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, ...]:
    """(digits, rejected): the 17-digit integer of the first of the 15-, 16- and
    17-digit candidates that reads back as v, and where none does or a rounding
    tie makes the nearest one ambiguous.  Steps q and r in place."""
    one = np.uint64(1) << s
    half, two = one >> 1, one << 1
    limit = _POW5[14 - e]
    digits = np.empty_like(q)
    done = np.zeros(q.shape, dtype=bool)
    tie = np.zeros(q.shape, dtype=bool)
    for scale in (100, 10, 1):
        if scale < 100:  # one more digit: v 10^(p + 1) = 10 q + 10 r / 2^s
            r *= 10
            q *= 10
            q += r >> s
            r &= one - 1
            limit *= 10
        twice = r << 1  # twice the distance from q; q + 1 is two - twice away
        tie |= r == half
        np.copyto(digits, (q + (r > half)) * scale, where=~done)  # the nearest candidate
        done |= (twice < limit) | (two - twice < limit)
    return digits, ~done | tie


def _decimal(values: np.ndarray, exact: np.ndarray) -> tuple[np.ndarray, ...]:
    """(e, lead, tail, rejected): the decade guess, the leading digit and the
    16 digits after it of each value's shortest candidate, and where it is rejected."""
    # a stand-in keeps the other cells' arithmetic defined
    q, r, s, e = _scaled(np.where(exact, values, 1.5))
    digits, rejected = _selected(q, r, s, e)
    lead, tail = _divmod(digits.view(np.int64), 10**16)
    return e, lead, tail, rejected


def _laid_out(e: np.ndarray, lead: np.ndarray, tail: np.ndarray, words: int) -> np.ndarray:
    """The (n, words) slots of the cells laid out as "," then "0.000ddd" or "d.ddd"."""
    prefixes, groups = _digit_tables()
    slots = np.zeros((e.size, words), dtype=np.uint64)
    slots[:, 0] = prefixes.take(10 * (e + 4) + lead, mode="clip")
    upper, lower = _divmod(tail, 10**8)
    (g1, g2), (g3, g4) = _divmod(upper, 10**4), _divmod(lower, 10**4)
    quads = slots.view(np.uint32)  # columns 2-5 hold digits 2-17 in 4-digit groups
    later = np.zeros(e.shape, dtype=bool)  # a nonzero group follows
    for column, group in ((5, g4), (4, g3), (3, g2), (2, g1)):
        quads[:, column] = groups[group + 10000 * later]
        later |= group != 0
    return slots


def repr_slots(values: np.ndarray) -> np.ndarray:
    """``"," + repr(v)`` for each value of a 1-D float64 array, one row each.

    Returns a (n, words) uint64 array; row i, read as bytes with the NUL
    bytes deleted, is the text of value i.  Rows are 24 bytes, or 32 when a
    repr needs more than 23 bytes.
    """
    exact = (values >= 1e-4) & (values < 10.0)
    e, lead, tail, rejected = _decimal(values, exact)
    fallback = (
        ~exact
        | rejected
        | (lead < 1) | (lead > 9)  # not 17 digits: a wrong decade guess
        | (e == 0) & (tail == 0)  # the integers 1-9 need ".0" after the point
    )
    texts = ["," + repr(x) for x in values[fallback].tolist()]
    words = 3 if max(map(len, texts), default=0) <= 24 else 4
    slots = _laid_out(e, lead, tail, words)
    if texts:
        slots[fallback] = np.array(texts, dtype=f"S{8 * words}").view(np.uint64).reshape(-1, words)
    return slots


def _block_text(block: np.ndarray, heads: list[str], head_words: int) -> str:
    """The text of a block of rows: each row's head, its cells and a newline."""
    slots = repr_slots(block.ravel())
    count, words = block.shape[0], slots.shape[1]
    out = np.empty((count, head_words + block.shape[1] * words + 1), dtype=np.uint64)
    head_bytes = np.array(heads, dtype=f"S{8 * head_words}")
    out[:, :head_words] = head_bytes.view(np.uint64).reshape(count, head_words)
    out[:, head_words:-1] = slots.reshape(count, -1)
    out[:, -1] = _NEWLINE
    return out.tobytes().translate(None, b"\0").decode("ascii")


def text_rows(values: np.ndarray, heads: list[str]):
    """Yield ``head + "," + ",".join(map(repr, row)) + "\n"`` for each row of a
    2-D float64 array and its head, as one string per block of rows."""
    rows, cols = values.shape
    head_words = max(map(len, heads)) // 8 + 1
    step = max(1, CHUNK_CELLS // cols)
    for start in range(0, rows, step):
        # the block's buffers are freed before the next block is made
        yield _block_text(values[start:start + step], heads[start:start + step], head_words)
