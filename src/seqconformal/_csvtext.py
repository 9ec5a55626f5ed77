"""CSV text of float64 blocks, byte for byte `'%.17g' % v`, built in numpy.

`csv_rows` formats a rows x columns block with a fixed number of numpy
calls. A value v with 1e-4 <= |v| < 2**53, or a zero, takes the exact
path, where `'%.17g'` writes fixed-point digits:

1. Guess the decimal exponent d of |v| from `np.log10`. The guess is only
   a starting point, so a last-bit difference in `log10` (numpy's SIMD
   dispatch) cannot change the bytes.
2. With k = 16 - d, 10**k is an exact double, and Dekker's TwoProduct with
   a Veltkamp split forms |v| * 10**k = hi + lo exactly (Dekker, "A
   floating-point technique for extending the available precision", 1971).
3. D = int(hi) + rint(lo) is |v| * 10**k rounded half to even: hi >=
   2**53 is an even integer, so rint's ties to even are D's ties to even.
4. d steps until 10**16 <= D < 10**17; D is then the 17 significant digits
   that `'%.17g'` prints, and d their exponent.
5. A 4-digit lookup table gives the 17 ASCII digits of D as six uint32
   words, 24 bytes, and the count of its trailing zeros gives its last
   nonzero digit.
6. Layout tables indexed by d and by (d, last nonzero digit, sign) keep
   the integer digits of those bytes and the fraction digits of a copy
   moved 3 bytes on, and add the sign, the point, and for d < 0 the
   leading '0.' and zeros. The bytes that hold no text stay NUL, and one
   boolean mask drops them from the whole block.

Any other value (exponent form, nan, inf) is formatted by `'%.17g'` itself,
one value at a time. Integers below 2**53, such as steps and 0/1 flags,
are exact as float64, and `'%.17g' % float(i)` is `'%d' % i` for them.
"""

from __future__ import annotations

import numpy as np

# One step of the exponent guess corrects an off-by-one of the floor of
# log10 at a power of ten, another a rounding up to 10**17; three is spare.
_MAX_STEPS = 3


# _DIGITS[i]: the four ASCII digits of i < 10**4, zero-padded, as the bytes
# of one uint32. _ZEROS[i]: how many of them are trailing zeros.
_i = np.arange(10_000, dtype=np.int16)
_four = np.stack((_i // 1000, _i // 100 % 10, _i // 10 % 10, _i % 10),
                 axis=1).astype(np.uint8)
_DIGITS = np.append((_four + ord("0")).view(np.uint32)[:, 0], np.uint32(0))
_NUL_WORD = 10_000  # _DIGITS[_NUL_WORD] is four NUL bytes
_ZEROS = sum(_i % 10**j == 0 for j in range(1, 5))
del _i, _four

# A value's text is built in 24 bytes, three uint64 words, from two copies
# of the digit words of D: the integer digits 0..d of the first (digit j at
# byte 3 + j) and the fraction digits of the second, which is the first
# moved 3 bytes on (digit j at byte 6 + j). Between them sits the point at
# byte 4 + d; for d < 0 the text starts with '0.' and -d-1 zeros at bytes
# 5 + d .. 5 instead, and a sign goes just before the first byte of text.
# Every byte that holds no text is NUL.
_BYTES = 24


def _layouts() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The masks and added bytes of the text of D, as uint64 words:
    _INTEGER[d + 4] keeps the integer digits of the first copy,
    _FRACTION[(d + 4) * 17 + last] the fraction digits of the second, and
    _ADDED[((d + 4) * 17 + last) * 2 + negative] is the sign, point and
    leading zeros, for d in -4..15 and last the last nonzero digit."""
    d = np.arange(-4, 16)[:, None, None, None]
    last = np.arange(17)[None, :, None, None]
    negative = np.arange(2)[None, None, :, None]
    byte = np.arange(_BYTES)
    integer = (byte >= 3) & (byte <= 3 + d)
    fraction = (byte >= 6 + np.maximum(d + 1, 0)) & (byte <= 6 + last)
    point = (d >= 0) & (last > d) & (byte == 4 + d)
    # d < 0: '0.' and zeros at bytes 5 + d .. 5, the point at 6 + d
    lead = (d < 0) & (byte >= 5 + d) & (byte < 6)
    first = np.where(d >= 0, 3, 5 + d)  # the first byte of unsigned text
    added = np.select(
        [point | (lead & (byte == 6 + d)), lead,
         (negative == 1) & (byte == first - 1)],
        [ord("."), ord("0"), ord("-")], 0)

    def words(mask):
        return mask.astype(np.uint8).reshape(-1, _BYTES).view(np.uint64)
    return (words(integer[:, 0, 0] * 255), words(fraction[:, :, 0] * 255),
            words(added))


_INTEGER, _FRACTION, _ADDED = _layouts()

# 10**k for k = 0..22, exact doubles, and their Veltkamp halves.
_SPLITTER = 2.0**27 + 1.0
_POW10 = 10.0 ** np.arange(23)
_c = _SPLITTER * _POW10
_POW10_HI = _c - (_c - _POW10)
_POW10_LO = _POW10 - _POW10_HI
del _c


def _scaled(a: np.ndarray, k: np.ndarray) -> np.ndarray:
    """a * 10**k rounded half to even, as int64, for a * 10**k >= 2**53
    (below that the result is only known to be below 2**53 + 1)."""
    t, t_hi, t_lo = (np.take(table, k) for table in (_POW10, _POW10_HI,
                                                      _POW10_LO))
    hi = a * t
    c = a * _SPLITTER
    a_hi = c - (c - a)
    a_lo = a - a_hi
    lo = a_hi * t_hi
    lo -= hi
    lo += a_hi * t_lo
    lo += a_lo * t_hi
    lo += a_lo * t_lo
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64)


def _decimal(values: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                           np.ndarray]:
    """The decimal exponent d and the 17 digits D of each value on the exact
    path (d = 0 and D = 0 for a zero), and the indices of the others."""
    a = np.abs(values)
    fallback = np.flatnonzero(~((a >= 1e-4) & (a < 2.0**53) | (a == 0.0)))
    zero = np.flatnonzero(a == 0.0)
    a[fallback] = 1.0
    a[zero] = 1.0
    d = np.floor(np.log10(a)).astype(np.intp)
    digits = _scaled(a, 16 - d)
    for step in range(_MAX_STEPS + 1):
        off = np.flatnonzero((digits < 10**16) | (digits >= 10**17))
        if not off.size:
            break
        if step == _MAX_STEPS:
            raise ArithmeticError(
                f"no decimal exponent found for {values[off[0]]!r}")
        d[off] += np.where(digits[off] >= 10**17, 1, -1)
        digits[off] = _scaled(a[off], 16 - d[off])
    digits[zero] = 0
    return d, digits, fallback


def _digit_words(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 17 digits of each D as ASCII, in six uint32 words (24 bytes: a
    first word '000' and digit 0, four words of four digits, four NUL
    bytes), and the index of its last nonzero digit (0 for D = 0)."""
    groups = np.empty((len(digits), _BYTES // 4), np.intp)
    upper, lower = np.divmod(digits, 10**8)
    groups[:, 0], upper = np.divmod(upper, 10**8)
    np.divmod(upper, 10**4, out=(groups[:, 1], groups[:, 2]))
    np.divmod(lower, 10**4, out=(groups[:, 3], groups[:, 4]))
    groups[:, 5] = _NUL_WORD
    zeros = np.take(_ZEROS, groups[:, 1])  # trailing zeros of groups 1..j
    for j in range(2, 5):
        group_zeros = np.take(_ZEROS, groups[:, j])
        zeros = np.where(group_zeros == 4, zeros + 4, group_zeros)
    return np.take(_DIGITS, groups), 16 - zeros


def _fields(values: np.ndarray) -> np.ndarray:
    """(n, 24) uint8: each value's '%.17g' text, with NUL bytes inside it
    and after it."""
    d, digits, fallback = _decimal(values)
    words, last = _digit_words(digits)
    del digits
    layout = (d + 4) * 17 + last
    text = words.view(np.uint64)
    moved = np.empty_like(text)
    moved.view(np.uint8).ravel()[3:] = text.view(np.uint8).ravel()[:-3]
    moved.view(np.uint8).ravel()[:3] = 0
    text &= np.take(_INTEGER, d + 4, axis=0)
    moved &= np.take(_FRACTION, layout, axis=0)
    text |= moved
    del moved
    text |= np.take(_ADDED, 2 * layout + np.signbit(values), axis=0)

    out = text.view(np.uint8)
    for i in fallback.tolist():
        string = b"%.17g" % values[i]
        out[i] = 0
        out[i, :len(string)] = np.frombuffer(string, np.uint8)
    return out


def csv_rows(block: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The CSV rows of a rows x columns float64 block, as uint8 bytes.

    Each row is its values in '%.17g' joined by ',', then its row of ends
    (a rows x m or 1 x m uint8 array of end bytes, NUL-padded, such as
    b',pre\\n').
    """
    rows, cols = block.shape
    values = _fields(block.ravel()).reshape(rows, cols, _BYTES)
    width = cols * (_BYTES + 1)
    text = np.empty((rows, width + ends.shape[1]), np.uint8)
    fields = text[:, :width].reshape(rows, cols, _BYTES + 1)
    fields[:, :, :_BYTES] = values
    del values
    fields[:, :-1, _BYTES] = ord(",")
    fields[:, -1, _BYTES] = 0
    text[:, width:] = ends
    text = text.ravel()
    # A boolean mask selects without np.compress's index array, which
    # would hold 8 bytes per byte of text.
    return text[text != 0]
