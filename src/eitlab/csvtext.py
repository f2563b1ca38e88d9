"""CSV text of float64 tables: the bytes of ``'%.17g' % x``, made by array code.

``CellText(rows, cols)(block)`` returns the CSV bytes of a float64 block of
at most ``rows`` x ``cols`` cells: each cell exactly as ``'%.17g' % x``
formats it, cells joined by ``,`` and every row ended by ``\\n``.  Its
buffers are allocated once and reused by every block of a table.

Digits.  For |x| in [1e-280, 1e280), e = floor(log10 |x|) and
y = |x| * 10**(16 - e) is formed as a double-double: Dekker's exact split
product with 10**k stored as hi + lo, an error below 1e-14.  The exponent is
corrected by one where the truncated y is not a 17-digit integer; only then
is the round bit added, and a carry to 10**17 becomes 10**16 with e + 1.
A cell whose fraction lies within 1e-9 of a half (a possible tie) is not
certified.

Assembly.  Each cell's sign ('-' or NUL), 17 digits (4-digit groups from
a table) and exponent text fill a 32-byte source row.  The layout table,
keyed by notation class (fixed with e in [-4, 16], or exponent notation
with two or three exponent digits) and digit count, lists which source
bytes make the record; a gather builds every record, NUL-padded, and the
NULs are dropped.

Python's ``%`` formats only the cells the kernel cannot certify: zeros,
non-finite values, |x| outside that range and possible ties.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

import numpy as np

_SPLIT = 134217729.0  # 2**27 + 1: Dekker's splitter for float64
_E_MAX = 280  # certified cells have |e| <= _E_MAX, so every 10**k is normal
_E_OFF = _E_MAX + 2  # table offset; the tables cover e in [-_E_OFF, _E_OFF]
_ROW = 32  # source bytes per cell
_REC = 25  # longest record: "-1.2345678901234567e-100" and its separator
# source row: the sign ('-' or NUL), '0', '.', the 17 digits, the separator,
# NULs, and from byte 24 on the exponent text
_SIGN, _ZERO, _DOT, _DIGIT, _SEP, _NUL, _EXP = 0, 1, 2, 3, 20, 21, 24
_CLASSES = 23  # fixed with e = -4..16, then exponent notation with 2 or 3 digits
_DIGITS = 17
_GATHER = 512  # cells per gather: its index takes 200 bytes a cell


def _split(x):
    t = x * _SPLIT
    hi = t - (t - x)
    return hi, x - hi


def _layout(cls: int, count: int) -> list[int]:
    """Source offsets of one record: notation class and digit count."""
    digits = list(range(_DIGIT, _DIGIT + count))
    record = [_SIGN]
    if cls < 4:  # fixed, e < 0: "0." then -e - 1 zeros
        record += [_ZERO, _DOT] + [_ZERO] * (3 - cls) + digits
    elif cls <= 20:  # fixed, e >= 0: e + 1 integer digits
        whole = cls - 3
        record += list(range(_DIGIT, _DIGIT + whole))
        if count > whole:
            record += [_DOT] + digits[whole:]
    else:
        record += digits[:1] + ([_DOT] + digits[1:] if count > 1 else [])
        record += range(_EXP, _EXP + (4 if cls == 21 else 5))
    record.append(_SEP)
    return record + [_NUL] * (_REC - len(record))


def _class(e: int) -> int:
    if -4 <= e <= 16:
        return e + 4
    return 21 if abs(e) < 100 else 22


class _Tables(NamedTuple):
    p_hi: np.ndarray  # 10**(16 - e) as p_hi + p_lo, and p_hi split in halves
    p_lo: np.ndarray
    p1: np.ndarray
    p2: np.ndarray
    lead: np.ndarray  # first source word: sign, '0', '.', leading digit
    quad: np.ndarray  # 4 digits of 0..9999 as one word
    zeros: np.ndarray  # trailing zeros of 0..9999, 4 for 0
    exp: np.ndarray  # exponent text, NUL-padded to 8 bytes
    key_base: np.ndarray  # layout key of e with no trailing zeros
    layout: np.ndarray  # source offsets of each record


@functools.cache
def _tables() -> _Tables:
    """Tables built on first use, from exact integers and small Python tables.

    Only copies fill them, so building them brings no numpy code into
    memory beyond what the kernel itself runs.
    """
    hi, lo = [], []
    for k in range(16 - _E_OFF, 17 + _E_OFF):
        p, q = (10**k, 1) if k >= 0 else (1, 10**-k)
        num, den = (p / q).as_integer_ratio()  # int / int rounds correctly
        hi.append(num / den)
        lo.append((p * den - num * q) / (q * den))
    hi, lo = np.array(hi), np.array(lo)
    hi1, hi2 = _split(hi)

    # n = 100 i + j: the 4 digits of n as one word, and its trailing zeros
    pairs = np.frombuffer(b"".join(b"%02d" % j for j in range(100)), np.uint16)
    quad = np.empty((100, 100, 2), np.uint16)
    quad[:, :, 0] = pairs[:, None]
    quad[:, :, 1] = pairs
    tail = [2.0] + [float(j % 10 == 0) for j in range(1, 100)]
    zeros = np.empty((100, 100))
    zeros[:] = tail
    zeros[:, 0] = [2 + t for t in tail]  # 4 for n = 0
    # index: leading digit + 10 for a negative cell
    lead = np.frombuffer(b"".join(b"%s0.%d" % (sign, d) for sign in (b"\0", b"-")
                                  for d in range(10)), np.uint32)

    exponents = range(-_E_OFF, _E_OFF + 1)
    exp = b"".join((b"e%+03d" % e).ljust(8, b"\0") for e in exponents)
    # a cell's layout key is key_base[e] minus its trailing zeros
    key_base = np.array([_class(e) * _DIGITS + _DIGITS - 1.0 for e in exponents])
    layout = [_layout(c, count) for c in range(_CLASSES) for count in range(1, _DIGITS + 1)]
    return _Tables(hi, lo, hi1, hi2, lead, quad.view(np.uint32).ravel(), zeros.ravel(),
                   np.frombuffer(exp, np.uint64), key_base, np.array(layout))


def _scaled(a, e, tables):
    """a * 10**(16 - e), truncated to the integer upper * 10**8 + lower, and its fraction.

    All three are float64: upper and lower are exact integers, lower in [0, 10**8).
    """
    i = _E_OFF - e
    p_hi, p_lo, p1, p2 = tables.p_hi[i], tables.p_lo[i], tables.p1[i], tables.p2[i]
    a1, a2 = _split(a)
    hi = a * p_hi
    lo = a1 * p1  # Dekker: lo = a * p_hi - hi exactly, then the p_lo term
    lo -= hi
    a1 *= p2
    lo += a1
    p1 *= a2
    lo += p1
    a2 *= p2
    lo += a2
    p_lo *= a
    lo += p_lo
    total = hi + lo
    hi -= total
    lo += hi  # (total, lo) is the normalized double-double
    whole = np.floor(lo)
    lo -= whole
    # total is an integer below 2**57: split it exactly at 10**8
    upper = np.floor(total * 1e-8)
    total -= upper * 1e8
    total += whole
    _carry(upper, total)
    return upper, total, lo


def _carry(upper, lower):
    """Move whole multiples of 10**8 from ``lower`` into ``upper``, in place."""
    carry = np.floor(lower * 1e-8)
    lower -= carry * 1e8
    upper += carry


def _decimal(x, tables):
    """Each cell's 17 digits, as upper * 10**8 + lower, and its exponent e.

    The digits and e are those of %.17g.  Returns upper, lower, e + _E_OFF
    and the mask of cells that need Python's formatter: zeros too, so that
    the kernel never meets a digit string of zeros.
    """
    a = np.abs(x)
    ok = a >= 1e-280
    ok &= a < 1e280
    a[~ok] = 1.0
    e = np.floor(np.log10(a)).astype(np.int64)
    upper, lower, frac = _scaled(a, e, tables)
    off = (upper < 1e8) | (upper >= 1e9)
    if off.any():
        j = np.flatnonzero(off)
        e[j] += np.where(upper[j] < 1e8, -1, 1)
        upper[j], lower[j], frac[j] = _scaled(a[j], e[j], tables)
        ok[j] &= (upper[j] >= 1e8) & (upper[j] < 1e9)
    frac -= 0.5
    ok &= np.abs(frac) > 1e-9
    frac += 1.0
    lower += np.floor(frac)  # the round bit, floor(fraction + 0.5)
    _carry(upper, lower)
    ten = np.floor(upper * 1e-9)  # 1 where the rounding reached 10**17
    upper -= ten * 9e8
    e += ten.astype(np.int64)
    e += _E_OFF
    return upper, lower, e, ~ok


def _fill(src, x, upper, lower, e, tables):
    """Write each cell's sign, digits and exponent text; return its layout key."""
    groups = np.empty((5, x.size))
    groups[0] = np.floor(upper * 1e-8)
    upper -= groups[0] * 1e8
    groups[1] = np.floor(upper * 1e-4)
    groups[2] = upper - groups[1] * 1e4
    groups[3] = np.floor(lower * 1e-4)
    groups[4] = lower - groups[3] * 1e4
    groups = groups.astype(np.intp)
    groups[0][x < 0] += 10
    words = src.view(np.uint32)
    words[:, 0] = tables.lead[groups[0]]
    words[:, 1:5] = tables.quad[groups[1:]].T
    src.view(np.uint64)[:, 3] = tables.exp[e]
    # trailing zeros of the last 16 digits: zeros[g] is 4 only for g = 0
    z = tables.zeros[groups[1:]]
    trailing = z[0]
    for k in (1, 2, 3):
        trailing *= np.floor(z[k] * 0.25)
        trailing += z[k]
    key = tables.key_base[e]
    key -= trailing
    return key.astype(np.intp)


class CellText:
    """CSV bytes of float64 blocks of up to ``rows`` x ``cols`` cells."""

    def __init__(self, rows: int, cols: int):
        cells = rows * cols
        self.cols = cols
        self.src = np.zeros((cells, _ROW), np.uint8)
        per_row = self.src.reshape(rows, cols, _ROW)
        per_row[:, :, _SEP] = ord(",")
        per_row[:, -1, _SEP] = ord("\n")
        self.records = np.empty((cells, _REC), np.uint8)
        chunk = min(cells, _GATHER)
        self.base = (np.arange(chunk) * _ROW)[:, None]
        self.index = np.empty((chunk, _REC), np.intp)

    def __call__(self, block: np.ndarray) -> bytes:
        tables = _tables()
        x = np.ascontiguousarray(block, dtype=np.float64).ravel()
        n = x.size
        upper, lower, e, fallback = _decimal(x, tables)
        src = self.src[:n]
        key = _fill(src, x, upper, lower, e, tables)
        del upper, lower, e

        records = self.records[:n]
        for start in range(0, n, _GATHER):
            stop = min(start + _GATHER, n)
            index = self.index[:stop - start]
            np.take(tables.layout, key[start:stop], axis=0, out=index, mode="clip")
            index += self.base[:stop - start]
            np.take(src[start:stop].ravel(), index, out=records[start:stop], mode="clip")
        for i in np.flatnonzero(fallback).tolist():
            cell = b"%.17g" % x[i] + (b"\n" if i % self.cols == self.cols - 1 else b",")
            records[i] = 0
            records[i, :len(cell)] = np.frombuffer(cell, np.uint8)
        return records[records != 0].tobytes()


def csv_text(block: np.ndarray) -> bytes:
    """CSV bytes of one 2-D float64 block, with buffers of its own size."""
    return CellText(*block.shape)(block)
