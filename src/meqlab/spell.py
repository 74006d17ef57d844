"""Decimal spelling of float arrays, byte for byte as ``'%.17g' % x``.

The tables the CLI writes hold tens of thousands of floats, each with 17
significant digits. ``'%.17g'`` spells one value per Python call through
CPython's correctly rounded conversion (Gay, *Correctly rounded
binary-decimal and decimal-binary conversions*, 1990); :func:`cells`
spells a whole array at once with the same bytes:

- the 17-digit integer ``N = round(|x|·10^(16−e))`` of a value of decimal
  exponent ``e`` comes from a double-double product (Dekker's 1971 two-
  product against a table of 10^p as double-doubles), exact to better
  than 2^-46, which decides the rounding; ``e`` is ``floor(log10|x|)``,
  moved by one where the product shows it off;
- the digits of ``N`` are read four at a time from a lookup table;
- one small layout table, indexed by (exponent class, digits kept, sign),
  names the digit or constant byte of each output position: the fixed or
  exponential form, the trailing zeros stripped, the sign and the
  exponent; zero, '0' or '-0', is a class of its own.

A value falls back to ``'%.17g' % x`` itself when it is not finite, when
its magnitude is not zero and outside [1e-290, 1e290) (the power table's
range), or when its product lies within 2^-40 of a half-integer (a
possible tie).

:func:`table_lines` joins columns of floats and of spelled cells into CSV
lines, a block of rows at a time, so that its temporaries stay under
about 1 MB whatever the table's size.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator, Sequence

import numpy as np

__all__ = ["WIDTH", "cells", "table_lines", "text_cells"]

#: bytes of a spelled cell: the longest '%.17g' spelling of a float,
#: '-2.2250738585072014e-308'; shorter spellings are NUL-padded
WIDTH = 24
#: cells spelled per block; a block's temporaries take about 400 bytes
#: a cell, half of them its gather index
BLOCK_CELLS = 2048

#: magnitudes spelled by the kernel, inside the double-double power table
_LOW, _HIGH = 1e-290, 1e290
#: decimal exponents e of the power table's 10^(16 - e): those of the
#: range, and one more each side for a misjudged floor(log10|x|)
_E_MIN, _E_MAX = -292, 291
#: Veltkamp's splitter for 53-bit doubles: 2^27 + 1
_SPLITTER = 134217729.0
#: products this close to a half-integer may be ties: '%.17g' decides
_TIE = 2.0 ** -40
_TEN16, _TEN17 = 10**16, 10**17

# bytes of a value's source row (see _source): '000', then digit j of N
# at 3 + j, the exponent's sign and three digits at 20-23, then NUL . - e
_DIGIT0, _EXP, _NUL, _DOT, _MINUS, _E, _ZERO = 3, 20, 24, 25, 26, 27, 0
_SOURCE = 28
#: fixed notation for decimal exponents -4 <= e <= 16, classes 0-20;
#: class 21 is the exponential form with a 2-digit exponent, 22 with 3,
#: and 23 is zero
_FIXED_MIN, _FIXED_MAX = -4, 16
_EXP2, _EXP3, _ZERO_CLASS = range(_FIXED_MAX - _FIXED_MIN + 1, _FIXED_MAX - _FIXED_MIN + 4)


@functools.cache
def _powers() -> np.ndarray:
    """Rows ``(H, L, H_hi, H_lo)`` per exponent e from _E_MIN: ``H + L`` is
    10^(16 - e) to about 2^-106 relative, and ``H_hi + H_lo`` is ``H``
    split into halves of at most 26 significant bits (Veltkamp's split,
    by integer arithmetic, which cannot overflow)."""
    pairs = []
    for p in range(16 - _E_MAX, 17 - _E_MIN):
        if p >= 0:
            exact, scale = 10**p, 0
        else:  # 10^p to 120 bits: floor(2^s / 10^-p) * 2^-s
            divisor = 10**-p
            scale = divisor.bit_length() + 120
            exact = (1 << scale) // divisor
        high = float(exact)
        pairs.append((math.ldexp(high, -scale), math.ldexp(float(exact - int(high)), -scale)))
    high, low = np.array(pairs[::-1]).T
    mantissa, exponent = np.frexp(high)
    whole = (mantissa * 2.0**53).astype(np.int64)
    half = (whole + 2**26) >> 27 << 27
    return np.stack([high, low, np.ldexp(half, exponent - 53),
                     np.ldexp(whole - half, exponent - 53)], axis=1)


@functools.cache
def _digit_tables() -> tuple[np.ndarray, np.ndarray]:
    """For 0-9999: its four ASCII digits as one uint32, and the number of
    its trailing zero digits (4 for 0)."""
    digits = np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1)
    zero = digits == 0
    trailing = zero[3] * (1 + zero[2] * (1 + zero[1] * (1 + zero[0] * np.uint8(1))))
    return np.ascontiguousarray(digits.T + ord("0")).view(np.uint32).ravel(), trailing


@functools.cache
def _exponents() -> np.ndarray:
    """The exponent bytes (sign, hundreds, tens, ones) of each decimal
    exponent from _E_MIN, each as one uint32."""
    return np.frombuffer(
        b"".join(b"%c%03d" % (b"+-"[e < 0], abs(e)) for e in range(_E_MIN, _E_MAX + 2)),
        dtype=np.uint32,
    )


@functools.cache
def _layouts() -> np.ndarray:
    """Per (class, digits kept - 1, sign) the source byte of each of the
    WIDTH output positions, NUL-padded."""
    rows = []
    for cls in range(_ZERO_CLASS + 1):
        exponent = cls + _FIXED_MIN
        for kept in range(1, 18):
            digits = list(range(_DIGIT0, _DIGIT0 + kept))
            if cls == _ZERO_CLASS:
                body = [_ZERO]
            elif cls >= _EXP2:  # d.ddde±XX
                tail = [_E, _EXP] + [_EXP + 1] * (cls == _EXP3) + [_EXP + 2, _EXP + 3]
                body = digits[:1] + ([_DOT] + digits[1:]) * (kept > 1) + tail
            elif exponent < 0:  # 0.000ddd
                body = [_ZERO, _DOT] + [_ZERO] * (-exponent - 1) + digits
            else:  # ddd.ddd, every integer digit kept
                whole = list(range(_DIGIT0, _DIGIT0 + exponent + 1))
                body = whole + ([_DOT] + digits[exponent + 1:]) * (kept > exponent + 1)
            for cell in (body, [_MINUS] + body):
                rows.append(bytes(cell).ljust(WIDTH, bytes([_NUL])))
    return np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(-1, WIDTH).astype(np.int16)


def _scaled(a: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The integer part and the fraction of ``a · 10^(16 - e)``, as an
    int64 and a float in [0, 1), by a double-double product."""
    high, low, high_hi, high_lo = _powers()[e - _E_MIN].T
    product = a * high
    t = a * _SPLITTER
    a_hi = t - (t - a)
    a_lo = a - a_hi
    error = ((a_hi * high_hi - product) + a_hi * high_lo + a_lo * high_hi) + a_lo * high_lo
    whole = np.floor(product)
    rest = (product - whole) + error + a * low
    carry = np.floor(rest)
    return whole.astype(np.int64) + carry.astype(np.int64), rest - carry


def _fallback(values: np.ndarray) -> list[bytes]:
    """The cells the kernel does not spell, by '%.17g' itself."""
    return [b"%.17g" % value for value in values.tolist()]


def _source(n: np.ndarray, e: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (values, _SOURCE) bytes the layouts gather from ('000' and the
    17 digits of ``n``, the exponent bytes of ``e``, the constants
    NUL . - e) and the number of digits of ``n`` left when its trailing
    zeros are stripped."""
    quads, trailing = _digit_tables()
    high, low = np.divmod(n, 10**8)
    top, g2 = np.divmod(high, 10**4)
    g0, g1 = np.divmod(top, 10**4)
    g3, g4 = np.divmod(low, 10**4)
    source = np.empty((n.size, _SOURCE // 4), dtype=np.uint32)
    for column, group in enumerate((g0, g1, g2, g3, g4)):
        source[:, column] = quads[group]
    source[:, 5] = _exponents()[e - _E_MIN]
    source[:, 6] = np.frombuffer(b"\0.-e", dtype=np.uint32)[0]
    # the leading digit is not zero: at most the 16 after it are stripped
    zeros = trailing[g4]
    for count, group in ((4, g3), (8, g2), (12, g1)):
        zeros += np.where(zeros == count, trailing[group], 0)
    return source.view(np.uint8), 17 - zeros


def _cells(values: np.ndarray) -> np.ndarray:
    """The (values, WIDTH) NUL-padded spellings of a 1-D float64 array."""
    magnitude = np.abs(values)
    inside = (magnitude >= _LOW) & (magnitude < _HIGH)  # False for 0, inf, nan
    zero = magnitude == 0.0
    a = np.where(inside, magnitude, 1.0)
    e = np.floor(np.log10(a)).astype(np.intp)
    n, fraction = _scaled(a, e)
    # floor(log10 a) may be one off next to a power of ten: the product
    # then has 16 or 18 integer digits
    shift = (n + (fraction > 0.5) > _TEN17).astype(np.intp) - (n < _TEN16)
    moved = np.flatnonzero(shift)
    if moved.size:
        e[moved] += shift[moved]
        n[moved], fraction[moved] = _scaled(a[moved], e[moved])
    n += fraction > 0.5
    top = n == _TEN17  # rounded up to 10^17: one digit more
    n[top] = _TEN16
    e += top

    source, kept = _source(n, e)
    cls = np.where((e >= _FIXED_MIN) & (e <= _FIXED_MAX), e - _FIXED_MIN,
                   np.where(np.abs(e) >= 100, _EXP3, _EXP2))
    cls[zero] = _ZERO_CLASS
    layout = _layouts()[(cls * 17 + kept - 1) * 2 + np.signbit(values)]
    spelled = np.take(source, layout + np.arange(0, source.size, _SOURCE)[:, None])
    fall = np.flatnonzero(~(inside | zero) | (np.abs(fraction - 0.5) < _TIE))
    if fall.size:
        spelled[fall] = text_cells(_fallback(values[fall]))
    return spelled


def cells(values) -> np.ndarray:
    """Each float of ``values`` spelled as ``'%.17g' % x``: a uint8 array
    of shape ``values.shape + (WIDTH,)``, each spelling NUL-padded."""
    values = np.asarray(values, dtype=np.float64)
    flat = values.ravel()
    spelled = np.empty((flat.size, WIDTH), dtype=np.uint8)
    for start in range(0, flat.size, BLOCK_CELLS):
        spelled[start:start + BLOCK_CELLS] = _cells(flat[start:start + BLOCK_CELLS])
    return spelled.reshape(values.shape + (WIDTH,))


def text_cells(texts: Sequence[bytes | str]) -> np.ndarray:
    """Cells of given spellings, at most WIDTH ASCII bytes each."""
    encoded = [text.encode() if isinstance(text, str) else text for text in texts]
    return np.array(encoded, dtype=f"S{WIDTH}").view(np.uint8).reshape(-1, WIDTH)


def table_lines(columns: Sequence[np.ndarray], shape: tuple[int, ...]) -> Iterator[bytes]:
    """The CSV lines of a table whose rows run over ``shape`` in C order,
    a block of rows at a time. A float column broadcasts to ``shape`` and
    is spelled as '%.17g'; a uint8 column of cells broadcasts to
    ``shape + (WIDTH,)`` and is copied. Cells are joined by ',' and each
    row ends in '\\n'."""
    floats = [j for j, column in enumerate(columns) if column.dtype != np.uint8]
    spelled = [j for j, column in enumerate(columns) if column.dtype == np.uint8]
    floats_in = [np.broadcast_to(columns[j], shape) for j in floats]
    spelled_in = [np.broadcast_to(columns[j], shape + (WIDTH,)) for j in spelled]
    rows = math.prod(shape)
    step = max(1, BLOCK_CELLS // max(1, len(floats)))
    for start in range(0, rows, step):
        at = np.unravel_index(np.arange(start, min(rows, start + step)), shape)
        line = np.zeros((at[0].size, len(columns), WIDTH + 1), dtype=np.uint8)
        line[:, :, WIDTH] = ord(",")
        line[:, -1, WIDTH] = ord("\n")
        if floats:
            block = np.stack([column[at] for column in floats_in], axis=1, dtype=np.float64)
            line[:, floats, :WIDTH] = _cells(block.ravel()).reshape(-1, len(floats), WIDTH)
        for j, column in zip(spelled, spelled_in):
            line[:, j, :WIDTH] = column[at]
        flat = line.ravel()
        yield flat[flat != 0].tobytes()
