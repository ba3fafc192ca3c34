"""CSV rows of float64 columns, every value byte-for-byte ``"%.17g" % v``.

A value's 17 significant digits are the integer D = round(|v| 10^(16-k)),
k = floor(log10 |v|).  The product is formed as a double-double: Dekker's
two-product (Numer. Math. 18, 1971) of |v| with the high part of 10^(16-k),
plus |v| times its low part.  Its error is below 1e-14 units of D's last
digit, so rounding it gives the correctly rounded D whenever its fraction is
farther than TIE_TOL from one half.

The characters are laid out by the %g rules in four 8-byte words per value,
little-endian, where a 0 byte is a pad:

- head: sign, the "0.", "0.0", ... prefix of fixed notation below 1, D's
  leading digit;
- two words: D's other 16 digits with the dot inserted, shifted one byte
  up from the dot on; the digits %g strips (trailing zeros after the dot)
  are 0;
- tail: the byte shifted out of the second word, the exponent of exponent
  notation, and the separator.

One ``bytes.translate`` per chunk deletes the pads.  Every value the fast
path cannot prove (non-finite, |v| outside [1e-280, 1e280], a wrong estimate
of k, D outside [10^16, 10^17), a near-tie) is formatted by ``"%.17g" % v``
itself, so the output equals the per-value format by construction.  Rows go
out CHUNK_ROWS at a time, so the working memory does not grow with the row
count.
"""

from __future__ import annotations

import functools

import numpy as np

# rows per chunk: a chunk's word and byte buffers (32 B per value, 120 KiB
# for the 15 snapshot columns) stay small enough to be reused from the heap
# between calls; 4096-row chunks mapped fresh pages for every chunk once
# simulate wrote between solver steps (36 k minor faults on n = 65536)
CHUNK_ROWS = 256
# |fraction - 1/2| at or below which D's rounding is left to "%.17g" % v;
# the double-double fraction is good to about 1e-14 (see the module docstring)
TIE_TOL = 1e-9

# the fast path's range of |v|: Dekker's split and products neither overflow
# nor underflow in it
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
_SPLIT = 134217729.0                    # 2**27 + 1: Dekker's splitting constant
_Q_MIN, _Q_MAX = -270, 300              # exponents q of the 10^q table
_X_OFF = 400                            # layout-table row of decimal exponent 0


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


def _word(text: str, at: int) -> int:
    """text as bytes at..at+len(text)-1 of a little-endian 64-bit word."""
    return int.from_bytes(text.encode(), "little") << (8 * at)


@functools.cache
def _tables():
    """10^q as double-doubles, per-exponent layouts and 4-digit groups."""
    pow10 = []
    for q in range(_Q_MIN, _Q_MAX + 1):
        if q >= 0:
            hi = float(10**q)
            lo = float(10**q - int(hi))
        else:
            scale = 10**-q
            hi = 1 / scale                          # correctly rounded int division
            num, den = hi.as_integer_ratio()
            lo = (den - num * scale) / (den * scale)    # 1/scale - hi, correctly rounded
        pow10.append((hi, lo))
    hi, lo = np.array(pow10).T

    # per decimal exponent X: head prefix, tail exponent, and the digits
    # before the dot that are always shown (0 below 1 in fixed notation)
    head, tail, int_digits = [], [], []
    for x in range(-_X_OFF, _X_OFF + 1):
        fixed = -4 <= x < 17
        head.append(_word("0." + "0" * (-x - 1), 1) if -4 <= x < 0 else 0)
        tail.append(0 if fixed else _word("e%+03d" % x, 1))
        int_digits.append(x + 1 if 0 <= x < 17 else 0 if fixed else 1)

    # keep[c]: the first c of the 16 digit bytes, as masks of the two words;
    # dot[s]: a "." at byte s of the 16 (none at s = 16)
    low = [(1 << (8 * c)) - 1 for c in range(9)]
    keep_a = [low[min(c, 8)] for c in range(17)]
    keep_b = [low[max(c - 8, 0)] for c in range(17)]
    dot_a = [_word(".", s) if s < 8 else 0 for s in range(17)]
    dot_b = [_word(".", s - 8) if 8 <= s < 16 else 0 for s in range(17)]

    # the four digit characters of 0000..9999, first digit in the low byte,
    # and the number of trailing zeros among them
    g = np.arange(10000, dtype=np.uint32)
    quad = sum((g // 10**(3 - i) % 10 + ord("0")) << (8 * i) for i in range(4)).astype(np.uint64)
    trailing = sum(g % 10**i == 0 for i in range(1, 5))

    u64 = lambda v: np.array(v, dtype=np.uint64)
    return (hi, *_split(hi), lo, u64(head), u64(tail), np.array(int_digits),
            u64(keep_a), u64(keep_b), u64(dot_a), u64(dot_b), quad, trailing)


def _format_values(vals, seps, out):
    """Lay vals out as (n, 4) words in out, value i ending in the separator word seps[i]."""
    (p_hi, p_hi_h, p_hi_l, p_lo, head_x, tail_x, int_x, keep_a, keep_b,
     dot_a, dot_b, quad, trailing) = _tables()

    a = np.abs(vals)
    zero = a == 0.0
    inrange = (a >= _FAST_MIN) & (a <= _FAST_MAX)
    np.copyto(a, 1.0, where=~inrange)
    k = np.floor(np.log10(a)).astype(np.int64)
    q = 16 - _Q_MIN - k
    hi_h, hi_l = p_hi_h[q], p_hi_l[q]
    p = a * p_hi[q]
    a_h, a_l = _split(a)
    r = (((a_h * hi_h - p) + a_h * hi_l) + a_l * hi_h) + a_l * hi_l + a * p_lo[q]
    floor_r = np.floor(r)
    frac = r - floor_r
    d0 = p.astype(np.int64) + floor_r.astype(np.int64)
    d = d0 + (frac > 0.5)
    fast = (inrange & (d0 >= 10**16) & (d < 10**17) & (np.abs(frac - 0.5) > TIE_TOL)) | zero

    # D = lead, then four 4-digit groups g0..g3
    top = d // 10**8
    lead = top // 10**8
    g0 = (top - lead * 10**8) // 10**4
    g1 = top - lead * 10**8 - g0 * 10**4
    low8 = d - top * 10**8
    g2 = low8 // 10**4
    g3 = low8 - g2 * 10**4
    lead[zero] = 0                      # a zero ran as 1.0, so D = 10^16 and k = 0
    # significant digits once trailing zeros are stripped
    t3 = trailing[g3]
    m = 17 - (t3 + (t3 == 4) * (trailing[g2]
                                + (g2 == 0) * (trailing[g1] + (g1 == 0) * trailing[g0])))
    xi = k + _X_OFF
    int_digits = int_x[xi]
    shown = np.maximum(m, int_digits) - 1          # digits shown after the leading one
    dot_at = np.where((m > int_digits) & (int_digits > 0), int_digits - 1, 16)
    da = (quad[g0] | quad[g1] << 32) & keep_a[shown]
    db = (quad[g2] | quad[g3] << 32) & keep_b[shown]
    ka, kb = keep_a[dot_at], keep_b[dot_at]
    ra, rb = da & ~ka, db & ~kb                     # the digits after the dot move up a byte

    sign = np.signbit(vals) * np.uint64(ord("-"))
    out[:, 0] = head_x[xi] | sign | (lead.astype(np.uint64) + ord("0")) << 48
    out[:, 1] = (da & ka) | ra << 8 | dot_a[dot_at]
    out[:, 2] = (db & kb) | rb << 8 | ra >> 56 | dot_b[dot_at]
    out[:, 3] = rb >> 56 | tail_x[xi] | seps
    if not fast.all():
        text_bytes = out.view(np.uint8)
        for i in np.flatnonzero(~fast):
            text = ("%.17g" % vals[i]).encode()
            text_bytes[i, :-1] = 0
            text_bytes[i, :len(text)] = np.frombuffer(text, np.uint8)


def write_rows(fh, columns) -> None:
    """Write equal-length float64 columns to the binary file fh as CSV rows.

    Each value is exactly ``"%.17g" % v``, with "," between the values of a
    row and "\\n" after each row.  A scalar column is repeated on every row.
    """
    cols = np.broadcast_arrays(*(np.asarray(c, dtype=np.float64) for c in columns))
    nrows, ncols = cols[0].size, len(cols)
    rows = min(nrows, CHUNK_ROWS)
    block = np.empty((rows, ncols))
    words = np.empty((rows * ncols, 4), np.uint64)
    seps = np.tile(np.array([_word(",", 7)] * (ncols - 1) + [_word("\n", 7)], np.uint64), rows)
    for start in range(0, nrows, CHUNK_ROWS):
        chunk = block[:nrows - start]
        for j, col in enumerate(cols):
            chunk[:, j] = col[start:start + CHUNK_ROWS]
        vals = chunk.ravel()
        _format_values(vals, seps[:vals.size], words[:vals.size])
        fh.write(words[:vals.size].tobytes().translate(None, b"\0"))
