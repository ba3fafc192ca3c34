"""write_rows against the per-value reference ``"%.17g" % v``."""

import io
from decimal import Decimal

import numpy as np

from bifluid import csvout


def _written(values, ncols=1):
    fh = io.BytesIO()
    csvout.write_rows(fh, np.asarray(values, dtype=np.float64).reshape(-1, ncols).T)
    return fh.getvalue()


def _reference(values, ncols=1):
    rows = np.asarray(values, dtype=np.float64).reshape(-1, ncols).tolist()
    return "".join(",".join("%.17g" % v for v in row) + "\n" for row in rows).encode()


def _assert_rows_equal(written, reference):
    """Equal bytes; on a mismatch, report the first differing row and the count."""
    if written != reference:
        pairs = list(zip(written.split(b"\n"), reference.split(b"\n")))
        bad = [(i, w, r) for i, (w, r) in enumerate(pairs) if w != r]
        assert bad, "same rows, different row count"
        i, w, r = bad[0]
        raise AssertionError(f"{len(bad)} rows differ; row {i}: {w!r} != {r!r}")


def _ties():
    """Doubles whose exact decimal has 18 significant digits, the last a 5."""
    rng = np.random.default_rng(17)
    ties = [1 + 2**-17, 1 + 3 * 2**-17]
    for e in range(2, 26):
        # a odd with a * 5**e of 18 digits: a / 2**e = a * 5**e / 10**e, exact
        lo, hi = -(-10**17 // 5**e), min(10**18 // 5**e, 2**53)
        ties.extend((int(a) | 1) / 2**e for a in rng.integers(lo, hi - 1, 40))
    return np.array(ties + [-t for t in ties])


def test_notation_switches_and_zeros():
    values = [1e16, 1e17, 1e-4, 1e-5, 0.0, -0.0, 0.5, -123.25, 1.5e300, 5e-324]
    assert _written(values) == (b"10000000000000000\n1e+17\n0.0001\n1.0000000000000001e-05\n"
                                b"0\n-0\n0.5\n-123.25\n1.5000000000000001e+300\n"
                                b"4.9406564584124654e-324\n")
    _assert_rows_equal(_written(values), _reference(values))


def test_random_bit_patterns_match_reference():
    bits = np.random.default_rng(20261018).integers(0, 2**64, 10**6, dtype=np.uint64)
    values = bits.view(np.float64)
    exponent = (bits >> 52) & 0x7FF
    # every binary exponent field, both signs, and a fast-path share near 45%
    assert np.unique(exponent).size == 2048
    assert 0.49 < np.mean(np.signbit(values)) < 0.51
    fast = (np.abs(values) >= 1e-280) & (np.abs(values) <= 1e280)
    assert np.count_nonzero(fast) > 4 * 10**5
    _assert_rows_equal(_written(values, ncols=5), _reference(values, ncols=5))


def test_special_values_match_reference():
    tiny = np.finfo(np.float64).smallest_subnormal
    values = [0.0, -0.0, tiny, -tiny, 2 * tiny, 1e-310, -2.2250738585072009e-308,
              np.finfo(np.float64).smallest_normal, -np.finfo(np.float64).smallest_normal,
              np.finfo(np.float64).max, -np.finfo(np.float64).max,
              np.inf, -np.inf, np.nan, 1e-280, 1e280, np.nextafter(1e-280, 0),
              np.nextafter(1e280, np.inf)]
    _assert_rows_equal(_written(values), _reference(values))


def test_powers_of_ten_and_neighbours_match_reference():
    powers = np.array([float(f"1e{k}") for k in range(-320, 309)])
    values = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    values = np.concatenate([values, -values])
    _assert_rows_equal(_written(values, ncols=2), _reference(values, ncols=2))


def test_ties_match_reference(monkeypatch):
    ties = _ties()
    for t in ties:
        digits = Decimal(float(t)).as_tuple().digits
        assert len(digits) == 18 and digits[-1] == 5
    # round-half-even goes both ways on this set
    assert {Decimal(float(t)).as_tuple().digits[-2] % 2 for t in ties} == {0, 1}
    _assert_rows_equal(_written(ties), _reference(ties))
    # without the tie guard the fast path truncates every tie, which is wrong
    # for each tie whose 17th digit is odd
    monkeypatch.setattr(csvout, "TIE_TOL", -1.0)
    assert _written(ties) != _reference(ties)


def test_rows_across_chunks_with_scalar_column():
    n = 2 * csvout.CHUNK_ROWS + 3
    x = np.linspace(-1.0, 1.0, n)
    fh = io.BytesIO()
    cube = x**3
    csvout.write_rows(fh, (0.1, x, cube, np.zeros(n)))
    expected = "".join("%.17g,%.17g,%.17g,0\n" % (0.1, v, c)
                       for v, c in zip(x.tolist(), cube.tolist()))
    assert fh.getvalue() == expected.encode()
