"""The column-wise float spelling: byte for byte as '%.17g'."""

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from meqlab import cli, spell


def spelled(values) -> list[bytes]:
    """The kernel's spelling of each value, NUL padding stripped."""
    return spell.cells(values).view(f"S{spell.WIDTH}").ravel().tolist()


def expected(values) -> list[bytes]:
    return [b"%.17g" % value for value in np.asarray(values, dtype=float).ravel().tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(), min_size=1, max_size=40))
def test_spells_any_float_as_format(values):
    # subnormals, -0.0, +-inf and nan included
    assert spelled(values) == expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
def test_spells_any_bit_pattern_as_format(patterns):
    values = [struct.unpack("<d", struct.pack("<Q", bits))[0] for bits in patterns]
    assert spelled(values) == expected(values)


def _edges() -> np.ndarray:
    """Powers of ten (as products and as parsed literals) and 2^k over the
    whole float range, each with both neighbours; exact 17-digit ties
    m·2^-k, whose 18th digit is a final 5; the ends of the kernel's range;
    seeded random normals across 10^±30 and random bit patterns."""
    rng = np.random.default_rng(20261020)
    tens = np.array([10.0**p for p in range(-323, 309)] + [float(f"1e{p}") for p in range(-323, 309)])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    ties = []
    for k in range(2, 26):
        low, high = -(-10**17 // 5**k), min(10**18 // 5**k, 2**53)
        ties += [m * 2.0**-k for m in rng.integers(low, high, 8) | 1 if m < high]
    ends = np.array([1e-290, 1e290, 1e-4, 1e16, 1e17, 0.5, 5e-324, 1.7976931348623157e308])
    grid = np.concatenate([tens, twos, ends])
    with np.errstate(over="ignore"):  # past the largest float: inf
        above = np.nextafter(grid, np.inf)
    return np.concatenate([
        grid, np.nextafter(grid, 0.0), above, ties,
        rng.standard_normal(20000) * 10.0**rng.uniform(-30, 30, 20000),
        rng.integers(0, 2**64, 20000, dtype=np.uint64).view(np.float64),
        [0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan],
    ])


def test_spells_the_edges_as_format():
    values = _edges()
    for signed in (values, -values):
        assert spelled(signed) == expected(signed)


def test_cells_keep_the_shape_of_their_values():
    values = np.arange(6.0).reshape(2, 3) / 7
    cells = spell.cells(values)
    assert cells.shape == (2, 3, spell.WIDTH)
    assert spelled(values) == expected(values)


def test_table_lines_join_floats_and_spelled_cells():
    omegas, ks = np.array([0.5, 1.5]), np.array([0.0, 1e-5, 2e-5])
    kappas = np.arange(12.0).reshape(2, 2, 3) / 3
    columns = [spell.cells(omegas)[None, :, None], spell.cells(ks)[None, None, :], kappas,
               spell.text_cells(["first", "second"])[:, None, None]]
    text = b"".join(spell.table_lines(columns, (2, 2, 3))).decode()
    rows = [("%.17g,%.17g,%.17g,%s\n" % (w, k, kappas[b, i, j], block))
            for b, block in enumerate(("first", "second"))
            for i, w in enumerate(omegas) for j, k in enumerate(ks)]
    assert text == "".join(rows)


def test_table_lines_cut_long_tables_into_blocks():
    values = np.linspace(-1.0, 1.0, 3 * spell.BLOCK_CELLS + 5)
    blocks = list(spell.table_lines([values], values.shape))
    assert len(blocks) == 4
    assert b"".join(blocks).decode().splitlines() == [s.decode() for s in expected(values)]


def test_the_default_transient_is_spelled_without_fallback(tmp_path, monkeypatch):
    calls = []
    fallback = spell._fallback
    monkeypatch.setattr(spell, "_fallback", lambda values: calls.append(values) or fallback(values))
    assert cli.main(["transient", "--out", str(tmp_path)]) == 0
    rows = (tmp_path / "transient.csv").read_text().splitlines()
    assert len(rows) == 401 and rows[1].startswith("0,")  # t = 0 is the zero class
    assert calls == []
    spelled([1.0, np.nan, 1e300])  # the counter does see cells that fall back
    assert [values.size for values in calls] == [2]
