"""The array CSV kernel against Python's ``'%.17g' %`` formatter, its oracle."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eitlab import cli
from eitlab.csvtext import csv_text


def oracle(block: np.ndarray) -> bytes:
    """The CSV bytes of a 2-D block, one %-formatting pass per block."""
    rows, cols = block.shape
    line = "%.17g," * (cols - 1) + "%.17g\n"
    return ((line * rows) % tuple(block.ravel().tolist())).encode()


def oracle_blocks(*columns, rows=1024):
    """The CSV writer the kernel replaced: %-formatting, 1024 rows at a time."""
    for start in range(0, len(columns[0]), rows):
        yield oracle(np.column_stack([c[start:start + rows] for c in columns]))


def with_neighbours(values: np.ndarray, steps: int = 4) -> np.ndarray:
    """``values`` and their ``steps`` nearest floats on either side, both signs."""
    out, up, down = [values], values, values
    for _ in range(steps):
        up, down = np.nextafter(up, np.inf), np.nextafter(down, -np.inf)
        out += [up, down]
    out = np.concatenate(out)
    return np.concatenate([out, -out])


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=48), st.integers(1, 4))
def test_any_bit_pattern_formats_as_percent_17g(bits, cols):
    # NaN payloads, infinities, subnormals and both zeros included
    cells = np.array(bits, dtype=np.uint64).view(np.float64)
    block = np.resize(cells, (-(-cells.size // cols), cols))
    assert csv_text(block) == oracle(block)


def test_decade_edges_powers_of_two_and_ties():
    decades = np.array([float(f"1e{k}") for k in range(-323, 309)])
    ties = np.array([float(f"{m}e{k}") for k in range(-307, 308)
                     for m in ("9.99999999999999995", "1.00000000000000005")])
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    # 1000000000000000.25 is an exact tie; 9.9999999999999995e-07 occurs in snapshots
    cells = np.concatenate([with_neighbours(decades), with_neighbours(twos, 0),
                            with_neighbours(ties), [np.inf, -np.inf, np.nan, 0.0, -0.0,
                                                    1000000000000000.25, 9.9999999999999995e-07]])
    block = cells.reshape(-1, 1)
    assert csv_text(block) == oracle(block)


@pytest.mark.parametrize("width", [1, 4, 9])
def test_tables_across_block_boundaries(width):
    step = cli._CSV_BLOCK_CELLS // width
    rng = np.random.default_rng(width)
    for rows in (1, step - 1, step, step + 1):
        table = rng.normal(size=(rows, width)) * 10.0 ** rng.integers(-30, 30, (rows, width))
        columns = [table[:, 0], table[:, 1:]] if width > 1 else [table[:, 0]]
        assert b"".join(cli._csv_blocks(*columns)) == oracle(table), rows


def test_peak_memory_is_below_the_percent_writer():
    rng = np.random.default_rng(7)
    table = rng.normal(size=(2001, 9)) * 10.0 ** rng.integers(-12, 10, (2001, 9))

    def traced_peak(blocks) -> int:
        list(blocks(table[:, 0], table[:, 1:]))  # first calls build the tables
        tracemalloc.start()
        try:
            for _ in blocks(table[:, 0], table[:, 1:]):
                pass
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    kernel, percent = traced_peak(cli._csv_blocks), traced_peak(oracle_blocks)
    assert kernel <= percent, (kernel, percent)
