"""Raster parsing, segment extraction, and writers."""

from __future__ import annotations

import io
import os
import random
import re
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crownmerge import raster_io
from crownmerge import (
    FORMAT_PGM,
    FORMAT_TEXT_GRID,
    Isol,
    LabeledRaster,
    RasterFormatError,
    by_id,
    dump_pgm,
    dump_text_grid,
    extract_isols,
    load_raster,
    sniff_format,
    write_cluster_raster,
)

from conftest import LABEL_VALUES, QUAD_GRID, label_rasters, mosaic_rasters, synth_rasters
from oracles import brute_force_isols, format_rows, parse_text_rows, pixel_set


def parse(text: str, fmt: str = FORMAT_TEXT_GRID) -> LabeledRaster:
    return load_raster(io.BytesIO(text.encode()), fmt)


# ---------------------------------------------------------------------------
# text grid
# ---------------------------------------------------------------------------


def test_text_grid_without_header():
    raster = parse("0 1 1\n0 0 2\n")
    assert (raster.width, raster.height) == (3, 2)
    assert raster.label_at(1, 0) == 1
    assert raster.label_at(2, 1) == 2


def test_text_grid_with_matching_header():
    raster = parse("# 3 2\n0 1 1\n0 0 2\n")
    assert (raster.width, raster.height) == (3, 2)


def test_text_grid_skips_blank_lines():
    raster = parse("\n0 1\n\n2 0\n\n")
    assert raster.height == 2


def test_text_grid_header_mismatch_rejected():
    with pytest.raises(RasterFormatError, match="header declares"):
        parse("# 4 2\n0 1 1\n0 0 2\n")


def test_text_grid_ragged_row_rejected():
    with pytest.raises(RasterFormatError) as excinfo:
        parse("0 1 1\n0 0\n")
    assert excinfo.value.row == 2


def test_text_grid_non_integer_cell_rejected():
    with pytest.raises(RasterFormatError) as excinfo:
        parse("0 x 1\n")
    assert (excinfo.value.row, excinfo.value.col) == (1, 2)


def test_text_grid_negative_label_rejected():
    with pytest.raises(RasterFormatError, match="negative"):
        parse("0 -1\n")


@pytest.mark.parametrize("label", [2**63, 99999999999999999999])
def test_text_grid_label_beyond_int64_rejected(label):
    with pytest.raises(RasterFormatError, match="int64") as excinfo:
        parse(f"1 0\n0 {label}\n")
    assert (excinfo.value.row, excinfo.value.col) == (2, 2)


def test_text_grid_largest_int64_label_accepted():
    raster = parse(f"0 {2**63 - 1}\n")
    assert raster.positive_ids() == (2**63 - 1,)


def test_text_grid_empty_rejected():
    with pytest.raises(RasterFormatError, match="no rows"):
        parse("")


#: Labels at the digit counts the text-grid reader and writer switch on,
#: among them the edges of the writer's four-digit words.
DIGIT_EDGES = (
    0, 9, 10, 99, 100, 9999, 10000, 10**8 - 1, 10**8, 10**12 - 1, 10**12,
    10**16 - 1, 10**16, 10**17, 10**18 - 1, 10**18, 2**63 - 1,
)


@st.composite
def label_grids(draw) -> np.ndarray:
    """int64 grids 1xN, Nx1 or up to 40x40 over a palette of 1-6 labels."""
    height, width = draw(
        st.tuples(st.just(1), st.integers(1, 40))
        | st.tuples(st.integers(1, 40), st.just(1))
        | st.tuples(st.integers(1, 40), st.integers(1, 40))
    )
    palette = draw(
        st.lists(
            st.sampled_from(DIGIT_EDGES + LABEL_VALUES) | st.integers(0, 2**63 - 1),
            min_size=1,
            max_size=6,
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return np.array(palette, dtype=np.int64)[rng.integers(len(palette), size=(height, width))]


#: Whitespace and line breaks of a plain text grid.
SEPARATORS = (" ", "\t", "  ", " \t")
LINE_ENDS = ("\n", "\r\n", "\r")

#: What only Python ``str.split``, ``str.splitlines`` and ``int()`` accept:
#: non-ASCII or control whitespace, other line breaks, and cells with a
#: sign, an underscore or Arabic-Indic digits.
EXOTIC_SEPARATORS = ("\xa0", "\u3000", "\x1f")
EXOTIC_LINE_ENDS = ("\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")
ARABIC_INDIC = str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")
EXOTIC_KINDS = {
    **dict.fromkeys(EXOTIC_SEPARATORS, "sep"),
    **dict.fromkeys(EXOTIC_LINE_ENDS, "end"),
    **dict.fromkeys(("+", "0_", "arabic"), "cell"),
}


@dataclass(frozen=True)
class Layout:
    """One way to lay rows of tokens out as a text grid.

    Cells are one or more spaces or tabs apart, lines end in LF, CRLF or a
    lone CR, rows may be indented or trail whitespace and have blank lines
    between them, and digit cells may gain leading zeros.  The header line
    may be indented with non-ASCII spaces and end in any line break.
    ``exotic`` (a key of ``EXOTIC_KINDS``) respells one separator, line
    end or cell, or with ``everywhere`` every one of its kind, so that the
    body is plain but for that.
    """

    seed: int
    header: bool
    final_newline: bool
    exotic: str | None
    everywhere: bool

    def write(self, rows: list[list[str]], width: int, height: int) -> tuple[str, str]:
        """The header line with its break (or nothing), and the body."""
        rng = random.Random(self.seed)
        pieces: list[str] = []
        kinds: list[str] = []  # "sep", "end" or "cell" where a piece may be respelt

        def put(piece: str, kind: str = "") -> None:
            pieces.append(piece)
            kinds.append(kind)

        for row in rows:
            while rng.random() < 0.2:
                put(rng.choice(("", " ", "\t ")))
                put(rng.choice(LINE_ENDS), "end")
            put(rng.choice(("", " ", "\t")))
            for i, tok in enumerate(row):
                if i:
                    put(rng.choice(SEPARATORS), "sep")
                if tok.isdigit():
                    put("00" + tok if rng.random() < 0.1 else tok, "cell")
                else:
                    put(tok)
            put(rng.choice(("", " ", "\t")))
            put(rng.choice(LINE_ENDS), "end")
        if not self.final_newline:
            pieces[-1], kinds[-1] = "", ""
        kind = EXOTIC_KINDS.get(self.exotic)
        spots = [i for i, k in enumerate(kinds) if k == kind]
        if spots:
            # One spot, or every spot of the kind, respelt.
            for i in spots if self.everywhere else [rng.choice(spots)]:
                if kind == "cell":
                    tok = pieces[i]
                    pieces[i] = tok.translate(ARABIC_INDIC) if self.exotic == "arabic" else self.exotic + tok
                else:
                    pieces[i] = self.exotic
        head = ""
        if self.header:
            lead = rng.choice(("", " ", "\xa0", "\u3000"))
            head = f"{lead}# {width} {height}" + rng.choice(LINE_ENDS + EXOTIC_LINE_ENDS)
        return head, "".join(pieces)


layouts = st.builds(
    Layout,
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.booleans(),
    st.none() | st.sampled_from(list(EXOTIC_KINDS)),
    st.booleans(),
)

#: Block sizes of 1-64 bytes, so that most inputs span several blocks.
small_blocks = st.integers(1, 64)


def is_plain(body: str) -> bool:
    """Whether a text-grid body should take the block reader (see
    ``raster_io._read_plain_grid``)."""
    rows = [line.split() for line in body.splitlines() if line.strip()]
    return (
        set(body) <= set("0123456789 \t\r\n")
        and all(len(tok) <= 18 for row in rows for tok in row)
        and len({len(row) for row in rows}) == 1
    )


@settings(max_examples=300, deadline=None)
@given(label_grids(), layouts, small_blocks)
def test_text_grid_parse_matches_int_oracle(grid, layout, block):
    height, width = grid.shape
    head, body = layout.write([list(map(str, row)) for row in grid.tolist()], width, height)
    want = np.array(parse_text_rows(body), dtype=np.int64)
    assert np.array_equal(want, grid)  # the layout keeps every cell
    # Plain input must never reach the per-cell loop.
    loop = (
        mock.patch.object(raster_io, "_parse_cells", side_effect=AssertionError("per-cell loop"))
        if is_plain(body)
        else nullcontext()
    )
    with mock.patch.object(raster_io, "_BLOCK", block), loop:
        raster = parse(head + body)
    assert np.array_equal(raster.labels, want)


@settings(max_examples=200, deadline=None)
@given(label_grids(), layouts, small_blocks, st.data())
def test_text_grid_bad_cell_or_short_row_is_located(grid, layout, block, data):
    height, width = grid.shape
    rows = [list(map(str, row)) for row in grid.tolist()]
    kinds = ["x", "-3", "1.5", str(2**63)] + (["short row"] if height > 1 < width else [])
    kind = data.draw(st.sampled_from(kinds), label="kind")
    r = data.draw(st.integers(0, height - 1), label="row")
    if kind == "short row":
        rows[r].pop()
        # A short first row sets the width, so the next row is the bad one.
        bad_row, col = max(r, 1), None
    else:
        c = data.draw(st.integers(0, width - 1), label="column")
        rows[r][c] = kind
        bad_row, col = r, c + 1
    text = "".join(layout.write(rows, width, height))
    lines = text.splitlines()
    linenos = [i + 1 for i, line in enumerate(lines) if line.strip() and (i or not layout.header)]
    with mock.patch.object(raster_io, "_BLOCK", block):
        with pytest.raises(RasterFormatError) as excinfo:
            parse(text)
    assert (excinfo.value.row, excinfo.value.col) == (linenos[bad_row], col)


# ---------------------------------------------------------------------------
# pgm
# ---------------------------------------------------------------------------


def test_sniff_format():
    assert sniff_format(b"P2\n3 2\n7\n") == FORMAT_PGM
    assert sniff_format(b"P5\x0a1 1\x0a255\x0a\x00") == FORMAT_PGM
    assert sniff_format(b"0 1 1\n") == FORMAT_TEXT_GRID
    assert sniff_format(b"# 3 2\n0 0 0") == FORMAT_TEXT_GRID


def test_pgm_ascii_parse_with_comments():
    data = b"P2 # magic\n# a comment line\n3 2\n9\n0 1 1\n0 0 2\n"
    raster = load_raster(io.BytesIO(data), FORMAT_PGM)
    assert (raster.width, raster.height) == (3, 2)
    assert raster.label_at(2, 1) == 2


def test_pgm_ascii_value_above_maxval_rejected():
    with pytest.raises(RasterFormatError, match="exceeds maxval"):
        load_raster(io.BytesIO(b"P2\n2 1\n3\n0 4\n"), FORMAT_PGM)


def test_pgm_ascii_value_beyond_int64_is_located():
    data = b"P2\n2 1\n255\n0 99999999999999999999\n"
    with pytest.raises(RasterFormatError, match="exceeds maxval 255") as info:
        load_raster(io.BytesIO(data), FORMAT_PGM)
    assert (info.value.row, info.value.col) == (1, 2)


@pytest.mark.parametrize(
    "data, where",
    [
        (b"P2\n" + b"1" * 5000 + b" 1\n255\n0\n", (None, None)),
        (b"P5\n1 1\n" + b"2" * 5000 + b"\n\x00", (None, None)),
        (b"P2\n2 1\n255\n0 " + b"9" * 5000 + b"\n", (1, 2)),
        (b"P2\n2 1\n255\n0 " + b"0" * 5000 + b"7\n", (1, 2)),
    ],
    ids=["width", "maxval", "sample", "sample-leading-zeros"],
)
def test_pgm_token_beyond_int_digit_limit_is_format_error(data, where):
    # int() refuses more than 4300 digits with a plain ValueError.
    with pytest.raises(RasterFormatError) as info:
        load_raster(io.BytesIO(data), FORMAT_PGM)
    assert (info.value.row, info.value.col) == where


def test_pgm_ascii_wrong_value_count_rejected():
    with pytest.raises(RasterFormatError, match="expected 4"):
        load_raster(io.BytesIO(b"P2\n2 2\n5\n1 2 3\n"), FORMAT_PGM)


def test_pgm_binary_single_byte():
    data = b"P5\n3 2\n255\n" + bytes([0, 1, 1, 0, 0, 2])
    raster = load_raster(io.BytesIO(data), FORMAT_PGM)
    assert raster.label_at(1, 0) == 1
    assert raster.label_at(2, 1) == 2


def test_pgm_binary_two_byte_big_endian():
    values = [0, 300, 7, 65535]
    payload = b"".join(v.to_bytes(2, "big") for v in values)
    raster = load_raster(io.BytesIO(b"P5\n2 2\n65535\n" + payload), FORMAT_PGM)
    assert raster.label_at(1, 0) == 300
    assert raster.label_at(1, 1) == 65535


def test_pgm_binary_truncated_payload_rejected():
    with pytest.raises(RasterFormatError, match="payload"):
        load_raster(io.BytesIO(b"P5\n2 2\n255\n\x00\x01"), FORMAT_PGM)


@pytest.mark.parametrize(
    "data, got, need",
    [
        (b"P5\n1 1\n255\n\x00\x07", 2, 1),  # a trailing sample
        (b"P5\n1 1\n255\n\n\x00", 2, 1),  # the header's last whitespace doubled
        (b"P5\n1 2\n65535\n\x00\x01\x00\x02\x00", 5, 4),  # half a sample more
        (b"P5\n1 1\n1\n\x00P5\n1 1\n1\n\x01", 11, 1),  # a second image
    ],
)
def test_pgm_binary_payload_beyond_declared_rejected(data, got, need):
    # A file holds one image, so bytes past its samples are malformed.
    with pytest.raises(RasterFormatError, match=f"payload has {got} bytes, expected {need}"):
        load_raster(io.BytesIO(data), FORMAT_PGM)


def test_pgm_bad_magic_rejected():
    with pytest.raises(RasterFormatError, match="magic"):
        load_raster(io.BytesIO(b"P7\n1 1\n1\n0"), FORMAT_PGM)


def test_unknown_format_rejected():
    with pytest.raises(ValueError, match="unknown raster format"):
        load_raster(io.BytesIO(b"0"), "tiff")


# ---------------------------------------------------------------------------
# LabeledRaster
# ---------------------------------------------------------------------------


def test_raster_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shape"):
        LabeledRaster(width=3, height=2, labels=np.zeros((2, 2), dtype=int))


def test_raster_rejects_negative_labels():
    cases = [
        [[0, -3]],
        [[0, -(10**20)]],
        np.array([[0, -(2**63) - 1]], dtype=object),
        [[0.0, -1e30]],
        [[0.0, -(2.0**64)]],
    ]
    # Checked before the int64 cast, which would overflow or warn on all
    # but the first.
    for labels in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-negative"):
                LabeledRaster.from_array(labels)


@pytest.mark.parametrize(
    "labels",
    [
        np.array([[0, 2**63]], dtype=np.uint64),
        np.array([[0, 2**64 - 1]], dtype=np.uint64),
        [[0, 2**63]],
        [[0, 10**20]],
    ],
    ids=["uint64-2^63", "uint64-max", "int-2^63", "int-10^20"],
)
def test_raster_rejects_label_beyond_int64(labels):
    with pytest.raises(ValueError, match="does not fit in int64"):
        LabeledRaster.from_array(labels)


@pytest.mark.parametrize("label", [1.5, -0.5, float("nan"), float("inf")])
def test_raster_rejects_non_integral_float_label(label):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="is not an integer"):
            LabeledRaster.from_array([[0, label]])


@pytest.mark.parametrize(
    "labels",
    [
        np.array([[0, 1.5]], dtype=object),
        np.array([[0, 2.0]], dtype=object),
        np.array([[0, "7"]], dtype=object),
        np.array([[0, None]], dtype=object),
        np.array([[0, 1 + 0j]]),
        np.array([[0, 2 + 3j]]),
        [["0", "7"]],
        np.array([[b"0", b"7"]]),
    ],
    ids=[
        "object-fraction", "object-float", "object-str", "object-none",
        "complex-real", "complex", "str", "bytes",
    ],
)
def test_raster_rejects_non_integer_label(labels):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="not an integer|not integers"):
            LabeledRaster.from_array(labels)


def test_raster_accepts_object_integer_labels():
    raster = LabeledRaster.from_array(np.array([[0, 7, np.int64(2**63 - 1)]], dtype=object))
    assert raster.labels.tolist() == [[0, 7, 2**63 - 1]]


def test_raster_accepts_integral_float_labels():
    raster = LabeledRaster.from_array([[0.0, 2.0]])
    assert raster.labels.tolist() == [[0, 2]]


def test_raster_accepts_largest_int64_label_from_uint64():
    raster = LabeledRaster.from_array(np.array([[0, 2**63 - 1]], dtype=np.uint64))
    assert raster.label_at(1, 0) == 2**63 - 1
    assert raster.labels.dtype == np.int64


def test_raster_labels_are_frozen():
    raster = LabeledRaster.from_array([[0, 1]])
    with pytest.raises(ValueError):
        raster.labels[0, 0] = 5


@pytest.mark.parametrize("labels", [[1, 2], [], 7, [[[1]]]], ids=["1-D", "empty", "0-D", "3-D"])
def test_from_array_rejects_non_2d(labels):
    with pytest.raises(ValueError, match="labels must be a 2-D array"):
        LabeledRaster.from_array(labels)


@pytest.mark.parametrize("build", ["init", "from_array"])
def test_raster_copies_the_callers_array(build):
    # A raster never aliases memory that its caller can still write.
    grid = np.array([[0, 1], [2, 3]], dtype=np.int64)
    if build == "init":
        raster = LabeledRaster(width=2, height=2, labels=grid)
    else:
        raster = LabeledRaster.from_array(grid)
    grid[:] = 9
    assert raster.labels.tolist() == [[0, 1], [2, 3]]


#: One input per ``load_raster`` path; every grid's second row is [7, 1].
_LOAD_PATHS = {
    "text fast path": (b"0 300\n7 1\n", FORMAT_TEXT_GRID),
    "text cell loop": (b"0 +300\n7 1\n", FORMAT_TEXT_GRID),
    "P2": (b"P2\n2 2\n300\n0 300\n7 1\n", FORMAT_PGM),
    "P5 u1": (b"P5\n2 2\n255\n" + bytes([0, 255, 7, 1]), FORMAT_PGM),
    "P5 >u2": (b"P5\n2 2\n300\n" + np.array([0, 300, 7, 1], ">u2").tobytes(), FORMAT_PGM),
}


@pytest.mark.parametrize("path", sorted(_LOAD_PATHS))
def test_loaded_labels_are_read_only(path):
    data, fmt = _LOAD_PATHS[path]
    raster = load_raster(io.BytesIO(data), fmt)
    assert raster.labels.dtype == np.int64
    assert raster.labels.tolist()[1] == [7, 1]
    assert not raster.labels.flags.writeable
    with pytest.raises(ValueError):
        raster.labels[0, 0] = 5


def test_cluster_raster_labels_are_read_only():
    raster = LabeledRaster.from_array(QUAD_GRID)
    painted = write_cluster_raster(raster, [(1, [1, 4])], by_id(extract_isols(raster)))
    assert painted.labels.dtype == np.int64
    assert not painted.labels.flags.writeable
    with pytest.raises(ValueError):
        painted.labels[1, 1] = 5


def _traced_peak(fn, *args) -> int:
    """Peak bytes that ``fn(*args)`` allocated and had not yet freed."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_cluster_raster_allocates_one_canvas():
    # The canvas it paints becomes the result's labels; no second copy.
    grid = np.zeros((512, 512), dtype=np.int64)
    grid[100:140, 200:260] = 3
    grid[300:310, 10:500] = 8
    raster = LabeledRaster.from_array(grid)
    isols = by_id(extract_isols(raster))
    peak = _traced_peak(write_cluster_raster, raster, [(1, [3]), (2, [8])], isols)
    assert peak <= 1.1 * grid.nbytes


def test_p5_load_allocates_one_grid():
    # The int64 grid parsed from the samples becomes the raster's labels.
    data = b"P5\n512 512\n255\n" + bytes(range(256)) * 1024
    peak = _traced_peak(load_raster, io.BytesIO(data), FORMAT_PGM)
    # One int64 grid plus the one-byte samples cut from the file.
    assert peak <= 1.2 * 512 * 512 * 8


def _wide_grid() -> LabeledRaster:
    """A 1024x1024 raster of labels 0-1500, so most cells have 3-4 digits."""
    return LabeledRaster.from_array(np.random.default_rng(0).integers(0, 1501, (1024, 1024)))


@pytest.mark.parametrize("layout", ["header", "no header", "crlf"])
def test_text_grid_load_allocates_one_grid(layout):
    # The tokens are counted first and parsed into the one int64 grid that
    # becomes the raster's labels; the file is never decoded whole.
    raster = _wide_grid()
    data = dump_text_grid(raster, header=layout != "no header").encode()
    if layout == "crlf":
        data = data.replace(b"\n", b"\r\n")
    peak = _traced_peak(load_raster, io.BytesIO(data), FORMAT_TEXT_GRID)
    assert peak <= 1.3 * raster.labels.nbytes
    assert np.array_equal(load_raster(io.BytesIO(data), FORMAT_TEXT_GRID).labels, raster.labels)


def test_p2_load_allocates_one_grid():
    # Plain PGM wraps its lines at 70 characters, across raster rows.
    raster = _wide_grid()
    head, body = dump_pgm(raster).split(b"1500\n", 1)
    tokens = body.split()
    lines = [b" ".join(tokens[i : i + 14]) for i in range(0, len(tokens), 14)]
    assert max(map(len, lines)) <= 70
    data = head + b"1500\n" + b"\n".join(lines) + b"\n"
    peak = _traced_peak(load_raster, io.BytesIO(data), FORMAT_PGM)
    assert peak <= 1.3 * raster.labels.nbytes
    assert np.array_equal(load_raster(io.BytesIO(data), FORMAT_PGM).labels, raster.labels)


def test_label_at_bounds_checked():
    raster = LabeledRaster.from_array([[0, 1]])
    with pytest.raises(IndexError):
        raster.label_at(2, 0)


# ---------------------------------------------------------------------------
# extraction
# ---------------------------------------------------------------------------


def test_extract_quad_scene_segments():
    isols = extract_isols(LabeledRaster.from_array(QUAD_GRID))
    assert [i.id for i in isols] == [1, 2, 3, 4]
    segment = by_id(isols)[1]
    assert segment.pixels.tolist() == [[1, 1], [1, 2], [2, 1], [2, 2]]
    # 2x2 blocks have no interior: every pixel touches the outside.
    assert np.array_equal(segment.edge_pixels, segment.pixels)


def test_extract_interior_pixel_is_not_edge():
    grid = np.zeros((5, 5), dtype=int)
    grid[1:4, 1:4] = 9
    (isol,) = extract_isols(LabeledRaster.from_array(grid))
    assert (2, 2) not in pixel_set(isol.edge_pixels)
    assert len(isol.edge_pixels) == 8
    assert pixel_set(isol.edge_pixels) < pixel_set(isol.pixels)


def test_extract_border_counts_as_outside():
    # A blob flush against the raster edge is all edge pixels.
    (isol,) = extract_isols(LabeledRaster.from_array([[5, 5], [5, 5]]))
    assert np.array_equal(isol.edge_pixels, isol.pixels)


def test_extract_same_label_disconnected_patches_is_one_segment():
    grid = [[3, 0, 0, 3]]
    (isol,) = extract_isols(LabeledRaster.from_array(grid))
    assert isol.pixels.tolist() == [[0, 0], [3, 0]]


def test_extract_all_zero_raster_is_empty():
    assert extract_isols(LabeledRaster.from_array([[0, 0], [0, 0]])) == []


def test_extract_relabeling_permutes_output():
    base = np.array(QUAD_GRID)
    swap = {0: 0, 1: 4, 2: 3, 3: 2, 4: 1}
    relabeled = np.vectorize(swap.get)(base)
    original = by_id(extract_isols(LabeledRaster.from_array(base)))
    permuted = by_id(extract_isols(LabeledRaster.from_array(relabeled)))
    for old_id, new_id in swap.items():
        if old_id == 0:
            continue
        assert np.array_equal(original[old_id].pixels, permuted[new_id].pixels)
        assert np.array_equal(original[old_id].edge_pixels, permuted[new_id].edge_pixels)


@settings(max_examples=200, deadline=None)
@given(label_rasters() | synth_rasters | mosaic_rasters)
@example(LabeledRaster.from_array([[7, 0, 0, 7]]))  # disconnected patches
@example(LabeledRaster.from_array([[1], [2], [0], [2]]))  # touching, Nx1
@example(LabeledRaster.from_array([[2**63 - 1, 65536], [256, 0]]))  # wide labels
def test_extract_matches_mask_oracle(raster):
    got = extract_isols(raster)
    want = brute_force_isols(raster)
    assert got == want
    for isol, ref in zip(got, want):
        assert type(isol.id) is int
        # Read-only int64 arrays of distinct rows, ascending by (x, y).
        for array in (isol.pixels, isol.edge_pixels):
            assert array.dtype == np.int64 and not array.flags.writeable
            assert list(map(tuple, array.tolist())) == sorted(pixel_set(array))


def test_isol_takes_any_collection_of_pairs():
    pairs = [(2, 0), (0, 1), (0, 0), (1, 5)]
    caller = np.array(pairs, dtype=np.int64)
    made = [
        Isol(3, frozenset(pairs), frozenset(pairs[:2])),
        Isol(3, pairs + pairs[::-1], pairs[:2]),  # repeats are dropped
        Isol(3, caller, caller[:2]),
    ]
    assert made[0] == made[1] == made[2]
    for isol in made:
        for array, want in ((isol.pixels, sorted(pairs)), (isol.edge_pixels, sorted(pairs[:2]))):
            assert array.dtype == np.int64 and array.shape == (len(want), 2)
            assert not array.flags.writeable
            assert list(map(tuple, array.tolist())) == want
    # The caller's array is copied: neither frozen nor aliased.
    assert caller.flags.writeable
    assert not np.shares_memory(made[2].pixels, caller)
    assert not np.shares_memory(made[2].edge_pixels, caller)
    caller[0] = (9, 9)
    assert made[2] == made[0]
    assert Isol(3, pairs[:3], pairs[:2]) != made[0]
    assert Isol(3, pairs, pairs[:3]) != made[0]
    assert Isol(4, pairs, pairs[:2]) != made[0]
    empty = Isol(5, frozenset(), [])
    assert empty.pixels.shape == empty.edge_pixels.shape == (0, 2)
    assert empty.pixels.dtype == np.int64


@pytest.mark.parametrize(
    "pairs, stray",
    [
        ([(2**63, 0)], (2**63, 0)),
        ([(2, 0), (0, -(2**63) - 1)], (0, -(2**63) - 1)),
        ([(5, 0), (2**64, 0)], (2**64, 0)),
    ],
    ids=["x-past-max", "y-below-min", "beside-a-stray-pixel"],
)
def test_isol_rejects_coordinates_past_int64(pairs, stray):
    # Raised when the isol is built, from pixels or edge pixels, whatever
    # collection holds them.
    message = f"isol 2 pixel \\({stray[0]}, {stray[1]}\\) has a coordinate past int64"
    for collection in (frozenset, list, lambda p: np.array(p, dtype=object)):
        with pytest.raises(ValueError, match=message):
            Isol(2, collection(pairs), frozenset())
        with pytest.raises(ValueError, match=message):
            Isol(2, frozenset(), collection(pairs))


_NOT_INTEGER = "has a non-integer coordinate"
_NOT_A_PAIR = "is not an (x, y) pair"


@pytest.mark.parametrize(
    "pairs, stray, array_stray, problem",
    [
        ([(1.5, 2)], "(1.5, 2)", "(1.5, 2.0)", _NOT_INTEGER),
        ([(0, 0), (1.9, 2.0)], "(1.9, 2.0)", "(0.0, 0.0)", _NOT_INTEGER),
        ([(3, 4), (5, 2.0)], "(5, 2.0)", "(3.0, 4.0)", _NOT_INTEGER),
        ([(1, 2), ("a", 1)], "('a', 1)", "('1', '2')", _NOT_INTEGER),
        ([(None, 1), (2, 3)], "(None, 1)", "(None, 1)", _NOT_INTEGER),
        ([(1, 2, 3)], "(1, 2, 3)", "(1, 2, 3)", _NOT_A_PAIR),
        ([(1,)], "(1,)", "(1,)", _NOT_A_PAIR),
        ([("c", 3), ("a", 1), ("b", 2)], "('a', 1)", "('a', '1')", _NOT_INTEGER),
    ],
    ids=["x-half", "beside-an-integer-pixel", "whole-float", "str-beside-an-integer-pixel",
         "none", "triple", "single", "several-str-rows"],
)
def test_isol_rejects_non_integer_coordinates(pairs, stray, array_stray, problem):
    # A float coordinate, even a whole one, would be truncated where the
    # isol is cast to int64; it is refused whatever collection holds it.
    # Rows are checked before they are sorted, so a row of mixed types or
    # one that is not a pair is named as well.  In a float or str array
    # every coordinate is a float or a str.  Of several bad rows, the one
    # whose repr sorts first is named, whatever order they come in.
    for collection, named in ((frozenset, stray), (list, stray), (np.array, array_stray)):
        message = re.escape(f"isol 2 pixel {named} {problem}")
        with pytest.raises(ValueError, match=message):
            Isol(2, collection(pairs), frozenset())
        with pytest.raises(ValueError, match=message):
            Isol(2, frozenset(), collection(pairs))


def test_isol_names_the_same_bad_row_under_every_hash_seed():
    # A frozenset of str rows iterates in an order that follows the string
    # hash seed; the message must not.
    code = textwrap.dedent("""
        from crownmerge import Isol
        try:
            Isol(1, frozenset([("a", 1), ("b", 2), ("c", 3)]), [])
        except ValueError as exc:
            print(exc)
    """)
    path = [str(Path(raster_io.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    messages = {
        subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONHASHSEED": str(seed), "PYTHONPATH": os.pathsep.join(path)},
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for seed in range(4)
    }
    assert messages == {"isol 1 pixel ('a', 1) has a non-integer coordinate\n"}


@pytest.mark.parametrize("isol_id", [2**63, -(2**63) - 1, 0, -1, 2.0, "1", None])
def test_isol_rejects_ids_outside_the_labels(isol_id):
    # An id is a label, an integer in 1..2**63-1, so every int64 array
    # made from ids holds it as it is.
    message = re.escape(f"isol id {isol_id!r} is not an integer in 1..{2**63 - 1}")
    for pixels in (frozenset(), [(0, 0)]):
        with pytest.raises(ValueError, match=message):
            Isol(isol_id, pixels, pixels)


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def test_text_grid_round_trip():
    raster = LabeledRaster.from_array(QUAD_GRID)
    again = parse(dump_text_grid(raster))
    assert np.array_equal(raster.labels, again.labels)


def test_text_grid_header_toggle():
    raster = LabeledRaster.from_array([[0, 7]])
    assert dump_text_grid(raster).startswith("# 2 1\n")
    assert dump_text_grid(raster, header=False) == "0 7\n"


def test_pgm_round_trip():
    raster = LabeledRaster.from_array(QUAD_GRID)
    data = dump_pgm(raster)
    assert data.startswith(b"P2\n13 7\n4\n")
    again = load_raster(io.BytesIO(data), FORMAT_PGM)
    assert np.array_equal(raster.labels, again.labels)


@settings(max_examples=200, deadline=None)
@given(label_grids(), st.integers(1, 2048))
def test_writers_match_str_join_oracle(grid, block):
    height, width = grid.shape
    raster = LabeledRaster.from_array(grid)
    pgm_raster = LabeledRaster.from_array(grid % 65536)
    with mock.patch.object(raster_io, "_BLOCK", block):
        text = dump_text_grid(raster)
        bare = dump_text_grid(raster, header=False)
        pgm = dump_pgm(pgm_raster)
    assert bare == format_rows(grid.tolist())
    assert text == f"# {width} {height}\n" + bare
    maxval = max(1, int(pgm_raster.labels.max()))
    want = f"P2\n{width} {height}\n{maxval}\n" + format_rows(pgm_raster.labels.tolist())
    assert pgm == want.encode("ascii")


def test_pgm_dump_all_zero_uses_maxval_one():
    assert dump_pgm(LabeledRaster.from_array([[0]])).startswith(b"P2\n1 1\n1\n")


def test_cluster_raster_paints_groups():
    raster = LabeledRaster.from_array(QUAD_GRID)
    isols = by_id(extract_isols(raster))
    painted = write_cluster_raster(raster, [(1, [1, 4]), (2, [3])], isols)
    assert painted.label_at(1, 1) == 1
    assert painted.label_at(1, 4) == 1
    assert painted.label_at(6, 5) == 2
    assert painted.label_at(7, 1) == 0  # segment 2 left unpainted


def test_cluster_raster_rejects_double_assignment():
    raster = LabeledRaster.from_array(QUAD_GRID)
    isols = by_id(extract_isols(raster))
    with pytest.raises(ValueError, match="more than one group"):
        write_cluster_raster(raster, [(1, [1]), (2, [1])], isols)


def test_cluster_raster_rejects_unknown_segment():
    raster = LabeledRaster.from_array(QUAD_GRID)
    with pytest.raises(ValueError, match="unknown isol"):
        write_cluster_raster(raster, [(1, [9])], by_id(extract_isols(raster)))


def test_cluster_raster_rejects_bad_group_id():
    raster = LabeledRaster.from_array(QUAD_GRID)
    with pytest.raises(ValueError, match="positive"):
        write_cluster_raster(raster, [(0, [1])], by_id(extract_isols(raster)))


@pytest.mark.parametrize("group_id", [1.5, 2.0, "1", 2**63, np.uint64(2**63)])
def test_cluster_raster_rejects_non_int64_group_id(group_id):
    raster = LabeledRaster.from_array(QUAD_GRID)
    message = f"group id {group_id!r} is not an integer in 1..{2**63 - 1}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        write_cluster_raster(raster, [(group_id, [1])], by_id(extract_isols(raster)))
