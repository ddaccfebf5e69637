"""Raster parsing, segment extraction, and writers."""

from __future__ import annotations

import io
import random
import warnings
from contextlib import nullcontext
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crownmerge import raster_io
from crownmerge import (
    FORMAT_PGM,
    FORMAT_TEXT_GRID,
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

from conftest import LABEL_VALUES, QUAD_GRID, label_rasters, synth_rasters
from oracles import brute_force_isols, format_rows, parse_text_rows


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


#: Labels at the digit counts the text-grid reader and writer switch on.
DIGIT_EDGES = (0, 9, 10, 99, 100, 10**17, 10**18 - 1, 10**18, 2**63 - 1)


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
    assert segment.pixels == {(1, 1), (2, 1), (1, 2), (2, 2)}
    # 2x2 blocks have no interior: every pixel touches the outside.
    assert segment.edge_pixels == segment.pixels


def test_extract_interior_pixel_is_not_edge():
    grid = np.zeros((5, 5), dtype=int)
    grid[1:4, 1:4] = 9
    (isol,) = extract_isols(LabeledRaster.from_array(grid))
    assert (2, 2) not in isol.edge_pixels
    assert len(isol.edge_pixels) == 8
    assert isol.edge_pixels < isol.pixels


def test_extract_border_counts_as_outside():
    # A blob flush against the raster edge is all edge pixels.
    (isol,) = extract_isols(LabeledRaster.from_array([[5, 5], [5, 5]]))
    assert isol.edge_pixels == isol.pixels


def test_extract_same_label_disconnected_patches_is_one_segment():
    grid = [[3, 0, 0, 3]]
    (isol,) = extract_isols(LabeledRaster.from_array(grid))
    assert isol.pixels == {(0, 0), (3, 0)}


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
        assert original[old_id].pixels == permuted[new_id].pixels
        assert original[old_id].edge_pixels == permuted[new_id].edge_pixels


@settings(max_examples=200, deadline=None)
@given(label_rasters() | synth_rasters)
@example(LabeledRaster.from_array([[7, 0, 0, 7]]))  # disconnected patches
@example(LabeledRaster.from_array([[1], [2], [0], [2]]))  # touching, Nx1
@example(LabeledRaster.from_array([[2**63 - 1, 65536], [256, 0]]))  # wide labels
def test_extract_matches_mask_oracle(raster):
    got = extract_isols(raster)
    want = brute_force_isols(raster)
    assert got == want
    for isol, ref in zip(got, want):
        assert type(isol.id) is int
        # The same row-major insertion order, so the sets iterate alike.
        assert list(isol.pixels) == list(ref.pixels)
        assert list(isol.edge_pixels) == list(ref.edge_pixels)


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
