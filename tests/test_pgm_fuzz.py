"""Fuzzing the raster readers: well-formed P2/P5 encodings of small grids
read back exactly, and every byte-level mutation of one either reads as
some raster or fails as a ``RasterFormatError``, which ``run`` turns into
exit code 2 without creating ``--out``.  A mutation that changes a P5
payload's length never reads, and neither does a PGM or text-grid file
that starts with a UTF-8 byte-order mark.
"""

from __future__ import annotations

import codecs
import io
import tempfile
import warnings
from contextlib import nullcontext
from pathlib import Path
from unittest import mock

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from crownmerge import raster_io
from crownmerge import (
    FORMAT_PGM,
    FORMAT_TEXT_GRID,
    RasterFormatError,
    dump_text_grid,
    load_raster,
    sniff_format,
)
from crownmerge.cli import main

from conftest import label_rasters

MAXVALS = (1, 255, 256, 65535)
LINE_ENDS = (b"\n", b"\r", b"\r\n")


@st.composite
def pgm_files(draw) -> tuple[bytes, int, list[list[int]]]:
    """``(encoding, header length, rows)`` of a grid of up to 4x4 samples.

    Header tokens are separated by a space, tab or line end, each with an
    optional comment line after it; P2 lines end in that line end and hold
    either one raster row or a drawn number of samples (as plain PGM may
    wrap anywhere), up to all of them on one line, and a P5 header ends in
    exactly one whitespace byte.
    """
    magic = draw(st.sampled_from((b"P2", b"P5")))
    maxval = draw(st.sampled_from(MAXVALS))
    height, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, maxval), min_size=width, max_size=width),
            min_size=height,
            max_size=height,
        )
    )
    end = draw(st.sampled_from(LINE_ENDS))

    def separator() -> bytes:
        space = draw(st.sampled_from((b" ", b"\t", end)))
        return space + draw(st.sampled_from((b"", b"# note" + end)))

    header = magic
    for token in (width, height):
        header += separator() + str(token).encode()
    header += separator() + str(maxval).encode()
    samples = [v for row in rows for v in row]
    if magic == b"P2":
        header += end
        per_line = draw(st.none() | st.integers(1, len(samples)))
        lines = rows if per_line is None else [
            samples[i : i + per_line] for i in range(0, len(samples), per_line)
        ]
        body = b"".join(b" ".join(str(v).encode() for v in line) + end for line in lines)
    else:
        header += draw(st.sampled_from((b" ", b"\t", b"\n", b"\r")))
        size = 1 if maxval < 256 else 2
        body = b"".join(v.to_bytes(size, "big") for v in samples)
    return header + body, len(header), rows


@st.composite
def mutated_pgm_files(draw) -> tuple[bytes, bool]:
    """``(encoding, resized)``: a PGM encoding truncated, with a byte dropped
    or duplicated, with a ``#`` spliced in, or with one header digit changed.

    Positions are drawn uniformly, and past the magic number except for
    truncation, so that most mutations reach the header tokens and samples.
    ``resized`` says the mutation changed a P5 payload's length: any
    truncation, or a byte dropped, duplicated or spliced in at or after the
    header's last whitespace byte.
    """
    data, header_len, _ = draw(pgm_files())
    kind = draw(st.sampled_from(("truncate", "drop", "duplicate", "splice", "digit")))
    p5 = data[:2] == b"P5"
    if kind == "truncate":
        return data[: draw(st.sampled_from(range(len(data))))], p5
    if kind == "digit":
        digits = [i for i in range(2, header_len) if data[i : i + 1].isdigit()]
        i = draw(st.sampled_from(digits))
        new = draw(st.sampled_from(b"0123456789").filter(lambda d: d != data[i]))
        return data[:i] + bytes([new]) + data[i + 1 :], False
    i = draw(st.sampled_from(range(2, len(data))))
    resized = p5 and i >= header_len - 1
    if kind == "drop":
        return data[:i] + data[i + 1 :], resized
    if kind == "duplicate":
        return data[: i + 1] + data[i:], resized
    return data[:i] + b"#" + data[i:], resized


@st.composite
def p2_files_near_maxval(draw) -> bytes:
    """A P2 file whose samples are drawn around its maxval, so that some
    exceed it, wrapped at a drawn number of samples per line."""
    maxval = draw(st.integers(1, 65535))
    samples = draw(
        st.lists(st.integers(max(0, maxval - 2), maxval + 2), min_size=1, max_size=16)
    )
    width = draw(st.sampled_from([w for w in range(1, 5) if len(samples) % w == 0]))
    per_line = draw(st.integers(1, len(samples)))
    lines = [samples[i : i + per_line] for i in range(0, len(samples), per_line)]
    body = b"".join(b" ".join(b"%d" % v for v in line) + b"\n" for line in lines)
    return b"P2\n%d %d\n%d\n" % (width, len(samples) // width, maxval) + body


@st.composite
def bom_files(draw) -> tuple[bytes, str]:
    """``(encoding, --format)``: a well-formed P2/P5 file or text grid (with
    or without its ``# W H`` header) behind a UTF-8 byte-order mark, read
    as its own format or autodetected."""
    if draw(st.booleans()):
        data, fmt = draw(pgm_files())[0], FORMAT_PGM
    else:
        grid = dump_text_grid(draw(label_rasters()), header=draw(st.booleans()))
        data, fmt = grid.encode(), FORMAT_TEXT_GRID
    return codecs.BOM_UTF8 + data, draw(st.sampled_from((fmt, "auto")))


def _load(data: bytes, fmt: str = FORMAT_PGM):
    """``load_raster`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_raster(io.BytesIO(data), fmt)


def _outcome(data: bytes) -> tuple:
    """What ``_load`` makes of ``data``: its grid, or its error and where."""
    try:
        return ("grid", _load(data).labels.tolist())
    except RasterFormatError as exc:
        return ("error", str(exc), exc.row, exc.col)


def _assert_run_exits_2(data: bytes, fmt: str) -> None:
    """``run --format fmt`` on ``data`` fails with exit code 2 and an
    ``error:`` line, and creates no ``--out``."""
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scene", Path(tmp) / "out"
        path.write_bytes(data)
        result = CliRunner().invoke(
            main, ["run", "--input", str(path), "--format", fmt, "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert not out.exists()


@settings(max_examples=300, deadline=None)
@given(pgm_files())
def test_pgm_encodings_read_back_exactly(case):
    data, _, rows = case
    raster = _load(data)
    assert raster.labels.tolist() == rows


@settings(max_examples=500, deadline=None)
@given(mutated_pgm_files())
def test_mutated_pgm_reads_or_fails_as_format_error(case):
    data, resized = case
    try:
        raster = _load(data)
    except RasterFormatError:
        return
    assert not resized, "a P5 payload of the wrong length was read"
    assert raster.labels.min() >= 0


@settings(max_examples=150, deadline=None)
@given(mutated_pgm_files())
def test_run_rejects_malformed_pgm_with_exit_2_and_no_output(case):
    data, _ = case
    try:
        _load(data)
    except RasterFormatError:
        _assert_run_exits_2(data, FORMAT_PGM)


@settings(max_examples=100, deadline=None)
@given(bom_files())
def test_byte_order_mark_is_rejected_with_exit_2_and_no_output(case):
    data, fmt = case
    with pytest.raises(RasterFormatError, match="byte-order mark"):
        _load(data, sniff_format(data[:64]) if fmt == "auto" else fmt)
    _assert_run_exits_2(data, fmt)


@settings(max_examples=400, deadline=None)
@given(
    pgm_files().map(lambda case: (case[0], True))
    | mutated_pgm_files().map(lambda case: (case[0], False))
    | p2_files_near_maxval().map(lambda data: (data, False)),
    st.integers(1, 64),
)
def test_p2_fast_path_matches_per_token_loop(case, block):
    # Any layout, any mutation: the block reader gives the grid the
    # per-token loop gives, or hands the input to it for the same error.
    # A well-formed file never reaches the loop.  Small blocks make most
    # bodies span several.
    data, well_formed = case
    loop = (
        mock.patch.object(
            raster_io, "_read_pgm_samples", side_effect=AssertionError("per-token loop")
        )
        if well_formed
        else nullcontext()
    )
    with mock.patch.object(raster_io, "_BLOCK", block):
        with loop:
            got = _outcome(data)
        with mock.patch.object(raster_io, "_read_plain_pgm", return_value=None):
            want = _outcome(data)
    assert got == want
