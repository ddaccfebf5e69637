"""Fuzzing the PGM reader: well-formed P2/P5 encodings of small grids read
back exactly, and every byte-level mutation of one either reads as some
raster or fails as a ``RasterFormatError``, which ``run`` turns into exit
code 2 without creating ``--out``.
"""

from __future__ import annotations

import io
import tempfile
import warnings
from pathlib import Path

from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from crownmerge import FORMAT_PGM, RasterFormatError, load_raster
from crownmerge.cli import main

MAXVALS = (1, 255, 256, 65535)
LINE_ENDS = (b"\n", b"\r", b"\r\n")


@st.composite
def pgm_files(draw) -> tuple[bytes, int, list[list[int]]]:
    """``(encoding, header length, rows)`` of a grid of up to 4x4 samples.

    Header tokens are separated by a space, tab or line end, each with an
    optional comment line after it; P2 rows end in that line end, and a P5
    header ends in exactly one whitespace byte.
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
        body = b"".join(b" ".join(str(v).encode() for v in row) + end for row in rows)
    else:
        header += draw(st.sampled_from((b" ", b"\t", b"\n", b"\r")))
        size = 1 if maxval < 256 else 2
        body = b"".join(v.to_bytes(size, "big") for v in samples)
    return header + body, len(header), rows


@st.composite
def mutated_pgm_files(draw) -> bytes:
    """A PGM encoding truncated, with a byte dropped or duplicated, with a
    ``#`` spliced in, or with one header digit changed.

    Positions are drawn uniformly, and past the magic number except for
    truncation, so that most mutations reach the header tokens and samples.
    """
    data, header_len, _ = draw(pgm_files())
    kind = draw(st.sampled_from(("truncate", "drop", "duplicate", "splice", "digit")))
    if kind == "truncate":
        return data[: draw(st.sampled_from(range(len(data))))]
    if kind == "digit":
        digits = [i for i in range(2, header_len) if data[i : i + 1].isdigit()]
        i = draw(st.sampled_from(digits))
        new = draw(st.sampled_from(b"0123456789").filter(lambda d: d != data[i]))
        return data[:i] + bytes([new]) + data[i + 1 :]
    i = draw(st.sampled_from(range(2, len(data))))
    if kind == "drop":
        return data[:i] + data[i + 1 :]
    if kind == "duplicate":
        return data[: i + 1] + data[i:]
    return data[:i] + b"#" + data[i:]


def _load(data: bytes):
    """``load_raster`` with every warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return load_raster(io.BytesIO(data), FORMAT_PGM)


@settings(max_examples=300, deadline=None)
@given(pgm_files())
def test_pgm_encodings_read_back_exactly(case):
    data, _, rows = case
    raster = _load(data)
    assert raster.labels.tolist() == rows


@settings(max_examples=500, deadline=None)
@given(mutated_pgm_files())
def test_mutated_pgm_reads_or_fails_as_format_error(data):
    try:
        raster = _load(data)
    except RasterFormatError:
        return
    assert raster.labels.min() >= 0


@settings(max_examples=150, deadline=None)
@given(mutated_pgm_files())
def test_run_rejects_malformed_pgm_with_exit_2_and_no_output(data):
    try:
        _load(data)
    except RasterFormatError:
        pass
    else:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "scene.pgm", Path(tmp) / "out"
        path.write_bytes(data)
        result = CliRunner().invoke(
            main, ["run", "--input", str(path), "--format", "pgm", "--out", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert result.stderr.startswith("error: ")
        assert not out.exists()
