"""Labeled raster loading, segment extraction, and raster writers.

A labeled raster assigns a non-negative integer to every pixel: 0 marks
interstitial ground, any positive value names a segment (ISOL).  Segments
are defined purely by label equality; a label spread over disconnected
patches is still one segment.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import compress
from typing import BinaryIO, Iterable, Mapping, Sequence

import numpy as np

FORMAT_TEXT_GRID = "text-grid"
FORMAT_PGM = "pgm"
FORMATS = (FORMAT_TEXT_GRID, FORMAT_PGM)

PixelCoord = tuple[int, int]


class RasterFormatError(ValueError):
    """Malformed raster input.  Carries a human-readable position."""

    def __init__(self, message: str, row: int | None = None, col: int | None = None):
        where = ""
        if row is not None:
            where = f" (row {row}" + (f", column {col}" if col is not None else "") + ")"
        super().__init__(message + where)
        self.row = row
        self.col = col


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class LabeledRaster:
    """Immutable 2-D grid of integer labels, row-major, origin top-left.

    ``labels`` has shape (height, width); pixel (x, y) is ``labels[y, x]``.
    """

    width: int
    height: int
    labels: np.ndarray

    def __post_init__(self):
        raw = np.asarray(self.labels)
        # Unsigned, float (numpy's pick for Python ints mixing 0 and 2**63)
        # and object (Python ints beyond 2**64) labels would wrap or
        # overflow in the cast.  ``2**63`` compares exactly against all three.
        if raw.size and raw.dtype.kind in "uOf" and raw.max() >= 2**63:
            raise ValueError(f"label {raw.max()} does not fit in int64")
        arr = np.array(raw, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ValueError("labels must be a 2-D array")
        if arr.shape != (self.height, self.width):
            raise ValueError(
                f"label array shape {arr.shape} does not match "
                f"height={self.height}, width={self.width}"
            )
        if self.width < 1 or self.height < 1:
            raise ValueError("raster must be at least 1x1")
        if arr.min() < 0:
            raise ValueError("labels must be non-negative")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @classmethod
    def from_array(cls, labels: np.ndarray | Sequence[Sequence[int]]) -> "LabeledRaster":
        arr = np.asarray(labels)
        return cls(width=arr.shape[1], height=arr.shape[0], labels=arr)

    def label_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"pixel ({x}, {y}) outside {self.width}x{self.height} raster")
        return int(self.labels[y, x])

    def positive_ids(self) -> tuple[int, ...]:
        """Distinct positive labels, ascending."""
        ids = np.unique(self.labels)
        return tuple(int(v) for v in ids if v > 0)


@dataclass(frozen=True)
class Isol:
    """One segment: its label, every pixel, and the boundary subset.

    Edge pixels are those with at least one 4-neighbour that is outside
    the segment (different label, 0, or off the raster).
    """

    id: int
    pixels: frozenset[PixelCoord]
    edge_pixels: frozenset[PixelCoord]


def by_id(isols: Iterable[Isol]) -> dict[int, Isol]:
    return {isol.id: isol for isol in isols}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(rb"^#\s*(\d+)\s+(\d+)\s*$")

#: Labels are held as int64.
_MAX_LABEL = int(np.iinfo(np.int64).max)


def sniff_format(head: bytes) -> str:
    """Guess the raster format from the first bytes of a file."""
    return FORMAT_PGM if head[:2] in (b"P2", b"P5") else FORMAT_TEXT_GRID


def load_raster(stream: BinaryIO, fmt: str) -> LabeledRaster:
    """Parse a labeled raster from a byte stream.

    Args:
        stream: readable binary stream positioned at the start of the file.
        fmt: one of ``text-grid`` or ``pgm``.

    Raises:
        RasterFormatError: malformed content, with row/column where known.
    """
    data = stream.read()
    if fmt == FORMAT_TEXT_GRID:
        return _parse_text_grid(data)
    if fmt == FORMAT_PGM:
        return _parse_pgm(data)
    raise ValueError(f"unknown raster format {fmt!r}; expected one of {FORMATS}")


def _parse_text_grid(data: bytes) -> LabeledRaster:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RasterFormatError(f"text grid is not valid UTF-8: {exc}") from None

    lines = text.splitlines()
    declared: tuple[int, int] | None = None
    start = 0
    if lines and lines[0].lstrip().startswith("#"):
        m = _HEADER_RE.match(lines[0].strip().encode())
        if not m:
            raise RasterFormatError(f"malformed header line {lines[0]!r}", row=1)
        declared = (int(m.group(1)), int(m.group(2)))
        start = 1

    rows: list[list[int]] = []
    width: int | None = None
    for lineno, line in enumerate(lines[start:], start=start + 1):
        if not line.strip():
            continue
        cells = line.split()
        row: list[int] = []
        for colno, cell in enumerate(cells, start=1):
            try:
                value = int(cell)
            except ValueError:
                raise RasterFormatError(
                    f"non-integer cell {cell!r}", row=lineno, col=colno
                ) from None
            if value < 0:
                raise RasterFormatError(f"negative label {value}", row=lineno, col=colno)
            if value > _MAX_LABEL:
                raise RasterFormatError(
                    f"label {value} does not fit in int64", row=lineno, col=colno
                )
            row.append(value)
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise RasterFormatError(
                f"row has {len(row)} cells, expected {width}", row=lineno
            )
        rows.append(row)

    if not rows:
        raise RasterFormatError("text grid contains no rows")
    assert width is not None
    if declared is not None and (width, len(rows)) != declared:
        raise RasterFormatError(
            f"header declares {declared[0]}x{declared[1]} "
            f"but grid is {width}x{len(rows)}"
        )
    return LabeledRaster(width=width, height=len(rows), labels=np.array(rows))


def _parse_pgm(data: bytes) -> LabeledRaster:
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise RasterFormatError(f"not a PGM file (magic {magic!r})")

    # Header tokens may be separated by whitespace and '#' comments.
    pos = 2
    tokens: list[int] = []
    while len(tokens) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        end = pos
        while end < len(data) and not data[end : end + 1].isspace():
            end += 1
        if end == pos:
            raise RasterFormatError("truncated PGM header")
        tok = data[pos:end]
        if not tok.isdigit():
            raise RasterFormatError(f"bad PGM header token {tok!r}")
        tokens.append(int(tok))
        pos = end

    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise RasterFormatError(f"bad PGM dimensions {width}x{height}")
    if not (0 < maxval < 65536):
        raise RasterFormatError(f"PGM maxval {maxval} out of range 1..65535")

    if magic == b"P2":
        body = data[pos:].split()
        if len(body) != width * height:
            raise RasterFormatError(
                f"PGM data has {len(body)} values, expected {width * height}"
            )
        values = []
        for i, tok in enumerate(body):
            if not tok.isdigit():
                raise RasterFormatError(
                    f"non-integer PGM value {tok!r}",
                    row=i // width + 1,
                    col=i % width + 1,
                )
            values.append(int(tok))
        arr = np.array(values, dtype=np.int64).reshape(height, width)
    else:
        # P5: exactly one whitespace byte after maxval, then raw samples.
        pos += 1
        itemsize = 1 if maxval < 256 else 2
        need = width * height * itemsize
        raw = data[pos : pos + need]
        if len(raw) != need:
            raise RasterFormatError(
                f"PGM payload has {len(raw)} bytes, expected {need}"
            )
        dtype = np.uint8 if itemsize == 1 else ">u2"
        arr = np.frombuffer(raw, dtype=dtype).astype(np.int64).reshape(height, width)

    if arr.max(initial=0) > maxval:
        flat = int(np.argmax(arr))
        raise RasterFormatError(
            f"PGM value {int(arr.max())} exceeds maxval {maxval}",
            row=flat // width + 1,
            col=flat % width + 1,
        )
    return LabeledRaster(width=width, height=height, labels=arr)


# ---------------------------------------------------------------------------
# segment extraction
# ---------------------------------------------------------------------------


def extract_isols(raster: LabeledRaster) -> list[Isol]:
    """Collect every positive label as a segment with its edge-pixel set.

    Returns segments sorted by id.  An all-zero raster yields an empty list.

    One sorted pass: the flat indices of all labelled pixels are stably
    sorted by label and cut into one run per label.  The stable sort keeps
    row-major order inside each run, so every frozenset is built by
    inserting its pixels in row-major order.
    """
    labels = raster.labels
    # A pixel is an edge pixel if any 4-neighbour has a different label;
    # the raster border counts as outside.
    differs = np.zeros(labels.shape, dtype=bool)
    differs[0, :] = True
    differs[-1, :] = True
    differs[:, 0] = True
    differs[:, -1] = True
    differs[1:, :] |= labels[1:, :] != labels[:-1, :]
    differs[:-1, :] |= labels[:-1, :] != labels[1:, :]
    differs[:, 1:] |= labels[:, 1:] != labels[:, :-1]
    differs[:, :-1] |= labels[:, :-1] != labels[:, 1:]

    flat = labels.ravel()
    nonzero = np.flatnonzero(flat)
    order = np.argsort(flat[nonzero], kind="stable")
    index = nonzero[order]
    ids, starts = np.unique(flat[index], return_index=True)
    ys, xs = np.divmod(index, raster.width)
    points = list(zip(xs.tolist(), ys.tolist()))
    is_edge = differs.ravel()[index].tolist()
    bounds = [*starts.tolist(), len(points)]

    out: list[Isol] = []
    for i, isol_id in enumerate(ids.tolist()):
        run = points[bounds[i] : bounds[i + 1]]
        edges = compress(run, is_edge[bounds[i] : bounds[i + 1]])
        out.append(Isol(id=isol_id, pixels=frozenset(run), edge_pixels=frozenset(edges)))
    return out


# ---------------------------------------------------------------------------
# writers
# ---------------------------------------------------------------------------


def write_cluster_raster(
    raster: LabeledRaster,
    groups: Sequence[tuple[int, Iterable[int]]],
    isols: Mapping[int, Isol],
) -> LabeledRaster:
    """Paint each group's member segments with the group id.

    Args:
        raster: the input raster the segments came from.
        groups: (group_id, member isol ids) pairs; group ids must be
            positive and member sets pairwise disjoint.
        isols: segment lookup by id.

    Returns:
        A raster of the same shape where every pixel of a grouped segment
        holds its group id and everything else is 0.
    """
    out = np.zeros((raster.height, raster.width), dtype=np.int64)
    seen: set[int] = set()
    for group_id, member_ids in groups:
        if group_id < 1:
            raise ValueError(f"group id must be positive, got {group_id}")
        for isol_id in member_ids:
            if isol_id in seen:
                raise ValueError(f"isol {isol_id} assigned to more than one group")
            seen.add(isol_id)
            isol = isols.get(isol_id)
            if isol is None:
                raise ValueError(f"unknown isol id {isol_id}")
            for x, y in isol.pixels:
                out[y, x] = group_id
    return LabeledRaster(width=raster.width, height=raster.height, labels=out)


def dump_text_grid(raster: LabeledRaster, header: bool = True) -> str:
    lines = []
    if header:
        lines.append(f"# {raster.width} {raster.height}")
    lines.extend(" ".join(map(str, row)) for row in raster.labels.tolist())
    return "\n".join(lines) + "\n"


def dump_pgm(raster: LabeledRaster) -> bytes:
    """Render as ASCII PGM (P2) with maxval = largest label (at least 1)."""
    maxval = max(1, int(raster.labels.max(initial=0)))
    if maxval > 65535:
        raise ValueError(f"label {maxval} too large for PGM")
    lines = ["P2", f"{raster.width} {raster.height}", f"{maxval}"]
    lines.extend(" ".join(map(str, row)) for row in raster.labels.tolist())
    return ("\n".join(lines) + "\n").encode("ascii")
