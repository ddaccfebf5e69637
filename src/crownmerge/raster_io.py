"""Labeled raster loading, segment extraction, and raster writers.

A labeled raster assigns a non-negative integer to every pixel: 0 marks
interstitial ground, any positive value names a segment (ISOL).  Segments
are defined purely by label equality; a label spread over disconnected
patches is still one segment.
"""

from __future__ import annotations

import numbers
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
        # The cast would drop an imaginary part, parse strings and bytes,
        # truncate a fraction and turn NaN or infinity into an arbitrary
        # integer.
        if raw.dtype.kind not in "biufO":
            raise ValueError(f"labels of dtype {raw.dtype} are not integers")
        if raw.dtype.kind == "O":
            for value in raw.flat:
                if not isinstance(value, numbers.Integral):
                    raise ValueError(f"label {value!r} is not an integer")
        if raw.dtype.kind == "f":
            integral = np.isfinite(raw) & (raw == np.trunc(raw))
            if not integral.all():
                raise ValueError(f"label {raw[~integral][0]} is not an integer")
        # Unsigned, float (numpy's pick for Python ints mixing 0 and 2**63)
        # and object (Python ints beyond 2**64) labels would wrap or
        # overflow in the cast.  ``2**63`` compares exactly against all three.
        if raw.size and raw.dtype.kind in "uOf" and raw.max() >= 2**63:
            raise ValueError(f"label {raw.max()} does not fit in int64")
        # Negative labels are rejected before the cast too: one below -2**63
        # would overflow it, and a float one would warn.
        if raw.size and raw.min() < 0:
            raise ValueError("labels must be non-negative")
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

#: Bytes per block of the text-grid reader and writer, which bounds their
#: numpy temporaries whatever the raster size.
_BLOCK = 1 << 16

#: The bytes of a plain text-grid body: ASCII digits, the two separators
#: (space, tab) and the two line breaks (CR, LF; CRLF counts as one break
#: for ``str.splitlines``, as two with no cell between for the reader).
_PLAIN = b"0123456789 \t\r\n"

#: Longest plain token: every 18-digit number is below 2**63.
_PLAIN_DIGITS = 18

#: 10, 100, ..., 10**18: a label has one digit more than the number of
#: these it reaches.
_POW10 = 10 ** np.arange(1, 19, dtype=np.int64)


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
    """Parse a text grid: an optional ``# W H`` header line, then one row per line.

    The body after the header goes to ``_read_plain_grid`` when it is plain:
    only ASCII digits, spaces, tabs, CRs and LFs, no token over 18 digits,
    and the same number of tokens on every non-blank line.  Anything else
    (a sign, ``_``, non-ASCII digits or whitespace, 19-digit labels, ``\\v``
    or ``\\f`` breaks, a bad token, ragged rows) takes the per-cell loop,
    which accepts every cell Python ``int()`` accepts in 0..2**63-1 and
    raises each located ``RasterFormatError``.  Both paths give the same
    grid wherever both accept the input.
    """
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RasterFormatError(f"text grid is not valid UTF-8: {exc}") from None

    # Only the first line can be a header.  It ends at or before the first
    # LF, so splitting that much gives the line ``str.splitlines`` would.
    first = text.partition("\n")[0].splitlines()
    declared: tuple[int, int] | None = None
    start = 0
    offset = 0
    if first and first[0].lstrip().startswith("#"):
        m = _HEADER_RE.match(first[0].strip().encode())
        if not m:
            raise RasterFormatError(f"malformed header line {first[0]!r}", row=1)
        declared = (int(m.group(1)), int(m.group(2)))
        start = 1
        # The body starts after the header line and its line break (after
        # the CR of a CRLF, which leaves the body a blank first line).
        offset = len(text[: len(first[0]) + 1].encode())

    grid = _read_plain_grid(data, offset)
    if grid is None:
        grid = _parse_cells(text.splitlines(), start)
    height, width = grid.shape
    if declared is not None and (width, height) != declared:
        raise RasterFormatError(
            f"header declares {declared[0]}x{declared[1]} "
            f"but grid is {width}x{height}"
        )
    return LabeledRaster(width=width, height=height, labels=grid)


def _parse_cells(lines: list[str], start: int) -> np.ndarray:
    """The grid of ``lines[start:]``, one Python ``int()`` per cell.

    Raises a ``RasterFormatError`` located at the first bad cell or row.
    """
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
    return np.array(rows, dtype=np.int64)


def _read_plain_grid(data: bytes, offset: int) -> np.ndarray | None:
    """The int64 grid in ``data[offset:]``, or None unless that body is plain.

    Plain means: every byte is an ASCII digit, space, tab, CR or LF; every
    token has at most 18 digits, so its value fits in int64; and every
    non-blank line has the same number of tokens, at least one.  The body is
    read in blocks of whole lines of about ``_BLOCK`` bytes (one line, if it
    is longer), so the temporaries stay a few times that size whatever the
    raster.
    """
    blocks: list[np.ndarray] = []
    width = 0
    start = offset
    while start < len(data):
        stop = _lines_end(data, start, start + _BLOCK)
        if data[start:stop].translate(None, _PLAIN):
            return None
        buf = np.frombuffer(data, dtype=np.uint8, count=stop - start, offset=start)
        start = stop
        # Among plain bytes, exactly the digits are >= b"0".
        digit = buf >= ord("0")
        edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
        starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
        if not starts.size:
            continue
        if lengths.max() > _PLAIN_DIGITS:
            return None
        # Tokens per line: the tokens before each line break, differenced.
        breaks = np.flatnonzero((buf == ord("\n")) | (buf == ord("\r")))
        per_line = np.diff(np.searchsorted(starts, breaks), prepend=0, append=starts.size)
        per_line = per_line[per_line > 0]
        width = width or int(per_line[0])
        if (per_line != width).any():
            return None
        # Read the tokens digit by digit from the left, dropping each one
        # once its last digit is in.
        values = (buf[starts] - ord("0")).astype(np.int64)
        more = np.flatnonzero(lengths > 1)
        k = 1
        while more.size:
            values[more] = values[more] * 10 + (buf[starts[more] + k] - ord("0"))
            k += 1
            more = more[lengths[more] > k]
        blocks.append(values)
    if not blocks:
        return None
    return np.concatenate(blocks).reshape(-1, width)


def _lines_end(data: bytes, start: int, stop: int) -> int:
    """End of the block of whole lines that begins at ``start``: just past
    the last line break before ``stop``, or past the next one when a line
    runs beyond ``stop``, or the end of ``data``."""
    if stop >= len(data):
        return len(data)
    last = max(data.rfind(b"\n", start, stop), data.rfind(b"\r", start, stop))
    if last < 0:
        after = [i for i in (data.find(b"\n", stop), data.find(b"\r", stop)) if i >= 0]
        last = min(after, default=len(data) - 1)
    return last + 1


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
        tokens.append(_pgm_int(tok))
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
            row, col = i // width + 1, i % width + 1
            if not tok.isdigit():
                raise RasterFormatError(f"non-integer PGM value {tok!r}", row=row, col=col)
            value = _pgm_int(tok, row, col)
            # Checked before the int64 cast, which a huge value would overflow.
            if value > maxval:
                raise RasterFormatError(
                    f"PGM value {value} exceeds maxval {maxval}", row=row, col=col
                )
            values.append(value)
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


def _pgm_int(tok: bytes, row: int | None = None, col: int | None = None) -> int:
    """The value of a PGM digit token; ``int()`` refuses over 4300 digits."""
    try:
        return int(tok)
    except ValueError:
        raise RasterFormatError(
            f"PGM number of {len(tok)} digits is too long", row=row, col=col
        ) from None


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
    head = f"# {raster.width} {raster.height}\n" if header else ""
    return _format_grid(head.encode("ascii"), raster.labels).decode("ascii")


def dump_pgm(raster: LabeledRaster) -> bytes:
    """Render as ASCII PGM (P2) with maxval = largest label (at least 1)."""
    maxval = max(1, int(raster.labels.max(initial=0)))
    if maxval > 65535:
        raise ValueError(f"label {maxval} too large for PGM")
    head = f"P2\n{raster.width} {raster.height}\n{maxval}\n".encode("ascii")
    return _format_grid(head, raster.labels)


def _format_grid(head: bytes, labels: np.ndarray) -> bytes:
    """``head``, then each row of non-negative ``labels`` as decimal cells
    one space apart and ending in LF: the bytes of ``" ".join(map(str, row))``.

    Works in blocks of whole rows of about ``_BLOCK`` bytes of labels.
    """
    height, width = labels.shape
    rows = max(1, _BLOCK // (8 * width))
    parts = [head]
    for top in range(0, height, rows):
        cells = labels[top : top + rows].ravel()
        ndigits = np.searchsorted(_POW10, cells, side="right") + 1
        # Each cell's digits are followed by one separator byte.
        ends = np.cumsum(ndigits + 1)
        out = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
        out[ends[width - 1 :: width] - 1] = ord("\n")
        # Fill the digits from the units up, dropping each cell once its
        # leading digit is written.
        at, rest = ends - 2, cells
        while at.size:
            out[at] = rest % 10 + ord("0")
            more = ndigits > 1
            at, rest, ndigits = at[more] - 1, rest[more] // 10, ndigits[more] - 1
        parts.append(out.tobytes())
    return b"".join(parts)
