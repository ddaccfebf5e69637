"""Labeled raster loading, segment extraction, and raster writers.

A labeled raster assigns a non-negative integer to every pixel: 0 marks
interstitial ground, any positive value names a segment (ISOL).  Segments
are defined purely by label equality; a label spread over disconnected
patches is still one segment.
"""

from __future__ import annotations

import codecs
import numbers
import re
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Iterator, Mapping, Sequence

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
    It is a read-only int64 array that no caller can write: the array given
    to ``LabeledRaster(...)`` or ``from_array`` is copied, while the grids
    this module builds itself (parsed rasters, cluster canvases) are frozen
    in place, so a run holds one full-size label array, not two.
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
        self._freeze(np.array(raw, dtype=np.int64, copy=True))

    def _freeze(self, arr: np.ndarray) -> None:
        """Check ``arr``'s shape, make it read-only and hold it as ``labels``."""
        if _grid_shape(arr) != (self.height, self.width):
            raise ValueError(
                f"label array shape {arr.shape} does not match "
                f"height={self.height}, width={self.width}"
            )
        if self.width < 1 or self.height < 1:
            raise ValueError("raster must be at least 1x1")
        arr.setflags(write=False)
        object.__setattr__(self, "labels", arr)

    @classmethod
    def _adopt(cls, labels: np.ndarray) -> "LabeledRaster":
        """A raster over ``labels`` itself, frozen in place, not copied.

        Only for a non-negative int64 grid this module has just built and
        hands to no one else, so no caller holds a writable view of it.
        """
        if labels.dtype != np.int64:
            raise ValueError(f"labels of dtype {labels.dtype} are not int64")
        height, width = _grid_shape(labels)
        raster = object.__new__(cls)
        object.__setattr__(raster, "height", height)
        object.__setattr__(raster, "width", width)
        raster._freeze(labels)
        return raster

    @classmethod
    def from_array(cls, labels: np.ndarray | Sequence[Sequence[int]]) -> "LabeledRaster":
        arr = np.asarray(labels)
        height, width = _grid_shape(arr)
        return cls(width=width, height=height, labels=arr)

    def label_at(self, x: int, y: int) -> int:
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise IndexError(f"pixel ({x}, {y}) outside {self.width}x{self.height} raster")
        return int(self.labels[y, x])

    def positive_ids(self) -> tuple[int, ...]:
        """Distinct positive labels, ascending."""
        labels = np.sort(self.labels, axis=None)
        keep = labels > 0
        keep[1:] &= labels[1:] != labels[:-1]
        return tuple(labels[keep].tolist())


def _grid_shape(arr: np.ndarray) -> tuple[int, int]:
    """``arr``'s (height, width), or the ``ValueError`` of an array not 2-D."""
    if arr.ndim != 2:
        raise ValueError("labels must be a 2-D array")
    return arr.shape


@dataclass(frozen=True, eq=False)
class Isol:
    """One segment: its label, every pixel, and the boundary subset.

    Edge pixels are those with at least one 4-neighbour that is outside
    the segment (different label, 0, or off the raster).  Both are
    read-only ``(n, 2)`` int64 arrays of distinct ``(x, y)`` rows, ascending
    by ``(x, y)``, made anew from any collection of pairs given; a row
    that is not a pair, or a coordinate that is not an integer
    (``numbers.Integral``) or lies past int64, raises a ``ValueError``
    naming the isol and pixel.  ``id`` is a label, so an id that is not
    an integer in 1..2**63-1 raises a ``ValueError`` naming it.
    """

    id: int
    pixels: np.ndarray
    edge_pixels: np.ndarray

    def __post_init__(self):
        if not isinstance(self.id, numbers.Integral) or not 1 <= self.id <= _MAX_LABEL:
            raise ValueError(f"isol id {self.id!r} is not an integer in 1..{_MAX_LABEL}")
        for name in ("pixels", "edge_pixels"):
            given = getattr(self, name)
            rows = list(map(tuple, given.tolist() if isinstance(given, np.ndarray) else given))
            # Checked before sorting, which fails on mixed types with a bare
            # TypeError; the cast below would truncate a float without a word.
            # Of several bad rows, the one whose repr sorts first is named,
            # not the first in a set's order, which follows the string hash.
            bad = [
                row for row in rows
                if len(row) != 2
                or not isinstance(row[0], numbers.Integral)
                or not isinstance(row[1], numbers.Integral)
            ]
            if bad:
                row = min(bad, key=repr)
                problem = "has a non-integer coordinate" if len(row) == 2 else "is not an (x, y) pair"
                raise ValueError(f"isol {self.id} pixel {row} {problem}")
            rows = sorted(set(rows))
            try:
                array = np.array(rows, dtype=np.int64).reshape(len(rows), 2)
            except OverflowError:
                x, y = next(p for p in rows if not all(-_MAX_LABEL - 1 <= v <= _MAX_LABEL for v in p))
                raise ValueError(f"isol {self.id} pixel ({x}, {y}) has a coordinate past int64") from None
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def _adopt(cls, isol_id: int, pixels: np.ndarray, edge_pixels: np.ndarray) -> "Isol":
        """An isol over arrays already in its form, held as they are."""
        isol = object.__new__(cls)
        isol.__dict__.update(id=isol_id, pixels=pixels, edge_pixels=edge_pixels)
        return isol

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Isol) and self.id == other.id and all(
            np.array_equal(a, b)
            for a, b in ((self.pixels, other.pixels), (self.edge_pixels, other.edge_pixels))
        )


def by_id(isols: Iterable[Isol]) -> dict[int, Isol]:
    return {isol.id: isol for isol in isols}


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(rb"^#\s*(\d+)\s+(\d+)\s*$")

#: One PGM header token after any whitespace and ``#`` comments (a ``#``
#: opens a comment only where a token could start).  In a bytes pattern
#: ``\s`` is exactly the six bytes ``bytes.isspace`` accepts.  The token is
#: empty only at the end of the data.
_PGM_TOKEN_RE = re.compile(rb"(?:\s|#[^\r\n]*)*(\S*)")

#: Labels are held as int64.
_MAX_LABEL = int(np.iinfo(np.int64).max)

#: Bytes per block of the plain-body reader and of ``_format_rows``, which
#: bounds their numpy temporaries whatever the raster or table size.
_BLOCK = 1 << 16

#: The bytes of a plain text-grid body: ASCII digits, the two separators
#: (space, tab) and the two line breaks (CR, LF; CRLF counts as one break
#: for ``str.splitlines``, as two with no cell between for the reader).
_PLAIN = b"0123456789 \t\r\n"

#: Where blocks of a plain body may end: after a line break, or after
#: any separator where lines do not matter.
_LINE_BREAKS = (b"\n", b"\r")
_SEPARATORS = (b" ", b"\t", *_LINE_BREAKS)

#: Longest plain token: every 18-digit number is below 2**63.
_PLAIN_DIGITS = 18

#: The byte ``_format_rows`` pads with and then erases.
_PAD = b"\xff"


def _word_table() -> np.ndarray:
    """Little-endian 4-byte words of ASCII digits: entry ``i`` is ``i`` in
    four digits, zero-padded, and entry ``10000 + i`` is ``str(i)`` led by
    ``_PAD`` bytes instead of zeros."""
    digits = np.arange(10000)[:, None] // np.array([1000, 100, 10, 1]) % 10
    padded = (digits + ord("0")).astype(np.uint8)
    bare = padded.copy()
    bare[np.arange(10000)[:, None] < np.array([1000, 100, 10, 0])] = _PAD[0]
    return np.concatenate([padded, bare]).view("<u4").ravel()


def _text_words(texts: Iterable[bytes]) -> np.ndarray:
    """Each text of at most four ASCII bytes as one word, ``_PAD``-filled."""
    return np.frombuffer(b"".join(text.ljust(4, _PAD) for text in texts), dtype="<u4")


_WORDS = _word_table()
_NEWLINE_WORD, _PAD_WORD = _text_words([b"\n", b""])


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
    if data.startswith(codecs.BOM_UTF8):
        raise RasterFormatError("file starts with a UTF-8 byte-order mark; save it without one")
    if fmt == FORMAT_TEXT_GRID:
        return _parse_text_grid(data)
    if fmt == FORMAT_PGM:
        return _parse_pgm(data)
    raise ValueError(f"unknown raster format {fmt!r}; expected one of {FORMATS}")


def _parse_text_grid(data: bytes) -> LabeledRaster:
    """Parse a text grid: an optional ``# W H`` header line, then one row per line.

    Only the first line is decoded to look for the header.  The body after
    it goes to ``_read_plain_grid`` when it is plain: only ASCII digits,
    spaces, tabs, CRs and LFs, no token over 18 digits, and the same number
    of tokens on every non-blank line.  A plain body is ASCII, so the file
    is then valid UTF-8 and is never decoded whole.  Anything else (a sign,
    ``_``, non-ASCII digits or whitespace, 19-digit labels, ``\\v`` or
    ``\\f`` breaks, a bad token, ragged rows) decodes the file and takes
    the per-cell loop, which accepts every cell Python ``int()`` accepts in
    0..2**63-1 and raises each located ``RasterFormatError``.  Both paths
    give the same grid wherever both accept the input.
    """
    # The first line ends at or before the first CR or LF (the end of the
    # shortest block), bytes that no multi-byte character contains, so
    # splitting the text up to there gives the line ``str.splitlines`` would.
    try:
        head = data[: _block_end(data, 0, 0, _LINE_BREAKS)].decode("utf-8")
    except UnicodeDecodeError:
        head = _decode(data)
    first = head.splitlines()[:1]
    declared: tuple[int, int] | None = None
    start = 0
    offset = 0
    if first and first[0].lstrip().startswith("#"):
        m = _HEADER_RE.match(first[0].strip().encode())
        if not m:
            _decode(data)  # a UTF-8 error anywhere is reported first
            raise RasterFormatError(f"malformed header line {first[0]!r}", row=1)
        declared = (int(m.group(1)), int(m.group(2)))
        start = 1
        # The body starts after the header line and its line break (after
        # the CR of a CRLF, which leaves the body a blank first line).
        offset = len(head[: len(first[0]) + 1].encode())

    grid = _read_plain_grid(data, offset)
    if grid is None:
        grid = _parse_cells(_decode(data).splitlines(), start)
    height, width = grid.shape
    if declared is not None and (width, height) != declared:
        raise RasterFormatError(
            f"header declares {declared[0]}x{declared[1]} "
            f"but grid is {width}x{height}"
        )
    return LabeledRaster._adopt(grid)


def _decode(data: bytes) -> str:
    """``data`` as UTF-8 text, or the ``RasterFormatError`` that says where not."""
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise RasterFormatError(f"text grid is not valid UTF-8: {exc}") from None


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
    """The int64 grid in the text-grid body ``data[offset:]``, or None
    unless that body is plain.

    Plain means what ``_read_plain_tokens`` requires, and also that every
    non-blank line has the same number of tokens, at least one.  The
    tokens go straight into the one array that becomes the grid.
    """
    read = _read_plain_tokens(data, offset, by_line=True)
    if read is None or not read[0].size:
        return None
    return read[0].reshape(-1, read[1])


def _read_plain_tokens(data: bytes, offset: int, by_line: bool) -> tuple[np.ndarray, int] | None:
    """The decimal tokens of ``data[offset:]`` as one int64 array of exactly
    their count, or None unless that body is plain.

    Plain means: every byte is an ASCII digit, space, tab, CR or LF, and
    every token has at most 18 digits, so its value fits in int64.  The
    body is read in blocks of about ``_BLOCK`` bytes that end after a
    separator (a line break if ``by_line``), so no token spans two blocks
    and the temporaries stay a few times ``_BLOCK`` whatever the raster.  A
    first pass checks the bytes and counts the tokens, so the array is
    allocated once; a second pass fills it.

    If ``by_line``, the second element is the number of tokens on every
    non-blank line, and a body whose lines differ in that number is not
    plain.  Otherwise it is 0, and the tokens may wrap anywhere.
    """
    cuts = _LINE_BREAKS if by_line else _SEPARATORS
    stops: list[int] = []
    count = 0
    start = offset
    while start < len(data):
        stop = _block_end(data, start, start + _BLOCK, cuts)
        if data[start:stop].translate(None, _PLAIN):
            return None
        # Among plain bytes, exactly the digits are >= b"0".
        digit = np.frombuffer(data, np.uint8, stop - start, start) >= ord("0")
        count += int(digit[0]) + np.count_nonzero(digit[1:] > digit[:-1])
        stops.append(stop)
        start = stop

    values = np.empty(count, dtype=np.int64)
    width = 0
    filled = 0
    start = offset
    for stop in stops:
        buf = np.frombuffer(data, np.uint8, stop - start, start)
        start = stop
        digit = buf >= ord("0")
        edges = np.flatnonzero(np.diff(digit, prepend=False, append=False))
        starts, lengths = edges[0::2], edges[1::2] - edges[0::2]
        if not starts.size:
            continue
        if lengths.max() > _PLAIN_DIGITS:
            return None
        if by_line:
            # Tokens per line: the tokens before each line break, differenced.
            breaks = np.flatnonzero((buf == ord("\n")) | (buf == ord("\r")))
            per_line = np.diff(np.searchsorted(starts, breaks), prepend=0, append=starts.size)
            per_line = per_line[per_line > 0]
            width = width or int(per_line[0])
            if (per_line != width).any():
                return None
        # Read the tokens digit by digit from the left, dropping each one
        # once its last digit is in.
        block = values[filled : filled + starts.size]
        filled += starts.size
        block[:] = buf[starts] - ord("0")
        more = np.flatnonzero(lengths > 1)
        k = 1
        while more.size:
            block[more] = block[more] * 10 + (buf[starts[more] + k] - ord("0"))
            k += 1
            more = more[lengths[more] > k]
    return values, width


def _block_end(data: bytes, start: int, stop: int, cuts: tuple[bytes, ...]) -> int:
    """End of the block that begins at ``start``: just past the last of the
    ``cuts`` bytes before ``stop``, else just past the first one after it,
    else the end of ``data``."""
    if stop >= len(data):
        return len(data)
    last = max(data.rfind(cut, start, stop) for cut in cuts)
    if last < 0:
        after = [i for i in (data.find(cut, stop) for cut in cuts) if i >= 0]
        last = min(after, default=len(data) - 1)
    return last + 1


def _parse_pgm(data: bytes) -> LabeledRaster:
    """Parse a PGM file, plain (P2) or binary (P5), holding one image.

    A P2 body goes to ``_read_plain_pgm`` first.  Anything it refuses (a
    ``#``, ``\\v``, ``\\f``, a 19-digit token, a wrong count, a sample
    over maxval) takes the per-token loop, which raises each located
    ``RasterFormatError``.  Both give the same grid wherever both accept
    the input.
    """
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise RasterFormatError(f"not a PGM file (magic {magic!r})")

    pos = 2
    tokens: list[int] = []
    for _ in range(3):
        match = _PGM_TOKEN_RE.match(data, pos)
        tok, pos = match[1], match.end()
        if not tok:
            raise RasterFormatError("truncated PGM header")
        if not tok.isdigit():
            raise RasterFormatError(f"bad PGM header token {tok!r}")
        tokens.append(_pgm_int(tok))

    width, height, maxval = tokens
    if width < 1 or height < 1:
        raise RasterFormatError(f"bad PGM dimensions {width}x{height}")
    if not (0 < maxval < 65536):
        raise RasterFormatError(f"PGM maxval {maxval} out of range 1..65535")

    if magic == b"P2":
        arr = _read_plain_pgm(data, pos, width, height, maxval)
        if arr is None:
            arr = _read_pgm_samples(data[pos:], width, height, maxval)
    else:
        # P5: exactly one whitespace byte after maxval, then raw samples
        # to the end of the file, which holds one image.
        pos += 1
        itemsize = 1 if maxval < 256 else 2
        need = width * height * itemsize
        raw = data[pos:]
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
    return LabeledRaster._adopt(arr)


def _read_plain_pgm(
    data: bytes, offset: int, width: int, height: int, maxval: int
) -> np.ndarray | None:
    """The grid of samples in the P2 body ``data[offset:]``, or None unless
    that body is plain (see ``_read_plain_tokens``), holds exactly
    ``width * height`` samples and none exceeds ``maxval``.  Its lines may
    wrap anywhere."""
    read = _read_plain_tokens(data, offset, by_line=False)
    if read is None or read[0].size != width * height or read[0].max() > maxval:
        return None
    return read[0].reshape(height, width)


def _read_pgm_samples(body: bytes, width: int, height: int, maxval: int) -> np.ndarray:
    """The P2 samples of ``body`` read one token at a time, which raises
    the located ``RasterFormatError`` of the first bad one."""
    tokens = body.split()
    if len(tokens) != width * height:
        raise RasterFormatError(
            f"PGM data has {len(tokens)} values, expected {width * height}"
        )
    values = []
    for i, tok in enumerate(tokens):
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
    return np.array(values, dtype=np.int64).reshape(height, width)


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
    """Collect every positive label as a segment with its edge pixels.

    Returns segments sorted by id.  An all-zero raster yields an empty list.

    One sorted pass: every labelled pixel is sorted by ``(label, x, y)``
    with one ``np.lexsort``, into one read-only ``(n, 2)`` array of ``(x,
    y)`` rows, and its edge pixels are taken from it into a second one.
    Each segment's ``pixels`` and ``edge_pixels`` are the slices of its
    label's run in the two, so no pixel becomes a Python object.
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
    index = np.flatnonzero(flat)
    ys, xs = np.divmod(index, raster.width)
    index = index[np.lexsort((ys, xs, flat[index]))]
    del ys, xs
    sorted_labels = flat[index]
    pixels = np.empty((index.size, 2), dtype=np.int64)
    np.divmod(index, raster.width, out=(pixels[:, 1], pixels[:, 0]))
    is_edge = differs.ravel()[index]
    edges = pixels[is_edge]
    pixels.setflags(write=False)
    edges.setflags(write=False)
    # A label's run, and its run of edge pixels, ends where the label changes.
    cuts = np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
    ids = sorted_labels[np.append(0, cuts)].tolist() if index.size else []
    edge_cuts = np.cumsum(is_edge)[cuts - 1]
    return list(map(Isol._adopt, ids, np.split(pixels, cuts), np.split(edges, edge_cuts)))


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
        raster: a raster of the scene's shape; only its width and height
            are read.
        groups: (group_id, member isol ids) pairs; group ids must be
            integers in 1..2**63-1 and member sets pairwise disjoint.
        isols: segment lookup by id.

    Returns:
        A raster of the same shape where every pixel of a grouped segment
        holds its group id and everything else is 0.
    """
    out = np.zeros((raster.height, raster.width), dtype=np.int64)
    seen: set[int] = set()
    for group_id, member_ids in groups:
        # A float id would be truncated where painted, and one beyond
        # int64 would overflow.
        if not isinstance(group_id, numbers.Integral) or group_id > _MAX_LABEL:
            raise ValueError(f"group id {group_id!r} is not an integer in 1..{_MAX_LABEL}")
        if group_id < 1:
            raise ValueError(f"group id must be positive, got {group_id}")
        for isol_id in member_ids:
            if isol_id in seen:
                raise ValueError(f"isol {isol_id} assigned to more than one group")
            seen.add(isol_id)
            isol = isols.get(isol_id)
            if isol is None:
                raise ValueError(f"unknown isol id {isol_id}")
            out[isol.pixels[:, 1], isol.pixels[:, 0]] = group_id
    return LabeledRaster._adopt(out)


def _ground(width: int, height: int) -> LabeledRaster:
    """An all-ground raster of the given shape over one broadcast zero, which
    takes 8 bytes whatever the shape: enough for ``write_cluster_raster``,
    which reads only the shape of the raster it is given."""
    return LabeledRaster._adopt(np.broadcast_to(np.int64(0), (height, width)))


def dump_text_grid(raster: LabeledRaster, header: bool = True) -> str:
    """One line per row, cells one space apart (see ``_format_rows``),
    after a ``# W H`` line if ``header``."""
    head = f"# {raster.width} {raster.height}\n" if header else ""
    return b"".join([head.encode("ascii"), *_format_rows(raster.labels, b" ")]).decode("ascii")


def dump_pgm(raster: LabeledRaster) -> bytes:
    """Render as ASCII PGM (P2) with maxval = largest label (at least 1):
    one line per row, samples one space apart (see ``_format_rows``)."""
    maxval = max(1, int(raster.labels.max(initial=0)))
    if maxval > 65535:
        raise ValueError(f"label {maxval} too large for PGM")
    head = f"P2\n{raster.width} {raster.height}\n{maxval}\n".encode("ascii")
    return b"".join([head, *_format_rows(raster.labels, b" ")])


def _format_rows(
    table: np.ndarray, separator: bytes, names: Mapping[int, Sequence[str]] | None = None
) -> Iterator[bytes]:
    """Each row of the non-negative int64 ``table`` as its fields
    ``separator`` apart and ending in LF, yielded a block at a time: the
    bytes of ``separator.join(map(str, row))`` per row, and with ``b","``
    those of ``csv.writer(stream, lineterminator="\\n")``.  A column ``j``
    in ``names`` holds indices into ``names[j]``, names of one to four
    ASCII characters, and is written as those names.  This one writer
    makes the text grids, the PGM bodies and links.csv.

    Works in blocks of rows of about ``_BLOCK`` bytes of table.  A block
    with no name column and no cell above 9 is written as digit and
    separator bytes.  Otherwise every number takes as many four-digit
    words from ``_WORDS`` as the block's largest value needs; a name
    takes its word, and each separator and LF a word.  One
    ``bytes.translate`` per block erases the pad bytes.
    """
    name_words = {
        j: _text_words(name.encode("ascii") for name in column)
        for j, column in (names or {}).items()
    }
    (separator_word,) = _text_words([separator])
    rows = max(1, _BLOCK // (8 * table.shape[1]))
    for top in range(0, len(table), rows):
        block = table[top : top + rows]
        largest = block.max()
        if not name_words and largest < 10:
            out = np.empty((*block.shape, 2), dtype=np.uint8)
            out[..., 0] = block + ord("0")
            out[..., 1] = separator[0]
            out[:, -1, 1] = ord("\n")
            yield out.tobytes()
            continue
        words = -(-len(str(largest)) // 4)
        out = np.empty((*block.shape, words + 1), dtype="<u4")
        _fill_digits(out[..., :words], block)
        out[..., words] = separator_word
        out[:, -1, words] = _NEWLINE_WORD
        for j, column in name_words.items():
            out[:, j, 0] = column[block[:, j]]
            out[:, j, 1:words] = _PAD_WORD
        yield out.tobytes().translate(None, _PAD)


def _fill_digits(out: np.ndarray, cells: np.ndarray) -> None:
    """Write each non-negative int64 in ``cells`` as its ``str`` into
    ``out``, an array of ``_WORDS`` words with one more axis than
    ``cells``, most significant word first along the last axis; the words
    hold ``_PAD`` bytes where ``str`` has none, for the caller to erase."""
    words = out.shape[-1]
    # From the units word up; a word with no digits above it drops its
    # leading zeros.
    rest = cells
    for w in range(words - 1, 0, -1):
        rest, low = np.divmod(rest, 10000)
        np.add(low, 10000, out=low, where=rest == 0)
        out[..., w] = _WORDS[low]
    out[..., 0] = _WORDS[10000 + rest]
    # A word wholly above a cell's leading digit is all pad, not "0".
    for w in range(words - 1):
        out[cells < 10 ** (4 * (words - 1 - w)), w] = _PAD_WORD
