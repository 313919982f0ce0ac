"""Loading of detection dumps, expressions, region tables, and embeddings.

All on-disk formats are line-delimited UTF-8 text with tab-separated fields
and '.'-radix ASCII decimals:

detection dump
    ``#refnms-dets v1 feature_dim=<D>`` header, then one record per line:
    ``image_id<TAB>x1 y1 x2 y2<TAB>category_id<TAB>category_name<TAB>confidence<TAB>f1 ... fD``

expressions (trailing POS column optional)
    ``expression_id<TAB>image_id<TAB>split<TAB>x1 y1 x2 y2<TAB>tok1 tok2 ...<TAB>pos1 pos2 ...``

ground-truth regions
    ``region_id<TAB>image_id<TAB>x1 y1 x2 y2<TAB>category_name``

embeddings
    GloVe text format, ``word f1 ... fD`` with a constant dimension.

In memory, a detection dump is one `ImageDetections` per image, held as
columns: ``boxes`` (n, 4), ``confidences`` (n,), ``category_ids`` (n,) and
``features`` (n, D). Row i of every column is the image's i-th detection in
file order, and the rest of the program refers to detections by row index.
A line's category name is required but not kept: the program refers to
categories by id, and `write_detection_dump` takes the names by id. The
dump is read in blocks of about `BLOCK_CHARS` characters of whole lines;
each numeric column of a block is converted in one numpy call, with the
values of Python's ``float()``. A block that fails any check is parsed
again line by line, so an error names its ``file:line``.

A load of a dump leaves its parsed columns beside it, in a sidecar named
after it with `SIDECAR_SUFFIX` (``dets.tsv.refnms-cache.npz``), and a later
load reads that instead of the text. The sidecar is derived data and safe to
delete. It is written only for a regular file in a directory this process
may write, atomically, and not if the dump changed during its parse; a
failed write is ignored. It is keyed by the SHA-256 of the dump's bytes and
`SIDECAR_VERSION`, and every read checks its columns again as the text
parse does (shapes, dtypes, finite values, confidences in [0, 1], ordered box
corners, non-empty distinct image ids, row counts). A sidecar that fails
any of that, or that is owned by anyone but the dump's owner or this
process's user, is ignored, and the text is parsed and the sidecar rewritten.

Non-finite numbers (nan, inf) are rejected in every file.

Vocabularies keep words seen at least twice in the training expressions,
reserve index 0 for padding and a dedicated "unk" index for everything else.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import secrets
import stat
import warnings
from collections import Counter
from contextlib import contextmanager, suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .geometry import Box

DUMP_HEADER_RE = re.compile(r"#refnms-dets v1 feature_dim=(\d+)$")
SPLITS = frozenset({"train", "val", "testA", "testB", "test"})
PAD_TOKEN = "<pad>"
UNK_TOKEN = "unk"
# tokens of an expression the model reads; later ones are dropped
DEFAULT_MAX_SENTENCE_LENGTH = 10

# characters of whole lines per block of a detection dump: bounds the text a
# block holds while amortising numpy's per-call cost (~45 lines at D=2048)
BLOCK_CHARS = 1 << 20

# a dump's sidecar is named after it with this suffix; the version changes
# whenever the same dump bytes could parse to other columns
SIDECAR_SUFFIX = ".refnms-cache.npz"
SIDECAR_VERSION = 1


class DataFormatError(ValueError):
    """A file violated its declared on-disk format or schema."""


@contextmanager
def open_utf8(path) -> Iterator[TextIO]:
    """`path` opened for reading as UTF-8 text with universal newlines. A
    byte sequence in it that is not UTF-8 raises a `DataFormatError` naming
    the file and the line that holds it."""
    try:
        with open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, exc) from None


def _not_utf8(path, exc: UnicodeDecodeError) -> DataFormatError:
    """The error for `path`, which `exc` found is not UTF-8, at its first line that is not."""
    with open(path, "rb") as fh:  # lines end as in text mode: at \n, \r\n or \r
        lines = (line for chunk in fh for line in chunk.splitlines())
        for lineno, line in enumerate(lines, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as bad:
                return DataFormatError(f"{path}:{lineno}: not UTF-8 text ({bad})")
    return DataFormatError(f"{path}: not UTF-8 text ({exc})")


@dataclass(frozen=True, eq=False)
class ImageDetections:
    """One image's detections as columns; row i of each column is detection i.

    ``boxes`` is (n, 4) float64 (x1, y1, x2, y2), ``confidences`` (n,)
    float64 in [0, 1], ``category_ids`` (n,) int64 and ``features`` (n, D)
    float64. Array-likes are converted.
    """

    image_id: str
    boxes: np.ndarray
    confidences: np.ndarray
    category_ids: np.ndarray
    features: np.ndarray

    def __post_init__(self) -> None:
        if not self.image_id:
            raise ValueError("image_id must be non-empty")
        columns = {
            "boxes": np.asarray(self.boxes, dtype=np.float64),
            "confidences": np.asarray(self.confidences, dtype=np.float64),
            "category_ids": np.asarray(self.category_ids, dtype=np.int64),
            "features": np.asarray(self.features, dtype=np.float64),
        }
        n = len(columns["confidences"])
        for name, value in columns.items():
            object.__setattr__(self, name, value)
            if len(value) != n:
                raise ValueError(f"image {self.image_id}: {len(value)} {name} for {n} detections")
        if self.boxes.shape != (n, 4) or self.features.ndim != 2 or self.confidences.ndim != 1:
            raise ValueError(
                f"image {self.image_id}: boxes {self.boxes.shape}, features "
                f"{self.features.shape}, confidences {self.confidences.shape}"
            )

    def __len__(self) -> int:
        return len(self.confidences)

    @classmethod
    def empty(cls, image_id: str, feature_dim: int = 0) -> "ImageDetections":
        return cls(image_id, np.zeros((0, 4)), np.zeros(0), np.zeros(0, dtype=np.int64),
                   np.zeros((0, feature_dim)))


@dataclass(frozen=True, eq=False)
class ExpressionRecord:
    """A tokenized referring expression with its annotated referent box."""

    expression_id: str
    image_id: str
    tokens: tuple[str, ...]
    pos_tags: tuple[str, ...] | None
    referent_box: Box
    split: str

    def __post_init__(self) -> None:
        if not self.tokens:
            raise ValueError(f"expression {self.expression_id}: no tokens")
        if self.pos_tags is not None and len(self.pos_tags) != len(self.tokens):
            raise ValueError(
                f"expression {self.expression_id}: {len(self.pos_tags)} POS tags "
                f"for {len(self.tokens)} tokens"
            )
        if self.split not in SPLITS:
            raise ValueError(f"expression {self.expression_id}: unknown split '{self.split}'")


@dataclass(frozen=True, eq=False)
class GroundTruthRegion:
    region_id: str
    image_id: str
    box: Box
    category_name: str


@dataclass(eq=False)
class EmbeddingTable:
    """Word -> vector map with a fixed dimension.

    Lookups signal absence with ``None``; no zero vector is fabricated.
    """

    dimension: int
    entries: dict[str, np.ndarray]

    def get(self, word: str) -> np.ndarray | None:
        return self.entries.get(word)

    def __contains__(self, word: str) -> bool:
        return word in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def _parse_box(field: str, path, lineno: int) -> Box:
    parts = field.split()
    if len(parts) != 4:
        raise DataFormatError(f"{path}:{lineno}: expected 4 box coordinates, got {len(parts)}")
    try:
        coords = [float(p) for p in parts]
        if not all(map(math.isfinite, coords)):
            raise ValueError("non-finite coordinate")
        return Box(*coords)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: bad box '{field}' ({exc})") from None


def _parse_detection_line(line: str, dim: int, path, lineno: int) -> tuple:
    """(image_id, box, category_id, confidence, feature) of one dump line."""
    fields = line.rstrip("\n").split("\t")
    if len(fields) != 6:
        raise DataFormatError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
    image_id, box_field, cat_id, _, conf_field, feat_field = fields
    if not image_id:
        raise DataFormatError(f"{path}:{lineno}: empty image_id")
    box = _parse_box(box_field, path, lineno)
    try:
        category_id = int(cat_id)
        confidence = float(conf_field)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: {exc}") from None
    if not -(2**63) <= category_id < 2**63:
        raise DataFormatError(f"{path}:{lineno}: category id {category_id} out of int64 range")
    if not 0.0 <= confidence <= 1.0:
        raise DataFormatError(f"{path}:{lineno}: confidence {confidence} outside [0, 1]")
    try:
        feature = np.array([float(t) for t in feat_field.split()], dtype=np.float64)
    except ValueError as exc:
        raise DataFormatError(f"{path}:{lineno}: bad feature value ({exc})") from None
    if feature.shape != (dim,):
        raise DataFormatError(
            f"{path}:{lineno}: feature has {feature.size} values, header declares {dim}"
        )
    if not np.isfinite(feature).all():
        raise DataFormatError(f"{path}:{lineno}: non-finite feature value")
    return image_id, (box.x1, box.y1, box.x2, box.y2), category_id, confidence, feature


def _parse_lines(lines: Sequence[str], dim: int, path, first_lineno: int) -> tuple:
    """The columns of a block, one line at a time; raises at the first bad line."""
    rows = [
        _parse_detection_line(line, dim, path, lineno)
        for lineno, line in enumerate(lines, start=first_lineno)
    ]
    image_ids, boxes, category_ids, confidences, features = zip(*rows)
    return (
        list(image_ids),
        np.array(boxes, dtype=np.float64),
        np.array(category_ids, dtype=np.int64),
        np.array(confidences, dtype=np.float64),
        np.array(features, dtype=np.float64).reshape(len(rows), dim),
    )


def _float_rows(fields: Sequence[str], width: int) -> np.ndarray:
    """(len(fields), width) float64: each field is `width` numbers separated by
    whitespace, as ``str.split`` cuts them (numpy's reader skips the same
    characters). Raises ValueError on any other layout or a bad number."""
    if width == 0:
        if any(map(str.strip, fields)):
            raise ValueError("values where none are declared")
        return np.zeros((len(fields), 0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            rows = np.loadtxt(fields, dtype=np.float64, delimiter=None, comments=None, ndmin=2)
        except UserWarning as exc:  # numpy skips empty rows, and warns when none is left
            raise ValueError(str(exc)) from None
    if rows.shape != (len(fields), width):
        raise ValueError(f"{rows.shape} values, expected {(len(fields), width)}")
    return rows


def _values_valid(boxes: np.ndarray, confidences: np.ndarray, features: np.ndarray) -> bool:
    """Whether every box and feature is finite, every confidence lies in
    [0, 1] and every box has x2 >= x1 and y2 >= y1."""
    return bool(
        np.isfinite(boxes).all()
        and np.isfinite(features).all()
        and ((confidences >= 0.0) & (confidences <= 1.0)).all()
        and (boxes[:, 2] >= boxes[:, 0]).all()
        and (boxes[:, 3] >= boxes[:, 1]).all()
    )


def _parse_block(lines: Sequence[str], dim: int, path, first_lineno: int) -> tuple:
    """(image_ids, boxes, category_ids, confidences, features) of a block of
    dump lines, with one numpy conversion per numeric column.

    numpy's text reader converts each number of a box or feature with the
    parser behind Python's ``float()``, so values are bit-identical to
    `_parse_lines`; runs of whitespace and padding around the numbers are
    read as ``str.split`` reads them. `_parse_lines` takes any block that
    numpy cannot read (a digit separator, say) or that fails a check, and
    raises the error of its first bad line.

    Each field must give exactly one row. numpy drops a field with no numbers,
    which the shape check catches, and refuses one with a line end inside it
    (ValueError), so no field gives two rows to balance a dropped one. A
    carriage return never gets here from `load_detection_dump`: the file is
    read with universal newlines, so it ends a line for both parsers.
    """
    fields = [line.rstrip("\n").split("\t") for line in lines]
    try:
        if set(map(len, fields)) != {6}:
            raise ValueError("field count")
        image_ids, box_fields, cat_fields, _, conf_fields, feat_fields = zip(*fields)
        boxes = _float_rows(box_fields, 4)
        category_ids = np.array(list(map(int, cat_fields)), dtype=np.int64)
        confidences = np.array(conf_fields, dtype=np.float64)  # float() of each field
        features = _float_rows(feat_fields, dim)
        valid = all(image_ids) and _values_valid(boxes, confidences, features)
    except (ValueError, OverflowError):
        valid = False
    if not valid:
        return _parse_lines(lines, dim, path, first_lineno)
    return list(image_ids), boxes, category_ids, confidences, features


class _DumpColumns(NamedTuple):
    """A parsed dump: ``counts[k]`` rows of image ``image_ids[k]``, in that
    order, in each column."""

    feature_dim: int
    image_ids: list[str]
    counts: np.ndarray  # (images,) int64
    boxes: np.ndarray
    confidences: np.ndarray
    category_ids: np.ndarray
    features: np.ndarray

    def arrays(self) -> dict[str, np.ndarray]:
        return {name: getattr(self, name) for name in self._fields[2:]}


def load_detection_dump(path) -> tuple[list[ImageDetections], int]:
    """Parse a detection dump into (images in first-seen order, feature dimension).

    The file is read in blocks of whole lines (`BLOCK_CHARS`), never at once.
    An image's rows keep their file order, whether or not its lines are
    contiguous in the file. A regular file in a writable directory is hashed
    first, and its sidecar (`sidecar_path`) stands in for the parse when it
    is keyed by that hash and passes the parser's checks; otherwise the dump
    is parsed and the sidecar written, unless the file changed meanwhile.
    """
    path = Path(path)
    stamp = _stamp(path)
    digest = _sha256(path) if stamp else None
    columns = _read_sidecar(path, digest, stamp[-1]) if digest else None
    if columns is None:
        columns = _parse_dump(path)
        if digest and _stamp(path) == stamp:
            _write_sidecar(path, digest, columns)
    for column in columns.arrays().values():
        column.setflags(write=False)
    bounds = np.cumsum(columns.counts).tolist()
    return [
        ImageDetections(
            image_id, columns.boxes[start:stop], columns.confidences[start:stop],
            columns.category_ids[start:stop], columns.features[start:stop],
        )
        for image_id, start, stop in zip(columns.image_ids, [0, *bounds], bounds)
    ], columns.feature_dim


def _parse_dump(path: Path) -> _DumpColumns:
    """The columns of the dump at `path`, parsed from its text."""
    # per column, its part from each block
    parts: tuple[list, ...] = ([], [], [], [], [])
    with open_utf8(path) as fh:
        header = fh.readline().rstrip("\n")
        m = DUMP_HEADER_RE.match(header)
        if m is None:
            raise DataFormatError(f"{path}:1: bad dump header '{header}'")
        dim = int(m.group(1))
        lineno = 2
        while lines := fh.readlines(BLOCK_CHARS):
            for column, part in zip(parts, _parse_block(lines, dim, path, lineno)):
                column.append(part)
            lineno += len(lines)
    if not parts[0]:
        return _DumpColumns(dim, [], np.zeros(0, dtype=np.int64), np.zeros((0, 4)), np.zeros(0),
                            np.zeros(0, dtype=np.int64), np.zeros((0, dim)))
    image_ids = [x for part in parts[0] for x in part]
    boxes, category_ids, confidences, features = map(_stacked, parts[1:])
    codes: dict[str, int] = {}
    image_of_row = np.array([codes.setdefault(i, len(codes)) for i in image_ids])
    if (np.diff(image_of_row) < 0).any():
        # interleaved images: group the rows, in file order within an image
        order = np.argsort(image_of_row, kind="stable")
        boxes, category_ids, confidences, features = (
            column[order] for column in (boxes, category_ids, confidences, features)
        )
    counts = np.bincount(image_of_row).astype(np.int64, copy=False)
    return _DumpColumns(dim, list(codes), counts, boxes, confidences, category_ids, features)


def sidecar_path(path) -> Path:
    """Where a load of the dump at `path` keeps its parsed columns."""
    path = Path(path)
    return path.with_name(path.name + SIDECAR_SUFFIX)


def _stamp(path: Path) -> tuple | None:
    """(device, inode, size, mtime_ns, owner) of `path` if it is a regular
    file in a directory this process may write, else None (no sidecar)."""
    try:
        st = os.stat(path)
    except OSError:
        return None
    if not (stat.S_ISREG(st.st_mode) and os.access(path.parent, os.W_OK | os.X_OK)):
        return None
    return st.st_dev, st.st_ino, st.st_size, st.st_mtime_ns, st.st_uid


def _sha256(path: Path) -> str | None:
    h = hashlib.sha256()
    try:
        with open(path, "rb") as fh:
            while chunk := fh.read(1 << 18):  # as fast as hashlib.file_digest (3.11+)
                h.update(chunk)
    except OSError:  # the parse raises it
        return None
    return h.hexdigest()


def _read_sidecar(path: Path, digest: str, dump_owner: int) -> _DumpColumns | None:
    """The columns in the sidecar of `path`, if it is owned by the dump's
    owner or this process's user, is keyed by `digest` and passes every check
    the text parse makes; else None."""
    sidecar = sidecar_path(path)
    try:
        st = os.stat(sidecar)
        # anyone who can read the dump can compute its key: in a shared
        # directory, a sidecar of another user's may hold other columns
        if not stat.S_ISREG(st.st_mode) or st.st_uid not in (dump_owner, os.geteuid()):
            return None
        with np.load(sidecar, allow_pickle=False) as npz:
            names = _DumpColumns._fields[2:]
            if sorted(npz.files) != sorted(["key", *names]):
                return None
            meta = json.loads(npz["key"].tobytes().decode("utf-8"))
            if (meta["version"], meta["sha256"]) != (SIDECAR_VERSION, digest):
                return None
            columns = _DumpColumns(meta["feature_dim"], meta["image_ids"],
                                   *(npz[name] for name in names))
        return columns if _columns_valid(columns) else None
    # derived data in any state: a damaged file raises BadZipFile, KeyError,
    # ValueError, NotImplementedError, OSError, EOFError or RuntimeError from
    # zipfile, numpy's reader or json, and every one of them means "parse"
    except Exception:
        return None


def _columns_valid(c: _DumpColumns) -> bool:
    """Whether `c` passes every check a text parse makes of its result."""
    ids, n = c.image_ids, c.confidences.size
    if not (
        type(c.feature_dim) is int and c.feature_dim >= 0
        and type(ids) is list and all(type(i) is str and i for i in ids)
        and len(set(ids)) == len(ids)
    ):
        return False
    layout = (
        (c.counts, np.int64, (len(ids),)), (c.boxes, np.float64, (n, 4)),
        (c.confidences, np.float64, (n,)), (c.category_ids, np.int64, (n,)),
        (c.features, np.float64, (n, c.feature_dim)),
    )
    return bool(
        all(a.dtype == dtype and a.shape == shape and a.flags.c_contiguous
            for a, dtype, shape in layout)
        and ((c.counts >= 1) & (c.counts <= n)).all() and c.counts.sum() == n
    ) and _values_valid(c.boxes, c.confidences, c.features)


def _write_sidecar(path: Path, digest: str, c: _DumpColumns) -> None:
    """Write `c` as the sidecar of `path`, keyed by `digest`: into a file of
    its own, renamed into place. A write that fails leaves nothing."""
    sidecar = sidecar_path(path)
    tmp = sidecar.with_name(f"{sidecar.name}.{secrets.token_hex(8)}.tmp")
    meta = {"version": SIDECAR_VERSION, "sha256": digest, "feature_dim": c.feature_dim,
            "image_ids": c.image_ids}  # JSON keeps every character of an id, NUL too
    try:
        with open(tmp, "xb") as fh:
            np.savez(fh, key=np.frombuffer(json.dumps(meta).encode("ascii"), dtype=np.uint8),
                     **c.arrays())
        os.replace(tmp, sidecar)
    except Exception:  # derived data: a failed write costs the next load a parse
        with suppress(OSError):
            tmp.unlink()


def _stacked(parts: list[np.ndarray]) -> np.ndarray:
    """The blocks' `parts` of a column as one array. Each part is released once
    copied, so the column is never held twice."""
    if len(parts) == 1:
        return parts.pop()
    out = np.empty((sum(map(len, parts)), *parts[0].shape[1:]), dtype=parts[0].dtype)
    start = 0
    for i, part in enumerate(parts):
        out[start : start + len(part)] = part
        start += len(part)
        parts[i] = None
    return out


def write_detection_dump(path, images: Sequence[ImageDetections],
                         category_names: Sequence[str] | Mapping[int, str],
                         feature_dim: int | None = None) -> None:
    """Write `images` as a detection dump, each line with the name
    ``category_names[category_id]``; every float is written as its ``repr``."""
    if feature_dim is None:
        for img in images:
            if len(img):
                feature_dim = img.features.shape[1]
                break
    if feature_dim is None:
        raise ValueError("write_detection_dump: feature_dim required for an empty dump")
    lines = [f"#refnms-dets v1 feature_dim={feature_dim}"]
    for img in images:
        for box, category_id, confidence, feature in zip(
            img.boxes.tolist(), img.category_ids.tolist(), img.confidences.tolist(),
            img.features.tolist(),
        ):
            lines.append(
                "\t".join(
                    (
                        img.image_id,
                        _format_floats(box),
                        str(category_id),
                        category_names[category_id],
                        repr(confidence),
                        _format_floats(feature),
                    )
                )
            )
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def _format_floats(values) -> str:
    return " ".join(repr(float(v)) for v in values)


def _format_box(box: Box) -> str:
    return _format_floats((box.x1, box.y1, box.x2, box.y2))


def _empty_id(path, lineno: int, **ids: str) -> DataFormatError:
    """The error for line `lineno` of `path`, naming the first of `ids` that is empty."""
    name = next(name for name, value in ids.items() if not value)
    return DataFormatError(f"{path}:{lineno}: empty {name}")


def load_expressions(path) -> list[ExpressionRecord]:
    """Parse an expressions file with unique expression ids and non-empty
    expression and image ids; tokens are lowercased."""
    path = Path(path)
    out: list[ExpressionRecord] = []
    first_line: dict[str, int] = {}
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.rstrip("\n").split("\t")
            if len(fields) not in (5, 6):
                raise DataFormatError(f"{path}:{lineno}: expected 5 or 6 fields, got {len(fields)}")
            expr_id, image_id, split, box_field, tok_field = fields[:5]
            if not (expr_id and image_id):
                raise _empty_id(path, lineno, expression_id=expr_id, image_id=image_id)
            if (first := first_line.setdefault(expr_id, lineno)) != lineno:
                raise DataFormatError(
                    f"{path}:{lineno}: duplicate expression_id '{expr_id}' (first on line {first})"
                )
            if split not in SPLITS:
                raise DataFormatError(f"{path}:{lineno}: unknown split '{split}'")
            tokens = tuple(t.lower() for t in tok_field.split())
            if not tokens:
                raise DataFormatError(f"{path}:{lineno}: empty token list")
            pos_tags: tuple[str, ...] | None = None
            if len(fields) == 6 and fields[5]:
                pos_tags = tuple(fields[5].split())
                if len(pos_tags) != len(tokens):
                    raise DataFormatError(
                        f"{path}:{lineno}: {len(pos_tags)} POS tags for {len(tokens)} tokens"
                    )
            box = _parse_box(box_field, path, lineno)
            out.append(ExpressionRecord(expr_id, image_id, tokens, pos_tags, box, split))
    return out


def write_expressions(path, records: Sequence[ExpressionRecord]) -> None:
    lines = []
    for rec in records:
        fields = [
            rec.expression_id,
            rec.image_id,
            rec.split,
            _format_box(rec.referent_box),
            " ".join(rec.tokens),
        ]
        if rec.pos_tags is not None:
            fields.append(" ".join(rec.pos_tags))
        lines.append("\t".join(fields))
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_regions(path) -> list[GroundTruthRegion]:
    """Parse a regions file with unique region ids and non-empty region and image ids."""
    path = Path(path)
    out: list[GroundTruthRegion] = []
    first_line: dict[str, int] = {}
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            fields = raw.rstrip("\n").split("\t")
            if len(fields) != 4:
                raise DataFormatError(f"{path}:{lineno}: expected 4 fields, got {len(fields)}")
            region_id, image_id, box_field, category = fields
            if not (region_id and image_id):
                raise _empty_id(path, lineno, region_id=region_id, image_id=image_id)
            if (first := first_line.setdefault(region_id, lineno)) != lineno:
                raise DataFormatError(
                    f"{path}:{lineno}: duplicate region_id '{region_id}' (first on line {first})"
                )
            box = _parse_box(box_field, path, lineno)
            out.append(GroundTruthRegion(region_id, image_id, box, category))
    return out


def write_regions(path, regions: Sequence[GroundTruthRegion]) -> None:
    lines = [
        "\t".join((r.region_id, r.image_id, _format_box(r.box), r.category_name))
        for r in regions
    ]
    Path(path).write_text("\n".join(lines) + ("\n" if lines else ""), encoding="utf-8")


def load_embeddings(path) -> EmbeddingTable:
    """Parse a GloVe-format text table; duplicate words keep the last vector."""
    path = Path(path)
    entries: dict[str, np.ndarray] = {}
    dim: int | None = None
    with open_utf8(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            parts = raw.rstrip("\n").split()
            if not parts:
                continue
            word = parts[0]
            try:
                vec = np.array([float(t) for t in parts[1:]], dtype=np.float64)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: bad embedding value ({exc})") from None
            if not np.isfinite(vec).all():
                raise DataFormatError(f"{path}:{lineno}: non-finite embedding value")
            if dim is None:
                dim = vec.size
                if dim == 0:
                    raise DataFormatError(f"{path}:{lineno}: embedding line has no values")
            elif vec.size != dim:
                raise DataFormatError(
                    f"{path}:{lineno}: embedding has {vec.size} values, expected {dim}"
                )
            if word in entries:
                warnings.warn(f"duplicate embedding for '{word}' at {path}:{lineno}; keeping last")
            vec.setflags(write=False)
            entries[word] = vec
    if dim is None:
        raise DataFormatError(f"{path}: empty embedding table")
    return EmbeddingTable(dim, entries)


@dataclass(frozen=True)
class Vocabulary:
    """Word -> dense index map; 0 is padding, OOV words map to the unk index."""

    word_to_index: Mapping[str, int]
    max_sentence_length: int

    @property
    def unk_index(self) -> int:
        return self.word_to_index[UNK_TOKEN]

    def __len__(self) -> int:
        return len(self.word_to_index)

    def index_of(self, word: str) -> int:
        return self.word_to_index.get(word, self.unk_index)

    def words_by_index(self) -> list[str]:
        ordered = sorted(self.word_to_index.items(), key=lambda kv: kv[1])
        return [w for w, _ in ordered]


def build_vocabulary(train_expressions: Sequence[ExpressionRecord], max_len: int) -> Vocabulary:
    """Count words over the given expressions and keep those seen >= 2 times.

    Indices are deterministic: padding, then unk, then retained words ordered
    by descending count with lexicographic tie-breaks.
    """
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    if not train_expressions:
        raise ValueError("build_vocabulary: empty training set")
    counts = Counter(t for expr in train_expressions for t in expr.tokens)
    retained = sorted(
        (w for w, c in counts.items() if c >= 2 and w != UNK_TOKEN),
        key=lambda w: (-counts[w], w),
    )
    word_to_index = {PAD_TOKEN: 0, UNK_TOKEN: 1}
    for w in retained:
        word_to_index[w] = len(word_to_index)
    return Vocabulary(word_to_index, max_len)


def vocabulary_from_words(words: Sequence[str], max_len: int) -> Vocabulary:
    """Rebuild a vocabulary from its index-ordered word list (checkpoints)."""
    if len(words) < 2 or words[0] != PAD_TOKEN or words[1] != UNK_TOKEN:
        raise DataFormatError("vocabulary word list must start with the pad and unk tokens")
    return Vocabulary({w: i for i, w in enumerate(words)}, max_len)


def encode_tokens(tokens: Sequence[str], vocab: Vocabulary) -> list[int]:
    """Map tokens to indices, truncating to the vocabulary's sentence limit."""
    if not tokens:
        raise ValueError("encode_tokens: empty token sequence")
    return [vocab.index_of(t) for t in tokens[: vocab.max_sentence_length]]


def group_detections(images: Iterable[ImageDetections]) -> dict[str, ImageDetections]:
    return {img.image_id: img for img in images}


def group_regions(regions: Iterable[GroundTruthRegion]) -> dict[str, list[GroundTruthRegion]]:
    grouped: dict[str, list[GroundTruthRegion]] = {}
    for r in regions:
        grouped.setdefault(r.image_id, []).append(r)
    return grouped
