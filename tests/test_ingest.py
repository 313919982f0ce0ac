"""File format loaders/writers, vocabulary construction, token encoding."""

import collections
import hashlib
import json
import os
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import boxes_of, image_of_rows, load_dump_by_line
from refnms import ingest
from refnms.geometry import Box, box_array
from refnms.ingest import (
    DataFormatError,
    ExpressionRecord,
    GroundTruthRegion,
    ImageDetections,
    build_vocabulary,
    encode_tokens,
    load_detection_dump,
    load_embeddings,
    load_expressions,
    load_regions,
    sidecar_path,
    vocabulary_from_words,
    write_detection_dump,
    write_expressions,
    write_regions,
)

HEADER = "#refnms-dets v1 feature_dim=3\n"


def det_line(image="img1", box="0.0 0.0 10.0 10.0", cat="2", name="dog", conf="0.9",
             feats="1.0 2.0 3.0"):
    return "\t".join((image, box, cat, name, conf, feats))


def expr(tokens, split="train", image_id="img1", eid="e1", tags=None, box=None):
    return ExpressionRecord(
        eid, image_id, tuple(tokens), tags, box or Box(0, 0, 10, 10), split
    )


# detection dump ---------------------------------------------------------------


def test_empty_dump_body(tmp_path):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER)
    dump, feature_dim = load_detection_dump(path)
    assert list(dump) == []
    assert feature_dim == 3


def test_dump_with_one_image_two_records(tmp_path):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line() + "\n" + det_line(conf="0.5") + "\n")
    dump, _ = load_detection_dump(path)
    assert len(dump) == 1
    assert dump[0].image_id == "img1"
    assert len(dump[0]) == 2
    image = dump[0]
    assert boxes_of(image)[0] == Box(0, 0, 10, 10)
    assert image.category_ids[0] == 2
    assert image.confidences[0] == 0.9
    np.testing.assert_array_equal(image.features[0], [1.0, 2.0, 3.0])
    # the name goes back by category id: written again, the lines are as read
    again = tmp_path / "again.tsv"
    write_detection_dump(again, dump, {2: "dog"})
    assert again.read_text() == path.read_text()


def test_dump_groups_interleaved_images_in_first_seen_order(tmp_path):
    path = tmp_path / "dets.tsv"
    lines = [det_line(image="a"), det_line(image="b"), det_line(image="a", conf="0.1")]
    path.write_text(HEADER + "\n".join(lines) + "\n")
    dump, _ = load_detection_dump(path)
    assert [img.image_id for img in dump] == ["a", "b"]
    assert [len(img) for img in dump] == [2, 1]


def test_dump_rejects_out_of_range_confidence(tmp_path):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line(conf="1.2") + "\n")
    with pytest.raises(DataFormatError, match=r":2.*1\.2"):
        load_detection_dump(path)


def test_dump_rejects_feature_length_mismatch(tmp_path):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line(feats="1.0 2.0") + "\n")
    with pytest.raises(DataFormatError, match="feature"):
        load_detection_dump(path)


def test_dump_parse_error_names_line_number(tmp_path):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line() + "\n" + "garbage line\n")
    with pytest.raises(DataFormatError, match=":3"):
        load_detection_dump(path)


def test_dump_rejects_bad_header(tmp_path):
    path = tmp_path / "dets.tsv"
    path.write_text("#something else\n")
    with pytest.raises(DataFormatError, match=":1"):
        load_detection_dump(path)


def test_detection_dump_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    names = {c: "traffic light" if c % 3 == 0 else "dog" for c in range(10)}
    images = []
    for i in range(3):
        rows = []
        for _ in range(rng.integers(1, 4)):
            x1, y1 = rng.uniform(0, 100, size=2)
            rows.append(
                (
                    Box(x1, y1, x1 + rng.uniform(1, 50), y1 + rng.uniform(1, 50)),
                    int(rng.integers(0, 10)),
                    float(rng.uniform(0, 1)),
                    rng.normal(size=4),
                )
            )
        images.append(image_of_rows(f"img{i}", rows))
    path = tmp_path / "dets.tsv"
    write_detection_dump(path, images, names, feature_dim=4)
    loaded, _ = load_detection_dump(path)
    assert [img.image_id for img in loaded] == [img.image_id for img in images]
    for orig, back, (_, records) in zip(images, loaded, load_dump_by_line(path)[0]):
        for a, b in zip(boxes_of(orig), boxes_of(back)):
            assert a == b
        assert orig.category_ids.tolist() == back.category_ids.tolist()
        assert [names[c] for c in orig.category_ids.tolist()] == [r[2] for r in records]
        assert orig.confidences.tolist() == back.confidences.tolist()
        np.testing.assert_array_equal(orig.features, back.features)
    # second write is byte-identical
    path2 = tmp_path / "dets2.tsv"
    write_detection_dump(path2, loaded, names)
    assert path.read_bytes() == path2.read_bytes()


def test_dump_rejects_non_finite_values_with_their_line(tmp_path):
    path = tmp_path / "dets.tsv"
    good = det_line()
    for bad in (det_line(box="nan 0 10 10"), det_line(box="0 0 inf 10"),
                det_line(feats="1.0 nan 3.0"), det_line(feats="1.0 2.0 -inf")):
        path.write_text(HEADER + good + "\n" + bad + "\n" + good + "\n")
        with pytest.raises(DataFormatError, match=r"dets\.tsv:3: .*non-finite"):
            load_detection_dump(path)


def test_dump_rejects_inverted_boxes_with_their_line(tmp_path):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line() + "\n" + det_line(box="5 0 4 10") + "\n")
    with pytest.raises(DataFormatError, match=r":3: bad box .*inverted"):
        load_detection_dump(path)


def test_dump_columns_are_read_only_views_of_one_array_per_column(tmp_path):
    path = tmp_path / "dets.tsv"
    lines = [det_line(image="a"), det_line(image="a", conf="0.2"), det_line(image="b")]
    path.write_text(HEADER + "\n".join(lines) + "\n")
    (a, b), _ = load_detection_dump(path)
    assert a.features.base is b.features.base is not None
    with pytest.raises(ValueError):
        a.features[0, 0] = 0.0


# The column parser against the line parser. Lines are drawn from valid
# parts in three spellings; a third of the dumps also pad or double some
# separators (valid, read in numpy's whitespace mode). Most dumps hold a
# spoilt line, with one bad part; a carriage return inside a number splits
# its line in two. Blocks of many sizes make the fast path and the fallback
# meet.

SPELLINGS = st.sampled_from([repr, lambda v: f"{v:.8g}", lambda v: f"{v:.3f}"])
SEPARATORS = st.sampled_from([" "] * 8 + ["  ", " \x0c", "\xa0", "\u2028"])
SPOILT_NUMBERS = st.sampled_from(
    ["nan", "inf", "-inf", "NaN", "abc", "", "1_0", "\u0663", "0x1p3", "1.5e", "+2", "-0",
     "1\r2", "\r"]
)
SPOILS = ("box number", "box count", "infinite box", "feature number", "feature count",
          "inverted", "category", "confidence", "image id", "missing field", "extra field")


@st.composite
def numbers(draw, values, padded, spoil_number=False, spoil_count=False):
    spell = draw(SPELLINGS)
    tokens = [spell(v) for v in values]
    if spoil_number and tokens:
        tokens[draw(st.integers(0, len(tokens) - 1))] = draw(SPOILT_NUMBERS)
    if spoil_count:
        tokens = tokens[:-1] if tokens and draw(st.booleans()) else tokens + ["1.0"]
    if not padded:
        return " ".join(tokens)
    field = draw(SEPARATORS).join(tokens)
    return " " + field if draw(st.integers(0, 9)) == 0 else field


@st.composite
def dump_lines(draw, dim, padded, spoil=None):
    coord = st.floats(-1e4, 1e4, allow_nan=False)
    x1, y1 = draw(coord), draw(coord)
    w, h = draw(st.floats(0, 500)), draw(st.floats(0, 500))
    if spoil == "inverted":
        if draw(st.booleans()):
            w = -draw(st.floats(1e-3, 500))
        else:
            h = -draw(st.floats(1e-3, 500))
    box = draw(
        numbers([x1, y1, x1 + w, y1 + h], padded, spoil == "box number", spoil == "box count")
    )
    if spoil == "infinite box":  # not inverted, so only the finite check stops it
        box = draw(st.sampled_from(["-inf 0 1 1", "0 -inf 1 1", "0 0 inf 1", "0 0 1 inf"]))
    category = draw(st.sampled_from(["0", "3", "17", "-2", " 4", str(2**63 - 1)]))
    if spoil == "category":
        category = draw(st.sampled_from(["x", "1.0", str(2**63), ""]))
    confidence = draw(st.floats(0, 1).map(repr) | st.sampled_from(["1", "0"]))
    if padded and draw(st.integers(0, 9)) == 0:
        confidence = draw(st.sampled_from([" 0.5", "0.25 "]))
    if spoil == "confidence":
        confidence = draw(st.sampled_from(["1.5", "-0.1", "nan", "inf", "abc", "1e400"]))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=dim, max_size=dim))
    feature = draw(numbers(values, padded, spoil == "feature number", spoil == "feature count"))
    image_id = "" if spoil == "image id" else draw(st.sampled_from(["a", "b", "c", "img 1"]))
    fields = [image_id, box, category, draw(st.sampled_from(["dog", "traffic light"])),
              confidence, feature]
    if spoil == "missing field":
        del fields[draw(st.integers(0, 5))]
    if spoil == "extra field":
        fields.insert(draw(st.integers(0, 6)), "1.0")
    return "\t".join(fields)


@st.composite
def dumps(draw):
    dim, padded = draw(st.sampled_from([0, 1, 3])), draw(st.integers(0, 2)) == 0
    lines = draw(st.lists(dump_lines(dim, padded), max_size=8))
    for _ in range(draw(st.sampled_from([0, 1, 1, 1, 2]))):
        spoilt = draw(dump_lines(dim, padded, draw(st.sampled_from(SPOILS))))
        lines.insert(draw(st.integers(0, len(lines))), spoilt)
    return f"#refnms-dets v1 feature_dim={dim}\n" + "".join(line + "\n" for line in lines)


def assert_same_columns(images, got_dim, groups, dim):
    """The loader's images hold, bit for bit, the line parser's (image_id,
    records), whose category names the loader does not keep."""
    assert got_dim == dim
    assert [img.image_id for img in images] == [image_id for image_id, _ in groups]
    for image, (_, records) in zip(images, groups):
        boxes, category_ids, _, confidences, features = zip(*records)
        assert image.boxes.tobytes() == box_array(boxes).tobytes()
        assert image.category_ids.tolist() == list(category_ids)
        assert image.confidences.tobytes() == np.array(confidences).tobytes()
        assert image.features.tobytes() == np.array(features).reshape(len(records), dim).tobytes()


def outcome(load, path):
    try:
        return load(path)
    except DataFormatError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(dumps(), st.sampled_from([1, 60, 400, ingest.BLOCK_CHARS]))
def test_column_parser_matches_the_line_parser(text, block_chars):
    saved = ingest.BLOCK_CHARS
    try:
        ingest.BLOCK_CHARS = block_chars
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "dets.tsv"
            path.write_text(text, encoding="utf-8")
            expected, got = outcome(load_dump_by_line, path), outcome(load_detection_dump, path)
    finally:
        ingest.BLOCK_CHARS = saved
    if isinstance(expected, str):
        assert got == expected  # the same message, so the same file:line
        return
    (groups, dim), (images, got_dim) = expected, got
    assert_same_columns(images, got_dim, groups, dim)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    st.sampled_from([0, 1, 3, 16]).flatmap(
        lambda dim: st.tuples(
            st.just(dim), st.lists(dump_lines(dim, padded=False) | dump_lines(dim, padded=True),
                                   min_size=1, max_size=12)
        )
    )
)
def test_valid_dumps_of_any_spacing_are_read_one_conversion_per_column(dim_and_lines):
    # canonical lines and lines with doubled, padded or other whitespace
    # between numbers never reach the line parser, and read bit-identically to it
    dim, lines = dim_and_lines
    text = f"#refnms-dets v1 feature_dim={dim}\n" + "".join(line + "\n" for line in lines)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dets.tsv"
        path.write_text(text, encoding="utf-8")
        groups, _ = load_dump_by_line(path)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ingest, "_parse_lines", lambda *args: pytest.fail("line parser used"))
            images, got_dim = load_detection_dump(path)
    assert_same_columns(images, got_dim, groups, dim)


@pytest.mark.parametrize(
    "dim, features",
    [(2, ["1\r2"]), (1, ["1\r2", ""]), (1, ["", "1\r2"]), (1, ["1\n2", " "]), (1, ["", "1", "2"])],
)
def test_block_rows_stay_tied_to_their_lines(dim, features):
    # a line end inside a field, next to a field numpy drops: the block still
    # reads as the line parser reads it, error or columns
    lines = [det_line(feats=f) + "\n" for f in features]
    outcomes = []
    for parse in (ingest._parse_lines, ingest._parse_block):
        try:
            outcomes.append([np.asarray(c).tolist() for c in parse(lines, dim, "d.tsv", 2)])
        except DataFormatError as exc:
            outcomes.append(str(exc))
    assert outcomes[1] == outcomes[0]


FINITE = st.floats(allow_nan=False, allow_infinity=False)
# any text a dump's first field can hold: no tab, and no \n or \r, which end a line
IMAGE_IDS = st.text(st.characters(exclude_characters="\t\n\r"), min_size=1, max_size=6)


@st.composite
def detection_images(draw):
    images = []
    image_ids = draw(st.lists(IMAGE_IDS, min_size=1, max_size=3, unique=True))
    for image_id in image_ids:
        n = draw(st.integers(1, 4))
        boxes = []
        for _ in range(n):
            x1, y1 = draw(FINITE), draw(FINITE)
            x2 = draw(st.floats(min_value=x1, allow_infinity=False))
            y2 = draw(st.floats(min_value=y1, allow_infinity=False))
            boxes.append((x1, y1, x2, y2))
        images.append(
            ImageDetections(
                image_id, boxes, draw(st.lists(st.floats(0, 1), min_size=n, max_size=n)),
                draw(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=n, max_size=n)),
                np.array(draw(st.lists(FINITE, min_size=2 * n, max_size=2 * n))).reshape(n, 2),
            )
        )
    return images


def no_text_parse(patch):
    """Make any parse of dump text fail the test."""
    patch.setattr(ingest, "_parse_block", lambda *args: pytest.fail("dump text parsed"))


def assert_same_images(got, expected):
    assert [img.image_id for img in got] == [img.image_id for img in expected]
    for back, orig in zip(got, expected):
        for column in ("boxes", "confidences", "category_ids", "features"):
            assert getattr(orig, column).tobytes() == getattr(back, column).tobytes(), column


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(detection_images())
def test_dump_write_then_load_is_bit_exact(images):
    # the first load parses the text and leaves a sidecar; the second reads
    # the sidecar alone, to the same bits
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dets.tsv"
        write_detection_dump(path, images, collections.defaultdict(lambda: "traffic light"))
        loaded, dim = load_detection_dump(path)
        groups, _ = load_dump_by_line(path)
        assert sidecar_path(path).is_file()
        with pytest.MonkeyPatch.context() as patch:
            no_text_parse(patch)
            again, dim_again = load_detection_dump(path)
    assert dim == dim_again == 2
    assert_same_images(loaded, images)
    assert_same_images(again, images)
    for image in again:
        assert not image.features.flags.writeable
    for orig, (_, records) in zip(images, groups):
        assert [r[2] for r in records] == ["traffic light"] * len(orig)


def test_image_ids_with_unicode_and_trailing_nuls_round_trip(tmp_path):
    # numpy's fixed-width unicode strings drop trailing NULs; the sidecar must not
    ids = ["a", "a\x00", "a\x00\x00", "\x00", "Ünïcødé 图像 🐕", "b\x00c", " pad "]
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + "".join(det_line(image=i) + "\n" for i in ids), encoding="utf-8")
    first, _ = load_detection_dump(path)
    with pytest.MonkeyPatch.context() as patch:
        no_text_parse(patch)
        second, _ = load_detection_dump(path)
    assert [img.image_id for img in first] == [img.image_id for img in second] == ids


def test_empty_dump_loads_from_its_sidecar(tmp_path):
    path = tmp_path / "dets.tsv"
    path.write_text("#refnms-dets v1 feature_dim=7\n")
    assert load_detection_dump(path) == ([], 7)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ingest, "_parse_dump", lambda *args: pytest.fail("dump text parsed"))
        assert load_detection_dump(path) == ([], 7)


def counting_text_parses(monkeypatch) -> list:
    """A list that grows by one each time dump text is parsed."""
    calls, parse = [], ingest._parse_dump

    def counted(path):
        calls.append(path)
        return parse(path)

    monkeypatch.setattr(ingest, "_parse_dump", counted)
    return calls


def test_dump_edited_to_the_same_size_is_parsed_again(tmp_path, monkeypatch):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line(conf="0.9") + "\n" + det_line(image="b") + "\n")
    load_detection_dump(path)
    old_key = sidecar_path(path).read_bytes()
    st_before = path.stat()
    path.write_text(HEADER + det_line(conf="0.8") + "\n" + det_line(image="b") + "\n")
    # the same size and even the same mtime: the sidecar is keyed by the bytes
    os.utime(path, ns=(st_before.st_atime_ns, st_before.st_mtime_ns))
    assert path.stat().st_size == st_before.st_size
    calls = counting_text_parses(monkeypatch)
    (a, _), _ = load_detection_dump(path)
    assert a.confidences.tolist() == [0.8] and len(calls) == 1
    assert sidecar_path(path).read_bytes() != old_key  # rewritten for the new bytes
    (a, _), _ = load_detection_dump(path)
    assert a.confidences.tolist() == [0.8] and len(calls) == 1


def rewritten(path: Path, change) -> None:
    """Rewrite the npz at `path` with its arrays passed through `change`."""
    with np.load(path) as npz:
        arrays = {name: npz[name].copy() for name in npz.files}
    change(arrays)
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)


def with_key(arrays, **fields):
    meta = json.loads(arrays["key"].tobytes()) | fields
    arrays["key"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)


def set_item(name, index, value):
    return lambda arrays: arrays[name].__setitem__(index, value)


BAD_SIDECARS = {
    "truncated": lambda p: p.write_bytes(p.read_bytes()[: p.stat().st_size // 2]),
    "garbage": lambda p: p.write_bytes(b"\x93NUMPY not a zip" * 40),
    "empty": lambda p: p.write_bytes(b""),
    "nan feature": lambda p: rewritten(p, set_item("features", (1, 2), np.nan)),
    "inf box": lambda p: rewritten(p, set_item("boxes", (0, 2), np.inf)),
    "confidence 1.5": lambda p: rewritten(p, set_item("confidences", 2, 1.5)),
    "confidence nan": lambda p: rewritten(p, set_item("confidences", 0, np.nan)),
    "inverted box": lambda p: rewritten(p, set_item("boxes", (1, 0), 50.0)),
    "wrong key": lambda p: rewritten(p, lambda a: with_key(a, sha256="0" * 64)),
    "other version": lambda p: rewritten(p, lambda a: with_key(a, version=0)),
    "counts off": lambda p: rewritten(p, set_item("counts", 0, 3)),
    "zero count": lambda p: rewritten(p, lambda a: a.update(counts=np.array([0, 3]))),
    "repeated id": lambda p: rewritten(p, lambda a: with_key(a, image_ids=["a", "a"])),
    "empty id": lambda p: rewritten(p, lambda a: with_key(a, image_ids=["a", ""])),
    "feature_dim": lambda p: rewritten(p, lambda a: with_key(a, feature_dim=2)),
    "float32 features": lambda p: rewritten(
        p, lambda a: a.update(features=a["features"].astype(np.float32))),
    "column missing": lambda p: rewritten(p, lambda a: a.pop("category_ids")),
}


@pytest.mark.parametrize("spoil", sorted(BAD_SIDECARS))
def test_bad_sidecar_gives_the_text_parse_and_is_rewritten(tmp_path, monkeypatch, spoil):
    path = tmp_path / "dets.tsv"
    lines = [det_line(image="a"), det_line(image="b", box="1 2 3 4"), det_line(image="a")]
    path.write_text(HEADER + "".join(line + "\n" for line in lines))
    load_detection_dump(path)
    BAD_SIDECARS[spoil](sidecar_path(path))
    calls = counting_text_parses(monkeypatch)
    images, dim = load_detection_dump(path)
    assert len(calls) == 1
    groups, _ = load_dump_by_line(path)
    assert_same_columns(images, dim, groups, 3)
    load_detection_dump(path)
    assert len(calls) == 1  # the rewritten sidecar serves the next load


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.lists(st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
                min_size=1, max_size=4),
       st.floats(0.05, 1))
def test_damaged_sidecar_bytes_give_the_text_parse(edits, kept):
    # bytes of a good sidecar overwritten, and its tail cut off
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "dets.tsv"
        lines = [det_line(image="a"), det_line(image="b", box="1 2 3 4"), det_line(image="a")]
        path.write_text(HEADER + "".join(line + "\n" for line in lines))
        load_detection_dump(path)
        damaged = bytearray(sidecar_path(path).read_bytes())
        for where, byte in edits:
            damaged[int(where * len(damaged))] = byte
        sidecar_path(path).write_bytes(damaged[: max(1, int(kept * len(damaged)))])
        images, dim = load_detection_dump(path)
        groups, _ = load_dump_by_line(path)
    assert_same_columns(images, dim, groups, 3)


def test_unwritable_directory_loads_without_hashing_or_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line() + "\n")
    expected, _ = load_dump_by_line(path)
    access = os.access
    monkeypatch.setattr(
        os, "access", lambda p, mode: False if Path(p) == tmp_path else access(p, mode)
    )
    monkeypatch.setattr(ingest, "_sha256", lambda *args: pytest.fail("dump hashed"))
    images, dim = load_detection_dump(path)
    assert_same_columns(images, dim, expected, 3)
    assert os.listdir(tmp_path) == ["dets.tsv"]


def test_sidecar_is_written_and_read_without_hashlib_file_digest(tmp_path, monkeypatch):
    # hashlib.file_digest is new in Python 3.11; the package supports 3.10
    monkeypatch.delattr(hashlib, "file_digest", raising=False)
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line() + "\n")
    first, _ = load_detection_dump(path)
    assert sidecar_path(path).is_file()
    calls = counting_text_parses(monkeypatch)
    second, _ = load_detection_dump(path)
    assert calls == []
    assert_same_images(second, first)


@pytest.mark.skipif(os.geteuid() != 0, reason="giving a file to another user needs root")
def test_sidecar_of_another_user_gives_the_text_parse(tmp_path, monkeypatch):
    # its key is right, as anyone who can read the dump can compute it
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line(conf="0.9") + "\n")
    load_detection_dump(path)
    rewritten(sidecar_path(path), set_item("confidences", 0, 0.5))
    os.chown(sidecar_path(path), os.geteuid() + 4321, -1)
    calls = counting_text_parses(monkeypatch)
    (image,), _ = load_detection_dump(path)
    assert image.confidences.tolist() == [0.9] and len(calls) == 1
    assert sidecar_path(path).stat().st_uid == os.geteuid()  # replaced by this user's


def test_dump_changed_during_its_parse_leaves_no_sidecar(tmp_path, monkeypatch):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line() + "\n")
    parse = ingest._parse_dump

    def touched(p):
        columns = parse(p)
        os.utime(p, ns=(0, path.stat().st_mtime_ns + 1))
        return columns

    monkeypatch.setattr(ingest, "_parse_dump", touched)
    load_detection_dump(path)
    assert os.listdir(tmp_path) == ["dets.tsv"]


def test_failed_sidecar_write_is_ignored_and_leaves_nothing(tmp_path, monkeypatch):
    path = tmp_path / "dets.tsv"
    path.write_text(HEADER + det_line() + "\n")
    for error in (OSError(28, "No space left on device"), ValueError("from numpy")):

        def failing(fh, **arrays):
            fh.write(b"partial")
            raise error

        monkeypatch.setattr(np, "savez", failing)
        (image,), _ = load_detection_dump(path)
        assert image.confidences.tolist() == [0.9]
        assert os.listdir(tmp_path) == ["dets.tsv"]


# expressions and regions --------------------------------------------------------


def test_expressions_round_trip(tmp_path):
    records = [
        expr(["the", "cat"], tags=("DET", "NOUN")),
        expr(["dog"], split="val", eid="e2", tags=None),
    ]
    path = tmp_path / "expr.tsv"
    write_expressions(path, records)
    loaded = load_expressions(path)
    assert len(loaded) == 2
    assert loaded[0].tokens == ("the", "cat")
    assert loaded[0].pos_tags == ("DET", "NOUN")
    assert loaded[1].pos_tags is None
    assert loaded[1].split == "val"


def test_expressions_tokens_lowercased_on_load(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("e1\timg1\ttrain\t0 0 5 5\tThe CAT\n")
    assert load_expressions(path)[0].tokens == ("the", "cat")


def test_expressions_reject_tag_count_mismatch(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("e1\timg1\ttrain\t0 0 5 5\tthe cat\tDET\n")
    with pytest.raises(DataFormatError, match="POS"):
        load_expressions(path)


def test_expressions_reject_unknown_split(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("e1\timg1\tdev\t0 0 5 5\tthe cat\n")
    with pytest.raises(DataFormatError, match="split"):
        load_expressions(path)


def test_regions_round_trip_with_multiword_category(tmp_path):
    regions = [GroundTruthRegion("r1", "img1", Box(1, 2, 3, 4), "traffic light")]
    path = tmp_path / "r.tsv"
    write_regions(path, regions)
    loaded = load_regions(path)
    assert loaded[0].category_name == "traffic light"
    assert loaded[0].box == Box(1, 2, 3, 4)


NAMES = st.text("abcXYZ019_-.:", min_size=1, max_size=6)
TOKENS = st.lists(st.text("abcxyz019'-", min_size=1, max_size=5), min_size=1, max_size=4)


@st.composite
def boxes(draw):
    x1, y1 = draw(FINITE), draw(FINITE)
    return Box(x1, y1, draw(st.floats(min_value=x1, allow_infinity=False)),
               draw(st.floats(min_value=y1, allow_infinity=False)))


def box_bits(box):
    return np.array([box.x1, box.y1, box.x2, box.y2]).tobytes()


@st.composite
def expression_records(draw):
    ids = draw(st.lists(NAMES, unique=True, max_size=4))
    records = []
    for expression_id in ids:
        tokens = tuple(draw(TOKENS))
        tags = draw(st.none() | st.lists(NAMES, min_size=len(tokens), max_size=len(tokens)))
        records.append(ExpressionRecord(
            expression_id, draw(NAMES), tokens, None if tags is None else tuple(tags),
            draw(boxes()), draw(st.sampled_from(sorted(ingest.SPLITS))),
        ))
    return records


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(expression_records())
def test_expressions_write_then_load_keep_every_field(records):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "expr.tsv"
        write_expressions(path, records)
        loaded = load_expressions(path)
    assert len(loaded) == len(records)
    for orig, back in zip(records, loaded):
        assert (back.expression_id, back.image_id, back.tokens, back.pos_tags, back.split) == (
            orig.expression_id, orig.image_id, orig.tokens, orig.pos_tags, orig.split
        )
        assert box_bits(back.referent_box) == box_bits(orig.referent_box)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(st.lists(st.builds(GroundTruthRegion, NAMES, NAMES, boxes(),
                          st.text("ab Z-", min_size=1, max_size=8)),
                max_size=4, unique_by=lambda region: region.region_id))
def test_regions_write_then_load_keep_every_field(regions):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "regions.tsv"
        write_regions(path, regions)
        loaded = load_regions(path)
    assert len(loaded) == len(regions)
    for orig, back in zip(regions, loaded):
        assert (back.region_id, back.image_id, back.category_name) == (
            orig.region_id, orig.image_id, orig.category_name
        )
        assert box_bits(back.box) == box_bits(orig.box)


def test_expression_and_region_boxes_must_be_finite(tmp_path):
    path = tmp_path / "e.tsv"
    path.write_text("e1\timg1\ttrain\t0 0 5 5\tthe cat\ne2\timg1\ttrain\t0 nan 5 5\tthe cat\n")
    with pytest.raises(DataFormatError, match=r"e\.tsv:2: .*non-finite"):
        load_expressions(path)
    path = tmp_path / "r.tsv"
    path.write_text("r1\timg1\t0 0 inf 5\tcat\n")
    with pytest.raises(DataFormatError, match=r"r\.tsv:1: .*non-finite"):
        load_regions(path)


# embeddings ---------------------------------------------------------------------


def test_embeddings_basic_load(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 0.0 0.5\ndog 0.0 1.0 0.25\n")
    table = load_embeddings(path)
    assert table.dimension == 3
    assert len(table) == 2
    np.testing.assert_array_equal(table.get("cat"), [1.0, 0.0, 0.5])


def test_embeddings_absent_word_returns_none():
    from refnms.ingest import EmbeddingTable

    table = EmbeddingTable(2, {"cat": np.array([1.0, 0.0])})
    assert table.get("zebra") is None
    assert "zebra" not in table


def test_embeddings_reject_inconsistent_dimension(tmp_path):
    path = tmp_path / "emb.txt"
    lines = ["w" + str(i) + " " + " ".join(["0.1"] * 300) for i in range(2)]
    lines.append("bad " + " ".join(["0.1"] * 299))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(DataFormatError, match="299"):
        load_embeddings(path)


def test_embeddings_reject_non_finite_values(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 0.0\ndog 0.0 nan\n")
    with pytest.raises(DataFormatError, match=r"emb\.txt:2: non-finite"):
        load_embeddings(path)


def test_embeddings_duplicate_word_warns_and_keeps_last(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("cat 1.0 0.0\ncat 0.0 1.0\n")
    with pytest.warns(UserWarning, match="duplicate"):
        table = load_embeddings(path)
    np.testing.assert_array_equal(table.get("cat"), [0.0, 1.0])


# vocabulary ---------------------------------------------------------------------


def test_vocabulary_drops_singletons():
    vocab = build_vocabulary([expr(["the", "cat"]), expr(["the", "dog"])], max_len=10)
    assert "the" in vocab.word_to_index
    assert "cat" not in vocab.word_to_index
    assert "dog" not in vocab.word_to_index
    assert vocab.index_of("cat") == vocab.unk_index


def test_vocabulary_counts_within_one_expression():
    vocab = build_vocabulary([expr(["a", "a"])], max_len=10)
    assert "a" in vocab.word_to_index


def test_vocabulary_is_deterministic_and_ordered():
    corpus = [expr(["b", "c", "c"]), expr(["a", "a", "a", "b"])]
    vocab1 = build_vocabulary(corpus, max_len=10)
    vocab2 = build_vocabulary(list(reversed(corpus)), max_len=10)
    assert vocab1.word_to_index == vocab2.word_to_index
    # a: 3, b: 2, c: 2 -> a first, then b/c lexicographically, after pad and unk
    assert vocab1.word_to_index["a"] == 2
    assert vocab1.word_to_index["b"] == 3
    assert vocab1.word_to_index["c"] == 4


def test_vocabulary_rejects_empty_corpus():
    with pytest.raises(ValueError):
        build_vocabulary([], max_len=10)


def test_vocabulary_word_list_round_trip():
    vocab = build_vocabulary([expr(["a", "a", "b", "b"])], max_len=10)
    rebuilt = vocabulary_from_words(vocab.words_by_index(), 10)
    assert rebuilt.word_to_index == vocab.word_to_index


def test_encode_truncates_to_sentence_limit():
    vocab = build_vocabulary([expr(["w"] * 2)], max_len=10)
    tokens = [f"t{i}" for i in range(12)]
    assert len(encode_tokens(tokens, vocab)) == 10


def test_encode_known_tokens_are_not_unk():
    vocab = build_vocabulary([expr(["red", "red", "cat", "cat", "mat", "mat"])], max_len=10)
    indices = encode_tokens(["red", "cat", "mat"], vocab)
    assert len(indices) == 3
    assert all(i != vocab.unk_index and i != 0 for i in indices)


def test_encode_marks_unknown_positions_with_unk():
    vocab = build_vocabulary([expr(["red", "red", "cat", "cat"])], max_len=10)
    indices = encode_tokens(["red", "thing", "cat"], vocab)
    assert indices[0] != vocab.unk_index
    assert indices[1] == vocab.unk_index
    assert indices[2] != vocab.unk_index


def test_encode_rejects_empty_tokens():
    vocab = build_vocabulary([expr(["a", "a"])], max_len=10)
    with pytest.raises(ValueError):
        encode_tokens([], vocab)
