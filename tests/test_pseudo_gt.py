"""Noun extraction, embedding similarity, and pseudo ground-truth matching."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from refnms.evaluation import build_eval_set
from refnms.geometry import Box, box_array
from oracles import Region, regions_by_image, regions_in
from refnms.ingest import EmbeddingTable, ExpressionRecord, build_vocabulary
from refnms.pseudo_gt import (
    HEURISTIC_STOPLIST,
    category_similarity,
    extract_nouns,
    generate_pseudo_gt,
    memoized_similarity,
)


def table_of(**vectors):
    entries = {w: np.asarray(v, dtype=float) for w, v in vectors.items()}
    dim = len(next(iter(entries.values())))
    return EmbeddingTable(dim, entries)


def expression(tokens, tags=None, image_id="img1", eid="e1"):
    return ExpressionRecord(eid, image_id, tuple(tokens), tags, Box(0, 0, 10, 10), "train")


def region(rid, category, image_id="img1"):
    return Region(rid, image_id, Box(0, 0, 5, 5), category)


def one_image(*regions):
    """The `ImageRegions` of `regions`, all of one image."""
    (image,) = regions_by_image(regions).values()
    return image


def ids(image, rows):
    return {image.region_ids[row] for row in rows}


# noun extraction ---------------------------------------------------------------


def test_extract_nouns_by_tags():
    out = extract_nouns(["the", "cat", "on", "a", "towel"], ["DET", "NOUN", "ADP", "DET", "NOUN"])
    assert out == ["cat", "towel"]


def test_extract_nouns_accepts_proper_nouns():
    assert extract_nouns(["obama"], ["PROPN"]) == ["obama"]


def test_extract_nouns_no_nouns_tagged():
    assert extract_nouns(["red", "one"], ["ADJ", "NUM"]) == []


def test_heuristic_agrees_on_red_one():
    # same answer as the tagged variant: both words sit on the stoplist
    assert extract_nouns(["red", "one"]) == []


def test_heuristic_keeps_untagged_content_words():
    # "holding" is not on the shipped stoplist, so the tagless heuristic keeps
    # it alongside the true nouns; the similarity gate downstream absorbs it
    assert "holding" not in HEURISTIC_STOPLIST
    assert extract_nouns(["man", "holding", "pizza"]) == ["man", "holding", "pizza"]


def test_heuristic_drops_numerics_and_preserves_duplicates():
    assert extract_nouns(["2", "cats", "cats", "13.5"]) == ["cats", "cats"]


def test_extract_nouns_rejects_empty():
    with pytest.raises(ValueError):
        extract_nouns([])
    with pytest.raises(ValueError):
        extract_nouns(["cat"], ["NOUN", "NOUN"])


# similarity --------------------------------------------------------------------


def test_similarity_identical_word():
    table = table_of(cat=[1.0, 2.0, 3.0])
    assert category_similarity("cat", "cat", table) == pytest.approx(1.0)


def test_similarity_orthogonal_vectors():
    table = table_of(cat=[1.0, 0.0], dog=[0.0, 1.0])
    assert category_similarity("cat", "dog", table) == pytest.approx(0.0, abs=1e-12)


def test_similarity_multiword_category_uses_mean():
    # mean of (1,0) and (0,1) is (0.5, 0.5); cosine with (1,1) is exactly 1
    table = table_of(noun=[1.0, 1.0], traffic=[1.0, 0.0], light=[0.0, 1.0])
    assert category_similarity("noun", "traffic light", table) == pytest.approx(1.0)


def test_similarity_missing_noun_is_sentinel():
    table = table_of(cat=[1.0, 0.0])
    assert category_similarity("zebra", "cat", table) == -1.0


def test_similarity_missing_category_word_is_sentinel():
    table = table_of(cat=[1.0, 0.0], traffic=[0.0, 1.0])
    assert category_similarity("cat", "traffic light", table) == -1.0


def test_similarity_zero_norm_is_sentinel():
    table = table_of(cat=[0.0, 0.0], dog=[1.0, 0.0])
    assert category_similarity("cat", "dog", table) == -1.0
    assert category_similarity("dog", "cat", table) == -1.0


# pseudo ground truth --------------------------------------------------------------


def test_no_nouns_gives_empty_set_but_referent_flag():
    table = table_of(cat=[1.0, 0.0])
    regions = one_image(region("r1", "cat"))
    out = generate_pseudo_gt(expression(["red", "one"], tags=("ADJ", "NUM")), regions, table)
    assert ids(regions, out) == set()
    # the referent stays the example's foreground
    (example,) = build_eval_set(
        [expression(["red", "one"], tags=("ADJ", "NUM"))], {}, {"img1": regions}, table,
    )
    assert example.targets.tolist() == [[0, 0, 10, 10]]


def test_exact_category_match_is_included():
    table = table_of(cat=[1.0, 0.0])
    regions = one_image(region("r1", "cat"))
    out = generate_pseudo_gt(expression(["cat"], tags=("NOUN",)), regions, table)
    assert ids(regions, out) == {"r1"}


def test_threshold_is_inclusive_and_separates_nearby_cosines():
    # catA at cosine 0.39 with the noun, catB at 0.41; threshold 0.4 keeps only catB
    table = table_of(
        noun=[1.0, 0.0],
        cata=[0.39, float(np.sqrt(1 - 0.39**2))],
        catb=[0.41, float(np.sqrt(1 - 0.41**2))],
    )
    assert category_similarity("noun", "cata", table) == pytest.approx(0.39)
    assert category_similarity("noun", "catb", table) == pytest.approx(0.41)
    regions = one_image(region("ra", "cata"), region("rb", "catb"))
    out = generate_pseudo_gt(
        expression(["noun"], tags=("NOUN",)), regions, table, similarity_threshold=0.4
    )
    assert ids(regions, out) == {"rb"}
    # boundary inclusivity: a cosine exactly at the threshold is kept
    at_edge = table_of(noun=[1.0, 0.0], cata=[0.4, float(np.sqrt(1 - 0.4**2))])
    regions = one_image(region("ra", "cata"))
    out = generate_pseudo_gt(
        expression(["noun"], tags=("NOUN",)), regions, at_edge,
        similarity_threshold=category_similarity("noun", "cata", at_edge),
    )
    assert ids(regions, out) == {"ra"}


def test_rejects_regions_of_another_image():
    table = table_of(cat=[1.0])
    with pytest.raises(ValueError, match="image"):
        generate_pseudo_gt(
            expression(["cat"], tags=("NOUN",)),
            one_image(region("r1", "cat", image_id="other")),
            table,
        )


def test_monotone_in_threshold():
    rng = np.random.default_rng(17)
    words = [f"w{i}" for i in range(6)]
    table = table_of(**{w: rng.normal(size=4) for w in words})
    regions = one_image(*(region(f"r{i}", words[i]) for i in range(6)))
    expr = expression(words[:3], tags=("NOUN",) * 3)
    previous = None
    for threshold in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0):
        current = ids(regions, generate_pseudo_gt(expr, regions, table, threshold))
        if previous is not None:
            assert current <= previous
        previous = current


def test_adding_a_noun_never_removes_regions():
    rng = np.random.default_rng(18)
    words = [f"w{i}" for i in range(5)]
    table = table_of(**{w: rng.normal(size=3) for w in words})
    regions = one_image(*(region(f"r{i}", words[i]) for i in range(5)))
    small = ids(regions, generate_pseudo_gt(
        expression(words[:2], tags=("NOUN", "NOUN")), regions, table, 0.2
    ))
    grown = ids(regions, generate_pseudo_gt(
        expression(words[:3], tags=("NOUN",) * 3), regions, table, 0.2
    ))
    assert small <= grown


def test_output_independent_of_region_order():
    rng = np.random.default_rng(19)
    words = [f"w{i}" for i in range(5)]
    table = table_of(**{w: rng.normal(size=3) for w in words})
    regions = [region(f"r{i}", words[i]) for i in range(5)]
    expr = expression(words[:2], tags=("NOUN", "NOUN"))
    given, reverse = one_image(*regions), one_image(*reversed(regions))
    forward = ids(given, generate_pseudo_gt(expr, given, table, 0.1))
    backward = ids(reverse, generate_pseudo_gt(expr, reverse, table, 0.1))
    assert forward == backward


def test_foreground_boxes_prepends_referent():
    # an example's foreground is its referent, then the matched regions' boxes
    table = table_of(cat=[1.0])
    regions = [region("r1", "cat")]
    expr = expression(["cat"], tags=("NOUN",))
    (example,) = build_eval_set([expr], {}, {"img1": one_image(*regions)}, table)
    boxes = [Box(*row) for row in example.targets.tolist()]
    assert boxes[0] == expr.referent_box
    assert boxes[1] == regions[0].box


@pytest.mark.parametrize("order", [1, -1], ids=["given", "reversed"])
def test_targets_are_the_referent_then_the_matched_regions_in_region_order(order):
    # "cat" and "kitten" match, "dog" does not; the matched rows follow the
    # regions' order, whichever it is, and the array cannot be written
    table = table_of(cat=[1.0, 0.0], kitten=[0.9, 0.1], dog=[0.0, 1.0])
    regions = [
        Region("r1", "img1", Box(1, 1, 4, 4), "kitten"),
        Region("r2", "img1", Box(2, 2, 6, 6), "dog"),
        Region("r3", "img1", Box(3, 3, 9, 9), "cat"),
    ][::order]
    expr = expression(["cat"], tags=("NOUN",))
    (example,) = build_eval_set([expr], {}, {"img1": one_image(*regions)}, table)
    matched = [r.box for r in regions if r.category_name != "dog"]
    assert example.targets.dtype == np.float64
    assert example.targets.tobytes() == box_array([expr.referent_box, *matched]).tobytes()
    assert not example.targets.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        example.targets[0, 0] = 1.0


# memoized similarity --------------------------------------------------------------

WORDS = ("cat", "dog", "mat", "red", "zebra", "traffic", "light", "the")


@st.composite
def pseudo_gt_inputs(draw):
    """An embedding table over some of `WORDS` (zero vectors included) and
    expressions and regions over all of them."""
    dim = draw(st.integers(1, 3))
    coordinate = st.sampled_from([-1.0, -0.5, 0.0, 0.3, 1.0, 2.0])
    known = draw(st.lists(st.sampled_from(WORDS), unique=True))
    table = EmbeddingTable(
        dim, {w: np.array(draw(st.lists(coordinate, min_size=dim, max_size=dim))) for w in known}
    )
    word = st.sampled_from(WORDS)
    regions = [
        Region(f"r{k}", f"img{k % 2}", Box(k, 0, k + 5, 5),
               " ".join(draw(st.lists(word, min_size=1, max_size=2))))
        for k in range(draw(st.integers(0, 6)))
    ]
    expressions = [
        ExpressionRecord(f"e{k}", f"img{k % 2}", tuple(draw(st.lists(word, min_size=1, max_size=4))),
                         None, Box(0, 0, 10, 10), "val")
        for k in range(draw(st.integers(1, 6)))
    ]
    return table, regions, expressions, draw(st.sampled_from([-1.0, 0.0, 0.4, 0.99]))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pseudo_gt_inputs())
def test_memoized_similarity_is_bit_equal_to_the_direct_one(inputs):
    table, regions, expressions, threshold = inputs
    memo = memoized_similarity(table)
    for noun in WORDS:
        for name in {r.category_name for r in regions}:
            direct = category_similarity(noun, name, table)
            assert memo(noun, name) == direct and memo(noun, name) == direct  # second call cached
    by_image = regions_by_image(regions)
    direct = {
        e.expression_id: generate_pseudo_gt(e, by_image.get(e.image_id), table, threshold)
        for e in expressions
    }
    for e in expressions:
        shared = generate_pseudo_gt(e, by_image.get(e.image_id), table, threshold, memo)
        assert shared == direct[e.expression_id]
    examples = build_eval_set(
        expressions, {}, by_image, table, threshold, build_vocabulary(expressions, 10)
    )
    for e, example in zip(expressions, examples):
        image = by_image.get(e.image_id)
        rows = regions_in(image) if image is not None else []
        expected = [rows[row].box for row in direct[e.expression_id]]
        referent, *pseudo = (Box(*row) for row in example.targets.tolist())
        assert referent == e.referent_box
        assert pseudo == expected
