"""Pseudo ground truth for contextual objects.

Nouns are pulled from the expression (POS tags when available, otherwise a
function-word stoplist heuristic) and matched against the category names of
the expression's image's regions (`ingest.ImageRegions`) by cosine similarity
of word embeddings. Regions scoring at or above the similarity threshold become
pseudo ground truths, as row indices in region order. Training's foreground and
the recall harness's targets are one array per expression,
`evaluation.EvalExample.targets`: the referent box, then these rows' boxes.
"""

from __future__ import annotations

import functools
import re
from typing import Callable, Sequence

import numpy as np

from .ingest import EmbeddingTable, ExpressionRecord, ImageRegions

NOUN_TAGS = frozenset({"NOUN", "PROPN"})

# a region is a pseudo ground truth when its similarity reaches this
DEFAULT_SIMILARITY_THRESHOLD = 0.4

# Tagless fallback: closed-class words plus modifiers that are common in
# referring expressions but can never name an object category. Anything not
# listed here (and not purely numeric) is treated as a candidate noun, so
# verbs like "holding" pass through; the embedding-similarity gate downstream
# absorbs such false positives.
HEURISTIC_STOPLIST = frozenset(
    """
    a an the this that these those some any each every all both few many much
    several no none such
    i me my mine you your yours he him his she her hers it its we us our ours
    they them their theirs who whom whose which what something anything
    nothing everything someone anyone one ones
    aboard about above across after against along amid among around at before
    behind below beneath beside besides between beyond by down during except
    for from in inside into near nearest next of off on onto out outside over
    past through to toward towards under underneath until up upon with within
    without
    and but or nor so yet if than as while when where
    am is are was were be been being has have had having do does did doing
    can could will would shall should may might must
    zero two three four five six seven eight nine ten first second third
    fourth fifth last
    red orange yellow green blue purple pink brown black white gray grey tan
    beige dark light
    left right top bottom middle center front back upper lower leftmost
    rightmost closest farthest furthest closer nearer far away here there
    big small large little tall short long wide narrow thin thick tiny huge
    very really quite just only also too not
    """.split()
)

_NUMERIC_RE = re.compile(r"\d+(\.\d+)?")


def extract_nouns(tokens: Sequence[str], pos_tags: Sequence[str] | None = None) -> list[str]:
    """Return the noun tokens, order preserved and duplicates retained.

    With POS tags, a token is a noun when tagged NOUN or PROPN. Without tags,
    every token survives unless it sits on :data:`HEURISTIC_STOPLIST` or is
    purely numeric.
    """
    if not tokens:
        raise ValueError("extract_nouns: empty token sequence")
    if pos_tags is not None:
        if len(pos_tags) != len(tokens):
            raise ValueError(
                f"extract_nouns: {len(pos_tags)} POS tags for {len(tokens)} tokens"
            )
        return [t for t, tag in zip(tokens, pos_tags) if tag.upper() in NOUN_TAGS]
    return [
        t for t in tokens if t not in HEURISTIC_STOPLIST and not _NUMERIC_RE.fullmatch(t)
    ]


def category_similarity(noun: str, category_name: str, table: EmbeddingTable) -> float:
    """Cosine similarity between a noun and a category name, in [-1, 1].

    Multi-word category names ("traffic light") embed as the mean of their
    word vectors. Returns the -1 sentinel when the noun or any category word
    is missing from the table, or when either vector has zero norm.
    """
    noun_vec = table.get(noun)
    if noun_vec is None:
        return -1.0
    word_vecs = [table.get(w) for w in category_name.split()]
    if not word_vecs or any(v is None for v in word_vecs):
        return -1.0
    cat_vec = np.mean(word_vecs, axis=0)
    nn = float(np.linalg.norm(noun_vec))
    cn = float(np.linalg.norm(cat_vec))
    if nn == 0.0 or cn == 0.0:
        return -1.0
    return float(noun_vec @ cat_vec / (nn * cn))


def memoized_similarity(table: EmbeddingTable) -> Callable[[str, str], float]:
    """`category_similarity` against `table` as a function of (noun, category
    name), computed once per distinct pair."""
    return functools.cache(functools.partial(category_similarity, table=table))


def generate_pseudo_gt(
    expr: ExpressionRecord,
    regions: ImageRegions | None,
    table: EmbeddingTable,
    similarity_threshold: float = DEFAULT_SIMILARITY_THRESHOLD,
    similarity: Callable[[str, str], float] | None = None,
) -> list[int]:
    """The rows of `regions`, the regions of the expression's image (None when
    it has none), matched to the expression's nouns, in row order.

    A region is matched when the best cosine similarity over extracted nouns
    reaches `similarity_threshold` (inclusive at the boundary).
    `similarity`, such as a `memoized_similarity` shared by many expressions,
    stands in for `category_similarity` against `table`.
    """
    if similarity is None:
        similarity = functools.partial(category_similarity, table=table)
    if regions is not None and regions.image_id != expr.image_id:
        raise ValueError(
            f"regions of image {regions.image_id} given for expression "
            f"{expr.expression_id} of image {expr.image_id}"
        )
    nouns = extract_nouns(expr.tokens, expr.pos_tags)
    names = () if regions is None else regions.category_names
    return [
        row for row, name in enumerate(names)
        if max((similarity(n, name) for n in nouns), default=-1.0) >= similarity_threshold
    ]
