"""Slow reference implementations the tests pin the program's fast paths to.

Each is a plain restatement of an earlier, per-box form of the program: one
`geometry.iou` call per pair of boxes, one Python object or line at a time,
one expression per model graph. The autodiff ops that only these oracles
and the engine's own tests use live here too, as do a standalone GRU
initializer for those tests and `greedy_nms`, a (Box, score) front end to
the program's own NMS that is no oracle.
"""

import math
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from refnms import autodiff as ad
from refnms.evaluation import EvalExample
from refnms.geometry import Box, box_array, iou
from refnms.ingest import DUMP_HEADER_RE, DataFormatError, ImageDetections
from refnms.model import DEFAULT_MIN_CONFIDENCE, ModelParameters, flat_views
from refnms.nms import NmsConfig, per_class_nms


def image_of_rows(image_id, rows, feature_dim=0):
    """`ImageDetections` from (box, category_id, confidence, feature) rows."""
    if not rows:
        return ImageDetections.empty(image_id, feature_dim)
    boxes, category_ids, confidences, features = zip(*rows)
    return ImageDetections(
        image_id, box_array(boxes), confidences, category_ids, np.array(features)
    )


def boxes_of(image):
    """The image's boxes as `Box` objects, in row order."""
    return [Box(*row) for row in image.boxes.tolist()]


def eval_example(expression_id, split, detections, referent, pseudo_boxes=(), token_indices=None):
    """An `EvalExample` whose targets are `referent` then `pseudo_boxes`."""
    targets = box_array((referent, *pseudo_boxes))
    return EvalExample(expression_id, split, detections, targets, token_indices)


def targets_of(example):
    """An example's referent and its pseudo ground-truth boxes, as `Box` objects."""
    referent, *pseudo = (Box(*row) for row in example.targets.tolist())
    return referent, pseudo


# geometry -------------------------------------------------------------------------


def hits(candidate: Box, target: Box, threshold: float = 0.5) -> bool:
    """True when the candidate overlaps the target strictly above `threshold` IoU."""
    if not 0.0 < threshold < 1.0:
        raise ValueError(f"hit threshold must lie in (0, 1), got {threshold}")
    return iou(candidate, target) > threshold


def max_iou_against(candidate: Box, targets) -> float:
    """Largest IoU between `candidate` and any box in `targets`; 0.0 when empty."""
    best = 0.0
    for t in targets:
        v = iou(candidate, t)
        if v > best:
            best = v
    return best


# autodiff ops the program does not use -----------------------------------------------


def matmul(a: ad.Node, b: ad.Node) -> ad.Node:
    """Matrix/vector product for 1-D and 2-D operands."""
    av, bv = a.value, b.value
    if av.ndim == 0 or bv.ndim == 0 or av.ndim > 2 or bv.ndim > 2:
        raise ValueError(f"matmul: unsupported ranks {av.shape} @ {bv.shape}")
    if av.shape[-1] != bv.shape[0]:
        raise ValueError(f"matmul: inner dimensions disagree {av.shape} @ {bv.shape}")
    out = ad.Node(av @ bv, (a, b))

    def _bw(out: ad.Node) -> None:
        g = out.grad
        if av.ndim == 1 and bv.ndim == 1:
            ad._accumulate(a, g * bv)
            ad._accumulate(b, g * av)
        elif av.ndim == 2 and bv.ndim == 1:
            ad._accumulate(a, np.outer(g, bv))
            ad._accumulate(b, av.T @ g)
        elif av.ndim == 1 and bv.ndim == 2:
            ad._accumulate(a, bv @ g)
            ad._accumulate(b, np.outer(av, g))
        else:
            ad._accumulate(a, g @ bv.T)
            ad._accumulate(b, av.T @ g)

    out._backward = _bw
    return out


def take(x: ad.Node, indices) -> ad.Node:
    """`ad.take` as it was before its no-repeat path: every backward sums the
    gradient rows into a block of the sorted distinct rows with `np.add.at`,
    then adds the block to those rows."""
    idx = np.asarray(indices, dtype=np.intp)
    out = ad.Node(x.value[idx], (x,))

    def _bw(out: ad.Node) -> None:
        rows = np.array(sorted(set(idx.ravel().tolist())), dtype=np.intp)
        block = np.zeros((rows.size,) + x.value.shape[1:])
        np.add.at(block, np.searchsorted(rows, idx), out.grad)
        if x.grad is None:
            x.grad = np.zeros_like(x.value)
        x.grad[rows] += block

    out._backward = _bw
    return out


def stack(nodes: Sequence[ad.Node]) -> ad.Node:
    """Stack equally shaped nodes along a new leading axis."""
    return ad.concat([ad.reshape(n, (1,) + n.value.shape) for n in nodes], axis=0)


def broadcast_to(x: ad.Node, shape) -> ad.Node:
    out = ad.Node(np.broadcast_to(x.value, shape).copy(), (x,))

    def _bw(out: ad.Node) -> None:
        g = out.grad
        extra = g.ndim - x.value.ndim
        if extra:
            g = g.sum(axis=tuple(range(extra)))
        squeezed = tuple(
            i for i, (gs, xs) in enumerate(zip(g.shape, x.value.shape)) if xs == 1 and gs != 1
        )
        if squeezed:
            g = g.sum(axis=squeezed, keepdims=True)
        ad._accumulate(x, g)

    out._backward = _bw
    return out


def softmax(x: ad.Node, axis: int = -1) -> ad.Node:
    shifted = x.value - x.value.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=axis, keepdims=True)
    out = ad.Node(s, (x,))

    def _bw(out: ad.Node) -> None:
        g = out.grad
        ad._accumulate(x, s * (g - (g * s).sum(axis=axis, keepdims=True)))

    out._backward = _bw
    return out


def tanh(x: ad.Node) -> ad.Node:
    out = ad.Node(np.tanh(x.value), (x,))

    def _bw(out: ad.Node) -> None:
        ad._accumulate(x, (1.0 - out.value**2) * out.grad)

    out._backward = _bw
    return out


# NMS and the model ------------------------------------------------------------------


def greedy_nms(items, iou_threshold):
    """Indices of (Box, score) items kept by greedy suppression in one pool, in keep order.

    Boxes are visited in descending score with ties broken by ascending input
    index; each kept box suppresses every remaining box overlapping it with
    IoU strictly above `iou_threshold`. This is not an oracle: it runs the
    program's own `nms.per_class_nms` on (Box, score) items, and
    `test_nms.py` pins it to the slow `reference_nms`. The oracles of
    `per_class_nms` and `keep_lists` are `reference_nms` and
    `reference_per_class_nms` in `test_nms.py`.
    """
    boxes = box_array([box for box, _ in items])
    scores = np.array([score for _, score in items], dtype=np.float64)
    cfg = NmsConfig(iou_threshold=iou_threshold, per_class=False)
    return per_class_nms(boxes, scores, np.zeros(len(items), dtype=np.int64), cfg).tolist()


def with_swapped_directions(params: ModelParameters) -> ModelParameters:
    """A copy, in its own flat store, with the two GRU directions exchanged."""
    swap = {"gru_fwd": "gru_bwd", "gru_bwd": "gru_fwd"}
    values = params.values.copy()
    source = flat_views(params.values, params.config)
    for name, view in flat_views(values, params.config).items():
        prefix, _, rest = name.partition(".")
        if prefix in swap:
            view[...] = source[f"{swap[prefix]}.{rest}"]
    return ModelParameters(params.config, values)


def init_gru_params(input_dim: int, hidden_dim: int, rng: np.random.Generator) -> ad.GruParams:
    """One GRU direction's weights, uniform(-k, k) with k = 1/sqrt(hidden_dim),
    and zero biases, as standalone nodes."""
    k = 1.0 / np.sqrt(hidden_dim)

    def w(rows: int, cols: int) -> ad.Node:
        return ad.Node(rng.uniform(-k, k, size=(rows, cols)))

    def b() -> ad.Node:
        return ad.Node(np.zeros(hidden_dim))

    return ad.GruParams(
        w_z=w(hidden_dim, input_dim), u_z=w(hidden_dim, hidden_dim), b_z=b(),
        w_r=w(hidden_dim, input_dim), u_r=w(hidden_dim, hidden_dim), b_r=b(),
        w_h=w(hidden_dim, input_dim), u_h=w(hidden_dim, hidden_dim), b_h=b(),
    )


def encode_expression(indices: Sequence[int], params: ModelParameters) -> ad.Node:
    """Word features for one token-index sequence, shape (n_words, 2 * hidden).

    Row j concatenates the forward GRU state after tokens [0..j] and the
    backward GRU state after tokens [n-1..j].
    """
    if len(indices) == 0:
        raise ValueError("encode_expression: empty token sequence")
    tokens = ad.take(params["embeddings"], indices)
    backwards = np.arange(len(indices) - 1, -1, -1)
    fwd_states = ad.gru_sequence(tokens, params.gru("gru_fwd"))
    bwd_states = ad.gru_sequence(ad.take(tokens, backwards), params.gru("gru_bwd"))
    return ad.concat([fwd_states, ad.take(bwd_states, backwards)], axis=1)


def forward(features: np.ndarray, words: ad.Node, params: ModelParameters) -> dict:
    """Score the boxes whose region features are the rows of `features` against
    one expression's (n_words, q) word features: one attention row, (1, n_words),
    broadcast to the n boxes. Returns every stage by name, as `model.forward`."""
    n, q = features.shape[0], params.config.word_feature_dim
    hidden = ad.relu(ad.linear(features, params["mlp_b.w1"], params["mlp_b.b1"]))
    gate = ad.linear(hidden, params["mlp_b.w2"], params["mlp_b.b2"])
    logits = ad.reshape(ad.linear(words, params["fc_s.w"]), (1, words.value.shape[0]))
    weights = softmax(logits, axis=1)
    attended = matmul(weights, words)
    joint = ad.l2_normalize(ad.mul(gate, broadcast_to(attended, (n, q))), axis=1)
    logit = ad.linear(joint, params["fc_r.w"], params["fc_r.b"])
    return {
        "logits": logits, "weights": weights, "attended": attended,
        "gate": gate, "joint": joint, "logit": logit,
        "score": ad.sigmoid(ad.reshape(logit, (n,))),
    }


def relatedness_forward(image, indices, params, min_confidence=DEFAULT_MIN_CONFIDENCE):
    """The surviving rows of an image (confidence >= `min_confidence`, ascending)
    and their relatedness to one expression as a graph node, or ``None`` when
    nothing survives."""
    survivors = np.flatnonzero(image.confidences >= min_confidence)
    if survivors.size == 0:
        return survivors, None
    words = encode_expression(indices, params)
    return survivors, forward(image.features[survivors], words, params)["score"]


def score_boxes(image, indices, params, min_confidence=DEFAULT_MIN_CONFIDENCE):
    """The surviving rows of an image and their relatedness to one expression."""
    survivors, score_node = relatedness_forward(image, indices, params, min_confidence)
    if score_node is None:
        return survivors, np.zeros(0)
    return survivors, score_node.value


# objectives -------------------------------------------------------------------------


class LabeledBox(NamedTuple):
    """A survivor box's index, best foreground overlap, label, and overlap bin."""

    index: int
    max_overlap: float
    label: int
    bin: int


def sample_pairs(labeled, predicted, cfg):
    """Hard-negative pairs from `LabeledBox`es, one pool rebuilt and sorted per positive."""
    pairs = []
    for pos in labeled:
        if pos.label != 1:
            continue
        pool = [lb.index for lb in labeled if lb.bin < pos.bin]
        pool.sort(key=lambda i: (-predicted[i], i))
        pairs.extend((i, pos.index) for i in pool[: cfg.max_negatives])
    return pairs


# ingest -----------------------------------------------------------------------------


def _line_box(field, path, lineno):
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


def load_dump_by_line(path):
    """Parse a detection dump one line at a time into (image_id, records) pairs in
    first-seen image order, records as (box, category_id, name, confidence, feature).

    This is the per-record parser the dump loader replaced, plus the rules
    added with it: non-finite numbers and category ids outside int64 are errors.
    """
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        m = DUMP_HEADER_RE.match(header)
        if m is None:
            raise DataFormatError(f"{path}:1: bad dump header '{header}'")
        dim = int(m.group(1))
        grouped = {}
        for lineno, raw in enumerate(fh, start=2):
            fields = raw.rstrip("\n").split("\t")
            if len(fields) != 6:
                raise DataFormatError(f"{path}:{lineno}: expected 6 fields, got {len(fields)}")
            image_id, box_field, cat_id, cat_name, conf_field, feat_field = fields
            if not image_id:
                raise DataFormatError(f"{path}:{lineno}: empty image_id")
            box = _line_box(box_field, path, lineno)
            try:
                category_id = int(cat_id)
                confidence = float(conf_field)
            except ValueError as exc:
                raise DataFormatError(f"{path}:{lineno}: {exc}") from None
            if not -(2**63) <= category_id < 2**63:
                raise DataFormatError(
                    f"{path}:{lineno}: category id {category_id} out of int64 range"
                )
            if not 0.0 <= confidence <= 1.0:
                raise DataFormatError(
                    f"{path}:{lineno}: confidence {confidence} outside [0, 1]"
                )
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
            grouped.setdefault(image_id, []).append(
                (box, category_id, cat_name, confidence, feature)
            )
    return list(grouped.items()), dim
