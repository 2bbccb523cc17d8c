"""Shape curves, contribution rankings, and the input-gradient baseline.

A curve samples one feature's effective shape g_{c,k}(x) = w_{c,k} * f_k(x)
on a grid spanning that feature's training range; `model_curves` centres
its values on their mean over the grid as it builds the curve. Contribution
scores are the mean absolute effective shape over an owner's rows, the
conventional additive-model importance. Each owner, a client or the global
predictor, is described by its own model's curves and scores.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import federation
from .dnn import build_dnn, dnn_backward
from .errors import DataError, ShapeMismatchError
from .federation import ClientState, EnsembleModel, run_federation
from .nam import NamModel, nam_forward
from .nn import INFER, TRAIN

GRID_POINTS = 101
GLOBAL_OWNER = "global"


@dataclass
class ShapeCurve:
    feature_index: int
    class_index: int
    grid: np.ndarray
    values: np.ndarray  # mean-centered over the grid
    owner: str

    def __post_init__(self) -> None:
        if self.grid.shape != self.values.shape:
            raise ShapeMismatchError("grid and values must align")
        if not (np.isfinite(self.grid).all() and np.isfinite(self.values).all()):
            raise DataError(f"non-finite shape curve for feature {self.feature_index}")


@dataclass
class ContributionReport:
    owner: str
    feature_names: list[str]
    scores: np.ndarray  # (K,) mean |effective shape| over the owner's rows
    ranking: list[int]  # feature indices, best first

    def rank_of(self, feature: str) -> int:
        """1-based rank of a feature name."""
        return self.ranking.index(self.feature_names.index(feature)) + 1

    def top(self, n: int) -> list[str]:
        return [self.feature_names[i] for i in self.ranking[:n]]


@dataclass
class InterpretBundle:
    """One run's interpretation in owner order: each client's, in client
    order, then the global model's."""

    contributions: list[ContributionReport]  # one per owner, the global last
    curves: list[ShapeCurve]  # each owner's (feature, class) curves in turn
    feature_names: list[str]

    @property
    def global_contribution(self) -> ContributionReport:
        return self.contributions[-1]


def training_feature_ranges(x_train: np.ndarray) -> list[tuple[float, float]]:
    """Per-feature [min, max] over the training rows (standardized units)."""
    return [(float(col.min()), float(col.max())) for col in x_train.T]


# an overflow is reported by ShapeCurve's finite check, not by NumPy warnings
@np.errstate(all="ignore")
def model_curves(model, ranges: list[tuple[float, float]], owner: str) -> list[ShapeCurve]:
    """Curves for every (feature, class) pair of a NAM or NAM ensemble, fixed ordering.

    One forward pass evaluates every feature on an evenly spaced grid over its
    range. A feature with a degenerate range (a constant column, which
    `fit_scaler` already warns of) gets a single-point curve: the grid's first
    row, whose centred value is 0. An ensemble's curves are the pointwise mean
    of its members' curves: its term k is the mean of theirs.
    """
    if isinstance(model, EnsembleModel):
        members = [model_curves(m, ranges, owner) for m in model.members]
        return [replace(curve, owner=owner) for curve in average_shape_functions(members)]
    for k, (lo, hi) in enumerate(ranges):
        if lo > hi:
            raise DataError(f"invalid range ({lo}, {hi}) for feature {k}")
    grid = np.column_stack([np.linspace(lo, hi, GRID_POINTS) for lo, hi in ranges])
    terms = _distinct_terms(model, grid)
    curves = []
    for k, (lo, hi) in enumerate(ranges):
        points = 1 if lo == hi else GRID_POINTS
        xs, raw = grid[:points, k].copy(), terms[:points, :, k]
        for c in range(model.out_dim):
            curves.append(ShapeCurve(k, c, xs, raw[:, c] - raw[:, c].mean(), owner))
    return curves


def average_shape_functions(by_client: list[list[ShapeCurve]]) -> list[ShapeCurve]:
    """Pointwise mean over clients, one global curve per (feature, class).

    All clients must hold the same (feature, class) curves in the same order,
    sampled on the same grids; the mean is accumulated in client order so an
    independent per-point loop reproduces it exactly.
    """
    if not by_client:
        raise ShapeMismatchError("need curves from at least one client")
    first = by_client[0]
    n = len(by_client)
    keys = [(c.feature_index, c.class_index) for c in first]
    if any([(c.feature_index, c.class_index) for c in curves] != keys for curves in by_client):
        raise ShapeMismatchError("clients hold different (feature, class) curves")
    out: list[ShapeCurve] = []
    for i, reference in enumerate(first):
        values = np.zeros_like(reference.values)
        for curves in by_client:
            curve = curves[i]
            if not np.array_equal(curve.grid, reference.grid):
                raise ShapeMismatchError(
                    f"grid mismatch between clients for feature {reference.feature_index}"
                )
            values = values + curve.values
        out.append(
            ShapeCurve(
                reference.feature_index,
                reference.class_index,
                reference.grid.copy(),
                values / n,
                GLOBAL_OWNER,
            )
        )
    return out


def _distinct_terms(model, values: np.ndarray) -> np.ndarray:
    """(values, classes, features) additive terms for NamModel or a NAM ensemble."""
    if isinstance(model, NamModel):
        _, terms, _ = nam_forward(model, values, INFER)
        return terms
    if isinstance(model, EnsembleModel):
        return model.member_mean(lambda m: _distinct_terms(m, values))
    raise ShapeMismatchError(f"cannot decompose terms of {type(model).__name__}")


def _per_feature_terms(model, x: np.ndarray) -> np.ndarray:
    """(rows, classes, features) additive terms of a (rows, features) table.

    Term k depends on x_k alone, so the model runs once over each column's
    distinct values, packed into one matrix: a column with fewer of them
    repeats its last. The rows then gather their terms, and every row holding
    a value gets the same term bits.
    """
    inverse = np.empty(x.shape, dtype=np.intp)
    distinct = []
    for k, col in enumerate(x.T):
        v, inverse[:, k] = np.unique(col, return_inverse=True)
        distinct.append(v)
    values = np.empty((max(map(len, distinct), default=0), x.shape[1]))
    for k, v in enumerate(distinct):
        values[: len(v), k] = v
        values[len(v) :, k] = v[-1]
    terms = _distinct_terms(model, values)
    return np.take_along_axis(terms, inverse[:, None, :], axis=0)


def contribution_scores(
    model, x: np.ndarray, owner: str, feature_names: list[str]
) -> ContributionReport:
    """score_k = mean over rows (and classes) of |g_{c,k}(x_k)|, ranked descending."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("contribution scores need a non-empty (rows, features) matrix")
    terms = _per_feature_terms(model, x)
    scores = np.abs(terms, out=terms).mean(axis=(0, 1))
    ranking = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    return ContributionReport(owner, list(feature_names), scores, ranking)


def global_interpret(
    clients: list[ClientState],
    global_model,
    x_train: np.ndarray,
    feature_names: list[str],
) -> InterpretBundle:
    """Each owner's curves and ranking: each client's model on its rows, in client
    order, then the global predictor on x_train (alone when there are no clients)."""
    ranges = training_feature_ranges(x_train)
    owners = [(f"client{c.client_id + 1}", c.model, c.x) for c in clients]
    curves, contributions = [], []
    for owner, model, x in owners + [(GLOBAL_OWNER, global_model, x_train)]:
        curves += model_curves(model, ranges, owner)
        contributions.append(contribution_scores(model, x, owner, feature_names))
    return InterpretBundle(contributions, curves, list(feature_names))


def baseline_attributions(
    dataset,
    config,
    optimizer_factory,
    control=None,
    batch_size: int = 32,
    val_fraction: float = 0.10,
    threshold: float = 0.5,
):
    """Train the joint-input DNN with the same federation loop and attribute
    its test predictions by input*gradient. Returns (model, attributions,
    metrics), the attributions a (K,) array aligned with `dataset.feature_names`."""
    def factory(rng):
        return build_dnn(len(dataset.feature_names), dataset.task, dataset.n_classes, rng=rng)

    result = run_federation(
        dataset, config, factory, optimizer_factory, control, batch_size, val_fraction, threshold
    )
    model = result.global_predictor
    attributions = input_gradient_attributions(model, dataset.X_test)
    # through the module, so a wrapper set on federation.evaluate_model sees this call too
    stats = federation.evaluate_model(model, dataset.X_test, dataset.y_test, threshold)
    return model, attributions, stats


def _class_input_gradients(model, x: np.ndarray) -> np.ndarray:
    """(classes, rows, features) gradients of each logit by the input, for a
    DnnModel or the mean over an ensemble's members.

    Each net runs forward once: every class backpropagates from one cache.
    The pass is a training one, whose cache keeps every layer's input; the
    nets here come from `build_dnn`, without dropout, so it computes what
    inference would.
    """
    if isinstance(model, EnsembleModel):
        return model.member_mean(lambda m: _class_input_gradients(m, x))
    _, cache = model.forward_batch(x, TRAIN)
    grads = np.empty((model.out_dim, *x.shape))
    for c in range(model.out_dim):
        onehot = np.zeros((x.shape[0], model.out_dim))
        onehot[:, c] = 1.0
        _, grads[c] = dnn_backward(model, cache, onehot)
    return grads


def input_gradient_attributions(model, x: np.ndarray) -> np.ndarray:
    """(K,) mean over rows of (dlogit/dx_k) * x_k; class-averaged for multiclass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("attributions need a non-empty (rows, features) matrix")
    per_class = np.array([(grads * x).mean(axis=0) for grads in _class_input_gradients(model, x)])
    return per_class.mean(axis=0)


SVG_PANEL = 160  # panel side, px
SVG_PAD = 28  # gap around panels, px


def render_shapes_svg(bundle: InterpretBundle) -> str:
    """Small-multiples grid: one panel per (feature, class); client curves thin
    gray, the global curve thick black. Decorative output, not golden-tested."""
    panels: dict[tuple[int, int], list[ShapeCurve]] = {}
    for curve in bundle.curves:
        panels.setdefault((curve.feature_index, curve.class_index), []).append(curve)
    keys = sorted(panels)
    # a binary model has one output row, a multiclass one at least 3
    multiclass = any(c > 0 for _, c in keys)
    cols = max(1, min(4, len(keys)))
    rows = (len(keys) + cols - 1) // cols
    width = cols * (SVG_PANEL + SVG_PAD) + SVG_PAD
    height = rows * (SVG_PANEL + SVG_PAD) + SVG_PAD
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        '<rect width="100%" height="100%" fill="white"/>',
    ]
    for idx, key in enumerate(keys):
        curves = panels[key]
        col, row = idx % cols, idx // cols
        x0 = SVG_PAD + col * (SVG_PANEL + SVG_PAD)
        y0 = SVG_PAD + row * (SVG_PANEL + SVG_PAD)
        lo = min(float(c.values.min()) for c in curves)
        hi = max(float(c.values.max()) for c in curves)
        span = (hi - lo) or 1.0
        glo = min(float(c.grid.min()) for c in curves)
        ghi = max(float(c.grid.max()) for c in curves)
        gspan = (ghi - glo) or 1.0
        parts.append(
            f'<rect x="{x0}" y="{y0}" width="{SVG_PANEL}" height="{SVG_PANEL}" '
            'fill="none" stroke="#ccc"/>'
        )
        name = bundle.feature_names[key[0]]
        # escaped as XML text: & first, so that the other escapes keep their &
        label = name.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        if multiclass:
            label += f" / class {key[1]}"
        parts.append(
            f'<text x="{x0}" y="{y0 - 6}" font-size="10" font-family="sans-serif">{label}</text>'
        )
        for curve in curves:
            pts = " ".join(
                f"{x0 + (gx - glo) / gspan * SVG_PANEL:.2f},"
                f"{y0 + SVG_PANEL - (gv - lo) / span * SVG_PANEL:.2f}"
                for gx, gv in zip(curve.grid, curve.values)
            )
            if curve.owner == GLOBAL_OWNER:
                style = 'stroke="black" stroke-width="2"'
            else:
                style = 'stroke="#999" stroke-width="0.8"'
            parts.append(f'<polyline fill="none" {style} points="{pts}"/>')
    parts.append("</svg>")
    return "\n".join(parts)
