"""Shape curves, contribution rankings, and the input-gradient baseline.

A curve samples one feature's effective shape g_{c,k}(x) = w_{c,k} * f_k(x)
on a grid spanning that feature's training range; values are mean-centered
over the grid at reporting time. Contribution scores are the mean absolute
effective shape over an owner's rows, the conventional additive-model
importance.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

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
    center: float  # the mean removed; values + center == raw effective shape

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
class AttributionReport:
    feature_names: list[str]
    values: np.ndarray  # (K,) signed mean gradient*input over test rows


@dataclass
class InterpretBundle:
    client_contributions: list[ContributionReport]
    global_contribution: ContributionReport
    client_curves: list[ShapeCurve]
    global_curves: list[ShapeCurve]
    feature_names: list[str]
    n_classes: int


def training_feature_ranges(x_train: np.ndarray) -> list[tuple[float, float]]:
    """Per-feature [min, max] over the training rows (standardized units)."""
    return [(float(col.min()), float(col.max())) for col in x_train.T]


def model_curves(model: NamModel, ranges: list[tuple[float, float]], owner: str) -> list[ShapeCurve]:
    """Curves for every (feature, class) pair of one model, fixed ordering.

    One forward pass evaluates every feature on an evenly spaced grid over its
    range. A feature with a degenerate range gets a single-point curve from a
    one-row pass, since a row's outputs depend on the size of its batch.
    """
    for k, (lo, hi) in enumerate(ranges):
        if lo > hi:
            raise DataError(f"invalid range ({lo}, {hi}) for feature {k}")
        if lo == hi:
            warnings.warn(f"feature {k} has a degenerate range; single-point curve")
    grid = np.column_stack([np.linspace(lo, hi, GRID_POINTS) for lo, hi in ranges])
    _, terms, _ = nam_forward(model, grid, INFER)
    if any(lo == hi for lo, hi in ranges):
        _, low_terms, _ = nam_forward(model, np.array([[lo for lo, _ in ranges]]), INFER)
    curves = []
    for k, (lo, hi) in enumerate(ranges):
        if lo == hi:
            xs, raw = np.array([lo]), low_terms[:, :, k]
        else:
            xs, raw = grid[:, k].copy(), terms[:, :, k]
        for c in range(model.out_dim):
            center = float(raw[:, c].mean())
            curves.append(ShapeCurve(k, c, xs, raw[:, c] - center, owner, center))
    return curves


def average_shape_functions(per_client_curves: list[list[ShapeCurve]]) -> list[ShapeCurve]:
    """Pointwise mean over clients, one global curve per (feature, class).

    All clients must have sampled the same grids; the mean is accumulated in
    client order so an independent per-point loop reproduces it exactly.
    """
    if not per_client_curves:
        raise ShapeMismatchError("need curves from at least one client")
    first = per_client_curves[0]
    n = len(per_client_curves)
    out: list[ShapeCurve] = []
    for i, reference in enumerate(first):
        values = np.zeros_like(reference.values)
        center = 0.0
        for curves in per_client_curves:
            curve = curves[i]
            if curve.grid.shape != reference.grid.shape or not np.array_equal(
                curve.grid, reference.grid
            ):
                raise ShapeMismatchError(
                    f"grid mismatch between clients for feature {reference.feature_index}"
                )
            values = values + curve.values
            center = center + curve.center
        out.append(
            ShapeCurve(
                reference.feature_index,
                reference.class_index,
                reference.grid.copy(),
                values / n,
                GLOBAL_OWNER,
                center / n,
            )
        )
    return out


def _per_feature_terms(model, x: np.ndarray) -> np.ndarray:
    """(rows, classes, features) additive terms for NamModel or a NAM ensemble."""
    if isinstance(model, NamModel):
        _, terms, _ = nam_forward(model, x, INFER)
        return terms
    if isinstance(model, EnsembleModel):
        return model.member_mean(lambda m: _per_feature_terms(m, x))
    raise ShapeMismatchError(f"cannot decompose terms of {type(model).__name__}")


def contribution_scores(
    model, x: np.ndarray, owner: str, feature_names: list[str]
) -> ContributionReport:
    """score_k = mean over rows (and classes) of |g_{c,k}(x_k)|, ranked descending."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("contribution scores need a non-empty (rows, features) matrix")
    terms = _per_feature_terms(model, x)
    scores = np.abs(terms).mean(axis=(0, 1))
    ranking = sorted(range(len(scores)), key=lambda k: (-scores[k], k))
    return ContributionReport(owner, list(feature_names), scores, ranking)


def global_interpret(
    clients: list[ClientState],
    global_model,
    x_train: np.ndarray,
    feature_names: list[str],
) -> InterpretBundle:
    """Client-level and global reports: curves, averaged curves, contribution rankings."""
    ranges = training_feature_ranges(x_train)
    per_client_curves = []
    client_reports = []
    for client in clients:
        owner = f"client{client.client_id + 1}"
        per_client_curves.append(model_curves(client.model, ranges, owner))
        client_reports.append(contribution_scores(client.model, client.x, owner, feature_names))
    global_curves = average_shape_functions(per_client_curves)
    global_report = contribution_scores(global_model, x_train, GLOBAL_OWNER, feature_names)
    flat_client_curves = [curve for curves in per_client_curves for curve in curves]
    n_classes = clients[0].model.out_dim
    return InterpretBundle(
        client_contributions=client_reports,
        global_contribution=global_report,
        client_curves=flat_client_curves,
        global_curves=global_curves,
        feature_names=list(feature_names),
        n_classes=n_classes,
    )


def baseline_attributions(
    dataset,
    fed_config,
    optimizer_factory,
    control=None,
    batch_size: int = 32,
    val_fraction: float = 0.10,
    stratified: bool = True,
    threshold: float = 0.5,
):
    """Train the joint-input DNN with the same federation loop and attribute
    its test predictions by input*gradient. Returns (model, report, metrics)."""
    def factory(rng):
        return build_dnn(dataset.X.shape[1], dataset.task, dataset.n_classes, rng=rng)

    result = run_federation(
        dataset,
        fed_config,
        factory,
        optimizer_factory,
        control,
        batch_size,
        val_fraction,
        stratified,
        threshold,
    )
    model = result.global_predictor
    report = input_gradient_attributions(model, dataset.X_test, dataset.feature_names)
    # through the module, so a wrapper set on federation.evaluate_model sees this call too
    stats = federation.evaluate_model(model, dataset.X_test, dataset.y_test, threshold)
    return model, report, stats


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


def input_gradient_attributions(model, x: np.ndarray, feature_names: list[str]) -> AttributionReport:
    """Mean over rows of (dlogit/dx_k) * x_k; class-averaged for multiclass."""
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise DataError("attributions need a non-empty (rows, features) matrix")
    per_class = np.array([(grads * x).mean(axis=0) for grads in _class_input_gradients(model, x)])
    return AttributionReport(list(feature_names), per_class.mean(axis=0))


SVG_PANEL = 160  # panel side, px
SVG_PAD = 28  # gap around panels, px


def render_shapes_svg(bundle: InterpretBundle) -> str:
    """Small-multiples grid: one panel per (feature, class); client curves thin
    gray, the global curve thick black. Decorative output, not golden-tested."""
    panels: dict[tuple[int, int], list[ShapeCurve]] = {}
    for curve in [*bundle.client_curves, *bundle.global_curves]:
        panels.setdefault((curve.feature_index, curve.class_index), []).append(curve)
    keys = sorted(panels)
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
        label = bundle.feature_names[key[0]]
        if bundle.n_classes > 1:
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
