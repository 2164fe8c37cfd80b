"""Adam training loop, evaluation metrics, and confidence filtering."""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .config import ConfigError, Schema
from .corpus import LABELS, PAD_ID, EncodedCase
from .model import ModelConfig, ModelParams, Prediction, forward_graph, init_params, predict_batch

# Adam's fixed knobs: decoupled weight decay, moment decay rates, denominator guard
WEIGHT_DECAY = 1e-4
BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class TrainingDivergedError(RuntimeError):
    """Loss became non-finite during training."""


class EmptyRetainedError(ValueError):
    """A confidence threshold discarded every prediction."""


def derive_seed(root: int, label: str) -> int:
    """Stable per-subsystem seed split from one root seed."""
    digest = hashlib.sha256(f"{root}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


@dataclass(frozen=True)
class HyperParams(Schema):
    """Optimization knobs."""

    section = "training"

    lr: float = 0.001
    epochs: int = 5
    batch_size: int = 64

    def validate(self) -> None:
        super().validate()
        if self.lr < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("lr must be >= 0, epochs and batch_size >= 1")


class AdamState:
    """First and second moment buffers, one pair per parameter."""

    def __init__(self, params: list[Tensor]):
        self.m = [np.zeros_like(p.data) for p in params]
        self.v = [np.zeros_like(p.data) for p in params]
        self.t = 0


def adam_step(params: list[Tensor], state: AdamState, hyper: HyperParams) -> None:
    """Bias-corrected Adam update with decoupled weight decay ``WEIGHT_DECAY``.

    The decay term joins the update directly rather than entering the
    moment estimates.
    """
    state.t += 1
    t = state.t
    for i, p in enumerate(params):
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        m, v = state.m[i], state.v[i]
        m *= BETA1
        m += (1 - BETA1) * g
        v *= BETA2
        v += (1 - BETA2) * g * g
        m_hat = m / (1 - BETA1**t)
        v_hat = v / (1 - BETA2**t)
        update = m_hat / (np.sqrt(v_hat) + EPS) + WEIGHT_DECAY * p.data
        p.data -= hyper.lr * update


@dataclass
class EpochStats:
    train_loss: float
    val_loss: float
    val_macro_f1: float


@dataclass
class TrainHistory:
    epochs: list[EpochStats] = field(default_factory=list)


def train(
    params: ModelParams,
    train_set: list[EncodedCase],
    val_set: list[EncodedCase],
    hyper: HyperParams,
    seed: int = 0,
) -> TrainHistory:
    """Minibatch Adam training, deterministic in ``seed``.

    The root seed splits into independent shuffle and dropout streams.
    Raises TrainingDivergedError the moment a batch loss stops being
    finite. The validation set runs forward once per epoch; its loss
    and macro-F1 come from the same probabilities. The padding embedding
    row gets no gradient, so from zero it stays exactly zero: Adam's
    moments and the decay term are all zero there.
    """
    hyper.validate()
    if not train_set or not val_set:
        raise ConfigError("train and validation sets must be nonempty")
    shuffle_rng = np.random.default_rng(derive_seed(seed, "shuffle"))
    dropout_rng = np.random.default_rng(derive_seed(seed, "dropout"))
    tensors = [t for _, t in params.parameters()]
    state = AdamState(tensors)
    history = TrainHistory()
    val_labels = [c.label for c in val_set]

    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(len(train_set))
        total_loss = 0.0
        for start in range(0, len(order), hyper.batch_size):
            batch = [train_set[i] for i in order[start : start + hyper.batch_size]]
            probs, _, _ = forward_graph(
                params,
                np.array([c.ids for c in batch]),
                np.array([c.demographics for c in batch]),
                True,
                dropout_rng,
            )
            batch_loss = ad.mean_nll(probs, [c.label for c in batch])
            value = batch_loss.item()
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1}, step {start // hyper.batch_size}"
                )
            params.zero_grad()
            batch_loss.backward()
            params.embedding.grad[PAD_ID] = 0.0
            adam_step(tensors, state, hyper)
            total_loss += value * len(batch)

        preds = predict_batch(params, val_set)
        val_probs = Tensor(np.array([p.probs for p in preds]))
        history.epochs.append(
            EpochStats(
                train_loss=total_loss / len(train_set),
                val_loss=ad.mean_nll(val_probs, val_labels).item(),
                val_macro_f1=metrics_from(val_labels, [p.predicted for p in preds]).macro_f1,
            )
        )
    return history


# -- metrics -----------------------------------------------------------------


@dataclass
class ClassMetrics:
    precision: float
    recall: float
    f1: float
    support: int


@dataclass
class Metrics:
    """Per-class precision/recall/F1 with confusion counts.

    ``confusion[i][j]`` counts true class i predicted as j. Precision
    is 0 when a class receives no predictions; recall is 0 when a class
    has no support, and such classes are listed in
    ``zero_support_classes``.
    """

    per_class: dict[str, ClassMetrics]
    confusion: list[list[int]]
    accuracy: float
    macro_f1: float
    retained_fraction: float = 1.0
    zero_support_classes: list[str] = field(default_factory=list)


def metrics_from(
    true_labels: list[int],
    predicted: list[int],
    class_names: tuple[str, ...] = LABELS,
    retained_fraction: float = 1.0,
) -> Metrics:
    if len(true_labels) != len(predicted):
        raise ConfigError("label and prediction counts differ")
    if not true_labels:
        raise EmptyRetainedError("cannot compute metrics over zero cases")
    n = len(class_names)
    confusion = np.zeros((n, n), dtype=np.int64)
    for t, p in zip(true_labels, predicted):
        confusion[t][p] += 1

    per_class: dict[str, ClassMetrics] = {}
    zero_support = []
    f1s = []
    for i, name in enumerate(class_names):
        support = int(confusion[i].sum())
        predicted_as = int(confusion[:, i].sum())
        tp = int(confusion[i][i])
        precision = tp / predicted_as if predicted_as else 0.0
        recall = tp / support if support else 0.0
        if not support:
            zero_support.append(name)
        f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
        per_class[name] = ClassMetrics(precision, recall, f1, support)
        f1s.append(f1)

    return Metrics(
        per_class=per_class,
        confusion=confusion.tolist(),
        accuracy=float(np.trace(confusion) / confusion.sum()),
        macro_f1=float(np.mean(f1s)),
        retained_fraction=retained_fraction,
        zero_support_classes=zero_support,
    )


def confidence_filter(
    predictions: list[Prediction], threshold: float
) -> tuple[list[int], float]:
    """Indices of predictions whose max probability clears the threshold.

    Returns (kept indices, discarded fraction). Raises when everything
    is discarded; a threshold below 1/3 cannot discard a 3-class
    softmax output, so the valid range is [1/3, 1).
    """
    if not 1.0 / 3.0 <= threshold < 1.0:
        raise ConfigError(f"threshold must be in [1/3, 1), got {threshold}")
    kept = [i for i, p in enumerate(predictions) if float(p.probs.max()) >= threshold]
    if not kept:
        raise EmptyRetainedError(f"threshold {threshold} discarded all predictions")
    return kept, 1.0 - len(kept) / len(predictions)


def evaluate(
    params: ModelParams,
    cases: list[EncodedCase],
    threshold: float | None = None,
) -> Metrics:
    """Inference metrics over a dataset, optionally confidence-filtered."""
    if not cases:
        raise ConfigError("evaluation set must be nonempty")
    preds = predict_batch(params, cases)
    if threshold is None:
        return metrics_from([c.label for c in cases], [p.predicted for p in preds])
    kept, discarded = confidence_filter(preds, threshold)
    return metrics_from(
        [cases[i].label for i in kept],
        [preds[i].predicted for i in kept],
        retained_fraction=1.0 - discarded,
    )


def render_metrics_table(rows: list[tuple[str, Metrics]], class_names=LABELS) -> str:
    """Fixed-width table: P/R/F per class (percent), accuracy, retention."""
    label_w = max(12, *(len(name) for name, _ in rows)) if rows else 12
    header = "".join(f"  P({c[:4]})  R({c[:4]})  F({c[:4]})" for c in class_names)
    lines = [f"{'':<{label_w}}{header}     acc  kept"]
    for name, m in rows:
        cells = ""
        for c in class_names:
            cm = m.per_class[c]
            cells += f"  {cm.precision * 100:7.1f}  {cm.recall * 100:7.1f}  {cm.f1 * 100:7.1f}"
        lines.append(
            f"{name:<{label_w}}{cells}  {m.accuracy * 100:6.1f}  {m.retained_fraction * 100:5.1f}%"
        )
    return "\n".join(lines)


# -- grid search ---------------------------------------------------------------


def grid_search(
    config: ModelConfig,
    train_set: list[EncodedCase],
    val_set: list[EncodedCase],
    base_hyper: HyperParams,
    grid: dict[str, list],
    seed: int = 0,
) -> list[dict]:
    """Exhaustive sweep; returns one row per combination, best first.

    ``grid`` maps HyperParams fields, and "dropout" of the model config,
    to nonempty lists of values. Every combination is checked before the
    first one trains, and each trains from a fresh init with the same
    seed.
    """
    if not (isinstance(grid, dict) and grid
            and all(isinstance(values, list) and values for values in grid.values())):
        raise ConfigError("grid must be an object of nonempty value lists")
    keys = sorted(grid)
    runs = []
    for values in itertools.product(*(grid[k] for k in keys)):
        combo = dict(zip(keys, values))
        hyper = {k: v for k, v in combo.items() if k != "dropout"}
        model = {k: v for k, v in combo.items() if k == "dropout"}
        runs.append((
            combo,
            ModelConfig.from_dict({**asdict(config), **model}),
            HyperParams.from_dict({**asdict(base_hyper), **hyper}),
        ))

    results = []
    for combo, cfg, hyper in runs:
        params = init_params(cfg, seed=derive_seed(seed, "init"))
        history = train(params, train_set, val_set, hyper, seed=seed)
        results.append(
            {
                "combo": combo,
                "val_macro_f1": history.epochs[-1].val_macro_f1,
                "val_loss": history.epochs[-1].val_loss,
            }
        )
    results.sort(key=lambda r: (-r["val_macro_f1"], json.dumps(r["combo"], sort_keys=True)))
    return results
