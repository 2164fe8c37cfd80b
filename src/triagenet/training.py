"""Adam training loop, evaluation metrics, and confidence filtering."""

from __future__ import annotations

import hashlib
import itertools
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ConfigError, Schema
from .corpus import LABELS, PAD_ID, EncodedCase, stack_cases
from .model import ModelConfig, ModelParams, init_params, loss_and_grads, mean_nll, predict_probs

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
    """Optimization knobs; the CLI's ``training`` config section starts from these defaults."""

    section = "training"

    lr: float = 0.002
    epochs: int = 5
    batch_size: int = 64

    def validate(self) -> None:
        super().validate()
        if self.lr < 0 or self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("lr must be >= 0, epochs and batch_size >= 1")


class AdamState:
    """First and second moment buffers, one pair per parameter, and per
    parameter one scratch buffer of two arrays of its shape for the step's
    intermediates, each by the parameter's name."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.m = {name: np.zeros_like(p) for name, p in params.items()}
        self.v = {name: np.zeros_like(p) for name, p in params.items()}
        self.scratch = {name: np.empty((2, *p.shape)) for name, p in params.items()}
        self.t = 0


def adam_step(params: dict[str, np.ndarray], grads: dict[str, np.ndarray], state: AdamState,
              hyper: HyperParams) -> None:
    """Bias-corrected Adam update of each array of ``params`` in place, with decoupled
    weight decay ``WEIGHT_DECAY``; a parameter missing from ``grads`` has gradient zero.

    The decay term joins the update directly rather than entering the
    moment estimates. Per entry the step computes

        m = BETA1 m + (1 - BETA1) g,  v = BETA2 v + ((1 - BETA2) g) g,
        p -= lr (m / (1 - BETA1^t) / (sqrt(v / (1 - BETA2^t)) + EPS) + WEIGHT_DECAY p),

    each operation in place in the moments or the scratch buffer.
    """
    state.t += 1
    t = state.t
    for name, p in params.items():
        m, v, (a, b) = state.m[name], state.v[name], state.scratch[name]
        g = grads[name] if name in grads else np.zeros_like(p)
        m *= BETA1
        m += np.multiply(g, 1 - BETA1, out=a)
        v *= BETA2
        np.multiply(g, 1 - BETA2, out=a)
        a *= g
        v += a
        np.divide(m, 1 - BETA1**t, out=a)  # m_hat
        np.divide(v, 1 - BETA2**t, out=b)  # v_hat
        np.sqrt(b, out=b)
        b += EPS
        a /= b
        a += np.multiply(p, WEIGHT_DECAY, out=b)  # the update
        a *= hyper.lr
        p -= a


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
    state = AdamState(params.tensors)
    history = TrainHistory()
    ids, demographics, labels = stack_cases(train_set)
    val_ids, val_demographics, val_labels = stack_cases(val_set)

    for epoch in range(hyper.epochs):
        order = shuffle_rng.permutation(len(train_set))
        total_loss = 0.0
        for start in range(0, len(order), hyper.batch_size):
            batch = order[start : start + hyper.batch_size]
            value, grads = loss_and_grads(params, ids[batch], demographics[batch],
                                          labels[batch], dropout_rng)
            if not np.isfinite(value):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch + 1}, step {start // hyper.batch_size}"
                )
            grads["embedding"][PAD_ID] = 0.0
            adam_step(params.tensors, grads, state, hyper)
            total_loss += value * len(batch)

        val_probs = predict_probs(params, val_ids, val_demographics)
        history.epochs.append(
            EpochStats(
                train_loss=total_loss / len(train_set),
                val_loss=mean_nll(val_probs, val_labels),
                val_macro_f1=metrics_from(val_labels, val_probs.argmax(axis=1)).macro_f1,
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
    retained_fraction: float = 1.0,
) -> Metrics:
    if len(true_labels) != len(predicted):
        raise ConfigError("label and prediction counts differ")
    if len(true_labels) == 0:
        raise EmptyRetainedError("cannot compute metrics over zero cases")
    n = len(LABELS)
    confusion = np.zeros((n, n), dtype=np.int64)
    np.add.at(confusion, (np.asarray(true_labels), np.asarray(predicted)), 1)

    per_class: dict[str, ClassMetrics] = {}
    zero_support = []
    f1s = []
    for i, name in enumerate(LABELS):
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


def confidence_filter(probs: np.ndarray, threshold: float) -> list[int]:
    """Indices of the rows of ``probs`` whose max probability clears the threshold.

    Raises when everything is discarded; a threshold below 1/3 cannot
    discard a 3-class softmax output, so the valid range is [1/3, 1).
    """
    if not 1.0 / 3.0 <= threshold < 1.0:
        raise ConfigError(f"threshold must be in [1/3, 1), got {threshold}")
    kept = np.flatnonzero(probs.max(axis=1) >= threshold).tolist()
    if not kept:
        raise EmptyRetainedError(f"threshold {threshold} discarded all predictions")
    return kept


def evaluate(
    params: ModelParams,
    cases: list[EncodedCase],
    threshold: float | None = None,
) -> Metrics:
    """Inference metrics over a dataset, optionally confidence-filtered."""
    if not cases:
        raise ConfigError("evaluation set must be nonempty")
    ids, demographics, labels = stack_cases(cases)
    probs = predict_probs(params, ids, demographics)
    predicted = probs.argmax(axis=1)
    if threshold is None:
        return metrics_from(labels, predicted)
    kept = confidence_filter(probs, threshold)
    return metrics_from(labels[kept], predicted[kept], retained_fraction=len(kept) / len(probs))


def render_metrics_table(rows: list[tuple[str, Metrics]]) -> str:
    """Fixed-width table: P/R/F per class (percent), accuracy, retention."""
    label_w = max(12, *(len(name) for name, _ in rows)) if rows else 12
    header = "".join(f"  P({c[:4]})  R({c[:4]})  F({c[:4]})" for c in LABELS)
    lines = [f"{'':<{label_w}}{header}     acc  kept"]
    for name, m in rows:
        cells = ""
        for c in LABELS:
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
