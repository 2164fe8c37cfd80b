"""Output checks: each one recomputes a result apart from the program, or
tests a property the method must have. None compares against a stored
copy of earlier output.

Every check returns ``(name, ok, detail)``.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np


def prediction_problems(pred, max_len: int) -> list[str]:
    """Probabilities sum to 1; attention is a distribution over the real
    windows of each width and exactly 0 on windows made only of padding."""
    out = []
    if abs(float(pred.probs.sum()) - 1.0) > 1e-9:
        out.append(f"probabilities sum to {pred.probs.sum()!r}")
    att = pred.attention
    for m, alpha in att.alphas.items():
        n_valid = min(max_len - m + 1, att.n_tokens)
        if alpha.shape != (max_len - m + 1,) or np.any(alpha < 0.0):
            out.append(f"width {m}: malformed or negative attention")
        if abs(float(alpha[:n_valid].sum()) - 1.0) > 1e-9:
            out.append(f"width {m}: attention sums to {alpha[:n_valid].sum()!r}")
        if np.any(alpha[n_valid:] != 0.0):
            out.append(f"width {m}: attention on padding windows")
    return out


def check_predictions(name: str, preds, max_len: int):
    problems = [p for pred in preds for p in prediction_problems(pred, max_len)]
    return name, not problems, f"{len(preds)} predictions; " + "; ".join(problems[:3])


def tally(labels, predicted, n_classes: int) -> list[list[int]]:
    conf = [[0] * n_classes for _ in range(n_classes)]
    for t, p in zip(labels, predicted):
        conf[t][p] += 1
    return conf


def check_bulk_against_single(tn, params, cases, preds, audit: dict, gate: float):
    """The bulk audit (CLI evaluate at the gate) and library ``evaluate``
    agree with a tally of single-case ``predict`` calls on the same cases,
    and the audit keeps exactly the cases whose confidence clears the gate."""
    n = len(tn.LABELS)
    labels = [c.label for c in cases]
    kept = [i for i, p in enumerate(preds) if float(p.probs.max()) >= gate]
    gated = tally([labels[i] for i in kept], [preds[i].predicted for i in kept], n)
    full = tally(labels, [p.predicted for p in preds], n)
    lib = tn.evaluate(params, cases)
    same = audit["confusion"] == gated and lib.confusion == full
    kept_ok = (
        sum(map(sum, audit["confusion"])) == len(kept)
        and abs(audit["retained_fraction"] - len(kept) / len(cases)) < 1e-12
    )
    return [
        ("confusion_single_equals_bulk", same, f"{len(cases)} cases"),
        ("kept_clear_gate", kept_ok, f"{len(kept)} of {len(cases)} cases clear {gate}"),
    ], lib


def recount_scores(records, preds, gram: int) -> dict[str, float]:
    """Brute-force score_features: mean over containing cases of the
    feature's best window weight divided by the case's best window."""
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    for rec, pred in zip(records, preds):
        n_pos = pred.attention.n_tokens - gram + 1
        if n_pos < 1:
            continue
        weights = pred.attention.alphas[gram][:n_pos]
        best: dict[str, float] = {}
        for t in range(n_pos):
            feat = " ".join(rec.tokens[t : t + gram])
            best[feat] = max(best.get(feat, -1.0), float(weights[t]))
        top = float(weights.max())
        for feat, w in best.items():
            total[feat] = total.get(feat, 0.0) + w / top
            count[feat] = count.get(feat, 0) + 1
    return {f: total[f] / count[f] for f in total}


def check_scores(scores: list[dict], records, preds, rng):
    recount = recount_scores(records, preds, 1)
    sample = rng.choice(len(scores), size=min(40, len(scores)), replace=False)
    bad = [
        scores[i]["feature"]
        for i in sample
        if abs(recount.get(scores[i]["feature"], -1.0) - scores[i]["score"]) > 1e-12
        or not 0.0 <= scores[i]["score"] <= 1.0
    ]
    ok = not bad and set(recount) == {s["feature"] for s in scores}
    return "score_recount", ok, f"{len(sample)} of {len(scores)} features; mismatched {bad[:3]}"


def _sgns_fit(w_in, centers, contexts, negs, steps=60, lr=0.5):
    """Negative-sampling loss on the pairs after fitting output vectors
    (from zero, by gradient descent) to fixed input vectors."""
    h = w_in[centers]
    w_out = np.zeros_like(w_in)
    rows = np.concatenate([contexts, negs.ravel()])
    per_row = np.maximum(np.bincount(rows, minlength=len(w_in)), 1)[:, None]
    for step in range(steps + 1):
        pos = np.einsum("ij,ij->i", h, w_out[contexts])
        neg = np.einsum("ij,ikj->ik", h, w_out[negs])
        loss = float(np.mean(np.logaddexp(0.0, -pos) + np.logaddexp(0.0, neg).sum(axis=1)))
        if step == steps:
            return loss
        g_pos = -1.0 / (1.0 + np.exp(pos))
        g_neg = 1.0 / (1.0 + np.exp(-neg))
        grad = np.zeros_like(w_out)
        np.add.at(grad, contexts, g_pos[:, None] * h)
        np.add.at(grad, negs, g_neg[:, :, None] * h[:, None, :])
        w_out -= lr * grad / per_row


def check_skipgram(table, init, pairs, negatives: int, rng, pad_id: int):
    """Finite table, zero padding row, and a lower negative-sampling loss
    on a sample of (center, context) pairs than the initial table gets
    under the same fit of output vectors."""
    centers, contexts = pairs
    pick = rng.choice(len(centers), size=min(2000, len(centers)), replace=False)
    counts = np.bincount(centers, minlength=len(table)).astype(float)
    pool = np.flatnonzero(counts)
    pool = pool[pool != pad_id]
    p = counts[pool] ** 0.75
    negs = rng.choice(pool, size=(len(pick), negatives), p=p / p.sum())
    trained = _sgns_fit(table, centers[pick], contexts[pick], negs)
    initial = _sgns_fit(init, centers[pick], contexts[pick], negs)
    ok = bool(np.all(np.isfinite(table))) and not np.any(table[pad_id]) and trained < initial
    return "skipgram_table", ok, f"loss {trained:.4f} vs {initial:.4f} at init, {len(pick)} pairs"


def check_manifests(out_dir: Path):
    """Every manifest names outputs whose sha256 matches the file."""
    bad, seen = [], 0
    digest = hashlib.sha256()
    for path in sorted(out_dir.glob("manifest_*.json")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        for entry in json.loads(data)["outputs"].values():
            seen += 1
            if hashlib.sha256(Path(entry["path"]).read_bytes()).hexdigest() != entry["sha256"]:
                bad.append(entry["path"])
    return ("manifest_hashes", seen > 0 and not bad, f"{seen} outputs; bad {bad[:3]}"), digest.hexdigest()


def check_readme_claims(f1: float, flags: int, recall: dict):
    """The README tour's claims: F1 >= 0.90, >= 8 planted flags in the
    urgent top-10 that score-symptoms prints, and urgent recall
    Attention Drop < Random Drop < Baseline."""
    ok = f1 >= 0.90 and flags >= 8 and recall["Attention Drop"] < recall["Random Drop"] < recall["Baseline"]
    return "readme_claims", ok, f"f1 {f1:.4f}, flags in top-10 {flags}, recall {recall}"
