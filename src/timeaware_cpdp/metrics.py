"""Binary classification metrics and per-version pair evaluation.

Every ratio with a zero denominator is defined as 0 so that degenerate
confusion matrices never raise; MCC is 0 whenever any factor under its
root is 0. AUC is the rank-based Mann-Whitney statistic with midranks
for tied scores; when the actual labels contain only one class it is
undefined and reported as 0.5 together with a degenerate flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby
from typing import NamedTuple, Sequence

import numpy as np

from .tree import DecisionTree, predict_proba_rows
from .treatments import TreatedPair

# a row is predicted defective iff its leaf probability reaches this
PREDICTION_THRESHOLD = 0.5


@dataclass(frozen=True)
class ConfusionMatrix:
    tp: int
    fp: int
    tn: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.tn + self.fn


class CoreScores(NamedTuple):
    precision: float
    recall: float
    fscore: float
    gmeasure: float
    mcc: float


@dataclass(frozen=True)
class ScoreSet:
    """The six per-version performance numbers."""

    precision: float
    recall: float
    fscore: float
    gmeasure: float
    mcc: float
    auc: float


@dataclass(frozen=True)
class VersionScore:
    project_id: str
    version_id: str
    cm: ConfusionMatrix
    scores: ScoreSet
    auc_degenerate: bool


def _confusion_cells(group: np.ndarray, predicted: np.ndarray,
                     actual: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, 4) instance counts per group, columns (tn, fn, fp, tp)."""
    cell = 4 * group + 2 * predicted.astype(np.intp) + actual.astype(np.intp)
    return np.bincount(cell, minlength=4 * n_groups).reshape(n_groups, 4)


def _matrix(cells) -> ConfusionMatrix:
    tn, fn, fp, tp = (int(c) for c in cells)
    return ConfusionMatrix(tp=tp, fp=fp, tn=tn, fn=fn)


def confusion(predicted: Sequence[bool], actual: Sequence[bool]) -> ConfusionMatrix:
    if len(predicted) != len(actual):
        raise ValueError(
            f"length mismatch: {len(predicted)} predictions, {len(actual)} labels")
    if len(predicted) == 0:
        raise ValueError("cannot build a confusion matrix from zero instances")
    group = np.zeros(len(predicted), dtype=np.intp)
    return _matrix(_confusion_cells(group, np.asarray(predicted, dtype=bool),
                                    np.asarray(actual, dtype=bool), 1)[0])


def _ratio(num: float, den: float) -> float:
    return num / den if den != 0 else 0.0


def scores(cm: ConfusionMatrix) -> CoreScores:
    """Precision, recall, F-score, G-measure and MCC of a confusion matrix."""
    precision = _ratio(cm.tp, cm.tp + cm.fp)
    recall = _ratio(cm.tp, cm.tp + cm.fn)
    fscore = _ratio(2.0 * precision * recall, precision + recall)
    pf = _ratio(cm.fp, cm.tn + cm.fp)
    gmeasure = _ratio(2.0 * recall * (1.0 - pf), recall + (1.0 - pf))
    denom = ((cm.tp + cm.fp) * (cm.tp + cm.fn)
             * (cm.tn + cm.fp) * (cm.tn + cm.fn))
    if denom == 0:
        mcc = 0.0
    else:
        mcc = (cm.tp * cm.tn - cm.fp * cm.fn) / math.sqrt(denom)
    return CoreScores(precision=precision, recall=recall, fscore=fscore,
                      gmeasure=gmeasure, mcc=mcc)


def _midranks_within(values: np.ndarray, group: np.ndarray) -> np.ndarray:
    """1-based midranks of each value among the values of its group."""
    n = len(values)
    order = np.lexsort((values, group))
    sv, sg = values[order], group[order]
    first = np.ones(n, dtype=bool)
    first[1:] = (sv[1:] != sv[:-1]) | (sg[1:] != sg[:-1])
    start = np.flatnonzero(first)  # sorted position of each tie group's first value
    end = np.append(start[1:], n) - 1  # ... and of its last
    offset = np.searchsorted(sg, sg[start])  # sorted position of the group's first value
    ranks = np.empty(n, dtype=np.float64)
    ranks[order] = np.repeat(((start - offset) + (end - offset)) / 2.0 + 1.0,
                             end - start + 1)
    return ranks


def midranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks, tied values sharing the mean of their rank range."""
    v = np.asarray(values, dtype=np.float64)
    return _midranks_within(v, np.zeros(len(v), dtype=np.intp))


def _auc_by_group(values: np.ndarray, labels: np.ndarray, group: np.ndarray,
                  n_groups: int) -> np.ndarray:
    """AUC of every group's values against its labels; 0.5 if single-class."""
    ranks = _midranks_within(values, group)
    n_pos = np.bincount(group[labels], minlength=n_groups)
    n_neg = np.bincount(group, minlength=n_groups) - n_pos
    pos_rank_sum = np.bincount(group, weights=np.where(labels, ranks, 0.0),
                               minlength=n_groups)
    area = np.full(n_groups, 0.5)
    two = (n_pos > 0) & (n_neg > 0)
    n_pos, n_neg = n_pos[two], n_neg[two]
    area[two] = (pos_rank_sum[two] - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return area


def auc(score_values: Sequence[float], actual: Sequence[bool]) -> float:
    """Probability a defective instance outranks a clean one; ties count half.

    Single-class inputs make the statistic undefined; the sentinel 0.5
    is returned and the caller records the degenerate flag.
    """
    labels = np.asarray(actual, dtype=bool)
    if len(score_values) != len(labels):
        raise ValueError("scores and labels differ in length")
    group = np.zeros(len(labels), dtype=np.intp)
    return float(_auc_by_group(np.asarray(score_values, dtype=np.float64),
                               labels, group, 1)[0])


def evaluate_pair(tree: DecisionTree, treated: TreatedPair) -> list[VersionScore]:
    """Score the model separately on every test project version.

    Rows are grouped by their (project, version) tag, in order of first
    appearance; each group yields one VersionScore. All rows are
    predicted in one pass and all confusion matrices counted at once.
    """
    # the rows of a version are usually contiguous: number runs, not rows
    index: dict[tuple[str, str], int] = {}
    run_version, run_length = [], []
    for key, run in groupby(treated.test_version_keys):
        run_version.append(index.setdefault(key, len(index)))
        run_length.append(len(list(run)))
    version = np.repeat(np.array(run_version, dtype=np.intp), run_length)
    probas = predict_proba_rows(tree, treated.test_features)
    actual = np.asarray(treated.test_labels, dtype=bool)
    cells = _confusion_cells(version, probas >= PREDICTION_THRESHOLD, actual,
                             len(index))
    areas = _auc_by_group(probas, actual, version, len(index))

    out = []
    for (project, version_id), counts, area in zip(index, cells.tolist(),
                                                  areas.tolist()):
        cm = _matrix(counts)
        core = scores(cm)
        out.append(VersionScore(
            project_id=project, version_id=version_id, cm=cm,
            scores=ScoreSet(precision=core.precision, recall=core.recall,
                            fscore=core.fscore, gmeasure=core.gmeasure,
                            mcc=core.mcc, auc=area),
            auc_degenerate=cm.tp + cm.fn == 0 or cm.tn + cm.fp == 0))
    return out
