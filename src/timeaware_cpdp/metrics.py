"""Binary classification metrics and per-version pair evaluation.

Every ratio with a zero denominator is defined as 0 so that degenerate
confusion matrices never raise; MCC is 0 whenever any factor under its
root is 0. AUC is the rank-based Mann-Whitney statistic with midranks
for tied scores; when the actual labels contain only one class it is
undefined and reported as 0.5 together with a degenerate flag.

evaluate_pair gives one flat VersionScore per test release, that is per
entry of the pair's test_versions: the id, confusion counts, scores and
flag, in the column order of results.csv. Its values are plain Python
ints, floats and bools.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Sequence

import numpy as np

from .tree import DecisionTree, predict_proba_rows
from .treatments import TreatedPair

# a row is predicted defective iff its leaf probability reaches this
PREDICTION_THRESHOLD = 0.5


class VersionScore(NamedTuple):
    """The scores of one test version: the last 13 columns of a results row."""

    test_project: str
    test_version: str
    tp: int
    fp: int
    tn: int
    fn: int
    precision: float
    recall: float
    fscore: float
    gmeasure: float
    mcc: float
    auc: float
    auc_degenerate: bool


def _confusion_cells(group: np.ndarray, predicted: np.ndarray,
                     actual: np.ndarray, n_groups: int) -> np.ndarray:
    """(n_groups, 4) instance counts per group, columns (tn, fn, fp, tp)."""
    cell = 4 * group + 2 * predicted.astype(np.intp) + actual.astype(np.intp)
    return np.bincount(cell, minlength=4 * n_groups).reshape(n_groups, 4)


def _ratio(num: float, den: float) -> float:
    return num / den if den != 0 else 0.0


def scores(tp: int, fp: int, tn: int,
           fn: int) -> tuple[float, float, float, float, float]:
    """Precision, recall, F-score, G-measure and MCC of a confusion matrix."""
    precision = _ratio(tp, tp + fp)
    recall = _ratio(tp, tp + fn)
    fscore = _ratio(2.0 * precision * recall, precision + recall)
    pf = _ratio(fp, tn + fp)
    gmeasure = _ratio(2.0 * recall * (1.0 - pf), recall + (1.0 - pf))
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    mcc = 0.0 if denom == 0 else (tp * tn - fp * fn) / math.sqrt(denom)
    return precision, recall, fscore, gmeasure, mcc


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


def evaluate_pair(tree: DecisionTree, treated: TreatedPair) -> list[VersionScore]:
    """Score the model separately on every test project version.

    Each entry of test_versions yields one VersionScore, in order, from
    its run of rows. All rows are predicted in one pass and all
    confusion matrices counted at once.
    """
    counts = [count for _, count in treated.test_versions]
    version = np.repeat(np.arange(len(counts)), counts)
    probas = predict_proba_rows(tree, treated.test_features)
    actual = np.asarray(treated.test_labels, dtype=bool)
    cells = _confusion_cells(version, probas >= PREDICTION_THRESHOLD, actual,
                             len(counts))
    areas = _auc_by_group(probas, actual, version, len(counts))

    return [VersionScore(project, version_id, tp, fp, tn, fn,
                         *scores(tp, fp, tn, fn), area,
                         tp + fn == 0 or tn + fp == 0)
            for ((project, version_id), _), (tn, fn, fp, tp), area
            in zip(treated.test_versions, cells.tolist(), areas.tolist())]
