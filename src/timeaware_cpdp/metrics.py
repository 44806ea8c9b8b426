"""Binary classification metrics and per-version pair evaluation.

Every ratio with a zero denominator is defined as 0 so that degenerate
confusion matrices never raise; MCC is 0 whenever any factor under its
root is 0. AUC is the rank-based Mann-Whitney statistic with midranks
for tied scores; when the actual labels contain only one class it is
undefined and reported as 0.5 together with a degenerate flag.

Every test row takes its leaf's probability, so a pair's scores follow
from one count table of the clean and defective rows of each test
version at each distinct leaf probability. Rows at one probability share
the midrank (rows below) + (count + 1) / 2, a half-integer, so a
version's AUC is an exact table sum. The rank-sum test and Cliff's delta
in stability rank their pooled samples by the same rule.

evaluate_pair gives one flat VersionScore per test release, that is per
entry of the pair's test_versions: the id, confusion counts, scores and
flag, in the column order of results.csv. Its values are plain Python
ints, floats and bools.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .tree import DecisionTree, _leaves, _probas
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


def _table_scores(table: np.ndarray, cut: int) -> list[tuple]:
    """VersionScore's fields after the ids, of every version of a count table.

    table[v, r, label] counts version v's rows of each label (1 for
    defective) at the r-th smallest probability; ranks from cut up are
    predicted defective. The rows at one rank share the midrank
    (rows below) + (count + 1) / 2.
    """
    seen = table.sum(axis=2)
    midrank = seen.cumsum(axis=1) - (seen - 1) / 2.0
    rank_sums = (table[:, :, 1] * midrank).sum(axis=1)
    out = []
    for (tn, fn), (fp, tp), rank_sum in zip(table[:, :cut].sum(axis=1).tolist(),
                                            table[:, cut:].sum(axis=1).tolist(),
                                            rank_sums.tolist()):
        n_pos, n_neg = tp + fn, tn + fp
        degenerate = n_pos == 0 or n_neg == 0
        area = 0.5 if degenerate else (
            (rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))
        out.append((tp, fp, tn, fn, *scores(tp, fp, tn, fn), area, degenerate))
    return out


def evaluate_pair(tree: DecisionTree, treated: TreatedPair) -> list[VersionScore]:
    """Score the model separately on every test project version.

    Each entry of test_versions yields one VersionScore, in order, from
    its run of rows. The rows descend the tree in one pass, and one
    bincount over leaf probability ranks counts every version's table.
    """
    leaf = tree.feature < 0
    levels, rank = np.unique(_probas(tree)[leaf], return_inverse=True)
    offset = np.zeros(len(leaf), dtype=np.intp)  # a leaf's cell in a version's block
    offset[leaf] = 2 * rank
    counts = [count for _, count in treated.test_versions]
    block = 2 * len(levels)
    cells = (np.repeat(np.arange(0, block * len(counts), block), counts)
             + offset[_leaves(tree, treated.test_features)]
             + np.asarray(treated.test_labels, dtype=bool))
    table = np.bincount(cells, minlength=block * len(counts)).reshape(
        len(counts), -1, 2)
    return [VersionScore(project, version_id, *fields)
            for ((project, version_id), _), fields in zip(
                treated.test_versions,
                _table_scores(table, np.searchsorted(levels, PREDICTION_THRESHOLD)))]
