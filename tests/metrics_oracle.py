"""Row-level scoring of a pair: the oracle for metrics.evaluate_pair.

Every test row is predicted on its own through predict_proba_rows;
confusion counts come from a bincount of the rows' cells, and each
version's AUC from the midranks of its rows, found by one lexsort over
(probability, version), and a bincount of those ranks. evaluate_pair
gets the same numbers from one count table per leaf probability and
must match this bit for bit.
"""

import numpy as np

from timeaware_cpdp.metrics import PREDICTION_THRESHOLD, VersionScore, scores
from timeaware_cpdp.tree import predict_proba_rows


def confusion_cells(group, predicted, actual, n_groups):
    """(n_groups, 4) instance counts per group, columns (tn, fn, fp, tp)."""
    cell = 4 * group + 2 * predicted.astype(np.intp) + actual.astype(np.intp)
    return np.bincount(cell, minlength=4 * n_groups).reshape(n_groups, 4)


def midranks_within(values, group):
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


def auc_by_group(values, labels, group, n_groups):
    """AUC of every group's values against its labels; 0.5 if single-class."""
    ranks = midranks_within(values, group)
    n_pos = np.bincount(group[labels], minlength=n_groups)
    n_neg = np.bincount(group, minlength=n_groups) - n_pos
    pos_rank_sum = np.bincount(group, weights=np.where(labels, ranks, 0.0),
                               minlength=n_groups)
    area = np.full(n_groups, 0.5)
    two = (n_pos > 0) & (n_neg > 0)
    n_pos, n_neg = n_pos[two], n_neg[two]
    area[two] = (pos_rank_sum[two] - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg)
    return area


def evaluate_pair(tree, treated):
    """evaluate_pair's VersionScores, scored row by row."""
    counts = [count for _, count in treated.test_versions]
    version = np.repeat(np.arange(len(counts)), counts)
    probas = predict_proba_rows(tree, treated.test_features)
    actual = np.asarray(treated.test_labels, dtype=bool)
    cells = confusion_cells(version, probas >= PREDICTION_THRESHOLD, actual,
                            len(counts))
    areas = auc_by_group(probas, actual, version, len(counts))
    return [VersionScore(project, version_id, tp, fp, tn, fn,
                         *scores(tp, fp, tn, fn), area,
                         tp + fn == 0 or tn + fp == 0)
            for ((project, version_id), _), (tn, fn, fp, tp), area
            in zip(treated.test_versions, cells.tolist(), areas.tolist())]
