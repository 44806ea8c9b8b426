"""Reference cross-validation folds: crossval_pairs as it was before its
folds became slices of one shuffled list.

The releases are dealt into folds by a running cursor, and each fold's
training side is rebuilt from the other folds in fold order.
``tests/test_pairs.py`` checks that the package's pairs equal these.
"""

from __future__ import annotations

import random

from timeaware_cpdp.dataset import Release, release_order
from timeaware_cpdp.pairs import (ConfigurationKind, PairSpec, TrainTestPair,
                                  _strict_pair)


def crossval_pairs(releases: list[Release], folds: int,
                   seed: int) -> list[TrainTestPair]:
    ordered = sorted(releases, key=release_order)
    rng = random.Random(seed)
    rng.shuffle(ordered)

    base, extra = divmod(len(ordered), folds)
    chunks = []
    pos = 0
    for i in range(folds):
        size = base + (1 if i < extra else 0)
        chunks.append(ordered[pos:pos + size])
        pos += size

    out = []
    for i, test in enumerate(chunks):
        train = [r for j, c in enumerate(chunks) if j != i for r in c]
        pair = _strict_pair(
            PairSpec(kind=ConfigurationKind.CROSSVAL, window_k=None,
                     split_index=i, gap_buckets=0),
            tuple(train), tuple(test))
        if pair is not None:
            out.append(pair)
    return out
