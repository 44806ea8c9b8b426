"""Time-aware evaluation harness for cross-project defect prediction.

Builds a bucketed timeline from dated software releases, enumerates
train/test pairs under four time-aware configurations, applies published
training-data treatments, trains a C4.5-style decision tree, and scores
the predictions per project version. Stability and ranking statistics
summarize how conclusions hold up across time.
"""

import os as _os
import sys as _sys

# OpenBLAS starts a pool of worker threads when NumPy loads, and each
# worker spins for about 0.1 s of CPU before it sleeps, although the
# package makes no BLAS call. OpenBLAS reads this variable when it loads,
# so it must be set before the first submodule imports NumPy. A value
# the user set is kept. Once NumPy is loaded the pool exists, and the
# variable would only reach child processes, so it is left alone.
if "numpy" not in _sys.modules:
    _os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

__version__ = "0.1.0"

from .dataset import (BucketSummary, DatasetSchema, Release, TimeBucket,
                      TimeSeriesDataset, bucketize, dataset_summary,
                      parse_dataset)
from .errors import (BalancingError, ConfigError, ConflictError, DatasetError,
                     DegenerateTreatmentError, EmptyDatasetError, ParseError,
                     UnusableDataError)
from .pairs import (ConfigurationKind, PairSpec, TrainTestPair, crossval_pairs,
                    enumerate_pairs)
from .treatments import (TreatedPair, amasaki15, assemble_pair, camargocruz09,
                         identity_treatment, ma12, nam15, undersample,
                         watanabe08)
from .tree import (DecisionTree, TreeParams, dump_tree, leaf_count,
                   predict_proba_rows, train_tree)
from .metrics import VersionScore, evaluate_pair, scores
from .stability import (RESULTS_HEADER, SCORES, RankRow, ResultBlock,
                        StabilityRow, aggregate, cliffs_delta,
                        load_results_csv, magnitude_label, rank_techniques,
                        rankscores, wilcoxon_rank_sum, write_reports)
from .config import ExperimentConfig, config_hash, parse_config_text
from .runner import Diagnostic, RunSummary, run_experiment, validate
