"""Time-aware evaluation harness for cross-project defect prediction.

Builds a bucketed timeline from dated software releases, enumerates
train/test pairs under four time-aware configurations, applies published
training-data treatments, trains a C4.5-style decision tree, and scores
the predictions per project version. Stability and ranking statistics
summarize how conclusions hold up across time.
"""

__version__ = "0.1.0"

from .dataset import (BucketSummary, DatasetSchema, MetricRecord, Release,
                      TimeBucket, TimeSeriesDataset, bucketize,
                      convert_date_token, dataset_summary, parse_dataset)
from .errors import (BalancingError, ConfigError, ConflictError, DatasetError,
                     DegenerateTreatmentError, EmptyDatasetError, ParseError)
from .pairs import (ConfigurationKind, PairSpec, TrainTestPair, crossval_pairs,
                    enumerate_pairs, generate_pair, strict_cpdp_filter,
                    window_sizes)
from .treatments import (TreatedPair, amasaki15, assemble_pair, camargocruz09,
                         identity_treatment, ma12, nam15, watanabe08)
from .tree import (DecisionTree, TreeParams, dump_tree, leaf_count,
                   predict_proba_rows, train_tree)
from .metrics import (ConfusionMatrix, ScoreSet, VersionScore, auc, confusion,
                      evaluate_pair, midranks, scores)
from .stability import (RankRow, ResultRecord, StabilityRow, aggregate,
                        cliffs_delta, magnitude_label, rank_stability,
                        rank_techniques, rankscores, undersample,
                        wilcoxon_rank_sum, write_reports)
from .config import ExperimentConfig, config_hash, parse_config_text
from .runner import (RESULTS_HEADER, Diagnostic, RunSummary, run_experiment,
                     validate)
