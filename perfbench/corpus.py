"""Seeded generator of release corpora for the benchmark workloads.

A corpus is a CSV of class-level metric rows with dated releases plus an
experiment config, in the input format of ``timeaware-cpdp``. The
``CorpusSpec`` fixes the release timeline (which project releases in
which month, how many classes and how many defective classes each
release has) and the metric rows of every release, drawn from a
generator with a constant seed. The benchmark seed permutes the rows
within each release and picks the day of each release within its month,
and it is the run seed of the experiment config, which drives
under-sampling.

The rows are not redrawn per seed on purpose: the tree work of a run
follows the sizes of the trees, and with few, nested training sets
(``history`` trains on all past data at six split points) redrawing the
values moved the tree time of one run by more than 20 % between seeds,
so the benchmark would measure the seed rather than the program. The
same spec and seed give identical bytes; different seeds give different
bytes but the same pair list and the same work.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# a CK-style class metric suite; every corpus has all of these columns
METRIC_NAMES = (
    "wmc", "dit", "noc", "cbo", "rfc", "lcom", "ca", "ce", "npm", "lcom3",
    "loc", "dam", "moa", "mfa", "cam", "ic", "cbm", "amc", "max_cc", "avg_cc",
)

START_YEAR = 2010
# every project releases every CADENCE_MONTHS while it lives
CADENCE_MONTHS = 6
# standard deviation of the latent log-normal class size
SIZE_SD = 0.4


@dataclass(frozen=True)
class CorpusSpec:
    """Shape of a generated ecosystem.

    Project ``j`` starts ``round(j * start_span_months / (projects - 1))``
    months after the first release and then releases every
    ``CADENCE_MONTHS`` for up to ``lifetime_releases`` releases, while it
    stays before ``span_months``; the staggered starts make projects
    appear over time. A release in month ``m`` has
    ``base_classes * class_growth_per_year ** (m / 12)`` classes, and its
    defect rate is drawn uniformly from ``defect_rate``. A latent
    log-normal size with standard deviation ``SIZE_SD`` drives every
    metric of a class, and defective classes are ``defect_size_ratio``
    times larger; the ratio sets how separable the classes are, and so
    how large the trees grow.
    ``feature_cols`` selects metrics through ``dataset.feature_cols``
    (None uses every metric column).
    """

    projects: int
    span_months: int
    start_span_months: int
    lifetime_releases: int
    base_classes: int
    class_growth_per_year: float
    defect_rate: tuple[float, float]
    configurations: str
    balance: bool
    defect_size_ratio: float
    feature_cols: tuple[str, ...] | None = None

    def timeline(self) -> list[tuple[int, int]]:
        """(project index, release month) for every release, in project order."""
        out = []
        for j in range(self.projects):
            start = round(j * self.start_span_months / (self.projects - 1))
            for n in range(self.lifetime_releases):
                month = start + n * CADENCE_MONTHS
                if month >= self.span_months:
                    break
                out.append((j, month))
        return out

    def classes_in(self, month: int) -> int:
        return round(self.base_classes
                     * self.class_growth_per_year ** (month / 12))


SPECS = {
    # short-lived projects, many metrics, every past release trained on
    "history": CorpusSpec(
        projects=14, span_months=48, start_span_months=46,
        lifetime_releases=2, base_classes=12, class_growth_per_year=1.0,
        defect_rate=(0.15, 0.40), configurations="IC,II",
        balance=False, defect_size_ratio=4.0),
    # releases grow over time and defects are rare, so under-sampling
    # shrinks every training set to a distinct balanced sample
    "future": CorpusSpec(
        projects=12, span_months=60, start_span_months=58,
        lifetime_releases=5, base_classes=26, class_growth_per_year=1.28,
        defect_rate=(0.03, 0.12), configurations="CI",
        balance=True, defect_size_ratio=3.0,
        feature_cols=("wmc", "cbo", "rfc", "loc")),
}


def _clipped_normal(rng: random.Random) -> float:
    return min(2.0, max(-2.0, rng.gauss(0.0, 1.0)))


def _class_row(rng: random.Random, spec: CorpusSpec, scale: float,
               defective: bool) -> list[float]:
    # one latent size drives every metric, so metrics correlate as in
    # real suites; defective classes are larger on most metrics. Draws
    # are clipped at two standard deviations: a class far out on every
    # metric at once isolates all of a training set's attributes, which
    # makes amasaki15 reject the pair
    size = (scale * math.exp(_clipped_normal(rng) * SIZE_SD)
            * (spec.defect_size_ratio if defective else 1.0))
    values = []
    for i in range(len(METRIC_NAMES)):
        base = 3.0 + 4.0 * ((i * 7) % 11)
        exponent = 0.4 + 0.1 * (i % 6)
        noise = math.exp(0.25 * _clipped_normal(rng))
        values.append(base * size ** exponent * noise)
    return values


def generate(spec: CorpusSpec, seed: int) -> tuple[str, str]:
    """Return (releases CSV text, experiment config text) for one seed."""
    shape = random.Random("perfbench:shape")
    rng = random.Random(f"perfbench:{seed}")
    lines = ["project,version,release_date,class,"
             + ",".join(METRIC_NAMES) + ",defects"]
    project_scale = [math.exp(shape.gauss(0.0, 0.3)) for _ in range(spec.projects)]
    for version_no, (j, month) in enumerate(spec.timeline()):
        project = f"p{j:02d}"
        year = START_YEAR + month // 12
        # day 1 of the first release pins the grid anchor to its month
        day = 1 if month == 0 else rng.randint(1, 28)
        released = f"{year:04d}-{month % 12 + 1:02d}-{day:02d}"
        classes = spec.classes_in(month)
        # at least one defect per release: a training window without
        # defects is single-class, which under-sampling rejects
        defective = set(shape.sample(range(classes), max(
            1, round(shape.uniform(*spec.defect_rate) * classes))))
        rows = []
        for class_no in range(classes):
            is_defective = class_no in defective
            values = _class_row(shape, spec, project_scale[j], is_defective)
            defects = shape.randint(1, 5) if is_defective else 0
            rows.append(f"{project},{version_no},{released},"
                        f"{project}.C{class_no},"
                        + ",".join(repr(round(v, 2)) for v in values)
                        + f",{defects}")
        rng.shuffle(rows)
        lines.extend(rows)
    csv_text = "\n".join(lines) + "\n"

    config = [
        "dataset.path = releases.csv",
        "buckets.granularity_months = 6",
        "pairs.gap_buckets = 1",
        f"pairs.configurations = {spec.configurations}",
        "run.techniques = watanabe08,camargocruz09,ma12,amasaki15,nam15",
        f"run.seed = {seed}",
        f"run.balance = {'true' if spec.balance else 'false'}",
        "run.output_dir = out",
    ]
    if spec.feature_cols is not None:
        config.append("dataset.feature_cols = " + ",".join(spec.feature_cols))
    return csv_text, "\n".join(config) + "\n"
