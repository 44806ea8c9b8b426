"""Output checks for one experiment run.

A run is checked per (pair, technique) combination, the unit that
``run_experiment`` fits and scores and the unit it skips on failure. A
combination fails when it wrote no rows, when its rows do not cover
exactly the pair's test versions in order, when a confusion matrix does
not account for every test class of its version, or, where a reference
``results.csv`` was recorded for the input, when any row differs from
the reference: row keys, confusion counts and the AUC-degenerate flag
must match exactly and every score must agree within ``SCORE_TOLERANCE``.

The pair list itself is checked for the two guarantees of the harness:
strict CPDP (no project on both sides of a pair) and no time travel (for
time-aware pairs every training release lies before the split and every
test release at or after split + gap).
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field

SCORE_TOLERANCE = 1e-9

KEY_FIELDS = ("technique", "kind", "window_k", "split_index", "gap",
              "test_project", "test_version")
COUNT_FIELDS = ("tp", "fp", "tn", "fn")
SCORE_FIELDS = ("precision", "recall", "fscore", "gmeasure", "mcc", "auc")


def pair_key(spec) -> tuple[str, str, str, str]:
    """(kind, window_k, split_index, gap) as results.csv spells them."""
    window = "inf" if spec.window_k is None else str(spec.window_k)
    return (spec.kind.value, window, str(spec.split_index),
            str(spec.gap_buckets))


def describe_pairs(tasks) -> list[dict]:
    """JSON-ready description of what each pair's results must cover."""
    out = []
    for pair in tasks:
        versions: dict[tuple[str, str], list[int]] = {}
        for rel in pair.test:
            counts = versions.setdefault(rel.key, [0, 0])
            counts[0] += len(rel.records)
            counts[1] += sum(1 for rec in rel.records if rec.defective)
        out.append({
            "key": list(pair_key(pair.spec)),
            "versions": [[p, v, n, d] for (p, v), (n, d) in versions.items()],
        })
    return out


def pair_violations(tasks, ts) -> list[str]:
    """Strict-CPDP and no-time-travel violations in a pair list."""
    problems = []
    for pair in tasks:
        spec = pair.spec
        name = "/".join(pair_key(spec))
        shared = ({r.project_id for r in pair.train}
                  & {r.project_id for r in pair.test})
        if shared:
            problems.append(f"{name}: projects on both sides: {sorted(shared)}")
        if spec.kind.value == "crossval":
            continue
        train_buckets = [ts.bucket_index(r.release_date) for r in pair.train]
        test_buckets = [ts.bucket_index(r.release_date) for r in pair.test]
        if max(train_buckets) >= spec.split_index:
            problems.append(f"{name}: training release at or after the split")
        if min(test_buckets) < spec.split_index + spec.gap_buckets:
            problems.append(f"{name}: test release before split + gap")
        if (max(r.release_date for r in pair.train)
                >= min(r.release_date for r in pair.test)):
            problems.append(f"{name}: training data not older than test data")
    return problems


def parse_results(text: str) -> dict[tuple, list[dict]]:
    """results.csv rows grouped by (technique, kind, window, split, gap)."""
    grouped: dict[tuple, list[dict]] = {}
    for row in csv.DictReader(io.StringIO(text)):
        grouped.setdefault(tuple(row[f] for f in KEY_FIELDS[:5]), []).append(row)
    return grouped


def _rows_agree(row: dict, ref: dict) -> bool:
    if any(row[f] != ref[f] for f in KEY_FIELDS + COUNT_FIELDS):
        return False
    if row["auc_degenerate"] != ref["auc_degenerate"]:
        return False
    return all(abs(float(row[f]) - float(ref[f])) <= SCORE_TOLERANCE
               for f in SCORE_FIELDS)


@dataclass
class CheckResult:
    attempted: int = 0
    failed: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)


def check_run(results_text: str, manifest: dict, pairs: list[dict],
              techniques: list[str], reference_text: str | None) -> CheckResult:
    """Check one run's results.csv and manifest against the pair list.

    ``failed`` names every failed combination; ``errors`` holds problems
    that concern the run as a whole (row accounting).
    """
    result = CheckResult()
    rows = parse_results(results_text)
    reference = parse_results(reference_text) if reference_text is not None else None
    for pair in pairs:
        versions = pair["versions"]
        for technique in techniques:
            combo = (technique, *pair["key"])
            result.attempted += 1
            got = rows.get(combo, [])
            ok = (
                [(r["test_project"], r["test_version"]) for r in got]
                == [(p, v) for p, v, _, _ in versions]
                and all(sum(int(r[f]) for f in COUNT_FIELDS) == n
                        and int(r["tp"]) + int(r["fn"]) == d
                        for r, (_, _, n, d) in zip(got, versions)))
            if ok and reference is not None:
                ref = reference.get(combo, [])
                ok = (len(ref) == len(got)
                      and all(_rows_agree(r, e) for r, e in zip(got, ref)))
            if not ok:
                result.failed.append("/".join(combo))

    expected_rows = sum(len(p["versions"]) for p in pairs) * len(techniques)
    written = sum(len(v) for v in rows.values())
    accounting = manifest.get("row_accounting", {})
    if accounting.get("expected_rows") != expected_rows:
        result.errors.append(
            f"manifest expects {accounting.get('expected_rows')} rows, "
            f"the pair list {expected_rows}")
    if accounting.get("written_rows") != written:
        result.errors.append(
            f"manifest reports {accounting.get('written_rows')} rows written, "
            f"results.csv holds {written}")
    if (accounting.get("expected_rows", 0)
            - accounting.get("rows_from_failed_combinations", 0)
            - accounting.get("version_skips", 0)) != written:
        result.errors.append("manifest row accounting does not balance")
    return result
