"""Output checks: every stage's outputs are judged, and each bad one is a
failed operation, never a crash.

Three kinds of operation are checked:

* a stage: it exits 0 and leaves its output files;
* a loss CSV: it has the expected number of rows. Phase 1 logs two rows
  per epoch (encoder and decoder stage), phase 2 one row per requested
  epoch. Curriculum stops a level early when its plateau rule fires, so
  the expected count is found by replaying that rule over the logged
  losses. A run that aborts mid-level (``cmd_train`` still exits 0) logs
  fewer rows than the rule asks for and fails here;
* an eval cell: one (variant, regime) row of the report. Its ``rmse`` and
  ``smape`` must be finite and in range, and, where ``references.json``
  holds the workload seed, within ``RTOL`` of the stored value.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path

REFERENCES = Path(__file__).resolve().parent / "references.json"

# Relative tolerance on a stored eval reference. Runs are bit-reproducible
# today; the slack admits reassociated arithmetic, not a changed training.
RTOL = 1e-4


@dataclass(frozen=True)
class Outcome:
    op: str
    ok: bool
    detail: str = ""


def check_stage(run, outputs) -> Outcome:
    op = f"stage {run.name}"
    if run.timed_out:
        return Outcome(op, False, "timed out")
    if run.exit_code != 0:
        return Outcome(op, False, f"exit code {run.exit_code}")
    missing = [p for p in outputs if not Path(p).is_file()]
    if missing:
        return Outcome(op, False, f"missing outputs {missing}")
    return Outcome(op, True)


def read_loss_rows(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _plateau(hist, epsilon, patience) -> bool:
    """The curriculum plateau rule, as hyperkkl.training.plateau_detect."""
    best_before = min(hist[:-patience])
    best_in = min(hist[-patience:])
    return (best_before - best_in) / max(best_before, 1e-12) < epsilon


def plateau_rows(losses, level_epochs, patience, epsilon):
    """Rows the plateau rule keeps for one level, given its logged losses.

    None when the log ends before the rule or the level budget stops it.
    """
    for i in range(1, min(len(losses), level_epochs) + 1):
        if i >= patience + 1 and _plateau(losses[:i], epsilon, patience):
            return i
    return level_epochs if len(losses) >= level_epochs else None


def curriculum_expected_rows(rows, levels, schedule):
    """Expected row count of a curriculum loss log, or None if unknowable."""
    total = 0
    for level in range(1, levels + 1):
        losses = [float(r["loss_rec"]) for r in rows if int(r["level"]) == level]
        kept = plateau_rows(losses, schedule["level_epochs"],
                            schedule["patience"], schedule["epsilon"])
        if kept is None:
            return None
        total += kept
    return total


def check_loss_csv(stage, reference_rows=None, schedule=None,
                   levels=0) -> Outcome:
    op = f"loss rows {stage.name}"
    path = Path(stage.loss_csv)
    if not path.is_file():
        return Outcome(op, False, "loss CSV missing")
    try:
        rows = read_loss_rows(path)
        epochs = [int(r["epoch"]) for r in rows]
        expected = stage.expected_rows
        if expected is None:
            expected = curriculum_expected_rows(rows, levels, schedule)
    except (KeyError, ValueError, TypeError) as e:
        return Outcome(op, False, f"unreadable loss CSV: {e}")
    if expected is None:
        return Outcome(op, False,
                       f"{len(rows)} rows end before the plateau rule stops")
    if len(rows) != expected:
        return Outcome(op, False, f"{len(rows)} rows, expected {expected}")
    if epochs != list(range(1, len(rows) + 1)):
        return Outcome(op, False, "epoch column is not 1..N")
    if reference_rows is not None and len(rows) != reference_rows:
        return Outcome(op, False,
                       f"{len(rows)} rows, reference has {reference_rows}")
    return Outcome(op, True)


def _close(value, ref) -> bool:
    return abs(value - ref) <= RTOL * abs(ref)


def check_eval_csv(stage, regimes, n_test, reference=None) -> list:
    """One outcome per expected (variant, regime) cell of the report."""
    path = Path(stage.eval_csv)
    cells = {}
    if path.is_file():
        with open(path, newline="") as fh:
            for r in csv.DictReader(fh):
                cells[(r.get("variant"), r.get("regime"))] = r
    out = []
    for variant in stage.eval_variants:
        for regime in regimes:
            op = f"eval {variant}/{regime}"
            row = cells.get((variant, regime))
            if row is None:
                out.append(Outcome(op, False, "cell missing"))
                continue
            try:
                rmse, smape, n = float(row["rmse"]), float(row["smape"]), int(row["n"])
            except (KeyError, ValueError, TypeError) as e:
                out.append(Outcome(op, False, f"unreadable cell: {e}"))
                continue
            if n != n_test:
                out.append(Outcome(op, False, f"n={n}, expected {n_test}"))
            elif not (math.isfinite(rmse) and rmse >= 0.0
                      and math.isfinite(smape) and 0.0 <= smape <= 200.0):
                out.append(Outcome(op, False,
                                   f"rmse={rmse} smape={smape} out of range"))
            elif reference is not None and f"{variant}/{regime}" in reference:
                ref = reference[f"{variant}/{regime}"]
                if not (_close(rmse, ref["rmse"]) and _close(smape, ref["smape"])):
                    out.append(Outcome(
                        op, False,
                        f"rmse={rmse!r} smape={smape!r} outside rtol {RTOL} "
                        f"of reference {ref['rmse']!r} / {ref['smape']!r}"))
                else:
                    out.append(Outcome(op, True))
            else:
                out.append(Outcome(op, True))
    return out


def eval_cells(path) -> dict:
    """{"variant/regime": {"rmse", "smape"}} from an eval report CSV."""
    with open(path, newline="") as fh:
        return {f"{r['variant']}/{r['regime']}":
                {"rmse": float(r["rmse"]), "smape": float(r["smape"])}
                for r in csv.DictReader(fh)}


def load_references(path=REFERENCES) -> dict:
    if not Path(path).is_file():
        return {}
    with open(path) as fh:
        return json.load(fh)

