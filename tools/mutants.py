"""Re-run recorded mutants: each edit to ``src`` must still make its tests fail.

Each row of MUTANTS is (file, exact old text, replacement, test ids that kill
it), the form of the mutant tables in CHANGES.md.  For each row the working
tree, without ``.git``, is copied to a temporary directory (whole, because
``tests/test_demos.py`` finds ``src`` relative to its own file).  The old text
must occur exactly once in the copy; the edit is applied there and only the
row's tests run, with ``PYTHONPATH=src``.  A mutant counts as killed when
every one of its tests fails.  A null row (no edit) runs every test that a
row names, on the unedited copy, and must pass.

Usage: python3 tools/mutants.py    (exit 0 when every row behaves, 1 otherwise)
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
# version control and what test and benchmark runs leave behind
IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work", ".bench_build"
)

QUANTUM = "src/bellfoundry/quantum.py"
LHV = "src/bellfoundry/lhv.py"
CLI = "src/bellfoundry/cli.py"
NORM_GRID = "tests/test_quantum.py::TestNormGrid"
WIGNER_MC = "tests/test_lhv.py::TestWignerMcEqualsOnesMean"
VERIFY_GOLDENS = [
    f"tests/test_cli.py::TestVerify::test_golden_stdout_all[{seed}]" for seed in (1, 7, 90210)
]
NORM_GRID_KILLS = [
    f"{NORM_GRID}::test_grid_optimum_has_tsirelson_spectrum",
    f"{NORM_GRID}::test_equals_the_largest_point_of_the_whole_grid",
    "tests/test_acceptance.py::test_criterion_4_operator_identity_and_tsirelson",
    *VERIFY_GOLDENS,
    "tests/test_cli.py::TestSeedRule::test_range_ends_are_accepted[tsirelson-0]",
    "tests/test_cli.py::TestSeedRule::test_range_ends_are_accepted[tsirelson-18446744073709551615]",
    "tests/test_demos.py::test_demo_stdout_sha256[chsh_tour.py]",
]
WIGNER_FOLD_KILLS = [
    f"{WIGNER_MC}::test_random_triples",
    f"{WIGNER_MC}::test_one_and_three_clause_specs",
    "tests/test_lhv.py::TestWignerMeasures::test_two_clause_overlap",
]

MUTANTS = [
    (QUANTUM, "np.argmax(sin_ap)", "np.argmin(sin_ap)", NORM_GRID_KILLS),
    (QUANTUM, "* resolution**2 +", "* resolution +", NORM_GRID_KILLS),
    (QUANTUM, "2.0 * V_MAX**2 * np.sqrt(", "2.0 * V_MAX**2 * (1 + 1e-10) * np.sqrt(",
     [*NORM_GRID_KILLS, f"{NORM_GRID}::test_grid_256_peak_below_16_mb"]),
    (LHV, "np.ones(n, dtype=bool)", "np.zeros(n, dtype=bool)", WIGNER_FOLD_KILLS),
    (LHV, "member &=", "member |=", WIGNER_FOLD_KILLS),
    (LHV, "else ~plus[clause.axis]", "else plus[clause.axis]", [
        f"{WIGNER_MC}::test_random_triples",
        f"{WIGNER_MC}::test_one_and_three_clause_specs",
        "tests/test_lhv.py::TestWignerInequality::test_mc_route_holds_exactly_on_one_sample",
        "tests/test_acceptance.py::test_criterion_5_wigner_suite",
        *VERIFY_GOLDENS,
    ]),
    (CLI, "if os.path.isdir(target):", "if False:", [
        "tests/test_cli.py::TestAtomicReports::test_directory_in_the_way_keeps_the_previous_report",
    ]),
]
# the unedited tree must pass every test that a row names
NULL = (None, None, None, sorted({test for *_, tests in MUTANTS for test in tests}))


def run_row(file, old, new, tests) -> tuple[bool, str]:
    """(behaves, what happened) for one row, run in a fresh copy of the tree."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        tree = Path(scratch) / "tree"
        shutil.copytree(ROOT, tree, ignore=IGNORED)
        if file is not None:
            path = tree / file
            text = path.read_text()
            if text.count(old) != 1:
                return False, f"old text occurs {text.count(old)} times, not once"
            path.write_text(text.replace(old, new))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-rfE", *tests],
            cwd=tree,
            env={**os.environ, "PYTHONPATH": "src"},
            capture_output=True,
            text=True,
        )
    summary = (done.stdout.strip().splitlines() or ["no output"])[-1]
    if file is None:
        return done.returncode == 0, summary
    failed = {
        line.split()[1]
        for line in done.stdout.splitlines()
        if line.startswith(("FAILED ", "ERROR "))
    }
    survivors = [test for test in tests if test not in failed]
    if done.returncode != 1 or survivors:
        return False, f"{summary}; not failed: {', '.join(survivors) or 'none'}"
    return True, summary


def main() -> int:
    start = time.perf_counter()
    bad = 0
    rows = [NULL, *MUTANTS]
    for file, old, new, tests in rows:
        behaves, detail = run_row(file, old, new, tests)
        bad += not behaves
        label = "null mutant" if file is None else f"{file}: {old!r} -> {new!r}"
        verdict = ("passed" if file is None else "killed") if behaves else "WRONG"
        print(f"{verdict:7} {label} ({detail})", flush=True)
    print(f"{len(rows) - bad} of {len(rows)} rows behave in {time.perf_counter() - start:.0f} s")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
