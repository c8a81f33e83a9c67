"""README documents the surface the package exports: the config's solve
options are the fields of SolveOptions, a report's history records have the
fields of HistoryRecord, every name of varcurves.__all__ is named in README,
and the solver paragraphs state the memory, line-search, noise-phase and
polar-step constants."""

import dataclasses
import re
from pathlib import Path

import pytest

import varcurves
from varcurves import SolveOptions, manifolds, optimize

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _schema_bullet(key: str) -> str:
    """The config-schema bullet of key, up to the next bullet or heading."""
    start = README.index(f"\n* `{key}`:") + 1
    end = re.search(r"\n(\* |#)", README[start:])
    return README[start:start + end.start()]


def test_readme_solve_bullet_names_exactly_the_solve_options():
    named = set(re.findall(r"`(\w+)`", _schema_bullet("solve"))) - {"solve"}
    assert named == {f.name for f in dataclasses.fields(SolveOptions)}


def test_readme_report_sentence_names_exactly_the_history_fields():
    text = " ".join(README.split())
    sentence = re.search(r"Each record of the history in `report\.json` has the "
                         r"fields ([^.]*)\.", text).group(1)
    named = re.findall(r"`(\w+)`", sentence)
    assert named == [f.name for f in dataclasses.fields(optimize.HistoryRecord)]


def test_readme_names_every_export():
    missing = [name for name in varcurves.__all__ if f"`{name}`" not in README]
    assert not missing, f"README does not name {missing}"


def test_readme_memory_sentence_matches_the_solver_constants():
    from varcurves.optimize import CURVATURE_TOL, LBFGS_MEMORY

    text = " ".join(README.split())
    memory = re.findall(r"holds the last (\d+) accepted pairs", text)
    tol = re.findall(r"`y\.s > ([0-9.e+-]+) \|y\| \|s\|`", text)
    assert [int(k) for k in memory] == [LBFGS_MEMORY]
    assert [float(t) for t in tol] == [CURVATURE_TOL]


_NUM = r"(2\^-?\d+|\d(?:[0-9.e+-]*\d)?)"   # 2^-5, 100, 0.9, 1e-14

# constant name: (its module, the README phrase that quotes it)
_QUOTED = {
    "INITIAL_STEP": (optimize, rf"a first trial step of {_NUM} \(`INITIAL_STEP`"),
    "BACKTRACK": (optimize, rf"`BACKTRACK = {_NUM}`"),
    "ARMIJO_C1": (optimize, rf"`ARMIJO_C1 = {_NUM}`"),
    "STEP_FLOOR": (optimize, rf"`STEP_FLOOR = {_NUM}`"),
    "NOISE_K": (optimize, rf"`{_NUM} \* eps \* \|objective\|`"),
    "NOISE_GRAD_DROP": (optimize, rf"below {_NUM} times the current one"),
    "NOISE_TRIALS": (optimize, rf"`NOISE_TRIALS = {_NUM}`"),
    "POLAR_STEP_TOL": (manifolds, rf"`POLAR_STEP_TOL = {_NUM}`"),
    "REBUILD_DIST": (optimize, rf"`REBUILD_DIST = {_NUM}`"),
}


@pytest.mark.parametrize("name", sorted(_QUOTED))
def test_readme_line_search_constants_match_the_solver(name):
    module, pattern = _QUOTED[name]
    text = " ".join(README.split())
    quoted = [2.0 ** int(v[2:]) if v.startswith("2^") else float(v)
              for v in re.findall(pattern, text)]
    assert quoted, f"README does not quote {name}"
    assert all(v == getattr(module, name) for v in quoted), (name, quoted)
