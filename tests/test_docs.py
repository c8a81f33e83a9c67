"""README documents the surface the package exports: the config's solve
options are the fields of SolveOptions, every name of varcurves.__all__ is
named in README, and the solver paragraph states the memory constants."""

import dataclasses
import re
from pathlib import Path

import varcurves
from varcurves import SolveOptions

README = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def _schema_bullet(key: str) -> str:
    """The config-schema bullet of key, up to the next bullet or heading."""
    start = README.index(f"\n* `{key}`:") + 1
    end = re.search(r"\n(\* |#)", README[start:])
    return README[start:start + end.start()]


def test_readme_solve_bullet_names_exactly_the_solve_options():
    named = set(re.findall(r"`(\w+)`", _schema_bullet("solve"))) - {"solve"}
    assert named == {f.name for f in dataclasses.fields(SolveOptions)}


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
