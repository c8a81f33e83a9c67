import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import varcurves
from varcurves import (ConfigError, FunctionalSpec, el_residual, evaluate, free_mask,
                       length, load_curve, minimize, seed)
from varcurves.cli import main
from varcurves.config import parse_config
from varcurves.constraints import zero_hint

HERMITE_CFG = {
    "manifold": "euclidean:1",
    "grid_n": 200,
    "functional": {"kind": "tension", "tau": 0.0},
    "constraints": {"kind": "clamped", "k": 2,
                    "left": {"position": [0.0], "velocity": [0.0]},
                    "right": {"position": [1.0], "velocity": [0.0]}},
}

CIRCLE_CFG = {
    "manifold": "torus:1",
    "grid_n": 100,
    "functional": {"kind": "tension", "tau": 1.0},
    "constraints": {"kind": "interpolation",
                    "knots": [{"t": 0.0, "position": [0.0]},
                              {"t": 1.0, "position": [np.pi / 2]}]},
}


def write_cfg(tmp_path, cfg, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def test_solve_writes_report_and_curve(tmp_path):
    cfg = write_cfg(tmp_path, HERMITE_CFG)
    out = tmp_path / "out"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "converged"
    assert abs(report["final_objective"] - 6.0) / 6.0 <= 0.01
    curve = load_curve(out / "minimizer.curve")
    assert curve.n_samples == 201


def test_solve_stalled_at_roundoff_floor_exits_2(tmp_path):
    # at N=1000 this circle problem's certificate floor lies above 1e-6
    cfg = dict(CIRCLE_CFG, grid_n=1000)
    cfg["constraints"] = {"kind": "interpolation",
                          "knots": [{"t": k / 4, "position": [p]}
                                    for k, p in enumerate((4.28, 5.07, 4.62, 5.43, 4.54))]}
    out = tmp_path / "out"
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 2
    report = json.loads((out / "report.json").read_text())
    assert (report["verdict"], report["message"]) == ("iter_limit",
                                                      "stalled at the roundoff floor")
    phases = [h["phase"] for h in report["history"]]
    assert phases[0] is None and set(phases[1:]) <= {"armijo", "noise"}


def test_solve_off_grid_knot_exit_code(tmp_path, capsys):
    cfg = dict(CIRCLE_CFG)
    cfg["constraints"] = {"kind": "interpolation",
                          "knots": [{"t": 0.0, "position": [0.0]},
                                    {"t": 0.333, "position": [1.0]},
                                    {"t": 1.0, "position": [2.0]}]}
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "knot time not on grid" in capsys.readouterr().err


def test_solve_knots_on_one_sample_exit_code(tmp_path, capsys):
    cfg = dict(HERMITE_CFG, grid_n=10)
    cfg["constraints"] = {"kind": "interpolation",
                          "knots": [{"t": 0.0, "position": [0.0]},
                                    {"t": 0.5, "position": [1.0]},
                                    {"t": 0.5 + 1e-10, "position": [5.0]},
                                    {"t": 1.0, "position": [2.0]}]}
    with pytest.raises(ConfigError, match="snap to the same grid sample 5"):
        parse_config(cfg)
    out = tmp_path / "o"
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    assert "snap to the same grid sample 5" in capsys.readouterr().err
    assert not out.exists()


def test_solve_nan_knot_exit_code(tmp_path, capsys):
    cfg = dict(HERMITE_CFG)
    cfg["constraints"] = {"kind": "interpolation",
                          "knots": [{"t": 0.0, "position": [0.0]},
                                    {"t": 0.5, "position": [float("nan")]},
                                    {"t": 1.0, "position": [1.0]}]}
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 1
    assert "knot_points must be finite" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# 5 knots at t = k/4 on a grid of N = 4: every sample is fixed
ALL_FIXED_CFG = {
    "manifold": "euclidean:1",
    "grid_n": 4,
    "functional": {"kind": "tension", "tau": 1.0},
    "constraints": {"kind": "interpolation",
                    "knots": [{"t": k / 4, "position": [float(k * k)]}
                              for k in range(5)]},
}


def test_solve_no_free_samples(tmp_path):
    path = write_cfg(tmp_path, ALL_FIXED_CFG)
    out = tmp_path / "o"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["verdict"] == "converged"
    assert report["iterations"] == 0
    assert report["final_residual"] == 0.0
    assert np.array_equal(load_curve(out / "minimizer.curve").samples[:, 0],
                          [0.0, 1.0, 4.0, 9.0, 16.0])


def test_sweep_no_free_samples(tmp_path):
    path = write_cfg(tmp_path, ALL_FIXED_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values", "0,1", "--out", str(out)]) == 0
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    assert [r.split(",")[3:] for r in rows] == [["0", "0", "converged"]] * 2


@pytest.mark.parametrize("routine", ["dpbtrf", "dpbtrs"])
def test_failed_lapack_call_exits_1_with_a_message(tmp_path, capsys, monkeypatch, routine):
    from varcurves import optimize

    def failing(*arrays, lower):
        return arrays[-1], 1

    monkeypatch.setattr(optimize.lapack, routine, failing)
    path = write_cfg(tmp_path, HERMITE_CFG)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert f"LAPACK {routine} failed on the flat model (info=1)" in err
    assert "Traceback" not in err


def test_solve_zero_budget_exit_code(tmp_path):
    cfg = dict(HERMITE_CFG)
    cfg["solve"] = {"max_iters": 0}
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 2


def test_solve_unknown_key_rejected(tmp_path):
    cfg = dict(HERMITE_CFG)
    cfg["misc"] = 1
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1


@pytest.mark.parametrize("key,value", [("record_every", 0), ("armijo_c1", "x"),
                                       ("step_floor", 0), ("initial_step", float("inf")),
                                       ("backtrack", 0.5), ("max_iters", -1),
                                       ("grad_tol", float("nan"))])
def test_bad_solve_option_is_config_error(key, value):
    # parsed without solving; the line-search settings are constants of the
    # solver, so a config that sets one names an unknown option
    with pytest.raises(ConfigError, match=key):
        parse_config(dict(HERMITE_CFG, solve={key: value}))


def test_solve_bad_record_every_exit_code(tmp_path, capsys):
    path = write_cfg(tmp_path, dict(HERMITE_CFG, solve={"record_every": 0}))
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    assert "unknown solve options: ['record_every']" in capsys.readouterr().err


def _with(cfg, path, value):
    """A copy of cfg with the entry at the key path set to value."""
    out = json.loads(json.dumps(cfg))
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


@pytest.mark.parametrize("path,value,key", [
    (("functional", "tau"), float("nan"), "tau"),
    (("functional", "tau"), float("inf"), "tau"),
    (("functional", "tau"), 1e300, "tau"),        # tau**2 overflows
    (("functional", "tau"), "x", "tau"),
    (("functional", "tau"), None, "tau"),
    (("functional",), {"kind": "conditional", "k": "two"}, "k"),
    (("functional",), {"kind": "conditional", "k": 2, "field": "zero"}, "field"),
    (("functional",), {"kind": "conditional", "k": 2,
                       "field": {"kind": "constant_ambient", "params": "x"}}, "params"),
    (("constraints", "knots", 1, "t"), "a", "'t'"),
    (("constraints", "knots", 1, "position"), ["a"], "knot_points"),
    (("constraints", "knots"), [{"t": 0.0, "position": 0.0},
                                {"t": 1.0, "position": 1.0}], "knot_points"),
    (("constraints", "knots"), [{"t": 0.0, "position": [[0.0]]},
                                {"t": 1.0, "position": [[1.0]]}], "knot_points"),
    (("winding_hint",), "abc", "winding_hint"),
    (("winding_hint",), 1e30, "winding hints"),   # beyond int64
    (("grid_n",), 16.7, "grid_n"),
    (("winding_hint",), 0.5, "winding hints"),    # fails only at seeding
    (("winding_hints",), [0, 0.5], "winding hints"),   # multistart seeding
    (("functional",), {"kind": "conditional", "k": 2,
                       "field": {"kind": "torus_constant", "params": [float("nan")]}},
     "field params must be finite"),
    (("functional",), {"kind": "conditional", "k": 2,
                       "field": {"kind": "torus_constant", "params": [1.0],
                                 "modulation": [1.0] * 100 + [float("inf")]}},
     "field modulation must be finite"),
    (("functional",), {"kind": "conditional", "k": 2,
                       "field": {"kind": "torus_constant", "params": [1.0],
                                 "modulation": [[1.0]] * 101}}, "modulation"),
    (("functional",), {"kind": "conditional", "k": 2,
                       "field": {"kind": "torus_constant", "params": [1.0],
                                 "modulation": 2.0}}, "modulation"),
    (("functional",), {"kind": "conditional", "k": 2,
                       "field": {"kind": "torus_constant", "params": [1.0],
                                 "modulation": []}}, "field modulation needs at least 2"),
    (("functional",), {"kind": "conditional", "k": 2,
                       "field": {"kind": "torus_constant", "params": [1.0],
                                 "modulation": [0.5]}}, "field modulation needs at least 2"),
    (("domain",), "sphere", "domain"),
    (("domain",), "circle", "domain"),            # interpolation needs an interval
    (("grid_n",), 3, "grid_n"),
    (("winding_hints",), [], "winding_hints"),
    (("winding_hints",), 1, "winding_hints"),
    (("winding_hint",), [[0], [0, 1]], "winding_hint"),   # ragged
    (("winding_hint",), [0, 1], "winding hint"),  # torus:1 takes one integer
    (("solve",), [1], "solve"),
    (("constraints",), [], "constraints"),
    (("constraints",), {"knots": []}, "'kind'"),
    (("constraints", "kind"), "bogus", "constraint kind"),
    (("constraints",), {"kind": "clamped", "k": 3, "left": {"position": [0.0]},
                        "right": {"position": [1.0]}}, "k in {1, 2}"),
    (("constraints",), {"kind": "clamped", "k": "two", "left": {"position": [0.0]},
                        "right": {"position": [1.0]}}, "constraints k"),
    (("constraints",), {"kind": "clamped", "left": [0.0],
                        "right": {"position": [1.0]}}, "'left' and 'right'"),
    (("constraints",), {"kind": "clamped", "left": {},
                        "right": {"position": [1.0]}}, "left and right positions"),
    (("constraints", "knots"), "x", "'knots'"),
    (("constraints", "knots"), [{"t": 0.0, "position": [0.0]}], "knots"),
    (("constraints", "knots", 1), {"t": 1.0}, "'position'"),
    (("constraints", "knots", 1, "t"), 0.0, "knot times must be distinct"),
    (("constraints", "knots"), [{"t": 1.0, "position": [0.0]},
                                {"t": 0.0, "position": [1.0]}], "knot times must be increasing"),
    (("constraints", "knots", 1, "t"), 1.5, "knot times must lie in [0, 1]"),
], ids=["tau-nan", "tau-inf", "tau-1e300", "tau-str", "tau-null", "k-str", "field-str",
        "field-params-str", "knot-t-str", "knot-position-str", "knot-position-scalar",
        "knot-position-nested", "winding_hint-str", "winding_hint-huge",
        "grid_n-float", "winding_hint-half", "winding_hints-half", "field-params-nan",
        "field-modulation-inf", "field-modulation-nested", "field-modulation-scalar",
        "field-modulation-empty", "field-modulation-one-entry", "domain-unknown",
        "domain-circle-knots", "grid_n-small", "winding_hints-empty", "winding_hints-int",
        "winding_hint-ragged", "winding_hint-torus-width", "solve-list",
        "constraints-list", "constraints-no-kind", "constraints-kind-unknown",
        "clamped-k-3", "clamped-k-str", "clamped-left-list", "clamped-no-position",
        "knots-str", "knots-one", "knot-no-position", "knot-times-equal",
        "knot-times-decreasing", "knot-time-beyond-1"])
def test_bad_config_value_is_config_error(tmp_path, capsys, path, value, key):
    cfg = write_cfg(tmp_path, _with(CIRCLE_CFG, path, value))
    out = tmp_path / "o"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("text,key", [
    ("[1, 2]", "JSON object"),
    ("{", "not valid JSON"),
    (json.dumps({k: v for k, v in CIRCLE_CFG.items() if k != "grid_n"}), "'grid_n'"),
    (json.dumps(dict(CIRCLE_CFG, winding_hint=0, winding_hints=[0, 1])),
     "either winding_hint or winding_hints"),
    (json.dumps(dict(CIRCLE_CFG, manifold="euclidean:1", winding_hint=[0, 1])),
     "winding hint must be a single integer"),
    (None, "cannot read config"),
], ids=["list", "truncated", "no-grid_n", "both-hint-keys", "euclidean-hint-width",
        "missing-file"])
def test_bad_config_file_is_config_error(tmp_path, capsys, text, key):
    # whole files that no single-entry edit of a valid config makes
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err
    assert not out.exists()


@pytest.mark.parametrize("domain", ["interval", "circle"])
def test_modulation_has_one_entry_per_grid_time(domain):
    # grid_n + 1 entries on both domains, though a closed curve has grid_n
    # samples; any other length is a config error that names the key
    n = 40
    cfg = dict(CIRCLE_CFG, grid_n=n, domain=domain)
    if domain == "circle":
        cfg["constraints"] = {"kind": "periodic"}
    for length in (0, 1, n - 1, n, n + 1, 2 * n + 1):
        field = {"kind": "torus_constant", "params": [1.0], "modulation": [0.5] * length}
        cfg["functional"] = {"kind": "conditional", "k": 2, "field": field}
        if length == n + 1:
            assert len(parse_config(cfg).spec.field.modulation) == n + 1
        else:
            with pytest.raises(ConfigError, match="modulation"):
                parse_config(cfg)


def test_non_utf8_config_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(b"\xff\xfe" + json.dumps(CIRCLE_CFG).encode("utf-16-le"))
    out = tmp_path / "o"
    assert main(["solve", "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("config error:")
    assert not out.exists()


@pytest.mark.parametrize("hints", [{"winding_hint": 0.5}, {"winding_hints": [0, 0.5]}])
def test_seed_bad_winding_hint_leaves_no_out_dir(tmp_path, capsys, hints):
    cfg = write_cfg(tmp_path, dict(CIRCLE_CFG, **hints))
    out = tmp_path / "o"
    assert main(["seed", "--config", cfg, "--out", str(out)]) == 1
    assert "winding hints must be integers" in capsys.readouterr().err
    assert not out.exists()


def test_sweep_non_finite_tau_rows_fail(tmp_path):
    path = write_cfg(tmp_path, CIRCLE_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values=nan,inf,1e300,1", "--out", str(out)]) == 2
    rows = [ln.split(",", 5) for ln in
            (out / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert [r[0] for r in rows] == ["nan", "inf", "1.0000000000000001e+300", "1"]
    assert all(r[5].startswith("failed: tau must be finite") for r in rows[:3])
    assert rows[3][5] == "converged"


@pytest.mark.parametrize("extra", [["--values", "1", "--jobs", "2"],  # unknown flag
                                   [],                                # missing --values
                                   ["--values", "1,a"]])              # not a number
def test_usage_error_exit_code(tmp_path, extra):
    path = write_cfg(tmp_path, CIRCLE_CFG)
    assert main(["sweep", "--config", path, "--param", "tau", *extra,
                 "--out", str(tmp_path / "sw")]) == 1


def test_help_exit_code(capsys):
    assert main(["--help"]) == 0
    assert "usage" in capsys.readouterr().out


def test_module_entry_point_runs_without_install():
    # `python -m varcurves` finds the package on PYTHONPATH alone
    src = str(Path(varcurves.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    run = subprocess.run([sys.executable, "-m", "varcurves", "--help"], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0
    assert "usage: varcurves" in run.stdout


def test_multistart_solve(tmp_path):
    cfg = dict(CIRCLE_CFG)
    cfg["winding_hints"] = [[-1], [0], [1]]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "ms"
    assert main(["solve", "--config", path, "--out", str(out)]) == 0
    data = json.loads((out / "multistart.json").read_text())
    assert data["n_clusters"] == 3
    assert sorted(p.name for p in out.glob("minimizer_*.curve")) == [
        "minimizer_w=-1.curve", "minimizer_w=0.curve", "minimizer_w=1.curve"]


def test_s2_arc_multistart_writes_strict_json(tmp_path):
    # the wrapped arcs of hints -1 and 1 pass the antipodes of the samples of
    # hint 0, where no parallel transport is defined; the projected
    # derivative fields keep every h2_distance finite
    cfg = {"manifold": "sphere:2", "grid_n": 200,
           "functional": {"kind": "tension", "tau": 8.0},
           "constraints": {"kind": "interpolation", "knots": [
               {"t": 0.0, "position": [1.0, 0.0, 0.0]},
               {"t": 1.0, "position": [np.cos(1.0), np.sin(1.0), 0.0]}]},
           "winding_hints": [0, -1, 1]}
    out = tmp_path / "ms"
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0

    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    data = json.loads((out / "multistart.json").read_text(), parse_constant=refuse)
    h2 = np.array(data["h2_distance"], float)
    assert h2.shape == (3, 3) and np.all(np.isfinite(h2))
    assert np.all(h2[np.triu_indices(3, 1)] > 0)


def test_one_winding_hint_in_a_list_runs_one_solve(tmp_path):
    # multistart needs two or more hints; one hint in winding_hints is a plain solve
    assert parse_config(dict(CIRCLE_CFG, winding_hints=[[0], [1]])).multistart
    cfg = dict(CIRCLE_CFG, winding_hints=[[1]])
    assert not parse_config(cfg).multistart
    out = tmp_path / "one"
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["minimizer.curve", "report.json"]
    single = tmp_path / "single"
    cfg = write_cfg(tmp_path, dict(CIRCLE_CFG, winding_hint=[1]), "single.json")
    assert main(["solve", "--config", cfg, "--out", str(single)]) == 0
    assert (out / "report.json").read_bytes() == (single / "report.json").read_bytes()


def test_solve_outputs_deterministic(tmp_path):
    cfg = write_cfg(tmp_path, HERMITE_CFG)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["solve", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["solve", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "report.json").read_bytes() == (out2 / "report.json").read_bytes()
    assert (out1 / "minimizer.curve").read_bytes() == (out2 / "minimizer.curve").read_bytes()


def test_sweep_tau(tmp_path):
    path = write_cfg(tmp_path, CIRCLE_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values", "0.5,1,2", "--out", str(out)]) == 0
    lines = (out / "sweep.csv").read_text().strip().splitlines()
    assert lines[0] == "value,objective,length,residual,iterations,verdict"
    assert len(lines) == 4
    for line, tau in zip(lines[1:], (0.5, 1.0, 2.0)):
        cells = line.split(",")
        target = 0.5 * tau**2 * (np.pi / 2) ** 2
        assert abs(float(cells[1]) - target) / target <= 0.01
        assert cells[5] == "converged"


def test_sweep_winding_evaluate_only(tmp_path):
    cfg = {
        "manifold": "sphere:2",
        "grid_n": 400,
        "functional": {"kind": "tension", "tau": 0.0},
        "constraints": {"kind": "clamped", "k": 1,
                        "left": {"position": [1.0, 0.0, 0.0]},
                        "right": {"position": [0.0, 1.0, 0.0]}},
    }
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--param", "winding",
                 "--values", "0,1,2,3", "--evaluate-only", "--out", str(out)]) == 0
    rows = [ln.split(",") for ln in
            (out / "sweep.csv").read_text().strip().splitlines()[1:]]
    objectives = [float(r[1]) for r in rows]
    lengths = [float(r[2]) for r in rows]
    assert max(objectives) <= 1e-2
    for a, b in zip(lengths, lengths[1:]):
        assert b - a >= 2 * np.pi - 1e-9
    assert all(r[5] == "evaluated" for r in rows)


KINKED_SPHERE_CFG = {
    "manifold": "sphere:2",
    "grid_n": 64,
    "functional": {"kind": "tension", "tau": 0.0},
    "constraints": {"kind": "interpolation",
                    "knots": [{"t": 0.0, "position": [1.0, 0.0, 0.0]},
                              {"t": 0.5, "position": [0.0, 1.0, 0.0]},
                              {"t": 1.0, "position": [0.0, 0.0, 1.0]}]},
}


def test_sweep_evaluate_only_cells_are_the_seed_values(tmp_path):
    # the seed's kink at the middle knot gives it a non-zero residual
    path = write_cfg(tmp_path, KINKED_SPHERE_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values", "0,0.5", "--evaluate-only", "--out", str(out)]) == 0
    cfg = parse_config(KINKED_SPHERE_CFG)
    x0 = seed(cfg.constraint, cfg.manifold, cfg.n_grid, cfg.domain)
    free = free_mask(cfg.constraint, cfg.n_grid, cfg.domain)
    rows = (out / "sweep.csv").read_text().strip().splitlines()[1:]
    for row, tau in zip(rows, (0.0, 0.5)):
        spec = FunctionalSpec.tension_cost(tau)
        residual = el_residual(spec, x0, free)
        assert residual > 1.0
        want = [f"{v:.17g}" for v in (tau, evaluate(spec, x0), length(x0), residual)]
        assert row.split(",") == want + ["0", "evaluated"]


def test_cut_locus_seed_exits_1_with_a_message(tmp_path, capsys):
    cfg = dict(KINKED_SPHERE_CFG, constraints={
        "kind": "clamped", "k": 1,
        "left": {"position": [1.0, 0.0, 0.0]}, "right": {"position": [-1.0, 0.0, 0.0]}})
    path = write_cfg(tmp_path, cfg)
    assert main(["solve", "--config", path, "--out", str(tmp_path / "o")]) == 1
    err = capsys.readouterr().err
    assert "antipodal" in err and "Traceback" not in err
    assert not (tmp_path / "o").exists()


ANTIPODAL_SPHERE_CFG = dict(KINKED_SPHERE_CFG, constraints={
    "kind": "clamped", "k": 1,
    "left": {"position": [1.0, 0.0, 0.0]}, "right": {"position": [-1.0, 0.0, 0.0]}})


def _sweep_rows(out):
    return [ln.split(",", 5) for ln in (out / "sweep.csv").read_text().strip().splitlines()[1:]]


def test_tau_sweep_with_a_cut_locus_seed_fails_every_row(tmp_path, capsys):
    # solve and seed exit 1 on such a seed; a sweep records it in each row
    path = write_cfg(tmp_path, ANTIPODAL_SPHERE_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values=0.5,1,2", "--out", str(out)]) == 2
    rows = _sweep_rows(out)
    assert [r[0] for r in rows] == ["0.5", "1", "2"]
    assert all(r[5].startswith("failed: sphere log: points are (nearly) antipodal")
               and r[4] == "0" for r in rows)
    assert "Traceback" not in capsys.readouterr().err


def test_tau_sweep_checks_tau_before_the_seed(tmp_path):
    # a row's tau is checked first, so a bad tau names itself even where the
    # seed would fail too
    path = write_cfg(tmp_path, ANTIPODAL_SPHERE_CFG)
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values=nan,1", "--out", str(out)]) == 2
    rows = _sweep_rows(out)
    assert rows[0][5].startswith("failed: tau must be finite")
    assert rows[1][5].startswith("failed: sphere log: points are (nearly) antipodal")


@pytest.mark.parametrize("evaluate_only", [False, True])
def test_tau_sweep_seeds_once(tmp_path, monkeypatch, evaluate_only):
    # the seed does not depend on tau; it is built once, at the first row
    # with an accepted tau, and rows that restart the chain reuse it
    calls = []
    monkeypatch.setattr(varcurves.cli, "seed",
                        lambda *a, **k: calls.append(a) or varcurves.seed(*a, **k))
    path = write_cfg(tmp_path, CIRCLE_CFG)
    out = tmp_path / "sw"
    args = ["sweep", "--config", path, "--param", "tau", "--values=0.5,nan,1,2",
            "--out", str(out)] + ["--evaluate-only"] * evaluate_only
    assert main(args) == 2
    assert len(calls) == 1
    rows = _sweep_rows(out)
    assert rows[1][5].startswith("failed: tau must be finite")
    assert {r[5] for r in rows[:1] + rows[2:]} == {"evaluated" if evaluate_only else "converged"}


def _seeded_row(raw_cfg, param, value):
    """The sweep.csv cells of a standalone minimize from the seed of one row."""
    cfg = parse_config(raw_cfg)
    spec, hint = cfg.spec, None
    if param == "tau":
        spec = replace(spec, tau=float(value))
    else:
        hint = zero_hint(cfg.manifold)
        hint[0] = int(value)
    x0 = seed(cfg.constraint, cfg.manifold, cfg.n_grid, cfg.domain, hint)
    r = minimize(spec, cfg.constraint, x0, cfg.options)
    return [f"{v:.17g}" for v in (value, r.final_objective, r.history[-1].length,
                                  r.final_residual)] + [str(r.iterations), r.verdict]


def _sweep(tmp_path, raw_cfg, param, values, name):
    """The exit code of a sweep and its output directory."""
    out = tmp_path / name
    code = main(["sweep", "--config", write_cfg(tmp_path, raw_cfg, name + ".json"),
                 "--param", param, f"--values={values}", "--out", str(out)])
    return code, out


def test_tau_sweep_restarts_the_chain_after_a_failed_row(tmp_path):
    # the row after a failed row starts from the seed, as a standalone solve does
    code, out = _sweep(tmp_path, KINKED_SPHERE_CFG, "tau", "0.5,nan,1,2", "sw")
    assert code == 2
    rows = _sweep_rows(out)
    assert rows[0][5] == rows[3][5] == "converged"
    assert rows[1][5].startswith("failed: tau must be finite")
    assert [rows[0], rows[2]] == [_seeded_row(KINKED_SPHERE_CFG, "tau", tau) for tau in (0.5, 1.0)]


def test_tau_sweep_restarts_the_chain_after_an_uncertified_row(tmp_path):
    raw = dict(KINKED_SPHERE_CFG, solve={"max_iters": 2})
    code, out = _sweep(tmp_path, raw, "tau", "0.5,1,2", "sw")
    assert code == 2
    rows = _sweep_rows(out)
    assert {r[5] for r in rows} == {"iter_limit"}
    assert rows == [_seeded_row(raw, "tau", tau) for tau in (0.5, 1.0, 2.0)]


def _unit(v):
    return (np.asarray(v, float) / np.linalg.norm(v)).tolist()


# five knots on S^2 at the grid size of the benchmark pools
SPHERE_N1000_CFG = {
    "manifold": "sphere:2",
    "grid_n": 1000,
    "functional": {"kind": "tension", "tau": 0.0},
    "constraints": {"kind": "interpolation", "knots": [
        {"t": t, "position": _unit(p)} for t, p in zip(
            (0.0, 0.25, 0.5, 0.75, 1.0),
            ([1, 0, 0.3], [0.5, 0.8, -0.2], [-0.3, 0.9, 0.4], [-0.8, 0.2, 0.6],
             [-0.6, -0.5, 0.1]))]},
}


def test_tau_sweep_follows_the_branch_on_s2(tmp_path):
    # each row starts from the certified minimizer of the row before it: it
    # lands on the minimizer the seed leads to, in fewer iterations in all
    taus = (0.5, 1.0, 2.0, 3.0)
    values = ",".join(map(str, taus))
    code, out = _sweep(tmp_path, SPHERE_N1000_CFG, "tau", values, "a")
    assert code == 0
    rows = _sweep_rows(out)
    seeded = [_seeded_row(SPHERE_N1000_CFG, "tau", tau) for tau in taus]
    assert {r[5] for r in rows + seeded} == {"converged"}
    for row, ref in zip(rows, seeded):
        assert abs(float(row[1]) - float(ref[1])) <= 1e-12 * float(ref[1])
    assert sum(int(r[4]) for r in rows) < sum(int(r[4]) for r in seeded)
    _, again = _sweep(tmp_path, SPHERE_N1000_CFG, "tau", values, "b")
    assert (out / "sweep.csv").read_bytes() == (again / "sweep.csv").read_bytes()


def test_winding_sweep_rows_are_seeded_solves(tmp_path):
    code, out = _sweep(tmp_path, CIRCLE_CFG, "winding", "0,1,2", "sw")
    assert code == 0
    rows = _sweep_rows(out)
    assert {r[5] for r in rows} == {"converged"}
    assert rows == [_seeded_row(CIRCLE_CFG, "winding", w) for w in (0, 1, 2)]


@pytest.mark.parametrize("functional", [{"kind": "energy", "k": 2},
                                        {"kind": "conditional", "k": 2}],
                         ids=["energy", "conditional"])
def test_tau_sweep_needs_a_tension_functional(tmp_path, capsys, functional):
    path = write_cfg(tmp_path, dict(CIRCLE_CFG, functional=functional))
    out = tmp_path / "sw"
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values", "1,2", "--out", str(out)]) == 1
    assert "config error: tau sweeps need a tension functional" in capsys.readouterr().err
    assert not out.exists()


def test_clamped_k2_without_a_velocity_is_config_error(tmp_path, capsys):
    cfg = _with(HERMITE_CFG, ("constraints", "right"), {"position": [1.0]})
    out = tmp_path / "o"
    assert main(["solve", "--config", write_cfg(tmp_path, cfg), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "config error: clamped k=2 needs velocities at both ends\n"
    assert not out.exists()


def test_sweep_empty_values_is_config_error(tmp_path):
    path = write_cfg(tmp_path, CIRCLE_CFG)
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values", "", "--out", str(tmp_path / "sw")]) == 1


def test_sweep_rows_follow_input_order(tmp_path):
    path = write_cfg(tmp_path, CIRCLE_CFG)
    out = tmp_path / "swp"
    assert main(["sweep", "--config", path, "--param", "tau",
                 "--values", "2,0.5,1", "--out", str(out)]) == 0
    values = [float(ln.split(",")[0]) for ln in
              (out / "sweep.csv").read_text().strip().splitlines()[1:]]
    assert values == [2.0, 0.5, 1.0]


def test_seed_subcommand(tmp_path):
    cfg = dict(CIRCLE_CFG)
    cfg["winding_hint"] = [1]
    path = write_cfg(tmp_path, cfg)
    out = tmp_path / "seed"
    assert main(["seed", "--config", path, "--out", str(out)]) == 0
    curve = load_curve(out / "seed_w=1.curve")
    lifted = (np.pi / 2 + 2 * np.pi) * curve.times
    assert np.allclose(curve.samples[:, 0], lifted % (2 * np.pi), atol=1e-10)


def test_check_oracle_suite(tmp_path, capsys):
    assert main(["check", "--suite", "oracle"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
