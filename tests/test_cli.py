"""End-to-end command-line runs (in-process, via main())."""

import csv
import json
import math
import re
import tracemalloc

import pytest

import vortexlab.cli as cli
from vortexlab import solvers
from vortexlab.solvers import SolverError
from vortexlab.vortex_analysis import Rectangle, VortexMeasure


def _config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_cell_single_resolution(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "coefficient": {"kind": "constant", "value": 2.5},
        "resolution": 32,
    })
    assert cli.main(["cell", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "tensor:" in out
    payload = json.load(open(tmp_path / "tensor.json", encoding="utf-8"))
    assert payload["tensor"]["a11"] == pytest.approx(2.5, rel=1e-9)
    assert payload["tensor"]["a12"] == pytest.approx(0.0, abs=1e-12)


def test_cell_refinement_table(tmp_path):
    cfg = _config(tmp_path, {
        "coefficient": {"kind": "laminate", "alpha": 1.0, "beta": 4.0},
        "resolutions": [16, 32, 64],
    })
    assert cli.main(["cell", "--config", cfg, "--out", str(tmp_path)]) == 0
    payload = json.load(open(tmp_path / "tensor.json", encoding="utf-8"))
    assert len(payload["table"]) == 3
    assert set(payload["orders"]) == {"a11", "a12", "a22"}
    assert "warning" in payload
    # laminate normal to e2: harmonic mean across, arithmetic along
    assert payload["tensor"]["a22"] == pytest.approx(1.6, rel=1e-9)
    assert payload["tensor"]["a11"] == pytest.approx(2.5, rel=1e-9)


def test_psi_with_explicit_tensor(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "tensor": {"a11": 1.0, "a22": 1.0},
        "ratios": [4.0, 8.0, 16.0],
        "z_values": [1, 2],
        "n_theta": 64,
    })
    assert cli.main(["psi", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "psi(1)" in out and "Psi(2)" in out
    payload = json.load(open(tmp_path / "psi.json", encoding="utf-8"))
    assert payload["psi"]["1"]["value"] == pytest.approx(2 * math.pi, rel=1e-9)
    assert payload["psi"]["2"]["value"] == pytest.approx(8 * math.pi, rel=1e-9)
    # quadratic cost: the relaxed cost of charge 2 is two unit vortices
    cap = payload["capital_psi"]["2"]
    assert cap["value"] == pytest.approx(4 * math.pi, rel=1e-9)
    assert cap["splitting"] == [1, 1]


def test_psi_bad_keys_exit_2(tmp_path, capsys):
    cases = (
        ({"z_value": [1], "tensor": {"a11": 1.0, "a22": 1.0}},
         "unknown key 'z_value' at top level"),
        ({"tensor": {"a11": 1.0}}, "missing key 'a22' at tensor"),
        ({"tensor": {"a11": 1.0, "a22": 1.0, "a21": 0.0}},
         "unknown key 'a21' at tensor"),
        ({"tensor": {"a11": "1", "a22": 1.0}}, "'a11' at tensor must be a number"),
        ({"tensor": {"a11": 1.0, "a12": 2.0, "a22": 1.0}}, "positive definite"),
        ({"tensor": {"a11": 1.0, "a22": 1.0}, "z_values": [0]}, "nonzero integers"),
        ({"tensor": {"a11": 1.0, "a22": 1.0}, "ratios": [10.0, 5.0, 20.0]},
         "increasing numbers"),
        # keys of another mode are not silently ignored
        ({"tensor": {"a11": 1.0, "a22": 1.0}, "cells_per_period": 8},
         "unknown key 'cells_per_period' at top level (tensor mode)"),
        ({"delta": 0.1, "coefficient": {"kind": "constant", "value": 1.0},
          "n_theta": 64}, "unknown key 'n_theta' at top level (oscillating mode)"),
        ({"delta": 0.1}, "missing key 'coefficient'"),
        ({"z_values": [1]}, "missing key 'coefficient'"),
    )
    for payload, message in cases:
        cfg = _config(tmp_path, payload)
        assert cli.main(["psi", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
        assert "Traceback" not in err


def test_psi_delta_too_fine_to_allocate_exits_2(tmp_path, capsys):
    # the grid used to be sized and then fail in numpy with a traceback
    # ("Maximum allowed size exceeded"); it is now refused before any array
    cfg = _config(tmp_path, {
        "coefficient": {"kind": "checkerboard", "alpha": 1.0, "beta": 4.0},
        "delta": 1e-300,
    })
    assert cli.main(["psi", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "delta = 1e-300" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_psi_delta_beyond_physical_memory_exits_2(tmp_path, capsys):
    # an indexable grid whose solve needs far more memory than any machine
    # has (tens of TiB): refused from the grid's size, before any array
    cfg = _config(tmp_path, {
        "coefficient": {"kind": "checkerboard", "alpha": 1.0, "beta": 4.0},
        "delta": 1e-5,
    })
    tracemalloc.start()
    try:
        assert cli.main(["psi", "--config", cfg, "--out", str(tmp_path)]) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    err = capsys.readouterr().err
    assert "config error" in err and "delta = 1e-05" in err
    assert "physical memory" in err
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def test_cell_too_small_resolution_exits_2(tmp_path, capsys):
    coeff = {"kind": "constant", "value": 1.0}
    cases = (
        ({"coefficient": coeff, "resolution": 8}, "'resolution' must be"),
        ({"coefficient": coeff, "resolution": 32.0}, "'resolution' must be"),
        ({"coefficient": coeff, "resolutions": [8, 16, 32]}, "'resolutions' must"),
        ({"coefficient": coeff, "resolutions": [32, 16]}, "'resolutions' must"),
        ({"coefficient": coeff, "resolution": 32, "resolutions": [16, 32]},
         "not both"),
        ({"coefficient": coeff, "resolutoin": 32}, "unknown key 'resolutoin'"),
    )
    for payload, message in cases:
        cfg = _config(tmp_path, payload)
        assert cli.main(["cell", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err


def test_cell_raster_with_an_infinite_sample_exits_2(tmp_path, capsys):
    raster = tmp_path / "raster.txt"
    raster.write_text("2\n1 inf\n2 3\n", encoding="utf-8")
    cfg = _config(tmp_path, {"coefficient": {"kind": "raster", "path": str(raster)},
                             "resolution": 32})
    assert cli.main(["cell", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "finite and positive" in err


def test_bad_domain_exits_2(tmp_path, capsys):
    base = {
        "coefficient": {"kind": "constant", "value": 1.0},
        "epsilon": 2.0**-4,
        "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
    }
    cases = (
        ({"origin": [0, 0]}, "missing key 'extent' at domain"),
        ({"origin": [0, 0], "extent": [1]}, "'extent' at domain must be a list"),
        ({"origin": [0, 0], "extent": [1, -1]}, "extent must be positive"),
    )
    for domain, message in cases:
        cfg = _config(tmp_path, {**base, "domain": domain})
        assert cli.main(["minimize", "--config", cfg,
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
    # flat reads its domain through the same check
    dom = Rectangle((0.0, 0.0), (1.0, 1.0))
    VortexMeasure((((0.5, 0.5), 1),), dom).to_csv(str(tmp_path / "a.csv"))
    cfg = _config(tmp_path, {"domain": {"origin": [0, 0]}}, name="flat.json")
    assert cli.main(["flat", str(tmp_path / "a.csv"), str(tmp_path / "a.csv"),
                     "--config", cfg]) == 2
    assert "missing key 'extent' at domain" in capsys.readouterr().err


def test_minimize_writes_artifacts(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "coefficient": {"kind": "constant", "value": 1.0},
        "epsilon": 2.0**-4,
        "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
        "max_iterations": 500,
    })
    assert cli.main(["minimize", "--config", cfg, "--out", str(tmp_path),
                     "--seed", "7"]) == 0
    report = json.load(open(tmp_path / "minimize.json", encoding="utf-8"))
    assert report["converged"] is True
    assert report["stop_reason"] in ("stalled", "rounding_floor", "zero_gradient")
    assert f"stop_reason={report['stop_reason']}" in capsys.readouterr().out
    assert report["final_energy"] < report["initial_energy"]
    assert len(report["vortices"]) == 1
    assert report["vortices"][0]["charge"] == 1
    with open(tmp_path / "trace.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == report["iterations"] + 1
    assert float(rows[-1]["energy"]) == pytest.approx(report["final_energy"],
                                                      rel=1e-9)
    back = VortexMeasure.from_csv(str(tmp_path / "vortices.csv"),
                                  Rectangle((0.0, 0.0), (1.0, 1.0)))
    assert len(back.atoms) == 1


def test_minimize_bad_vortex_entry_exits_2(tmp_path, capsys):
    cases = (
        ({"x": 0.5, "charge": 1}, "missing key 'y'"),
        ({"x": "a", "y": 0.5, "charge": 1}, "'x' at vortices[0] must be a number"),
        ({"x": 0.5, "y": 0.5}, "missing key 'charge'"),
    )
    for entry, message in cases:
        cfg = _config(tmp_path, {
            "coefficient": {"kind": "constant", "value": 1.0},
            "epsilon": 2.0**-4,
            "vortices": [entry],
        })
        assert cli.main(["minimize", "--config", cfg,
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err


def test_balls_csv_and_bad_family(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "balls": [
            {"x": 0.0, "y": 0.0, "radius": 0.1, "weight": 1},
            {"x": 1.0, "y": 0.0, "radius": 0.1, "weight": -2},
        ],
        "t_final": 10.0,
    })
    assert cli.main(["balls", "--config", cfg, "--out", str(tmp_path)]) == 0
    with open(tmp_path / "balls.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1
    assert rows[0]["weight"] == "-1"
    bad = _config(tmp_path, {
        "balls": [
            {"x": 0.0, "y": 0.0, "radius": 0.5, "weight": 1},
            {"x": 0.1, "y": 0.0, "radius": 0.5, "weight": 1},
        ],
    }, name="bad.json")
    assert cli.main(["balls", "--config", bad, "--out", str(tmp_path)]) == 2
    assert "config error" in capsys.readouterr().err


def test_minimize_strict_config_exits_2(tmp_path, capsys):
    base = {
        "coefficient": {"kind": "constant", "value": 1.0},
        "epsilon": 2.0**-4,
        "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
    }
    cases = (
        ({"max_iteration": 3}, "unknown key 'max_iteration' at top level"),
        ({"epsilon": "x"}, "'epsilon' at top level must be a number"),
        ({"epsilon": -0.1}, "'epsilon' at top level must be a finite number > 0"),
        ({"delta": 0}, "'delta' at top level must be a finite number > 0"),
        ({"cells_per_epsilon": 2}, "'cells_per_epsilon' must be an integer >= 4"),
        ({"cells_per_epsilon": 4.0}, "'cells_per_epsilon' must be an integer >= 4"),
        ({"s": 1.5}, "'s' must lie in (0,1)"),
        ({"s": "0.5"}, "'s' at top level must be a number"),
        ({"eta": 0.5}, "unknown key 'eta' at top level"),
        ({"relocate": "yes"}, "'relocate' must be true or false"),
        ({"max_iterations": 0}, "'max_iterations' must be an integer >= 1"),
        ({"max_iterations": "3"}, "'max_iterations' must be an integer >= 1"),
        ({"vortices": [{"x": 1.5, "y": 0.5, "charge": 1}]}, "outside the open domain"),
        ({"vortices": [{"x": 0.5, "y": 0.5, "charge": 1},
                       {"x": 0.52, "y": 0.5, "charge": -1}]}, "below 2*eps"),
    )
    for change, message in cases:
        cfg = _config(tmp_path, {**base, **change})
        assert cli.main(["minimize", "--config", cfg,
                         "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err
    for key in ("coefficient", "vortices"):
        cfg = _config(tmp_path, {k: v for k, v in base.items() if k != key})
        assert cli.main(["minimize", "--config", cfg,
                         "--out", str(tmp_path)]) == 2
        assert f"missing key '{key}' at top level" in capsys.readouterr().err


def test_balls_strict_config_exits_2(tmp_path, capsys):
    ball = {"x": 0.0, "y": 0.0, "radius": 0.1, "weight": 1}
    cases = (
        ({"balls": [ball], "t_fnal": 1.0}, "unknown key 't_fnal' at top level"),
        ({"balls": [ball], "t_final": "x"}, "'t_final' at top level must be a number"),
        ({"balls": [ball], "t_final": -1.0}, "'t_final' must be a finite number >= 0"),
        ({"t_final": 1.0}, "missing key 'balls' at top level"),
        ({"balls": []}, "'balls' must be a nonempty list"),
        ({"balls": [[0.0, 0.0, 0.1, 1]]}, "balls[0] must be an object"),
        ({"balls": [{**ball, "r": 0.1}]}, "unknown key 'r' at balls[0]"),
        ({"balls": [{"x": 0.0, "y": 0.0, "weight": 1}]},
         "missing key 'radius' at balls[0]"),
        ({"balls": [{**ball, "x": "a"}]}, "'x' at balls[0] must be a number"),
        ({"balls": [{**ball, "radius": 0.0}]},
         "'radius' at balls[0] must be a finite number > 0"),
        ({"balls": [{**ball, "weight": 1.0}]},
         "'weight' at balls[0] must be an integer"),
        ({"balls": [{**ball, "weight": "1"}]},
         "'weight' at balls[0] must be an integer"),
    )
    for payload, message in cases:
        cfg = _config(tmp_path, payload)
        assert cli.main(["balls", "--config", cfg, "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and message in err


@pytest.mark.parametrize("argv", [
    ["cell", "--threads", "2"],
    ["psi", "--seed", "1"],
    ["minimize", "--threads", "2"],
    ["balls", "--seed", "1"],
    ["flat", "a.csv", "b.csv", "--threads", "2"],
], ids=["cell-threads", "psi-seed", "minimize-threads", "balls-seed",
        "flat-threads"])
def test_flags_only_where_they_act(argv, tmp_path, capsys):
    # --threads is read by scaling only, --seed by minimize and scaling
    cfg = _config(tmp_path, {})
    with pytest.raises(SystemExit) as err:
        cli.main(argv + ["--config", cfg])
    assert err.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_scaling_study_end_to_end(tmp_path, capsys):
    cfg = _config(tmp_path, {
        "coefficient": {"kind": "constant", "value": 2.0},
        "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
        "regime": {"kind": "delta_proportional"},
        "epsilons": {"k_min": 4, "k_max": 5},
        "solver": {"tensor_resolution": 32},
    })
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "rel_gap" in out
    assert (tmp_path / "scaling.csv").exists()
    assert (tmp_path / "summary.json").exists()


def test_flat_between_csv_measures(tmp_path, capsys):
    dom = Rectangle((0.0, 0.0), (1.0, 1.0))
    VortexMeasure((((0.5, 0.5), 1),), dom).to_csv(str(tmp_path / "a.csv"))
    VortexMeasure((((0.6, 0.5), 1),), dom).to_csv(str(tmp_path / "b.csv"))
    assert cli.main(["flat", str(tmp_path / "a.csv"), str(tmp_path / "b.csv"),
                     "--out", str(tmp_path)]) == 0
    assert "flat distance" in capsys.readouterr().out
    payload = json.load(open(tmp_path / "flat.json", encoding="utf-8"))
    assert payload["value"] == pytest.approx(0.1, rel=1e-9)
    assert payload["plan"]


def test_config_errors_exit_2(tmp_path, capsys):
    broken = tmp_path / "broken.json"
    broken.write_text('{"coefficient": ', encoding="utf-8")
    assert cli.main(["cell", "--config", str(broken),
                     "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "line" in err
    unknown = _config(tmp_path, {"coefficient": {"kind": "perlin"}},
                      name="unknown.json")
    assert cli.main(["cell", "--config", unknown, "--out", str(tmp_path)]) == 2
    missing = str(tmp_path / "nope.json")
    assert cli.main(["cell", "--config", missing, "--out", str(tmp_path)]) == 2


def test_solver_failure_exits_3(tmp_path, capsys, monkeypatch):
    def explode(*args, **kwargs):
        raise SolverError("iteration budget exhausted")

    monkeypatch.setattr(cli, "homogenized_tensor", explode)
    cfg = _config(tmp_path, {
        "coefficient": {"kind": "constant", "value": 1.0},
        "resolution": 32,
    })
    assert cli.main(["cell", "--config", cfg, "--out", str(tmp_path)]) == 3
    assert "solver failure" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["x", True, None])
@pytest.mark.parametrize("section,key", [("regime", "factor"), ("solver", "rtol")])
def test_scaling_non_numeric_factor_and_rtol_exit_2(tmp_path, capsys, section,
                                                     key, value):
    data = {
        "coefficient": {"kind": "constant", "value": 1.0},
        "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
        "regime": {"kind": "delta_proportional"},
        "epsilons": {"k_min": 4, "k_max": 4},
        "solver": {"tensor_resolution": 32},
    }
    data[section][key] = value
    cfg = _config(tmp_path, data)
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and f"'{key}'" in err


@pytest.mark.parametrize("coefficient,message", [
    ({"kind": "checkerboard", "alpha": math.nan, "beta": 4.0},
     "'alpha' at coefficient must be a finite number, got nan"),
    # an infinite phase used to stall the cell corrector (exit 3)
    ({"kind": "checkerboard", "alpha": 1.0, "beta": math.inf},
     "'beta' at coefficient must be a finite number, got inf"),
    ({"kind": "smooth", "c0": "x"}, "'c0' at coefficient must be a number"),
    ({"kind": "laminate", "alpha": 1.0, "beta": 4.0, "fraction": 2.0},
     r"coefficient: fraction must lie in \(0, 1\)"),
])
def test_scaling_bad_coefficient_numbers_exit_2(tmp_path, capsys, coefficient,
                                                message):
    cfg = _config(tmp_path, {
        "coefficient": coefficient,
        "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
        "regime": {"kind": "delta_proportional"},
        "epsilons": {"k_min": 4, "k_max": 4},
        "solver": {"tensor_resolution": 32},
    })
    assert cli.main(["scaling", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "config error" in err and "Traceback" not in err
    assert re.search(message, err)


def test_scaling_csv_identical_across_threads_at_threaded_size(tmp_path,
                                                               monkeypatch):
    # the finest row is 512^2, so the row pool runs nested over the
    # solver's threaded transforms and elementwise work
    monkeypatch.setattr(solvers, "_WORKERS", 2)
    assert 512 * 512 >= solvers._THREADED_MIN_SIZE
    cfg = _config(tmp_path, {
        "coefficient": {"kind": "checkerboard", "alpha": 1.0, "beta": 4.0},
        "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
        "regime": {"kind": "delta_proportional"},
        "epsilons": {"k_min": 5, "k_max": 7},
        "solver": {"tensor_resolution": 32},
    })
    outputs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        assert cli.main(["scaling", "--config", cfg, "--out", str(out),
                         "--threads", threads]) == 0
        outputs.append((out / "scaling.csv").read_bytes())
    assert outputs[0].count(b"\n") == 4
    assert outputs[0] == outputs[1]
