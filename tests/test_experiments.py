"""Config parsing, scaling studies, and deterministic report emission."""

import json
import math

import pytest

from vortexlab.experiments import (
    CSV_COLUMNS,
    ConfigError,
    ScalingRow,
    coefficient_from_spec,
    emit_report,
    parse_config,
    run_scaling_study,
)


def _write_config(tmp_path, text, name="study.json"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


MINIMAL = {
    "coefficient": {"kind": "constant", "value": 2.0},
    "vortices": [{"x": 0.5, "y": 0.5, "charge": 1}],
    "regime": {"kind": "delta_proportional"},
    "epsilons": {"k_min": 4, "k_max": 5},
}


def _minimal(tmp_path, **overrides):
    data = {**MINIMAL, **overrides}
    return _write_config(tmp_path, json.dumps(data))


# -- coefficient specs ----------------------------------------------------------------


def test_coefficient_from_spec_kinds():
    assert coefficient_from_spec({"kind": "constant", "value": 3.0}).kind == "constant"
    cb = coefficient_from_spec({"kind": "checkerboard", "alpha": 1.0, "beta": 4.0})
    assert cb.alpha == 1.0 and cb.beta == 4.0
    lam = coefficient_from_spec(
        {"kind": "laminate", "alpha": 1.0, "beta": 4.0, "direction": [1, 0]})
    assert lam.kind == "laminate"
    assert coefficient_from_spec({"kind": "smooth"}).kind == "smooth-trigonometric"


def test_coefficient_from_spec_rejects_unknowns():
    with pytest.raises(ConfigError, match="unknown key 'valeu' at coefficient"):
        coefficient_from_spec({"kind": "constant", "valeu": 3.0})
    with pytest.raises(ConfigError, match="unknown coefficient kind"):
        coefficient_from_spec({"kind": "perlin"})
    with pytest.raises(ConfigError, match="must be an object"):
        coefficient_from_spec("constant")
    with pytest.raises(ConfigError, match="must be a number"):
        coefficient_from_spec({"kind": "constant", "value": "two"})


# -- config files ---------------------------------------------------------------------


def test_parse_minimal_config_applies_defaults(tmp_path):
    config = parse_config(_minimal(tmp_path))
    assert config.channel == "core_radius"
    assert config.cells_per_epsilon == 4
    assert config.tensor_resolution == 256
    assert config.epsilons == (2.0**-4, 2.0**-5)
    assert config.domain.origin == (0.0, 0.0)
    echo = config.echo()
    assert echo["channel"] == "core_radius"
    assert echo["regime"] == {"kind": "delta_proportional", "parameter": 1.0}
    assert echo["vortices"] == [{"x": 0.5, "y": 0.5, "charge": 1}]


def test_parse_config_error_locations(tmp_path):
    with pytest.raises(ConfigError, match="line 1 column 9"):
        parse_config(_write_config(tmp_path, '{"bad": }'))
    with pytest.raises(ConfigError, match="unknown key 'chanel' at top level"):
        parse_config(_minimal(tmp_path, chanel="core_radius"))
    with pytest.raises(ConfigError, match="missing key 'regime'"):
        data = {k: v for k, v in MINIMAL.items() if k != "regime"}
        parse_config(_write_config(tmp_path, json.dumps(data)))
    with pytest.raises(ConfigError, match="cannot read config"):
        parse_config(str(tmp_path / "missing.json"))
    for solver in (5, None, "fast", [1]):
        with pytest.raises(ConfigError, match="solver must be an object"):
            parse_config(_minimal(tmp_path, solver=solver))
    for label in ({"a": 1}, 3, None):
        with pytest.raises(ConfigError, match="'label' must be a string"):
            parse_config(_minimal(tmp_path, label=label))
    assert parse_config(_minimal(tmp_path, label="run 1")).label == "run 1"


def test_parse_config_rejects_bad_schedules(tmp_path):
    with pytest.raises(ConfigError, match="strictly decreasing"):
        parse_config(_minimal(tmp_path, epsilons=[0.1, 0.1]))
    with pytest.raises(ConfigError, match=r"lie in \(0,1\)"):
        parse_config(_minimal(tmp_path, epsilons=[1.5, 0.1]))
    with pytest.raises(ConfigError, match="k_min > k_max"):
        parse_config(_minimal(tmp_path, epsilons={"k_min": 6, "k_max": 4}))
    with pytest.raises(ConfigError, match="must be an integer >= 1"):
        parse_config(_minimal(tmp_path, epsilons={"k_min": 0, "k_max": 4}))


def test_parse_config_rejects_bad_regimes_and_atoms(tmp_path):
    # the pinned-site regime approaches but never reaches the homogenized line
    with pytest.raises(ConfigError, match=r"lie in \[0,1\)"):
        parse_config(_minimal(
            tmp_path, regime={"kind": "power_law", "lambda": 1.0}))
    with pytest.raises(ConfigError, match="unknown regime kind"):
        parse_config(_minimal(tmp_path, regime={"kind": "geometric"}))
    with pytest.raises(ConfigError, match=r"'charge' at vortices\[0\]"):
        parse_config(_minimal(
            tmp_path, vortices=[{"x": 0.5, "y": 0.5, "charge": 0}]))
    with pytest.raises(ConfigError, match="vortices"):
        parse_config(_minimal(
            tmp_path, vortices=[{"x": 1.5, "y": 0.5, "charge": 1}]))
    with pytest.raises(ConfigError, match="unknown channel"):
        parse_config(_minimal(tmp_path, channel="dirichlet"))


# -- rows -----------------------------------------------------------------------------


def test_scaling_row_validation():
    with pytest.raises(ValueError, match="lambda"):
        ScalingRow(0.1, 0.1, 1.5, 1.0, 1.0, 1.0, 0.0)
    with pytest.raises(ValueError, match="positive"):
        ScalingRow(0.1, 0.1, 0.5, 1.0, 1.0, -1.0, 0.0)
    flagged = ScalingRow(0.1, 0.1, 0.5, math.nan, math.nan, -1.0, math.nan,
                         flag="SolverError: budget")
    assert flagged.flag


# -- studies --------------------------------------------------------------------------


def test_run_scaling_study_constant_coefficient(tmp_path):
    path = _minimal(tmp_path, solver={"tensor_resolution": 32},
                    epsilons={"k_min": 4, "k_max": 6})
    config = parse_config(path)
    result = run_scaling_study(config)
    rows = result.rows
    assert [r.epsilon for r in rows] == [2.0**-4, 2.0**-5, 2.0**-6]
    # delta = eps: lambda saturates at 1; constant a=2 predicts 4 pi both ways
    for row in rows:
        assert row.lambda_effective == 1.0
        assert row.predicted == pytest.approx(4.0 * math.pi, rel=1e-9)
        assert not row.flag
        assert row.rel_gap == pytest.approx(
            row.energy_per_log / row.predicted - 1.0)
    # the proxy energy stays below its 2 pi beta |log eps| ceiling
    for row in rows:
        assert row.energy <= 2.0 * 2.0 * math.pi * abs(math.log(row.epsilon))
    assert result.summary["tensor"]["a11"] == pytest.approx(2.0, rel=1e-9)
    assert result.summary["rows_flagged"] == 0
    assert result.summary["trend_slope"] is not None
    # each row's CG solve is recorded, in row order
    solves = result.summary["solves"]
    assert [s["epsilon"] for s in solves] == [r.epsilon for r in rows]
    for s in solves:
        assert s["iterations"] > 0
        assert s["outer_steps"] >= 1
        assert 0.0 < s["relative_residual"] <= 1e-8


def test_power_law_regime_sets_lambda_exactly(tmp_path):
    path = _minimal(tmp_path, regime={"kind": "power_law", "lambda": 0.5},
                    solver={"tensor_resolution": 32},
                    epsilons={"k_min": 5, "k_max": 6})
    result = run_scaling_study(parse_config(path))
    for row in result.rows:
        assert row.delta == pytest.approx(math.sqrt(row.epsilon))
        assert row.lambda_effective == pytest.approx(0.5)


def test_lambda_is_zero_where_delta_is_at_least_one(tmp_path):
    # delta = 8 eps is 2, 1 and 1/2: lambda = min(max(-log delta, 0)/|log eps|,
    # 1) reads 0, 0 and 1/4, where |log delta| rose again to 1/2 at delta = 2
    path = _minimal(tmp_path, regime={"kind": "delta_proportional", "factor": 8},
                    epsilons={"k_min": 2, "k_max": 4},
                    solver={"tensor_resolution": 32})
    rows = run_scaling_study(parse_config(path)).rows
    assert [r.delta for r in rows] == [2.0, 1.0, 0.5]
    assert [r.lambda_effective for r in rows[:2]] == [0.0, 0.0]
    assert rows[2].lambda_effective == pytest.approx(0.25, rel=1e-15)
    assert not any(r.flag for r in rows)


def test_core_radius_rows_need_separated_atoms(tmp_path):
    # log_slow at eps = 1/2 and 1/4 relocates the atom to less than 2 eps from
    # the boundary, so its eps-disk leaves the domain: the proxy used to
    # report an energy near 0 (rel_gap -1) with no flag
    path = _minimal(tmp_path,
                    coefficient={"kind": "checkerboard", "alpha": 1.0, "beta": 4.0},
                    regime={"kind": "log_slow"}, epsilons={"k_min": 1, "k_max": 3},
                    solver={"tensor_resolution": 32})
    rows = run_scaling_study(parse_config(path)).rows
    assert [bool(r.flag) for r in rows] == [True, True, False]
    for row in rows[:2]:
        assert math.isnan(row.energy)
        assert "measure separation" in row.flag and "below 2*eps" in row.flag
    assert rows[0].delta > 1.0 and rows[0].lambda_effective == 0.0


def test_flagged_rows_survive_and_study_continues(tmp_path):
    # atoms 0.2 apart: recovery needs separation >= 2 eps, so the coarse
    # epsilons fail and the finest one succeeds
    path = _minimal(
        tmp_path,
        channel="gl_recovery",
        vortices=[{"x": 0.4, "y": 0.5, "charge": 1},
                  {"x": 0.6, "y": 0.5, "charge": -1}],
        epsilons={"k_min": 3, "k_max": 5},
    )
    config = parse_config(path)
    result = run_scaling_study(config)
    flags = [bool(r.flag) for r in result.rows]
    assert flags == [True, True, False]
    assert math.isnan(result.rows[0].energy)
    assert "separation" in result.rows[0].flag
    assert result.summary["rows_flagged"] == 2


def test_relocation_that_merges_atoms_flags_the_row(tmp_path):
    # delta = eps^0.4 = 1/4 puts both atoms in one delta-cell: they relocate
    # to one point, and the recovery field's separation check sees that
    path = _minimal(
        tmp_path,
        coefficient={"kind": "checkerboard", "alpha": 1.0, "beta": 4.0},
        channel="gl_recovery",
        vortices=[{"x": 0.3, "y": 0.5, "charge": 1},
                  {"x": 0.45, "y": 0.5, "charge": -1}],
        regime={"kind": "power_law", "lambda": 0.4},
        solver={"tensor_resolution": 32},
        epsilons={"k_min": 5, "k_max": 5},
    )
    (row,) = run_scaling_study(parse_config(path)).rows
    assert row.delta == pytest.approx(0.25)
    assert math.isnan(row.energy)
    assert "measure separation 0.000e+00 is below 2*eps" in row.flag


def test_non_converged_descents_are_flagged(tmp_path):
    # a 3-iteration budget stops both descents on `budget`
    path = _minimal(tmp_path, coefficient={"kind": "constant", "value": 1.0},
                    channel="gl_minimize", solver={"max_iterations": 3})
    result = run_scaling_study(parse_config(path))
    assert result.summary["rows_flagged"] == 2
    for row in result.rows:
        assert row.flag == "stop_reason=budget"
        assert math.isfinite(row.energy)
    assert result.summary["trend_slope"] is None
    assert [(s["iterations"], s["stop_reason"])
            for s in result.summary["solves"]] == [(3, "budget")] * 2
    # with the default budget the coarsest descent converges and is clean
    path = _minimal(tmp_path, coefficient={"kind": "constant", "value": 1.0},
                    channel="gl_minimize", epsilons={"k_min": 4, "k_max": 4})
    (row,) = run_scaling_study(parse_config(path)).rows
    assert row.flag == ""


# -- reports --------------------------------------------------------------------------


def test_emit_report_is_byte_deterministic(tmp_path):
    path = _minimal(tmp_path, solver={"tensor_resolution": 32})
    config = parse_config(path)
    result = run_scaling_study(config)
    out1 = tmp_path / "run1"
    out2 = tmp_path / "run2"
    csv1, json1 = emit_report(result.rows, result.summary, str(out1))
    again = run_scaling_study(config)
    csv2, _ = emit_report(again.rows, again.summary, str(out2))
    assert open(csv1, "rb").read() == open(csv2, "rb").read()
    header = open(csv1, encoding="utf-8").readline().strip()
    assert header == ",".join(CSV_COLUMNS)
    summary = json.load(open(json1, encoding="utf-8"))
    assert summary["config"]["coefficient"]["kind"] == "constant"
    assert "timings_seconds" in summary


def test_emit_report_flag_rows_and_empty_input(tmp_path):
    flagged = ScalingRow(0.125, 0.125, 1.0, math.nan, math.nan, 4.0, math.nan,
                         flag="ValueError: separation 1e-3, too close")
    csv_path, _ = emit_report([flagged], {"note": "x"}, str(tmp_path))
    lines = open(csv_path, encoding="utf-8").read().splitlines()
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == len(CSV_COLUMNS)
    assert cells[3] == "" and cells[4] == ""  # nan energies stay empty
    assert "separation 1e-3" in cells[-1]
    assert ";" in cells[-1] and "," not in cells[-1]
    with pytest.raises(ValueError):
        emit_report([], {}, str(tmp_path))
