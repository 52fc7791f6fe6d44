import concurrent.futures
import csv
import io
import json
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pitnear import gpn
from pitnear.cli import TABLES, _validate_config, main, run_config_dict, run_table
from pitnear.errors import ConfigError, DomainError, UnknownEstimatorError

SMALL_N = 2000
DATA = Path(__file__).parent / "data"


def parse_csv(text):
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    rows = [dict(zip(header, line)) for line in reader if line]
    return header, rows


class TestRunTable:
    def test_markdown_layout(self):
        text = run_table(1, n_samples=SMALL_N, seed=1, out="md")
        lines = text.splitlines()
        assert lines[0].startswith("# table 1: rmle vs pnlee")
        assert "(3,0.5,-0.9)" in lines[2]
        # 7 gap rows after the title, blank, header, separator
        assert len(lines) == 4 + 7

    def test_markdown_three_decimals(self):
        text = run_table(4, n_samples=SMALL_N, seed=1, out="md")
        cell = text.splitlines()[4].split("|")[2].strip()
        assert len(cell.split(".")[1]) == 3

    def test_csv_schema_and_values(self):
        text = run_table(6, n_samples=SMALL_N, seed=2, out="csv")
        header, rows = parse_csv(text)
        assert header == ["pair", "gap", "gpn", "std_error", "tie_fraction", "n", "seed"]
        assert len(rows) == 6 * 7
        for row in rows:
            v = float(row["gpn"])
            assert 0.0 <= v <= 1.0
            assert int(row["n"]) == SMALL_N
        assert rows[0]["pair"].startswith("rmle/ue@(0.5,0.2)")

    def test_csv_round_trip_six_digits(self):
        text = run_table(5, n_samples=SMALL_N, seed=3, out="csv")
        _, rows = parse_csv(text)
        again = run_table(5, n_samples=SMALL_N, seed=3, out="csv")
        _, rows2 = parse_csv(again)
        for a, b in zip(rows, rows2):
            assert float(f"{float(a['gpn']):.6g}") == float(f"{float(b['gpn']):.6g}")

    def test_deterministic_output(self):
        a = run_table(2, n_samples=SMALL_N, seed=9, out="csv")
        b = run_table(2, n_samples=SMALL_N, seed=9, out="csv")
        assert a == b
        c = run_table(2, n_samples=SMALL_N, seed=10, out="csv")
        assert a != c

    def test_lf_line_endings(self):
        text = run_table(1, n_samples=500, seed=1, out="csv")
        assert "\r" not in text and text.endswith("\n")

    def test_oracle_column(self):
        text = run_table(1, n_samples=500, seed=1, oracle=True, out="csv")
        header, rows = parse_csv(text)
        assert header[-1] == "oracle"
        for row in rows:
            assert 0.0 <= float(row["oracle"]) <= 1.0

    def test_invalid_table_id(self):
        with pytest.raises(ConfigError):
            run_table(7, n_samples=100)

    def test_std_error_consistent(self):
        text = run_table(3, n_samples=SMALL_N, seed=4, out="csv")
        _, rows = parse_csv(text)
        for row in rows:
            v, se, n = float(row["gpn"]), float(row["std_error"]), int(row["n"])
            # a draw scores 1, 1/2 or 0: the se is that of a three-point score
            ties = float(row["tie_fraction"])
            wins = v - ties / 2.0
            assert se == pytest.approx(
                ((wins + ties / 4.0 - v * v) / n) ** 0.5, rel=1e-12, abs=1e-12
            )


class TestRunConfig:
    def config(self, **overrides):
        cfg = {
            "model": {"name": "gamma", "alpha1": 1.0, "alpha2": 1.0},
            "component": 2,
            "pairs": [["rmle_star", "rmle"], ["rmle", "ue"]],
            "gaps": [1.0, 2.0],
            "loss": "scale_abs",
            "n_samples": SMALL_N,
            "seed": 11,
        }
        cfg.update(overrides)
        return cfg

    def test_markdown_header_mentions_setup(self):
        text = run_config_dict(self.config())
        head = text.splitlines()[0]
        assert "GammaScale" in head and "scale_abs" in head and "seed=11" in head

    def test_self_pair_exactly_half(self):
        text = run_config_dict(self.config(pairs=[["rmle", "rmle"]], output="csv"))
        _, rows = parse_csv(text)
        assert all(float(r["gpn"]) == 0.5 for r in rows)

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError, match="n_sample"):
            run_config_dict(self.config(n_sample=10))

    def test_unknown_estimator_lists_names(self):
        with pytest.raises(UnknownEstimatorError, match="rmle"):
            run_config_dict(self.config(pairs=[["foo", "rmle"]]))

    def test_table_and_custom_exclusive(self):
        with pytest.raises(ConfigError):
            run_config_dict(self.config(table=4))

    def test_table_shorthand(self):
        cfg = {"table": 6, "n_samples": 500, "seed": 3, "output": "csv"}
        assert run_config_dict(cfg) == run_table(6, 500, 3, out="csv")

    def test_missing_field_named(self):
        cfg = self.config()
        del cfg["loss"]
        with pytest.raises(ConfigError, match="loss"):
            run_config_dict(cfg)

    def test_plan_columns(self):
        # a table and a sweep validate into the same plan: labelled columns,
        # each holding its cells over the gaps in order
        table = _validate_config({"table": 4, "n_samples": 10, "seed": 3})
        sweep = _validate_config(self.config())
        assert type(table) is type(sweep)
        assert [c.heading for c in table.columns] == [
            "(0.5,0.2)", "(0.2,0.8)", "(1,1)", "(5,2)", "(1,30)", "(30,1)"]
        assert table.columns[0].pair == "rmle_star/rmle@(0.5,0.2)"
        assert [c.pair for c in sweep.columns] == ["rmle_star/rmle", "rmle/ue"]
        assert [c.heading for c in sweep.columns] == ["rmle_star/rmle", "rmle/ue"]
        assert (table.show_se, sweep.show_se) == (False, True)
        for plan in (table, sweep):
            for column in plan.columns:
                assert [t.params.gap(t.model.kind) for t in column.tasks] == list(plan.gaps)

    def test_gap_domain_checked(self):
        with pytest.raises(ConfigError, match="scale gaps"):
            run_config_dict(self.config(gaps=[0.5, 2.0]))

    def test_nu_pair(self):
        cfg = {
            "model": {"name": "normal", "sigma1": 1.0, "sigma2": 1.0, "rho": 0.0},
            "component": 1,
            "pairs": [["psi_nu", "pnlee", 0.7]],
            "gaps": [0.0, 1.0],
            "loss": "location_abs",
            "n_samples": 512,
            "output": "csv",
        }
        _, rows = parse_csv(run_config_dict(cfg))
        assert rows[0]["pair"] == "psi_nu[0.7]/pnlee"

    def test_matches_table_column_statistically(self):
        # same experiment as one table-4 column; different seeds, so only
        # statistical agreement is expected
        cfg = {
            "model": {"name": "gamma", "alpha1": 0.5, "alpha2": 0.2},
            "component": 2,
            "pairs": [["rmle_star", "rmle"]],
            "gaps": list(TABLES[4].gaps),
            "loss": "scale_abs",
            "n_samples": 20000,
            "seed": 5,
            "output": "csv",
        }
        _, rows = parse_csv(run_config_dict(cfg))
        _, table_rows = parse_csv(run_table(4, n_samples=20000, seed=6, out="csv"))
        col = [r for r in table_rows if r["pair"].endswith("@(0.5,0.2)")]
        for mine, ref in zip(rows, col):
            assert float(mine["gpn"]) == pytest.approx(float(ref["gpn"]), abs=0.02)


NORMAL_SWEEP = {"component": 1, "pairs": [["rmle", "pnlee"]], "gaps": [0.0, 1.0],
                "loss": "location_abs"}


def normal_model(**fields):
    return {"name": "normal", "sigma1": 1.0, "sigma2": 1.0, "rho": 0.0, **fields}


class TestCommandLine:
    def test_table_command(self, tmp_path):
        runner = CliRunner()
        out = tmp_path / "t1.md"
        result = runner.invoke(
            main,
            ["table", "1", "--samples", "500", "--seed", "1", "--output-file", str(out)],
        )
        assert result.exit_code == 0
        assert out.read_text().startswith("# table 1")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "cfg, bad",
        [
            # at shapes this small 145 contrasts are 0/0, x/0 or 0 from
            # underflowed draws, and 19 give a kernel value that overflows
            ({
                "model": {"name": "gamma", "alpha1": 0.01, "alpha2": 0.01},
                "component": 2,
                "pairs": [["rmle_star", "rmle"]],
                "gaps": [2.0],
                "loss": "scale_abs",
                "n_samples": 100000,
                "seed": 1,
                "oracle": True,
            }, 164),
            # x1 = theta1 u^1000 underflows to 0, or x2 / x1 overflows, in
            # about half the draws
            (json.loads((DATA / "run_power_underflow.json").read_text()), 49030),
        ],
        ids=["gamma_small_shapes", "power_underflow"],
    )
    def test_non_finite_losses_exit_4(self, tmp_path, cfg, bad):
        with pytest.raises(DomainError, match="non-finite"):
            run_config_dict(cfg)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 4, result.output
        assert result.stdout == ""
        assert result.stderr.startswith(
            f"error: {bad} of 100000 draws give a non-finite kernel value "
            "or a contrast outside its domain"
        )
        assert result.stderr.count("\n") == 1 and result.stderr.endswith("\n")

    def test_invalid_table_exits_2(self):
        result = CliRunner().invoke(main, ["table", "9", "--samples", "100"])
        assert result.exit_code == 2

    def test_unknown_estimator_exits_3(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"name": "gamma", "alpha1": 1.0, "alpha2": 1.0},
                    "component": 2,
                    "pairs": [["nope", "ue"]],
                    "gaps": [1.0],
                    "loss": "scale_abs",
                    "n_samples": 100,
                }
            )
        )
        result = CliRunner().invoke(main, ["run", str(cfg)])
        assert result.exit_code == 3
        assert "valid names" in result.output

    @pytest.mark.parametrize(
        "sigmas_rho, name",
        [((1.0, 1.0, 0.0), "psi_nu_hp"), ((1.0, 2.0, 0.5), "psi_nu")],
    )
    def test_absent_family_name_exits_3(self, tmp_path, sigmas_rho, name):
        # psi_nu_hp needs mixing coefficient > 1; neither family exists at 1
        s1, s2, rho = sigmas_rho
        cfg = tmp_path / "family.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"name": "normal", "sigma1": s1, "sigma2": s2, "rho": rho},
                    "component": 1,
                    "pairs": [[name, "pnlee", 0.7]],
                    "gaps": [0.0],
                    "loss": "location_abs",
                    "n_samples": 100,
                }
            )
        )
        result = CliRunner().invoke(main, ["run", str(cfg)])
        assert result.exit_code == 3
        assert "valid names" in result.output

    @pytest.mark.parametrize(
        "pair, code, output",
        [
            (["rmle_star", "rmle"], 2,
             "error: loss 'location_abs' does not fit the scale model GammaScale\n"),
            # the names resolve before any cell is built
            (["nope", "ue"], 3, None),
        ],
        ids=["loss_only", "unknown_estimator_first"],
    )
    def test_loss_kind_mismatch(self, tmp_path, pair, code, output):
        cfg = {"model": {"name": "gamma", "alpha1": 1.0, "alpha2": 1.0}, "component": 2,
               "pairs": [pair], "gaps": [1.0], "loss": "location_abs", "n_samples": 100}
        path = tmp_path / "loss.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == code, result.output
        if output is not None:
            assert result.output == output

    def test_nu_without_family_names_the_pair(self, tmp_path):
        # psi_nu exists for this model, but the pair names neither family
        cfg = {**NORMAL_SWEEP, "model": normal_model(sigma1=2.0),
               "pairs": [["rmle", "pnlee", 1e300]], "n_samples": 100}
        path = tmp_path / "nu.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 2, result.output
        assert result.output == (
            "error: pair [rmle, pnlee] names no psi_nu family, so it takes no nu\n"
        )

    def test_squared_loss_oracle_runs(self, tmp_path):
        cfg = tmp_path / "squared.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"name": "normal", "sigma1": 3.0, "sigma2": 0.5, "rho": -0.9},
                    "component": 1,
                    "pairs": [["rmle", "pnlee"]],
                    "gaps": [0.0, 1.0],
                    "loss": "location_squared",
                    "n_samples": 200,
                    "oracle": True,
                }
            )
        )
        result = CliRunner().invoke(main, ["run", str(cfg)])
        assert result.exit_code == 0
        assert "oracle" in result.output

    def test_schema_error_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"model": {"name": "gamma"}, "bogus": 1}))
        result = CliRunner().invoke(main, ["run", str(cfg)])
        assert result.exit_code == 2
        assert "bogus" in result.output

    def test_run_command_with_overrides(self, tmp_path):
        cfg = tmp_path / "ok.json"
        cfg.write_text(
            json.dumps(
                {
                    "model": {"name": "power", "alpha1": 1.0, "alpha2": 1.0},
                    "component": 1,
                    "pairs": [["pnsee_star", "pnsee"]],
                    "gaps": [1.0, 1.5],
                    "loss": "scale_abs",
                }
            )
        )
        result = CliRunner().invoke(
            main, ["run", str(cfg), "--samples", "512", "--seed", "7", "--out", "csv"]
        )
        assert result.exit_code == 0
        header, rows = parse_csv(result.output)
        assert len(rows) == 2 and int(rows[0]["n"]) == 512

    @pytest.mark.parametrize(
        "overrides",
        [
            {"oracle": "false"},
            {"component": True},
            {"gaps": [1.0, "2"]},
            {"seed": "7"},
            {"n_samples": "512"},
            {"n_samples": True},
            {"pairs": [["rmle_star", "rmle", "0.7"]]},
            {"gaps": [float("nan")]},
            {"gaps": [1.0, float("inf")]},
            {"model": {"name": "gamma", "alpha1": True, "alpha2": 1.0}},
            {"model": {"name": "gamma", "alpha1": "2", "alpha2": 1.0}},
            {"model": {"name": "gamma", "alpha1": 1.0, "alpha2": float("nan")}},
            {"model": {"name": "gamma", "alpha1": float("inf"), "alpha2": 1.0}},
            {"model": {"name": ["gamma"], "alpha1": 1.0, "alpha2": 1.0}},
            {"model": {"name": "gamma", "alpha1": -1, "alpha2": 1.0}},
            {**NORMAL_SWEEP, "model": normal_model(sigma2=True)},
            {**NORMAL_SWEEP, "model": normal_model(rho="0.5")},
            {**NORMAL_SWEEP, "model": normal_model(rho=float("inf"))},
            {**NORMAL_SWEEP, "model": normal_model(rho=1.5)},
            {"loss": "x"},
            {"loss": 5},
            {"loss": "location_abs"},
            # rho 0 and sigma1 = 2 sigma2 put the psi_nu family at nu in [0.2, 1)
            {**NORMAL_SWEEP, "model": normal_model(sigma1=2.0), "pairs": [["psi_nu", "pnlee"]]},
            {**NORMAL_SWEEP, "model": normal_model(sigma1=2.0),
             "pairs": [["psi_nu", "pnlee", 1.5]]},
            {**NORMAL_SWEEP, "model": normal_model(sigma1=2.0),
             "pairs": [["rmle", "pnlee", 0.5]]},
            # rejected before any draw: 2**62 draws would fail in numpy
            {"n_samples": 2 ** 62},
            {"n_samples": 2 ** 100},
            {"pairs": []},
        ],
        ids=[
            "oracle_string", "component_bool", "gap_string", "seed_string",
            "n_samples_string", "n_samples_bool", "nu_string", "gap_nan", "gap_infinity",
            "shape_bool", "shape_string", "shape_nan", "shape_infinity", "model_name_list",
            "shape_negative", "scale_bool", "rho_string", "rho_infinity", "rho_out_of_range",
            "loss_unknown", "loss_not_string", "loss_kind_mismatch", "nu_missing",
            "nu_out_of_range", "nu_without_family", "n_samples_2e62", "n_samples_2e100",
            "pairs_empty",
        ],
    )
    def test_config_type_error_exits_2(self, tmp_path, overrides):
        cfg = {
            "model": {"name": "gamma", "alpha1": 1.0, "alpha2": 1.0},
            "component": 2,
            "pairs": [["rmle_star", "rmle"]],
            "gaps": [1.0, 2.0],
            "loss": "scale_abs",
            "n_samples": 100,
        }
        cfg.update(overrides)
        path = tmp_path / "typed.json"
        path.write_text(json.dumps(cfg))  # NaN and Infinity are written as JSON literals
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith("error: ")

    @pytest.mark.parametrize(
        "alphas, code",
        [((300.0, 200.0), 0), ((300.0, 200.5), 2), ((300.0, 300.0), 2)],
        ids=["at_ceiling", "just_above", "far_above"],
    )
    def test_gamma_shape_ceiling(self, tmp_path, alphas, code):
        # shape sums up to 500 run, oracle included; above it the incomplete
        # gamma would not converge, so the config is rejected up front
        cfg = {
            "model": {"name": "gamma", "alpha1": alphas[0], "alpha2": alphas[1]},
            "component": 2,
            "pairs": [["rmle_star", "rmle"]],
            "gaps": [1.0, 1.1],
            "loss": "scale_abs",
            "n_samples": 100,
            "oracle": True,
        }
        path = tmp_path / "shapes.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == code, result.output
        if code:
            assert "alpha1 + alpha2 must be at most 500" in result.output

    def test_subnormal_gamma_median_exits_4(self, tmp_path):
        # the median of shape 0.00094 is subnormal, where the Newton steps
        # stop on the density's overflow
        cfg = {
            "model": {"name": "gamma", "alpha1": 0.00094, "alpha2": 1.0},
            "component": 1,
            "pairs": [["pnsee_star", "pnsee"]],
            "gaps": [2.0],
            "loss": "scale_abs",
            "n_samples": 100,
        }
        path = tmp_path / "subnormal.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 4, result.output
        assert result.stdout == ""
        assert result.stderr.startswith("error: gamma_median(0.00094) residual ")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "cfg",
        [
            # the upper segment's jacobian lam / v^2 overflows near v = 0
            json.loads((DATA / "run_gamma_large_gap.json").read_text()),
            # the upper segment's node lam / v overflows near v = 0
            {
                "model": {"name": "power", "alpha1": 2.0, "alpha2": 0.5},
                "component": 2,
                "pairs": [["pnsee_star", "pnsee"]],
                "gaps": [1e307],
                "loss": "scale_abs",
                "n_samples": 1,
                "seed": 1,
            },
        ],
        ids=["gamma_jacobian", "power_node"],
    )
    def test_oracle_at_huge_scale_gaps_exits_4_without_warnings(self, tmp_path, cfg):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        result = CliRunner().invoke(main, ["run", str(path), "--oracle"])
        assert result.exit_code == 4, result.output
        assert result.stdout == ""
        if cfg["model"]["name"] == "gamma":
            # the Monte Carlo engine alone runs the cell
            assert CliRunner().invoke(main, ["run", str(path)]).exit_code == 0

    def test_table_id_bool_exits_2(self, tmp_path):
        path = tmp_path / "table.json"
        path.write_text(json.dumps({"table": True, "n_samples": 100}))
        result = CliRunner().invoke(main, ["run", str(path)])
        assert result.exit_code == 2
        assert "table" in result.output

    def test_list_root_with_option_exits_2(self, tmp_path):
        # the options are written into the loaded config, so its root must
        # be checked as an object before they are
        path = tmp_path / "list.json"
        path.write_text(json.dumps([1, 2]))
        result = CliRunner().invoke(main, ["run", str(path), "--samples", "5"])
        assert result.exit_code == 2, result.output
        assert result.output == "error: config root must be a JSON object\n"

    def test_unwritable_output_file_exits_2(self, tmp_path):
        out = tmp_path / "missing" / "x.md"
        result = CliRunner().invoke(
            main, ["table", "1", "--samples", "10", "--output-file", str(out)]
        )
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        assert result.output.startswith(f"error: cannot write output file {out}")
        assert "Traceback" not in result.output


# Fuzzed JSON configs: a well-formed table or sweep config, then up to two
# of its fields, at the top level or in the model, replaced by arbitrary JSON
# or deleted. Sample counts stay below 100, so no example allocates much.
JSON_LEAVES = st.one_of(
    st.none(), st.booleans(), st.integers(-100, 100), st.just(2 ** 1024),
    st.floats(), st.text(max_size=4),
)
JSON_VALUES = st.recursive(
    JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
SCALES = st.floats(0.1, 30.0)
SHAPES = st.floats(0.2, 30.0)
MODEL_FIELDS = {
    "normal": {"sigma1": SCALES, "sigma2": SCALES, "rho": st.floats(-0.95, 0.95)},
    "exponential": {"sigma1": SCALES, "sigma2": SCALES},
    "gamma": {"alpha1": SHAPES, "alpha2": SHAPES},
    "power": {"alpha1": SHAPES, "alpha2": SHAPES},
}
ESTIMATOR_NAMES = st.sampled_from([
    "hp", "hp_star", "pdt", "pnlee", "pnlee_star", "pnsee", "pnsee_star",
    "psi_nu", "psi_nu_hp", "rmle", "rmle_star", "ue", "ue_star",
])
DELETE = object()
LOSSES = ["location_abs", "location_squared", "scale_abs", "scale_squared"]


@st.composite
def fuzzed_configs(draw):
    n_samples = draw(st.integers(1, 64))
    if draw(st.booleans()):
        # no oracle here: it costs about a second per table
        cfg = {
            "table": draw(st.integers(1, 6)),
            "n_samples": n_samples,
            "seed": draw(st.integers(0, 2 ** 64)),
            "output": draw(st.sampled_from(["csv", "md"])),
        }
        targets = [cfg]
    else:
        name = draw(st.sampled_from(sorted(MODEL_FIELDS)))
        model = {"name": name, **{f: draw(v) for f, v in MODEL_FIELDS[name].items()}}
        location = name in ("normal", "exponential")
        pair = st.tuples(ESTIMATOR_NAMES, ESTIMATOR_NAMES).map(list) | st.tuples(
            ESTIMATOR_NAMES, ESTIMATOR_NAMES, st.floats(0.0, 2.0)
        ).map(list)
        cfg = {
            "model": model,
            "component": draw(st.sampled_from([1, 2])),
            "pairs": draw(st.lists(pair, min_size=1, max_size=2)),
            "gaps": draw(st.lists(
                st.floats(0.0, 3.0) if location else st.floats(1.0, 4.0),
                min_size=1, max_size=3,
            )),
            "loss": draw(st.sampled_from(LOSSES[:2] if location else LOSSES[2:])),
            "n_samples": n_samples,
            "seed": draw(st.integers(0, 2 ** 64)),
            "oracle": draw(st.booleans()),
            "output": draw(st.sampled_from(["csv", "md"])),
        }
        targets = [cfg, model]
    for _ in range(draw(st.integers(0, 2))):
        target = draw(st.sampled_from(targets))
        key = draw(st.sampled_from(sorted(target) + ["extra"]))
        value = draw(st.just(DELETE) | (
            JSON_VALUES if key != "n_samples"
            else st.one_of(st.integers(-2, 64), st.floats(), st.text(max_size=4))
        ))
        if value is not DELETE:
            target[key] = value
        elif key in target:
            del target[key]
    return cfg


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=200, deadline=None)
@given(cfg=fuzzed_configs())
@example(cfg={**NORMAL_SWEEP, "model": normal_model(sigma1=1e200), "n_samples": 10})
def test_fuzzed_config_exits_with_a_documented_code(fuzz_dir, cfg):
    path = fuzz_dir / "config.json"
    path.write_text(json.dumps(cfg))  # NaN and Infinity are written as JSON literals
    result = CliRunner().invoke(main, ["run", str(path)])
    assert result.exit_code in (0, 2, 3, 4), (result.exit_code, result.exception)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    assert "Traceback" not in result.output


# Stdout bytes written by the CLI of an earlier commit. Regenerate a file
# (`pitnear <args> > tests/data/<file>`) only in a change that means to alter
# the random stream or the layout, and say why in that change.
GOLDEN = [
    *(
        (["table", str(t), "--samples", "2000", "--seed", "3", "--out", "csv"],
         f"table{t}_n2000_seed3.csv")
        for t in range(1, 7)
    ),
    *(
        (["table", str(t), "--samples", "2000", "--oracle"], f"table{t}_n2000_oracle.md")
        for t in range(1, 7)
    ),
    (["run", str(DATA / "run_gamma_oracle.json")], "run_gamma_oracle.md"),
    # above one block of draws, so the blocked comparison runs several blocks
    *(
        (["table", str(t), "--samples", "100000", "--seed", "3", "--out", "csv"],
         f"table{t}_n100000_seed3.csv")
        for t in (1, 4)
    ),
    (["run", str(DATA / "run_gamma_oracle.json"), "--out", "csv"], "run_gamma_oracle.csv"),
    (["run", str(DATA / "run_normal_nu.json")], "run_normal_nu.md"),
    (["table", "2", "--samples", "2000", "--oracle", "--out", "csv"],
     "table2_n2000_oracle.csv"),
    (["run", str(DATA / "run_power_oracle.json")], "run_power_oracle.csv"),
    (["run", str(DATA / "run_exponential_wide.json"), "--oracle", "--out", "csv"],
     "run_exponential_wide.csv"),
]

# A table's cells run on one pool across all its columns; the bytes must not
# depend on how many threads that pool has.
THREAD_COUNTS = [
    (["table", "4", "--samples", "2000", "--seed", "3", "--out", "csv"],
     "table4_n2000_seed3.csv", cpus)
    for cpus in (1, 5)
]


@pytest.mark.parametrize(
    "args, golden, cpus",
    [(args, golden, None) for args, golden in GOLDEN] + THREAD_COUNTS,
    ids=[g for _, g in GOLDEN] + [f"{g}-cpus{n}" for _, g, n in THREAD_COUNTS],
)
def test_stdout_matches_golden(monkeypatch, args, golden, cpus):
    if cpus is not None:
        monkeypatch.setattr(gpn, "_usable_cpus", lambda: cpus)
    result = CliRunner().invoke(main, args)
    assert result.exit_code == 0, result.output
    assert result.stdout_bytes == (DATA / golden).read_bytes()


def test_table_runs_on_one_pool(monkeypatch):
    # the pool's threads are kept across runs, so a second table starts none
    pools = []

    class CountingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", CountingPool)
    gpn._pool.cache_clear()
    run_table(4, n_samples=500, seed=1, oracle=True)
    run_table(1, n_samples=500, seed=1)
    assert len(pools) == 1
