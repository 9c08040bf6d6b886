import copy
import csv
import dataclasses
import json
import logging
import math
from pathlib import Path

import numpy as np
import pytest

import setfuse as sf
from setfuse import cli, gaussian, scenarios
from setfuse.cli import main
from setfuse.solvers import SINGLE_COUNT_FLAG
from conftest import binomial_pmf, disjoint_grids

REPO_ROOT = Path(__file__).resolve().parent.parent
SCENARIO_DIR = REPO_ROOT / "scripts" / "scenarios"


def write_scenario(tmp_path, payload, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def bernoulli_payload(alpha_i=0.8, alpha_j=0.8, mean_j=(-0.75, -0.25), **extra):
    payload = {
        "version": 1,
        "family": "bernoulli",
        "inputs": [
            {"alpha": alpha_i, "loc": {"mean": [0.25, 0.25], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
            {"alpha": alpha_j, "loc": {"mean": list(mean_j), "cov": [[1.0, 0.0], [0.0, 1.0]]}},
        ],
    }
    payload.update(extra)
    return payload


class TestScenarioParsing:
    def test_round_trip(self, tmp_path):
        path = write_scenario(tmp_path, bernoulli_payload(omega=0.3))
        scenario = scenarios.load_scenario(path)
        assert scenario.family == "bernoulli"
        assert scenario.solver == sf.NewtonConfig()
        assert scenario.omega == 0.3
        assert scenario.f_i.alpha == 0.8

    def test_unknown_field_rejected(self, tmp_path):
        path = write_scenario(tmp_path, bernoulli_payload(bogus=1))
        with pytest.raises(scenarios.ScenarioError, match="unknown fields"):
            scenarios.load_scenario(path)

    def test_wrong_version_rejected(self, tmp_path):
        payload = bernoulli_payload()
        payload["version"] = 2
        with pytest.raises(scenarios.ScenarioError, match="version"):
            scenarios.load_scenario(write_scenario(tmp_path, payload))

    def test_missing_inputs_rejected(self, tmp_path):
        payload = bernoulli_payload()
        payload["inputs"] = [payload["inputs"][0]]
        with pytest.raises(scenarios.ScenarioError, match="exactly two"):
            scenarios.load_scenario(write_scenario(tmp_path, payload))

    def test_unknown_family_rejected(self, tmp_path):
        payload = bernoulli_payload()
        payload["family"] = "multi"
        with pytest.raises(scenarios.ScenarioError, match="family"):
            scenarios.load_scenario(write_scenario(tmp_path, payload))

    def test_grid_localisation_from_npz(self, tmp_path):
        values = np.ones((10, 10))
        np.savez(
            tmp_path / "grid.npz",
            origin=np.array([0.0, 0.0]),
            cell_size=np.array([0.1, 0.1]),
            values=values,
        )
        payload = {
            "version": 1,
            "family": "iid",
            "inputs": [
                {"pmf": [0.5, 0.5], "loc": {"grid": "grid.npz"}},
                {"pmf": [0.4, 0.6], "loc": {"grid": "grid.npz"}},
            ],
        }
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        assert isinstance(scenario.f_i.loc, sf.GridDensity)
        assert scenario.f_i.loc.cell_volume == pytest.approx(0.01)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(scenarios.ScenarioError, match="cannot read scenario file"):
            scenarios.load_scenario(tmp_path / "missing.json")

    @pytest.mark.parametrize("family", ["bernoulli", "iid", "multi"])
    def test_family_that_disagrees_with_the_sets_rejected(self, family):
        scenario = scenarios.load_scenario(SCENARIO_DIR / "poisson_pair.json")
        assert dataclasses.replace(scenario, family="poisson") == scenario
        with pytest.raises(scenarios.ScenarioError,
                           match=f"family '{family}' does not match the inputs, PoissonRfs and PoissonRfs"):
            dataclasses.replace(scenario, family=family)

    def test_unknown_mode_rejected(self, tmp_path):
        scenario = scenarios.load_scenario(write_scenario(tmp_path, bernoulli_payload()))
        with pytest.raises(scenarios.ScenarioError, match="unknown mode 'p3'"):
            scenarios.fuse_scenario(scenario, "p3")

    def test_bad_sweep_ranges_rejected(self, tmp_path):
        payload = bernoulli_payload(sweep={"kappa": [0.5, 40.0, 10], "omega": [0.0, 1.0, 5]})
        with pytest.raises(scenarios.ScenarioError, match="kappa"):
            scenarios.load_scenario(write_scenario(tmp_path, payload))


class TestRunFuse:
    def test_identical_inputs_either_mode(self, tmp_path):
        payload = bernoulli_payload(mean_j=(0.25, 0.25))
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        for mode in ("p2", "consistent"):
            result, report = scenarios.fuse_scenario(scenario, mode)
            (path,) = scenarios.write_report(report, tmp_path / mode)
            assert result.fused.alpha == pytest.approx(0.8, abs=1e-12)
            assert path.exists()

    def test_row_flag_matches_recomputation(self, tmp_path):
        scenario = scenarios.load_scenario(write_scenario(tmp_path, bernoulli_payload()))
        (path,) = scenarios.write_report(scenarios.fuse_scenario(scenario, "p2")[1], tmp_path / "out")
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh))
        recomputed = float(row["alpha_fused"]) < min(
            float(row["alpha_i"]), float(row["alpha_j"])
        )
        assert (row["inconsistent"] == "true") == recomputed
        # the joint rule at the half weight drops the existence probability
        assert row["inconsistent"] == "true"

    def test_consistent_mode_keeps_existence(self, tmp_path):
        scenario = scenarios.load_scenario(write_scenario(tmp_path, bernoulli_payload()))
        result, report = scenarios.fuse_scenario(scenario, "consistent")
        (path,) = scenarios.write_report(report, tmp_path / "out")
        assert result.fused.alpha == pytest.approx(0.8, abs=1e-9)
        assert result.omega_card == pytest.approx(0.5, abs=1e-9)
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert row["inconsistent"] == "false"


class TestRunSweep:
    def test_single_cell_identity(self, tmp_path):
        payload = bernoulli_payload(
            mean_j=(0.25, 0.25),
            sweep={"kappa": [1.0, 1.0, 1], "omega": [0.5, 0.5, 1], "sigma1_sq": 1.0},
        )
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        (path,) = scenarios.write_report(scenarios.sweep_report(scenario), tmp_path / "out")
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["z_omega"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["alpha_omega"]) == pytest.approx(0.8, abs=1e-12)

    def test_sigma1_sq_sets_the_determinant(self, tmp_path):
        # det Sigma = sigma1_sq^2 / kappa, with both axes rotated 45 degrees
        payload = bernoulli_payload(sweep={"kappa": [1.0, 8.0, 3], "omega": [0.0, 1.0, 3], "sigma1_sq": 3.0})
        sweep = scenarios.load_scenario(write_scenario(tmp_path, payload)).sweep
        for kappa in sweep.kappa_grid():
            expected = [gaussian.make_rotated_covariance(kappa, 9.0 / kappa, phi) for phi in (math.pi / 4, -math.pi / 4)]
            np.testing.assert_array_equal(sweep.covariances(kappa), expected)

    def test_scale_underflowing_at_the_top_kappa_is_named(self, tmp_path):
        # 1e-158 squared is 1e-316, a valid determinant at kappa = 1 that
        # rounds to 0 at kappa = 1e12
        sweep = {"kappa": [1.0, 1e12, 3], "omega": [0.0, 1.0, 3], "sigma1_sq": 1e-158}
        with pytest.raises(scenarios.ScenarioError, match=r"^sweep covariance at kappa = 1e\+12 underflows$"):
            scenarios.load_scenario(write_scenario(tmp_path, bernoulli_payload(sweep=sweep)))

    def test_bytes_identical_across_runs_and_workers(self, tmp_path):
        payload = bernoulli_payload(
            sweep={"kappa": [1.0, 8.0, 6], "omega": [0.0, 1.0, 9], "sigma1_sq": 1.0}
        )
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        blobs = []
        for idx in range(3):
            (path,) = scenarios.write_report(scenarios.sweep_report(scenario), tmp_path / f"out{idx}")
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_requires_sweep_block(self, tmp_path):
        scenario = scenarios.load_scenario(write_scenario(tmp_path, bernoulli_payload()))
        with pytest.raises(scenarios.ScenarioError, match="sweep"):
            scenarios.sweep_report(scenario)

    def test_requires_gaussian_localisations(self, tmp_path):
        np.savez(
            tmp_path / "grid.npz",
            origin=np.array([0.0, 0.0]),
            cell_size=np.array([0.1, 0.1]),
            values=np.ones((10, 10)),
        )
        payload = {
            "version": 1,
            "family": "bernoulli",
            "inputs": [
                {"alpha": 0.8, "loc": {"grid": "grid.npz"}},
                {"alpha": 0.8, "loc": {"grid": "grid.npz"}},
            ],
            "sweep": {"kappa": [1.0, 2.0, 2], "omega": [0.0, 1.0, 3]},
        }
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        with pytest.raises(scenarios.ScenarioError, match="Gaussian"):
            scenarios.sweep_report(scenario)

    def test_one_dimensional_inputs_exit_2(self, tmp_path, capsys):
        loc_1d = {"mean": [0.0], "cov": [[1.0]]}
        payload = bernoulli_payload(sweep={"kappa": [1.0, 4.0, 3], "omega": [0.0, 1.0, 5]})
        for spec in payload["inputs"]:
            spec["loc"] = loc_1d
        path = write_scenario(tmp_path, payload)
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "2-D Gaussian" in err and len(err.splitlines()) == 1
        assert not (tmp_path / "out").exists()

    def test_iid_sweep_rows_are_self_consistent(self, tmp_path):
        pmf_i = [0.05, 0.15, 0.8]
        pmf_j = [0.1, 0.2, 0.7]
        payload = {
            "version": 1,
            "family": "iid",
            "inputs": [
                {"pmf": pmf_i, "loc": {"mean": [0.25, 0.25], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
                {"pmf": pmf_j, "loc": {"mean": [-0.75, -0.25], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
            ],
            "sweep": {"kappa": [1.0, 30.0, 4], "omega": [0.0, 1.0, 5]},
        }
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        (path,) = scenarios.write_report(scenarios.sweep_report(scenario), tmp_path / "out")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 20
        flagged = 0
        for row in rows:
            maps = [int(row[k]) for k in ("map_i", "map_j", "map_omega")]
            assert (row["inconsistent"] == "true") == (maps[2] < min(maps[0], maps[1]))
            flagged += row["inconsistent"] == "true"
        assert flagged > 0  # high diversity must drag the fused count down

    def test_det_sigma_override_pins_determinant(self, tmp_path):
        payload = bernoulli_payload(
            sweep={"kappa": [1.0, 40.0, 3], "omega": [0.5, 0.5, 1], "det_sigma": 0.01}
        )
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        for kappa in (1.0, 20.5, 40.0):
            cov_i, cov_j = scenario.sweep.covariances(kappa)
            assert np.linalg.det(cov_i) == pytest.approx(0.01, rel=1e-9)
            assert np.linalg.det(cov_j) == pytest.approx(0.01, rel=1e-9)
            eig = np.linalg.eigvalsh(cov_i)
            assert eig[1] / eig[0] == pytest.approx(kappa, rel=1e-9)

    def test_poisson_sweep_columns(self, tmp_path):
        payload = {
            "version": 1,
            "family": "poisson",
            "inputs": [
                {"lambda": 2.0, "loc": {"mean": [0.25, 0.25], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
                {"lambda": 8.0, "loc": {"mean": [-0.75, -0.25], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
            ],
            "sweep": {"kappa": [1.0, 5.0, 3], "omega": [0.25, 0.75, 3]},
        }
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        (path,) = scenarios.write_report(scenarios.sweep_report(scenario), tmp_path / "out")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            fused = float(row["lambda_omega"])
            w, z = float(row["omega"]), float(row["z_omega"])
            assert fused == pytest.approx(2.0 ** (1 - w) * 8.0**w * z, rel=1e-12)
            assert (row["inconsistent"] == "true") == (fused < 2.0)


SWEEP_PAYLOADS = {
    "bernoulli": [{"alpha": 0.8}, {"alpha": 0.6}],
    "poisson": [{"lambda": 2.0}, {"lambda": 8.0}],
    "iid": [{"pmf": [0.05, 0.15, 0.8]}, {"pmf": [0.1, 0.2, 0.6, 0.1]}],
}


def per_cell_rule(scenario, kappa, omega):
    """(z_w, fused count summary) of one sweep cell from the scalar joint rule."""
    cov_i, cov_j = scenario.sweep.covariances(kappa)
    loc_i = sf.GaussianDensity(scenario.f_i.loc.mean, cov_i)
    loc_j = sf.GaussianDensity(scenario.f_j.loc.mean, cov_j)
    f_i, f_j = scenario.f_i, scenario.f_j
    if scenario.family == "bernoulli":
        _, z, alpha = sf.bernoulli_fuse_p2(sf.BernoulliRfs(f_i.alpha, loc_i), sf.BernoulliRfs(f_j.alpha, loc_j), omega)
        return z, alpha
    if scenario.family == "poisson":
        _, z, rate = sf.poisson_fuse_p2(sf.PoissonRfs(f_i.rate, loc_i), sf.PoissonRfs(f_j.rate, loc_j), omega)
        return z, rate
    fused, z, _ = sf.iid_fuse_p2(
        sf.IidClusterRfs(f_i.card, loc_i), sf.IidClusterRfs(f_j.card, loc_j), omega, max(f_i.card.n_max, f_j.card.n_max)
    )
    return z, fused.card.map_estimate()


class TestFormatCell:
    def test_float_fast_path_keeps_bytes(self):
        for value in (0.1, 1.0, -0.0, 1e-300, 2.0 / 3.0, 12345678.9):
            assert scenarios._format_cell(value) == format(value, ".17g")
            assert scenarios._format_cell(np.float64(value)) == format(value, ".17g")
        assert [scenarios._format_cell(v) for v in (True, np.bool_(False), 3, np.int64(4), "x")] == [
            "true",
            "false",
            "3",
            "4",
            "x",
        ]

    def test_row_format_matches_cell_by_cell_writer(self, tmp_path):
        rows = [
            ("low", 0.1, 3, True, np.float64(2.0 / 3.0), np.int64(4), -0.0),
            ("high", 1e-300, 0, np.bool_(False), np.float64(12345678.9), np.int64(0), float("inf")),
            ("low", 7.0, 35, False, np.float64(1.0), np.int64(-2), 5e-324),
        ]
        header = ("pair", "a", "n", "flag", "b", "m", "c")
        path = scenarios.write_csv(tmp_path / "t.csv", header, rows)
        with open(tmp_path / "ref.csv", "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(header)
            writer.writerows([scenarios._format_cell(v) for v in row] for row in rows)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes()


def sweep_payload(family, kappa=(1.0, 40.0, 7), omega=(0.0, 1.0, 11)):
    """A unit-covariance pair of the family's ``SWEEP_PAYLOADS`` counts with a sweep block."""
    means = ([0.25, 0.25], [-0.75, -0.25])
    inputs = [
        {**spec, "loc": {"mean": mean, "cov": [[1.0, 0.0], [0.0, 1.0]]}}
        for spec, mean in zip(SWEEP_PAYLOADS[family], means)
    ]
    return {"version": 1, "family": family, "inputs": inputs, "sweep": {"kappa": list(kappa), "omega": list(omega)}}


class TestSweepRows:
    @pytest.mark.parametrize("family", sorted(SWEEP_PAYLOADS))
    def test_rows_match_per_cell_scalar_rule(self, tmp_path, family):
        payload = sweep_payload(family)
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        (path,) = scenarios.write_report(scenarios.sweep_report(scenario), tmp_path / "out")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 77
        value_col = {"bernoulli": "alpha_omega", "poisson": "lambda_omega", "iid": "map_omega"}[family]
        for row in rows:
            z, value = per_cell_rule(scenario, float(row["kappa"]), float(row["omega"]))
            assert float(row["z_omega"]) == pytest.approx(z, rel=1e-12)
            assert float(row[value_col]) == pytest.approx(value, rel=1e-12)

    def test_pair_built_once_per_kappa(self, monkeypatch):
        from setfuse import gaussian

        built = []
        pair = gaussian._pair
        monkeypatch.setattr(gaussian, "_pair", lambda rho_i, rho_j: built.append(1) or pair(rho_i, rho_j))
        scenarios.sweep_report(scenarios.two_sensor_scenario())
        assert len(built) == 79


class TestReproduce:
    @pytest.mark.parametrize("example", scenarios.EXAMPLE_IDS)
    def test_every_builtin_experiment_passes_its_checks(self, tmp_path, example):
        report = scenarios.experiment_report(example)
        *files, _ = scenarios.write_report(report, tmp_path / example)
        failed = [name for name, ok, _ in report.checks if not ok]
        assert not failed
        summary = (tmp_path / example / "summary.txt").read_text()
        assert "FAIL" not in summary
        for path in files:
            assert path.exists()

    def test_ex4_kld_residual_is_accurate(self):
        # the residual D(f||p_i) - D(f||p_j) is a difference of two
        # divergences at rounding level, so its digits are checked against
        # 60-digit arithmetic at the reported weight, not against stored data
        mpmath = pytest.importorskip("mpmath")
        mp = mpmath.mp.clone()
        mp.dps = 60
        (_, _, rows), _ = scenarios.experiment_report("ex4").tables
        for pair, omega_star, _, residual in rows:
            k, prob_i, prob_j = scenarios.BINOMIAL_PAIRS[pair]
            a, b = (scenarios._binomial_pmf(k, p).probs for p in (prob_i, prob_j))
            w = mp.mpf(omega_star)
            log_a = [mp.log(mp.mpf(float(x))) for x in a]
            log_ratio = [mp.log(mp.mpf(float(y))) - la for y, la in zip(b, log_a)]
            terms = [mp.exp(la + w * q) for la, q in zip(log_a, log_ratio)]
            exact = mp.fsum(t * q for t, q in zip(terms, log_ratio)) / mp.fsum(terms)
            assert abs(mp.mpf(residual) - exact) < 1e-16, pair

    def test_unknown_example_rejected(self):
        with pytest.raises(scenarios.ScenarioError, match="unknown example"):
            scenarios.experiment_report("ex9")

    def test_reproduce_every_example_passes_every_check(self, tmp_path, capsys):
        # one run of all four prints and writes what four single runs do
        alone, every = tmp_path / "alone", tmp_path / "every"
        stdout = []
        for example in scenarios.EXAMPLE_IDS:
            assert main(["reproduce", example, "--out", str(alone)]) == 0
            stdout.append(capsys.readouterr().out)
        assert main(["reproduce", *scenarios.EXAMPLE_IDS, "--out", str(every)]) == 0
        printed = capsys.readouterr().out
        assert printed.replace(str(every), str(alone)) == "".join(stdout)
        verdicts = [line.split()[0] for line in printed.splitlines() if line.startswith(("PASS", "FAIL"))]
        assert verdicts == ["PASS"] * 22
        files = sorted(path.relative_to(alone) for path in alone.glob("*/*"))
        assert files == sorted(path.relative_to(every) for path in every.glob("*/*"))
        for name in files:
            assert (every / name).read_bytes() == (alone / name).read_bytes(), name

    def test_failed_check_exits_1_after_every_file_is_written(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setitem(scenarios.EXPECTED_OMEGA_CARD, "low", 0.9)
        assert main(["reproduce", "ex4", "ex3", "--out", str(tmp_path)]) == 1
        lines = capsys.readouterr().out.splitlines()
        failed = [line for line in lines if line.startswith("FAIL")]
        assert len(failed) == 1 and failed[0].startswith("FAIL low pair optimal weight matches reference")
        assert sum(line.startswith("PASS") for line in lines) == 12
        wrote = sorted(Path(line.removeprefix("wrote ")) for line in lines if line.startswith("wrote "))
        assert wrote == sorted(tmp_path.glob("ex*/*")) and {path.parent.name for path in wrote} == {"ex3", "ex4"}
        assert failed[0] in (tmp_path / "ex4" / "summary.txt").read_text(encoding="utf-8").splitlines()


def _set(*keys_and_value):
    """Mutation of a scenario payload that sets the value at a key path."""
    *keys, last, value = keys_and_value

    def mutate(payload):
        target = payload
        for key in keys:
            target = target.setdefault(key, {}) if isinstance(key, str) else target[key]
        target[last] = value

    return mutate


# Scalars of the wrong kind or out of range; each exits 2 at load, with an
# error line that holds the text given.
BAD_SCALARS = {
    "omega string": (_set("omega", "x"), "omega must be a number, got 'x'"),
    "omega bool": (_set("omega", True), "omega must be a number, got True"),
    "omega above 1": (_set("omega", 1.5), "omega must lie in [0, 1]"),
    "alpha string": (_set("inputs", 0, "alpha", "0.5"), "inputs[0].alpha must be a number, got '0.5'"),
    "alpha bool": (_set("inputs", 1, "alpha", True), "inputs[1].alpha must be a number, got True"),
    "mean string": (_set("inputs", 0, "loc", "mean", ["0.25", 0.25]), "inputs[0].loc.mean must be a number"),
    "grid file missing": (_set("inputs", 0, "loc", {"grid": "missing.npz"}), "cannot load grid density 'missing.npz'"),
    "sweep steps string": (_set("sweep", "kappa", 2, "x"), "sweep.kappa must be a number, got 'x'"),
    "sweep steps numeric string": (_set("sweep", "omega", 2, "3"), "sweep.omega must be a number, got '3'"),
    "sweep range of two": (_set("sweep", "kappa", [1, 2]), "sweep.kappa must be [min, max, steps>=1]"),
    "sweep omega above 1": (_set("sweep", "omega", [0.5, 1.5, 3]), "sweep.omega values must lie in [0, 1]"),
    "sigma1_sq string": (_set("sweep", "sigma1_sq", "x"), "sweep.sigma1_sq must be a number, got 'x'"),
    "sigma1_sq zero": (_set("sweep", "sigma1_sq", 0), "sweep.sigma1_sq must be > 0, got 0"),
    "sigma1_sq negative": (_set("sweep", "sigma1_sq", -1.0), "sweep.sigma1_sq must be > 0, got -1.0"),
    "sigma1_sq tiny": (_set("sweep", "sigma1_sq", 1e-200), "sweep covariance at kappa = 1 underflows"),
    "det_sigma tiny": (_set("sweep", "det_sigma", 5e-324), "sweep covariance at kappa = 4 underflows"),
    "det_sigma negative": (_set("sweep", "det_sigma", -1.0), "sweep.det_sigma must be > 0, got -1.0"),
    "kappa end below 1": (_set("sweep", "kappa", [2.0, 0.5, 3]), "sweep.kappa values must lie in [1, 1e+12], got 0.5"),
    "kappa end above condition limit": (
        _set("sweep", "kappa", 1, 1e13),
        "sweep.kappa values must lie in [1, 1e+12], got 1e+13",
    ),
    "sigma1_sq overflows": (_set("sweep", "sigma1_sq", 1e300), "sweep covariance at kappa = 1 overflows"),
    "sweep not an object": (_set("sweep", 5), "sweep must be an object"),
    "max_iters fractional": (_set("solver", "max_iters", 2.5), "solver.max_iters must be an integer, got 2.5"),
    "omega_clamp above 0.5": (
        _set("solver", "omega_clamp", 0.7),
        "invalid solver block: omega_clamp must lie in (0, 0.5)",
    ),
    "version bool": (_set("version", True), "unsupported scenario version True"),
    "outputs number": (_set("outputs", 5), "outputs must be a string"),
}


def _drop(*keys):
    """Mutation of a scenario payload that deletes the value at a key path."""
    *path, last = keys

    def mutate(payload):
        target = payload
        for key in path:
            target = target[key]
        del target[last]

    return mutate


# Committed scenarios made malformed or incompatible; each exits 2 in both
# modes, and in ``sweep`` where the scenario has a sweep block.
BAD_INPUTS = {
    "alphas 0 and 1": (
        "two_sensor_bernoulli.json",
        [_set("inputs", 0, "alpha", 0.0), _set("inputs", 1, "alpha", 1.0)],
    ),
    "disjoint count supports": (
        "binomial_iid_pair.json",
        [_set("inputs", 0, "pmf", [0.5, 0.5, 0, 0, 0, 0]), _set("inputs", 1, "pmf", [0, 0, 0, 0, 0.5, 0.5])],
    ),
    "disjoint grids": (
        "poisson_pair.json",
        [_set("inputs", 0, "loc", {"grid": "left.npz"}), _set("inputs", 1, "loc", {"grid": "right.npz"})],
    ),
    "required field dropped": ("poisson_pair.json", [_drop("inputs", 1, "loc")]),
    "string for a number": ("poisson_pair.json", [_set("inputs", 0, "lambda", "2.0")]),
    "NaN": ("poisson_pair.json", [_set("inputs", 1, "lambda", float("nan"))]),
    "unknown family": ("two_sensor_bernoulli.json", [_set("family", "multi")]),
    "family list": ("two_sensor_bernoulli.json", [_set("family", ["bernoulli"])]),
    "covariances past the pair limit": (
        "poisson_pair.json",
        [_set("inputs", k, "loc", "cov", [[1e308, 0.0], [0.0, 1e308]]) for k in (0, 1)],
    ),
    "means past the pair limit": (
        "two_sensor_bernoulli.json",
        [_set("inputs", 0, "loc", "mean", [1e308, 0.0]), _set("inputs", 1, "loc", "mean", [-1e308, 0.0])],
    ),
}


# Settings that once changed no output, and a combination that still would;
# each now exits 2 as an unknown field or argument: (family or committed
# scenario, mutations, extra CLI arguments, text the error line names).
RETIRED_INPUTS = {
    "--seed": ("bernoulli", [], ["--seed", "7"], "--seed"),
    "solver.seed": ("bernoulli", [_set("solver", "seed", 3)], [], "'seed'"),
    "seed string": ("bernoulli", [_set("solver", "seed", "x")], [], "'seed'"),
    "solver.mc_samples": ("bernoulli", [_set("solver", "mc_samples", 0)], [], "'mc_samples'"),
    "n_max for bernoulli": ("bernoulli", [_set("n_max", 5)], [], "'n_max'"),
    "n_max for poisson": ("poisson", [_set("n_max", 1)], [], "'n_max'"),
    "n_max at pmf support": ("iid", [_set("n_max", 3)], [], "'n_max'"),
    "n_max below pmf support": ("iid", [_set("n_max", 2)], [], "'n_max'"),
    "n_max string": ("iid", [_set("n_max", "a")], [], "'n_max'"),
    "n_max fractional": ("iid", [_set("n_max", 5.7)], [], "'n_max'"),
    "n_max zero": ("iid", [_set("n_max", 0)], [], "'n_max'"),
    "sigma1_sq with det_sigma": (
        "bernoulli",
        [_set("sweep", "sigma1_sq", 1.0), _set("sweep", "det_sigma", 0.01)],
        [],
        "sigma1_sq and det_sigma",
    ),
}
for _name in sorted(p.name for p in SCENARIO_DIR.glob("*.json")):
    RETIRED_INPUTS[f"--seed {_name}"] = (_name, [], ["--seed", "7"], "--seed")
    RETIRED_INPUTS[f"mc_samples {_name}"] = (_name, [_set("solver", "mc_samples", 0)], [], "'mc_samples'")


# Each optional scenario field, the committed scenario and command it shows
# a change through, and a value that shows it.
OPTIONAL_FIELDS = {
    "omega": ("two_sensor_bernoulli.json", ["fuse", "--mode", "p2"], 0.3),
    "solver.omega_init": ("binomial_iid_pair.json", ["fuse", "--mode", "consistent"], 0.05),
    "solver.epsilon": ("binomial_iid_pair.json", ["fuse", "--mode", "consistent"], 0.1),
    "solver.max_iters": ("binomial_iid_pair.json", ["fuse", "--mode", "consistent"], 1),
    "solver.omega_clamp": ("binomial_iid_pair.json", ["fuse", "--mode", "consistent"], 0.49),
    "sweep.sigma1_sq": ("two_sensor_bernoulli.json", ["sweep"], 2.0),
    "sweep.det_sigma": ("two_sensor_bernoulli.json", ["sweep"], 0.01),
    "outputs": ("poisson_pair.json", ["fuse", "--mode", "p2"], None),
}


@pytest.mark.parametrize("field", sorted(OPTIONAL_FIELDS))
def test_every_optional_field_changes_an_output(tmp_path, capsys, field):
    """A field changes the exit code or the files written, against the
    committed scenario without it (and, for a sweep scale, without the other
    scale). The outputs directory is the value of ``outputs``, with no --out."""
    name, argv, value = OPTIONAL_FIELDS[field]
    *block, key = field.split(".")
    without = json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
    target = without.setdefault(block[0], {}) if block else without
    for drop in ("sigma1_sq", "det_sigma") if block == ["sweep"] else (key,):
        target.pop(drop, None)
    runs = []
    for tag in ("without", "with"):
        payload = copy.deepcopy(without)
        if tag == "with":
            _set(*block, key, str(tmp_path / tag) if field == "outputs" else value)(payload)
        path = write_scenario(tmp_path, payload, f"{tag}.json")
        out = tmp_path / tag
        code = main([*argv, "--scenario", str(path), *([] if field == "outputs" else ["--out", str(out)])])
        files = {p.relative_to(out).as_posix(): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}
        runs.append((code, files))
    capsys.readouterr()
    assert runs[1][0] != 2
    assert runs[0] != runs[1]


class TestCli:
    @pytest.mark.parametrize("case", sorted(BAD_INPUTS))
    def test_bad_or_incompatible_input_exits_2(self, tmp_path, capsys, case):
        name, mutations = BAD_INPUTS[case]
        for grid_name, grid in zip(("left.npz", "right.npz"), disjoint_grids()):
            np.savez(tmp_path / grid_name, origin=grid.origin, cell_size=grid.cell_size, values=grid.values)
        payload = json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
        for mutate in mutations:
            mutate(payload)
        path = write_scenario(tmp_path, payload)
        commands = [["fuse", "--mode", "p2"], ["fuse", "--mode", "consistent"]]
        if "sweep" in payload:
            commands.append(["sweep"])
        for argv in commands:
            out = tmp_path / "_".join(argv)
            assert main([*argv, "--scenario", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1 and "Traceback" not in err, err
            assert not list(out.rglob("*.csv"))

    def test_fuse_exit_codes(self, tmp_path, capsys):
        ok = write_scenario(tmp_path, bernoulli_payload())
        assert main(["fuse", "--scenario", str(ok), "--mode", "consistent",
                     "--out", str(tmp_path / "a")]) == 0

        bad = write_scenario(tmp_path, bernoulli_payload(bogus=1), "bad.json")
        assert main(["fuse", "--scenario", str(bad), "--mode", "p2",
                     "--out", str(tmp_path)]) == 2

        disjoint = write_scenario(
            tmp_path,
            {
                "version": 1,
                "family": "iid",
                "inputs": [
                    {"pmf": [1.0, 0.0], "loc": {"mean": [0.0], "cov": [[1.0]]}},
                    {"pmf": [0.0, 1.0], "loc": {"mean": [0.3], "cov": [[1.0]]}},
                ],
            },
            "disjoint.json",
        )
        assert main(["fuse", "--scenario", str(disjoint), "--mode", "p2",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "error: inputs have disjoint supports" in err

    def test_covariance_whose_eigenvalue_overflows_exits_2_at_the_pair_limit(self, tmp_path, capsys):
        # condition number 19, so the covariance is accepted; its trace, 2e308, is past the pair limit
        payload = bernoulli_payload()
        payload["inputs"][0]["loc"]["cov"] = [[1e308, 9e307], [9e307, 1e308]]
        path = write_scenario(tmp_path, payload)
        for mode in ("p2", "consistent"):
            assert main(["fuse", "--scenario", str(path), "--mode", mode, "--out", str(tmp_path / mode)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: inputs do not form a localisation pair: Gaussian means and covariance "
                                  "traces must lie within 1e+300"), err

    @pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_number_exits_2(self, tmp_path, capsys, literal):
        payload = {
            "version": 1,
            "family": "poisson",
            "inputs": [
                {"lambda": 2.0, "loc": {"mean": [0.0], "cov": [[1.0]]}},
                {"lambda": "RATE", "loc": {"mean": [1.0], "cov": [[1.0]]}},
            ],
        }
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(payload).replace('"RATE"', literal), encoding="utf-8")
        for mode in ("p2", "consistent"):
            assert main(["fuse", "--scenario", str(path), "--mode", mode,
                         "--out", str(tmp_path / mode)]) == 2
            assert "non-finite number" in capsys.readouterr().err
            assert not (tmp_path / mode / "fuse.csv").exists()

    def test_overlong_integer_literal_exits_2(self, tmp_path, capsys):
        path = write_scenario(tmp_path, bernoulli_payload(alpha_i=12345))
        path.write_text(path.read_text(encoding="utf-8").replace("12345", "1" * 5000), encoding="utf-8")
        assert main(["fuse", "--scenario", str(path), "--mode", "p2", "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and len(err.splitlines()) == 1

    @pytest.mark.parametrize("case", ["representation", "dimension", "misaligned", "disjoint"])
    def test_unpaired_localisations_exit_2(self, tmp_path, capsys, case):
        """A pair that cannot be evaluated together fails at load."""
        for name, origin in (("a.npz", [0.0, 0.0]), ("b.npz", [0.05, 0.0])):
            np.savez(tmp_path / name, origin=np.array(origin), cell_size=np.array([0.1, 0.1]),
                     values=np.ones((10, 10)))
        for name, grid in zip(("left.npz", "right.npz"), disjoint_grids()):
            np.savez(tmp_path / name, origin=grid.origin, cell_size=grid.cell_size, values=grid.values)
        gauss_2d = {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}
        locs, reason = {
            "representation": ((gauss_2d, {"grid": "a.npz"}), "must share a representation"),
            "dimension": ((gauss_2d, {"mean": [0.0, 0.0, 0.0], "cov": np.eye(3).tolist()}),
                          "Gaussian dimensions do not match"),
            "misaligned": (({"grid": "a.npz"}, {"grid": "b.npz"}), "misaligned grids"),
            "disjoint": (({"grid": "left.npz"}, {"grid": "right.npz"}), "disjoint supports"),
        }[case]
        payload = {
            "version": 1,
            "family": "bernoulli",
            "inputs": [{"alpha": 0.8, "loc": locs[0]}, {"alpha": 0.7, "loc": locs[1]}],
        }
        path = write_scenario(tmp_path, payload)
        with pytest.raises(scenarios.ScenarioError, match=f"inputs do not form a localisation pair: .*{reason}"):
            scenarios.load_scenario(path)
        for mode in ("p2", "consistent"):
            assert main(["fuse", "--scenario", str(path), "--mode", mode,
                         "--out", str(tmp_path / mode)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: inputs do not form a localisation pair") and len(err.splitlines()) == 1
            assert not (tmp_path / mode / "fuse.csv").exists()

    @pytest.mark.parametrize("origin, cell, reason", [
        ([math.nan, 0.0], [0.1, 0.1], "origin must be finite"),
        ([math.inf, 0.0], [0.1, 0.1], "origin must be finite"),
        ([0.0, 0.0], [0.1, math.nan], "cell sizes must be positive and finite"),
        ([0.0, 0.0], [1e200, 1e200], "grid mass inf too far from 1 to renormalize"),
    ])
    def test_non_finite_lattice_exits_2(self, tmp_path, capsys, origin, cell, reason):
        """A grid file whose lattice or cell volume is not finite is rejected
        by name, at load."""
        np.savez(tmp_path / "bad.npz", origin=np.array(origin), cell_size=np.array(cell), values=np.ones((10, 10)))
        grid = {"grid": "bad.npz"}
        path = write_scenario(tmp_path, {"version": 1, "family": "bernoulli",
                                         "inputs": [{"alpha": 0.8, "loc": grid}, {"alpha": 0.7, "loc": grid}]})
        for mode in ("p2", "consistent"):
            assert main(["fuse", "--scenario", str(path), "--mode", mode, "--out", str(tmp_path / mode)]) == 2
            assert capsys.readouterr().err == f"error: cannot load grid density 'bad.npz': {reason}\n"
            assert not (tmp_path / mode / "fuse.csv").exists()

    @pytest.mark.parametrize("command", [["fuse", "--mode", "p2"], ["fuse", "--mode", "consistent"], ["sweep"]])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, command):
        payload = json.loads((SCENARIO_DIR / "poisson_pair.json").read_text(encoding="utf-8"))
        payload["sweep"] = {"kappa": [1.0, 4.0, 3], "omega": [0.0, 1.0, 5]}
        path = write_scenario(tmp_path, payload)
        blocker = tmp_path / "blocker"
        blocker.write_text("", encoding="utf-8")
        out = blocker / "x"
        assert main([*command, "--scenario", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: cannot write {out}: Not a directory\n" and "Traceback" not in err, err

    @pytest.mark.parametrize("exc", [ValueError("boom"), TypeError("boom")])
    def test_any_other_exception_escapes_with_its_traceback(self, tmp_path, monkeypatch, exc):
        """Exit 2 and 3 stand for typed errors only; a ValueError or
        TypeError from the library is a bug and is not mapped to an exit."""
        def fail(*args):
            raise exc

        monkeypatch.setattr(cli, "fuse_scenario", fail)
        path = write_scenario(tmp_path, bernoulli_payload())
        with pytest.raises(type(exc), match="boom"):
            main(["fuse", "--mode", "p2", "--scenario", str(path), "--out", str(tmp_path / "o")])

    def test_solver_failure_dumps_trace(self, tmp_path, capsys):
        payload = {
            "version": 1,
            "family": "iid",
            "inputs": [
                {"pmf": list(binomial_pmf(5, 0.95).probs),
                 "loc": {"mean": [0.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
                {"pmf": list(binomial_pmf(5, 0.92).probs),
                 "loc": {"mean": [1.0, 0.0], "cov": [[1.0, 0.0], [0.0, 1.0]]}},
            ],
            "solver": {"omega_init": 0.99, "max_iters": 1},
        }
        path = write_scenario(tmp_path, payload, "hard.json")
        assert main(["fuse", "--scenario", str(path), "--mode", "consistent",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "solver error" in err and "omega=" in err
        assert "slope=" in err and "curvature=" in err

    @pytest.mark.parametrize("name, field", [("two_sensor_bernoulli.json", "alpha"), ("poisson_pair.json", "lambda")])
    def test_count_pinned_at_zero_fuses_in_consistent_mode(self, tmp_path, capsys, name, field):
        payload = json.loads((SCENARIO_DIR / name).read_text(encoding="utf-8"))
        payload["inputs"][0][field] = 0.0
        path = write_scenario(tmp_path, payload)
        assert main(["fuse", "--scenario", str(path), "--mode", "consistent", "--out", str(tmp_path / "o")]) == 0
        assert SINGLE_COUNT_FLAG in capsys.readouterr().out
        with open(tmp_path / "o" / "fuse.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert all(np.isfinite(float(row[k])) for k in row if k not in ("family", "mode", "inconsistent"))
        assert float(row["omega_card"]) == 0.5 and float(row[f"{field}_fused"]) == 0.0

    def test_iid_pair_with_no_objects_fuses_everywhere(self, tmp_path):
        payload = sweep_payload("iid", kappa=(1.0, 4.0, 3), omega=(0.0, 1.0, 5))
        for spec in payload["inputs"]:
            spec["pmf"] = [1.0]
        path = write_scenario(tmp_path, payload)
        for mode in ("p2", "consistent"):
            assert main(["fuse", "--mode", mode, "--scenario", str(path), "--out", str(tmp_path / mode)]) == 0
            with open(tmp_path / mode / "fuse.csv", newline="") as fh:
                assert next(csv.DictReader(fh))["map_fused"] == "0"
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "sweep")]) == 0
        with open(tmp_path / "sweep" / "sweep.csv", newline="") as fh:
            assert {row["map_omega"] for row in csv.DictReader(fh)} == {"0"}

    @pytest.mark.parametrize("case", sorted(RETIRED_INPUTS))
    def test_retired_input_exits_2(self, tmp_path, capsys, case):
        source, mutations, flags, named = RETIRED_INPUTS[case]
        sweep = {"kappa": [1.0, 4.0, 3], "omega": [0.0, 1.0, 5]}
        if source.endswith(".json"):
            payload = json.loads((SCENARIO_DIR / source).read_text(encoding="utf-8"))
            payload.setdefault("sweep", sweep)
        else:
            payload = sweep_payload(source, kappa=sweep["kappa"], omega=sweep["omega"])
        for mutate in mutations:
            mutate(payload)
        path = write_scenario(tmp_path, payload)
        commands = [["fuse", "--mode", "p2"], ["fuse", "--mode", "consistent"], ["sweep"]]
        commands = [[*argv, "--scenario", str(path)] for argv in commands]
        if flags:
            commands.append(["reproduce", "ex4"])
        for index, argv in enumerate(commands):
            out = tmp_path / f"out{index}"
            argv = [*argv, "--out", str(out), *flags]
            if flags:
                with pytest.raises(SystemExit) as exit_info:
                    main(argv)
                assert exit_info.value.code == 2
            else:
                assert main(argv) == 2
            err = capsys.readouterr().err
            errors = [line for line in err.splitlines() if "error:" in line]
            assert len(errors) == 1 and named in errors[0], err
            assert not out.exists()


    @pytest.mark.parametrize("case", sorted(BAD_SCALARS))
    def test_bad_scalar_exits_2(self, tmp_path, capsys, case):
        payload = bernoulli_payload(alpha_j=0.6, sweep={"kappa": [1.0, 4.0, 3], "omega": [0.0, 1.0, 5]})
        mutate, message = BAD_SCALARS[case]
        mutate(payload)
        path = write_scenario(tmp_path, payload)
        for argv in (["fuse", "--mode", "p2"], ["fuse", "--mode", "consistent"], ["sweep"]):
            out = tmp_path / "_".join(argv)
            assert main([*argv, "--scenario", str(path), "--out", str(out)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and len(err.splitlines()) == 1 and message in err, err
            assert not out.exists()

    def test_sweep_and_reproduce_cli(self, tmp_path):
        payload = bernoulli_payload(
            sweep={"kappa": [1.0, 4.0, 3], "omega": [0.0, 1.0, 5]}
        )
        path = write_scenario(tmp_path, payload)
        assert main(["sweep", "--scenario", str(path), "--out", str(tmp_path / "sw")]) == 0
        assert (tmp_path / "sw" / "sweep.csv").exists()
        assert main(["reproduce", "ex4", "--out", str(tmp_path / "rep")]) == 0

    def test_out_dir_falls_back_to_scenario(self, tmp_path):
        payload = bernoulli_payload(outputs=str(tmp_path / "from_scenario"))
        path = write_scenario(tmp_path, payload)
        assert main(["fuse", "--scenario", str(path), "--mode", "consistent"]) == 0
        assert (tmp_path / "from_scenario" / "fuse.csv").exists()

    def test_out_flag_wins_over_scenario_outputs_with_a_warning(self, tmp_path, capsys):
        ignored = str(tmp_path / "from_scenario")
        path = write_scenario(tmp_path, bernoulli_payload(outputs=ignored))
        assert main(["fuse", "--scenario", str(path), "--mode", "consistent", "--out", str(tmp_path / "flag")]) == 0
        assert (tmp_path / "flag" / "fuse.csv").exists()
        assert not (tmp_path / "from_scenario").exists()
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning:") and ignored in err[0]

    def test_unknown_log_level_warns_and_runs_at_warn(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("SETFUSE_LOG", "verbose")
        path = write_scenario(tmp_path, bernoulli_payload())
        assert main(["fuse", "--scenario", str(path), "--mode", "p2", "--out", str(tmp_path / "out")]) == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("warning:") and "'verbose'" in err[0]
        assert all(name in err[0] for name in ("error", "warn", "info", "debug"))
        assert logging.getLogger("setfuse").level == logging.WARNING
