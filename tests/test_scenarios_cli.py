import csv
import json
from pathlib import Path

import numpy as np
import pytest

import setfuse as sf
from setfuse import scenarios
from setfuse.cli import main
from conftest import binomial_pmf

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"


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
        path = write_scenario(tmp_path, bernoulli_payload(solver={"seed": 5}, omega=0.3))
        scenario = scenarios.load_scenario(path)
        assert scenario.family == "bernoulli"
        assert scenario.solver.seed == 5
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

    def test_bad_sweep_ranges_rejected(self, tmp_path):
        payload = bernoulli_payload(sweep={"kappa": [0.5, 40.0, 10], "omega": [0.0, 1.0, 5]})
        with pytest.raises(scenarios.ScenarioError, match="kappa"):
            scenarios.load_scenario(write_scenario(tmp_path, payload))


class TestRunFuse:
    def test_identical_inputs_either_mode(self, tmp_path):
        payload = bernoulli_payload(mean_j=(0.25, 0.25))
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        for mode in ("p2", "consistent"):
            result, path = scenarios.run_fuse(scenario, mode, tmp_path / mode)
            assert result.fused.alpha == pytest.approx(0.8, abs=1e-12)
            assert path.exists()

    def test_row_flag_matches_recomputation(self, tmp_path):
        scenario = scenarios.load_scenario(write_scenario(tmp_path, bernoulli_payload()))
        _, path = scenarios.run_fuse(scenario, "p2", tmp_path / "out")
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
        result, path = scenarios.run_fuse(scenario, "consistent", tmp_path / "out")
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
        path = scenarios.run_sweep(scenario, tmp_path / "out")
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["z_omega"]) == pytest.approx(1.0, abs=1e-12)
        assert float(row["alpha_omega"]) == pytest.approx(0.8, abs=1e-12)

    def test_bytes_identical_across_runs_and_workers(self, tmp_path):
        payload = bernoulli_payload(
            sweep={"kappa": [1.0, 8.0, 6], "omega": [0.0, 1.0, 9], "sigma1_sq": 1.0}
        )
        scenario = scenarios.load_scenario(write_scenario(tmp_path, payload))
        blobs = []
        for idx in range(3):
            path = scenarios.run_sweep(scenario, tmp_path / f"out{idx}")
            blobs.append(path.read_bytes())
        assert blobs[0] == blobs[1] == blobs[2]

    def test_requires_sweep_block(self, tmp_path):
        scenario = scenarios.load_scenario(write_scenario(tmp_path, bernoulli_payload()))
        with pytest.raises(scenarios.ScenarioError, match="sweep"):
            scenarios.run_sweep(scenario, tmp_path / "out")

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
            scenarios.run_sweep(scenario, tmp_path / "out")

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
        path = scenarios.run_sweep(scenario, tmp_path / "out")
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
        path = scenarios.run_sweep(scenario, tmp_path / "out")
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 9
        for row in rows:
            fused = float(row["lambda_omega"])
            w, z = float(row["omega"]), float(row["z_omega"])
            assert fused == pytest.approx(2.0 ** (1 - w) * 8.0**w * z, rel=1e-12)
            assert (row["inconsistent"] == "true") == (fused < 2.0)


class TestReproduce:
    @pytest.mark.parametrize("example", scenarios.EXAMPLE_IDS)
    def test_every_builtin_experiment_passes_its_checks(self, tmp_path, example):
        result = scenarios.reproduce(example, tmp_path, seed=0)
        failed = [name for name, ok, _ in result["checks"] if not ok]
        assert not failed
        summary = (tmp_path / example / "summary.txt").read_text()
        assert "FAIL" not in summary
        for path in result["files"]:
            assert path.exists()

    def test_unknown_example_rejected(self, tmp_path):
        with pytest.raises(scenarios.ScenarioError, match="unknown example"):
            scenarios.reproduce("ex9", tmp_path)


class TestCli:
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
                "n_max": 1,
            },
            "disjoint.json",
        )
        assert main(["fuse", "--scenario", str(disjoint), "--mode", "p2",
                     "--out", str(tmp_path)]) == 3
        err = capsys.readouterr().err
        assert "incompatible cardinality supports" in err

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

    @pytest.mark.parametrize("name", sorted(p.name for p in SCENARIO_DIR.glob("*.json")))
    def test_seed_does_not_change_consistent_output(self, tmp_path, name):
        blobs = []
        for seed in ("0", "7"):
            out = tmp_path / f"seed{seed}"
            assert main(["fuse", "--scenario", str(SCENARIO_DIR / name), "--mode", "consistent",
                         "--out", str(out), "--seed", seed]) == 0
            blobs.append((out / "fuse.csv").read_bytes())
        assert blobs[0] == blobs[1]

    def test_seed_override_accepted(self, tmp_path):
        path = write_scenario(tmp_path, bernoulli_payload(solver={"seed": 1}))
        scenario = scenarios.load_scenario(path)
        assert scenario.solver.seed == 1
        assert main(["fuse", "--scenario", str(path), "--mode", "consistent",
                     "--out", str(tmp_path / "s"), "--seed", "42"]) == 0

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
