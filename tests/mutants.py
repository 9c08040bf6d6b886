"""Mutation checks: small faults in ``src/`` that named tests must catch.

Each entry of ``MUTANTS`` is ``(file, old text, new text, tests)``: the file
under ``src/setfuse``, a text that occurs in it exactly once, what replaces
it, and the test files (or pytest node ids) that must fail once it is
replaced. For each entry the script copies ``src/``, ``tests/``,
``scripts/`` and ``pyproject.toml`` into a temporary directory, applies the
change there and runs the named tests. It first runs every named test on
the unchanged copy, which must pass. Run from the root of a checkout:

    python tests/mutants.py

It prints one line per mutant and exits 1 if any mutant survives (its tests
still pass), or 2 if the unchanged tests fail or an entry's old text is not
found exactly once. ``KNOWN_SURVIVORS`` holds mutants that no test can
kill, each with its reason; they run too, and their survival is reported
but does not fail the script. It is not collected by pytest and is not part of tier-1.
A change that adds a test adds here the mutant the test kills.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

MUTANTS = [
    # the plain sum is used whatever its size, so 0 and inf reach the log
    ("quadrature.py", "if _LOW_TOTAL <= total <= _HIGH_TOTAL:", "if True:", ["tests/test_quadrature.py"]),
    # the fallback exponentiates the terms without the max shift
    ("quadrature.py", "    peak = logs.max()\n", "    peak = 0.0\n", ["tests/test_quadrature.py"]),
    # huge sums stay on the plain path; answers hold, the shifted-call count does not
    (
        "quadrature.py",
        "_LOW_TOTAL, _HIGH_TOTAL = 1e-100, 1e100",
        "_LOW_TOTAL, _HIGH_TOTAL = 1e-100, 1e300",
        ["tests/test_quadrature.py"],
    ),
    # density() divides by z_w in one step, which underflows on tiny cells
    (
        "quadrature.py",
        "        if norm < 1e-300:",
        "        if False:",
        ["tests/test_quadrature.py"],
    ),
    # a NaN slope is not rejected, so the bracket reads it as positive
    (
        "solvers.py",
        "if not (math.isfinite(slope) and math.isfinite(curvature)):",
        "if not math.isfinite(curvature):",
        ["tests/test_solvers.py"],
    ),
    # the Poisson log count weight loses -rate
    ("model.py", "log_weight = -f.rate + (n * _log(f.rate)", "log_weight = (n * _log(f.rate)", ["tests/test_model.py"]),
    # the Poisson log count weight forms 0 log 0 at rate 0 and n = 0, a NaN
    ("model.py", "(n * _log(f.rate) if n else 0.0)", "n * _log(f.rate)", ["tests/test_model.py"]),
    # the IID log count weight loses log n!
    (
        "model.py",
        "_log(f.card.prob(n)) + math.lgamma(n + 1.0)",
        "_log(f.card.prob(n))",
        ["tests/test_model.py"],
    ),
    # the grid log density is log1p of the cell value, not its log
    ("model.py", "return np.log(self.evaluate(points))", "return np.log1p(self.evaluate(points))", ["tests/test_model.py"]),
    # the Bernoulli log count weights of n = 0 and n = 1 swap
    ("model.py", "(1.0 - f.alpha, f.alpha, 0.0)", "(f.alpha, 1.0 - f.alpha, 0.0)", ["tests/test_model.py"]),
    # the Bernoulli partial sum counts n = 1 whatever n_max is
    (
        "model.py",
        "(1.0 - f.alpha) + (f.alpha if n_max >= 1 else 0.0)",
        "(1.0 - f.alpha) + f.alpha",
        ["tests/test_model.py"],
    ),
    # the z_w -> 0 limit of the IID joint rule puts its mass on count 0
    ("fusion.py", "    probs[ns[0]] = 1.0\n", "    probs[0] = 1.0\n", ["tests/test_fusion.py"]),
    # pmfs with no common count reach the IID z_w -> 0 limit, which indexes an empty array
    (
        "fusion.py",
        "    if ns.size == 0:\n        raise IncompatibleInputs(DISJOINT_SUPPORT)\n    probs",
        "    probs",
        ["tests/test_fusion.py", "tests/test_diagnostics.py"],
    ),
    # the IID threshold's log gamma takes the larger of its two candidates, not the smaller
    (
        "diagnostics.py",
        "log_gamma = min(-omega * float(q.max()), (1.0 - omega) * float(q.min()))",
        "log_gamma = max(-omega * float(q.max()), (1.0 - omega) * float(q.min()))",
        ["tests/test_diagnostics.py::TestIidAgainstDecimalReference"],
    ),
    # the IID threshold's gamma loses the -w q term: min(0, q) alone
    (
        "diagnostics.py",
        "log_gamma = min(-omega * float(q.max()), (1.0 - omega) * float(q.min()))",
        "log_gamma = min(0.0, float(q.min()))",
        ["tests/test_diagnostics.py::TestIidAgainstDecimalReference"],
    ),
    # the IID bound at z = 0 reads log N_w = -inf instead of the joint rule's limit
    (
        "diagnostics.py",
        "        log_norm = math.log(norm) if norm else -math.inf\n",
        "        log_norm = -math.inf\n",
        ["tests/test_diagnostics.py"],
    ),
    # the IID bound takes a scale factor above 1
    (
        "diagnostics.py",
        "if not 0.0 <= z_omega <= 1.0 + 1e-12:",
        "if not 0.0 <= z_omega:",
        ["tests/test_diagnostics.py::TestIidBound"],
    ),
    # pointwise_ratio checks z_seq's length against the fused pmf, so at w = 0 or 1 it may cover one input only
    (
        "diagnostics.py",
        "if z.size < max(p_i.probs.size, p_j.probs.size):",
        "if z.size < probs.size:",
        ["tests/test_diagnostics.py::TestScaleSequenceCheck"],
    ),
    # pointwise_ratio skips the scale-sequence value check
    (
        "diagnostics.py",
        "    _scale_sequence(p_i, p_j, z)\n    expectation",
        "    expectation",
        ["tests/test_diagnostics.py::TestScaleSequenceCheck"],
    ),
    # the joint path returns the first input at w = 1 too
    (
        "fusion.py",
        "return (f_j if omega == 1.0 else f_i), 1.0, 1.0",
        "return f_i, 1.0, 1.0",
        ["tests/test_fusion.py"],
    ),
    # the Bernoulli count rule fuses existence beliefs of 0 and 1
    ("fusion.py", "        _check_alphas(alpha_i, alpha_j)\n", "", ["tests/test_fusion.py"]),
    # iid_fuse_p2 fuses the count pmfs on their own ranges, whatever n_max asks
    (
        "fusion.py",
        "_fuse_p2(IidClusterRfs, f_i, f_j, omega, n_max)",
        "_fuse_p2(IidClusterRfs, f_i, f_j, omega)",
        ["tests/test_fusion.py"],
    ),
    # the joint path fuses by the inputs' type, not by the rule that was called
    (
        "fusion.py",
        "    rule = _count_rule(family, f_i, f_j, n_max)\n",
        "    family = type(f_i)\n    rule = _count_rule(family, f_i, f_j, n_max)\n",
        ["tests/test_fusion.py"],
    ),
    # the fused Gaussian's mean is shifted by c_j d / s instead of c_i d / s
    (
        "gaussian.py",
        "shift = [w * (c_i * r_k) * d for (c_i, _, d), r_k in zip(frame, r)]",
        "shift = [w * (c_j * r_k) * d for (_, c_j, d), r_k in zip(frame, r)]",
        ["tests/test_gaussian.py", "tests/test_fusion.py"],
    ),
    # the joint support is read off log a alone, so a zero of b goes unmasked
    (
        "quadrature.py",
        "full = math.isfinite(log_ratio.sum())",
        "full = math.isfinite(log_a.sum())",
        ["tests/test_quadrature.py"],
    ),
    # an --out that cannot be written exits 3, as a solver failure
    (
        "cli.py",
        "file=sys.stderr)\n            return EXIT_INPUT\n        for path in paths:",
        "file=sys.stderr)\n            return EXIT_SOLVER\n        for path in paths:",
        ["tests/test_scenarios_cli.py"],
    ),
    # a reproduction check that prints FAIL still exits 0
    ("cli.py", "return EXIT_CHECK if failed else EXIT_OK", "return EXIT_OK", ["tests/test_scenarios_cli.py"]),
    # two densities count as one when their first stored arrays (mean, or grid origin) agree
    (
        "solvers.py",
        "for x, y in zip(vars(a).values(), vars(b).values())",
        "for x, y in [next(zip(vars(a).values(), vars(b).values()))]",
        ["tests/test_solvers.py", "tests/test_fusion.py"],
    ),
    # a pair that cannot be evaluated together loads, and fails only when fused
    ("scenarios.py", "        _localisation_pair(f_i.loc, f_j.loc)\n", "        pass\n", ["tests/test_scenarios_cli.py"]),
    # a solver block may no longer set omega_clamp
    (
        "scenarios.py",
        '{"omega_init", "epsilon", "max_iters", "omega_clamp"}',
        '{"omega_init", "epsilon", "max_iters"}',
        ["tests/test_scenarios_cli.py"],
    ),
    # ex2's per-count bounds move by 1e-11, past the golden tolerance
    (
        "scenarios.py",
        "diagnostics.iid_inconsistency_bound(p_i, p_j, 0.5, n, float(z)),",
        "diagnostics.iid_inconsistency_bound(p_i, p_j, 0.5, n, float(z)) + 1e-11,",
        ["tests/test_golden.py"],
    ),
    # each sweep cell reports the first input's count instead of the fused one
    (
        "scenarios.py",
        "value = _count_summary(rule(omega, log_z)[0])",
        "value = inputs[0]",
        ["tests/test_scenarios_cli.py"],
    ),
    # grids 1e-9 apart count as aligned
    (
        "quadrature.py",
        "abs(o_i - o_j) <= 1e-12 and abs(c_i - c_j) <= 1e-12 * c_j",
        "abs(o_i - o_j) <= 1e-9 and abs(c_i - c_j) <= 1e-9 * c_j",
        ["tests/test_quadrature.py"],
    ),
    # grids with different origins count as aligned
    ("quadrature.py", "abs(o_i - o_j) <= 1e-12 and ", "", ["tests/test_quadrature.py"]),
    # the cell volume of a grid is the size of its first axis
    ("model.py", "return math.prod(self.cell_size.tolist())", "return float(self.cell_size[0])",
     ["tests/test_model.py", "tests/test_quadrature.py"]),
    # a fused grid's values stay writable
    ("model.py", "        _set_frozen(self, values=values)\n", "        vars(self)['values'] = values\n",
     ["tests/test_quadrature.py"]),
    # two densities count as one when every stored array but the last (covariance, grid values) agrees
    (
        "solvers.py",
        "for x, y in zip(vars(a).values(), vars(b).values())",
        "for x, y in list(zip(vars(a).values(), vars(b).values()))[:-1]",
        ["tests/test_solvers.py", "tests/test_fusion.py"],
    ),
    # the last count both pmfs span is never joint
    ("fusion.py", "    k = min(a.size, b.size)\n", "    k = min(a.size, b.size) - 1\n",
     ["tests/test_fusion.py", "tests/test_diagnostics.py"]),
    # a grid with a NaN or infinite origin is accepted
    (
        "model.py",
        '        if not np.isfinite(origin).all():\n            raise ValueError("origin must be finite")\n',
        "",
        ["tests/test_model.py"],
    ),
    # far-apart Gaussians: the d^2 term is scaled back before the weights
    # multiply it, so w = 0 and w = 1 give 0 * inf, not log z = 0
    ("gaussian.py", "w * v * mahal * grow * grow", "w * v * (mahal * grow * grow)", ["tests/test_gaussian.py"]),
    # a ValueError or TypeError from the library exits 3 as a "fusion error" again
    (
        "cli.py",
        "        return EXIT_SOLVER\n\n\nif __name__",
        "        return EXIT_SOLVER\n    except (ValueError, TypeError) as exc:\n"
        "        print(f\"fusion error: {exc}\", file=sys.stderr)\n        return EXIT_SOLVER\n\n\nif __name__",
        ["tests/test_scenarios_cli.py"],
    ),
    # a family that is not a string reaches the dict lookup, which raises TypeError
    (
        "scenarios.py",
        "if not isinstance(family, str) or family not in _FAMILIES:",
        "if family not in _FAMILIES:",
        ["tests/test_scenarios_cli.py", "tests/test_cli_fuzz.py::test_non_string_family_is_an_unknown_family"],
    ),
    # the fused Gaussian is formed as c_i c_j / s and w c_i d / s, whose products overflow
    (
        "gaussian.py",
        "        r = [1.0 / ((1.0 - w) * c_j + w * c_i) for c_i, c_j, _ in frame]\n"
        "        var = [c_i * (c_j * r_k) if c_i < c_j else c_j * (c_i * r_k) for (c_i, c_j, _), r_k in zip(frame, r)]\n"
        "        shift = [w * (c_i * r_k) * d for (c_i, _, d), r_k in zip(frame, r)]\n",
        "        s = [(1.0 - w) * c_j + w * c_i for c_i, c_j, _ in frame]\n"
        "        var = [c_i * c_j / s_k for (c_i, c_j, _), s_k in zip(frame, s)]\n"
        "        shift = [w * c_i * d / s_k for (c_i, _, d), s_k in zip(frame, s)]\n",
        ["tests/test_gaussian.py"],
    ),
    # the fused variance is formed as c_i (c_j r), whose ratio underflows when c_j << c_i
    (
        "gaussian.py",
        "var = [c_i * (c_j * r_k) if c_i < c_j else c_j * (c_i * r_k) for",
        "var = [c_i * (c_j * r_k) for",
        ["tests/test_gaussian.py"],
    ),
    # the fused mean's shift multiplies c_i by d before r, which overflows
    ("gaussian.py", "shift = [w * (c_i * r_k) * d for", "shift = [w * c_i * d * r_k for", ["tests/test_gaussian.py"]),
    # a covariance is symmetrised as 0.5 (c + c'), which overflows above about 9e307
    ("model.py", "cov=0.5 * c + 0.5 * c.T)", "cov=0.5 * (c + c.T))", ["tests/test_gaussian.py"]),
    # the symmetry check forms c - c', which overflows on a huge asymmetric matrix
    (
        "model.py",
        "np.abs(0.5 * c - 0.5 * c.T).max() > 0.5e-12 * scale",
        "np.abs(c - c.T).max() > 1e-12 * scale",
        ["tests/test_gaussian.py"],
    ),
    # Gaussian pairs past the pair limit are fused, and their frame overflows
    (
        "gaussian.py",
        "if max(tr_i, tr_j, *map(abs, rho_i.mean.tolist() + rho_j.mean.tolist())) > PAIR_LIMIT:",
        "if False:",
        ["tests/test_gaussian.py", "tests/test_scenarios_cli.py"],
    ),
    # a sweep scale that underflows is reported as one that overflows
    (
        "scenarios.py",
        'f"sweep covariance at kappa = {end:g} underflows"',
        'f"sweep covariance at kappa = {end:g} overflows"',
        ["tests/test_scenarios_cli.py"],
    ),
    # consistent fusion reports the Bernoulli count weight but fuses the count at 1 - w
    (
        "solvers.py",
        "_bernoulli_alpha(alpha_i, alpha_j, omega, 0.0), clamped)",
        "_bernoulli_alpha(alpha_i, alpha_j, 1.0 - omega, 0.0), clamped)",
        ["tests/test_fusion.py"],
    ),
    # the eigenvalue checks run on c, whose larger eigenvalue overflows near the float maximum
    (
        "model.py",
        "eig = np.linalg.eigvalsh(c / scale)",
        "eig = np.linalg.eigvalsh(c)",
        ["tests/test_gaussian.py", "tests/test_scenarios_cli.py"],
    ),
    # the scaled evaluator shrinks c_i - c_j by 2^(1-p), not 2^-p
    (
        "gaussian.py",
        "shrink, grow = math.ldexp(1.0, -p),",
        "shrink, grow = math.ldexp(2.0, -p),",
        ["tests/test_gaussian.py"],
    ),
    # the grid divergence is clipped at 1, not at 0
    ("quadrature.py", "return max(val, 0.0)", "return max(val, 1.0)", ["tests/test_quadrature.py"]),
    # the frame's eigenvectors are read from the upper triangle, which moves their last bits
    (
        "gaussian.py",
        "_umath_linalg.eigh_lo(",
        "_umath_linalg.eigh_up(",
        ["tests/test_gaussian.py::TestFrameBuild"],
    ),
    # a failed factorisation gives NaNs, not LinAlgError
    (
        "gaussian.py",
        'call=_factorisation_failed, invalid="call"',
        'call=_factorisation_failed, invalid="ignore"',
        ["tests/test_gaussian.py::TestFrameBuild"],
    ),
    # a Newton step longer than half the step before last is taken, so a
    # solve on an exponential-like slope creeps about 0.01 per step
    (
        "solvers.py",
        "newton_ok = lo <= cand <= hi and abs(cand - w) <= 0.5 * before_last",
        "newton_ok = lo <= cand <= hi",
        ["tests/test_solvers.py::TestNewtonLocalisation::test_creeping_grid_pair_converges"],
    ),
    # a Newton candidate whose |l'| grows is kept instead of bisected
    (
        "solvers.py",
        "        if newton_ok and abs(at_cand.slope) > abs(slope):\n"
        "            cand = 0.5 * (lo + hi)\n"
        "            at_cand = evaluate(cand)\n",
        "",
        ["tests/test_solvers.py::TestNewtonLocalisation::test_newton_step_that_grows_the_slope_is_rejected"],
    ),
    # the default weight clamp doubles
    ("solvers.py", "omega_clamp: float = 1e-6", "omega_clamp: float = 2e-6", ["tests/test_solvers.py"]),
    # an all-zero covariance is scaled by its largest entry, 0 / 0
    (
        "model.py",
        '        if scale == 0:\n            raise ValueError("covariance must be positive definite")\n',
        "",
        ["tests/test_model.py::TestGaussianDensity"],
    ),
    # the lattice whitening reads the inverse Cholesky factor transposed
    (
        "model.py",
        "                w = inv_chol[r, 0] * offsets[0]\n"
        "                for k in range(1, r + 1):\n"
        "                    w = w + inv_chol[r, k] * offsets[k]\n",
        "                w = inv_chol[0, r] * offsets[0]\n"
        "                for k in range(1, r + 1):\n"
        "                    w = w + inv_chol[k, r] * offsets[k]\n",
        ["tests/test_quadrature.py::TestDiscretization"],
    ),
    # an overflow's NaN squared distance stays NaN, so a lattice point where
    # two whitened terms overflow with opposite signs reads NaN, not 0
    (
        "model.py",
        "            np.fmin(maha, np.inf, out=maha)  # NaN -> inf, in one pass\n",
        "",
        ["tests/test_quadrature.py::TestDiscretization::test_overflowing_lattices_are_rejected"],
    ),
    # the grid mass multiplies the cell sizes with np.prod, which warns on overflow
    (
        "model.py",
        "mass = float(vals.sum()) * math.prod(cell.tolist())",
        "mass = float(vals.sum()) * float(np.prod(cell))",
        ["tests/test_model.py", "tests/test_quadrature.py::TestDiscretization"],
    ),
    # a discretisation box past the float range warns before it is rejected
    (
        "quadrature.py",
        '    with np.errstate(over="ignore", invalid="ignore"):\n        lo = np.min(',
        "    if True:\n        lo = np.min(",
        ["tests/test_quadrature.py::TestDiscretization"],
    ),
    # grid z_w is not clipped at 1, so identical grids read 1 + 4 eps
    ("quadrature.py", "    log_cap = 0.0\n", "    log_cap = math.inf\n", ["tests/test_quadrature.py::TestGridZ"]),
    # the sweep determinant is sigma1_sq^3 / kappa
    ("scenarios.py", "else self.sigma1_sq**2 / kappa", "else self.sigma1_sq**3 / kappa", ["tests/test_scenarios_cli.py"]),
    # the underflow test multiplies by the kappa end instead of dividing
    (
        "scenarios.py",
        "if not math.sqrt(det / end) > 0.0:",
        "if not math.sqrt(det * end) > 0.0:",
        ["tests/test_scenarios_cli.py"],
    ),
    # a sweep whose major-axis variance overflows loads
    ("scenarios.py", "if not math.sqrt(det * end) < math.inf:", "if False:", ["tests/test_scenarios_cli.py"]),
    # the moments read the block's q^2 row before it is filled
    (
        "quadrature.py",
        "pair[1] = np.multiply(pair[0], pair[0], out=pair[2][2])",
        "pair[1] = pair[2][2]",
        ["tests/test_quadrature.py::TestEvaluatorBlock"],
    ),
    # q^2 is written over the log-ratio row
    ("quadrature.py", "out=pair[2][2])", "out=pair[2][1])", ["tests/test_quadrature.py::TestEvaluatorBlock"]),
    # density() divides the terms in place, so its values are the terms
    (
        "quadrature.py",
        "        return build(self.rel / norm)",
        "        return build(np.divide(self.rel, norm, out=self.rel))",
        ["tests/test_quadrature.py::TestEvaluatorBlock"],
    ),
    # three separate rows, freed one by one, bring back the heap regrowth
    (
        "quadrature.py",
        "block = np.empty((3,) + a.shape)",
        "block = [np.empty(a.shape) for _ in range(3)]",
        ["tests/test_quadrature.py::test_repeated_grid_fusions_take_no_page_faults"],
    ),
    # the localisations are compared on their first elements only
    (
        "solvers.py",
        "memoryview(x) == memoryview(y) for x, y",
        "x.flat[0] == y.flat[0] for x, y",
        ["tests/test_solvers.py::TestNewtonLocalisation"],
    ),
    # the localisations are compared bit for bit, so 0.0 and -0.0 differ
    (
        "solvers.py",
        "memoryview(x) == memoryview(y) for x, y",
        "x.tobytes() == y.tobytes() for x, y",
        ["tests/test_solvers.py::TestNewtonLocalisation"],
    ),
]

# Mutants no test can kill, each with the reason; they run and are reported,
# but their survival does not fail the script.
KNOWN_SURVIVORS = [
    # the clip keeps 0 instead of a NaN curvature; the curvature is NaN only
    # where the slope is too, and the solver rejects a NaN slope first
    (
        "quadrature.py",
        "max(square - slope * slope, 0.0)",
        "max(0.0, square - slope * slope)",
        ["tests/test_quadrature.py", "tests/test_solvers.py"],
    ),
]


def _copy(into: Path) -> None:
    skip = shutil.ignore_patterns("__pycache__", ".pytest_cache", ".hypothesis")
    for name in ("src", "tests", "scripts"):
        shutil.copytree(ROOT / name, into / name, ignore=skip)
    shutil.copy(ROOT / "pyproject.toml", into)


def _pytest(root: Path, tests: list[str]) -> int:
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    return subprocess.run(argv, cwd=root, env=env, capture_output=True, text=True).returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _copy(root)
        named = sorted({test for *_, tests in MUTANTS + KNOWN_SURVIVORS for test in tests})
        if _pytest(root, named) != 0:
            print(f"the unchanged tests fail: {' '.join(named)}")
            return 2
        survivors = 0
        for index, (file, old, new, tests) in enumerate(MUTANTS + KNOWN_SURVIVORS):
            known = index >= len(MUTANTS)
            path = root / "src" / "setfuse" / file
            text = path.read_text(encoding="utf-8")
            label = f"{file}: {old.strip()!r} -> {new.strip()!r}"
            if text.count(old) != 1:
                print(f"stale: {label} (old text found {text.count(old)} times)")
                return 2
            path.write_text(text.replace(old, new), encoding="utf-8")
            try:
                code = _pytest(root, tests)
            finally:
                path.write_text(text, encoding="utf-8")
            # 1 is a failed test; any other exit (a usage or collection error) kills nothing
            killed = code == 1
            if known:
                print(f"{'killed (list it in MUTANTS)' if killed else 'known survivor'} (pytest exit {code}): {label}")
                continue
            survivors += not killed
            print(f"{'killed' if killed else 'SURVIVED'} (pytest exit {code}): {label}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed; {len(KNOWN_SURVIVORS)} known survivors run")
    return int(survivors > 0)


if __name__ == "__main__":
    sys.exit(main())
