"""Property test at the CLI boundary: every scenario ends in a finite result
or in a typed error with its exit code.

Scenarios are drawn for all three families: Gaussian means and covariance
entries out to the float maximum, alphas and weights at both ends of
[0, 1], rates from 0 to 1e300, count pmfs of 1 to 60 entries with zeros
inside, aligned grid lattices in 1-D to 3-D, and small sweep and solver
blocks. A third test puts values of the wrong JSON type into the committed
scenarios. Each scenario runs ``fuse`` in both modes and ``sweep`` through
``cli.main``, in process, and every run must satisfy ``check_run``.

Each test runs as many examples as the hypothesis profile asks; for the
4,000-example search run

    python -m pytest tests/test_cli_fuzz.py --hypothesis-profile=cli-fuzz
"""

import copy
import csv
import io
import json
import math
import sys
import tempfile
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from setfuse import cli
from setfuse.model import CardinalityPmf

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scripts" / "scenarios"
COMMANDS = (("fuse", "--mode", "p2"), ("fuse", "--mode", "consistent"), ("sweep",))
FLOAT_MAX = sys.float_info.max
EDGES = (0.0, 1e-300, 1.0, 1e154, 1.4e154, 1e200, 1e300, 1e308, FLOAT_MAX)
TEXT_COLUMNS = ("family", "mode", "inconsistent")


def check_consistent(scenario, fused):
    """The fused count pmf is not below both inputs at any count: a
    Bernoulli existence as [1 - alpha, alpha], IID pmfs padded to one count
    range. A Poisson pmf is unimodal in its rate at every count, so there it
    is enough that the fused rate lies between the input rates."""
    sets = (scenario.f_i, scenario.f_j, fused)
    if scenario.family == "poisson":
        rates = (scenario.f_i.rate, scenario.f_j.rate)
        assert min(rates) <= fused.rate <= max(rates), (rates, fused.rate)
        return
    if scenario.family == "bernoulli":
        p_i, p_j, p_f = (np.array([1.0 - f.alpha, f.alpha]) for f in sets)
    else:
        n_max = max(f.card.n_max for f in sets)
        p_i, p_j, p_f = (f.card.padded(n_max) for f in sets)
    assert not (p_f < np.minimum(p_i, p_j) * (1.0 - 1e-12)).any(), (p_i, p_j, p_f)


def check_csvs(out: Path) -> None:
    """Every CSV cell but the text columns is a finite number, every weight
    lies in [0, 1], and every z_omega is at most 1."""
    for path in out.rglob("*.csv"):
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            for column, cell in row.items():
                if column in TEXT_COLUMNS:
                    continue
                value = float(cell)
                assert math.isfinite(value), (path.name, column, cell)
                if column.startswith("omega"):
                    assert 0.0 <= value <= 1.0, (path.name, column, cell)
                if column == "z_omega":
                    assert value <= 1.0, (path.name, column, cell)
            assert row.get("inconsistent", "false") in ("true", "false")


def check_run(path: Path, tmp: Path) -> list[int]:
    """Run each command on the scenario at ``path`` and check its outcome:
    exit 0, 2 or 3; exit 2 with one ``error:`` line and no file written;
    exit 3 only with ``solver error:``, and only from a scenario whose
    solver block sets a field (the default solver always finishes); no
    Python warning and no traceback; on exit 0, finite CSV numbers,
    weights in [0, 1], z_omega at most 1 and, in consistent mode, fused
    counts that never drop below both inputs. Any exception other than the
    typed ones escapes ``cli.main`` and fails the test. Returns the exit
    codes."""
    codes = []
    for index, argv in enumerate(COMMANDS):
        out = tmp / f"out{index}"
        fused = []

        def recording(scenario, mode, fuse=cli.fuse_scenario):
            result = fuse(scenario, mode)
            fused.append((scenario, result[0].fused))
            return result

        stdout, stderr = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught, redirect_stdout(stdout), redirect_stderr(stderr), \
                mock.patch.object(cli, "fuse_scenario", recording):
            warnings.simplefilter("always")
            code = cli.main([*argv, "--scenario", str(path), "--out", str(out)])
        err = stderr.getvalue()
        assert not caught, [str(w.message) for w in caught]
        assert "Traceback" not in err and "Warning" not in err, err
        assert code in (0, 2, 3), (code, err)
        if code == 2:
            assert err.startswith("error:") and len(err.splitlines()) == 1, err
            assert not out.exists()
        elif code == 3:
            assert err.startswith("solver error:"), err
            assert json.loads(path.read_text(encoding="utf-8")).get("solver"), err
        else:
            assert err == "", err
            check_csvs(out)
            if argv[-1] == "consistent":
                check_consistent(*fused[0])
        codes.append(code)
    return codes


def run_payload(payload) -> list[int]:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        return check_run(path, Path(tmp))


# ---------------------------------------------------------------------------
# Numeric scenarios
# ---------------------------------------------------------------------------

def _signed(values):
    return st.sampled_from(values).flatmap(lambda x: st.sampled_from((x, -x)))


def _vectors(elements):
    """Strategies for lists of 1, 2 and 3 ``elements``, built once."""
    return {dim: st.lists(elements, min_size=dim, max_size=dim) for dim in (1, 2, 3)}


coordinates = _vectors(st.one_of(st.floats(-10.0, 10.0), _signed(EDGES), st.floats(-FLOAT_MAX, FLOAT_MAX)))
plain_coordinates = _vectors(st.floats(-10.0, 10.0))
unit_weights = st.one_of(st.sampled_from((0.0, 1.0, 0.5)), st.floats(0.0, 1.0))
rates = st.one_of(st.sampled_from((0.0, 1e300)), st.floats(0.0, 1e300))
# positive top variances, from 1e-300 out to the float maximum
top_variances = st.one_of(st.sampled_from(EDGES[1:]), st.floats(1e-300, FLOAT_MAX))
plain_variances = st.floats(1e-3, 1e3)
decades = st.floats(0.0, 13.0)
correlations = st.one_of(st.just(0.0), st.floats(-0.999, 0.999))


@st.composite
def covariances(draw, dim, tops):
    """An exactly symmetric covariance: variances within 1e13 of the top one
    (past the 1e12 condition limit at times), and correlations formed as
    rho sqrt(v_a) sqrt(v_b), which cannot overflow."""
    top = draw(tops)
    variances = [top] + [top / 10.0 ** draw(decades) for _ in range(dim - 1)]
    cov = np.diag(variances).tolist()
    for a in range(dim):
        for b in range(a):
            cov[a][b] = cov[b][a] = draw(correlations) * math.sqrt(variances[a]) * math.sqrt(variances[b])
    return cov


@st.composite
def gaussian_pairs(draw, dim):
    """Half of the pairs at the edges of the float range, and half at
    ordinary scales, so that most of those fuse."""
    edge = draw(st.booleans())
    means, tops = (coordinates, top_variances) if edge else (plain_coordinates, plain_variances)
    return [{"mean": draw(means[dim]), "cov": draw(covariances(dim, tops))} for _ in range(2)]


seeds = st.integers(0, 2**32 - 1)


def _with_zeros(draw, rng, size):
    """``size`` random values in [0, 1), raised to a drawn power so that some
    lie deep in the tail, with a drawn share of them set to zero."""
    raw = rng.random(size) ** draw(st.sampled_from((1.0, 30.0, 300.0)))
    raw[rng.random(size) < draw(st.sampled_from((0.0, 0.5, 0.9)))] = 0.0
    return raw


@st.composite
def count_pmfs(draw):
    rng = np.random.default_rng(draw(seeds))
    raw = _with_zeros(draw, rng, draw(st.integers(1, 60)))
    if raw.sum() == 0.0:
        raw[rng.integers(raw.size)] = 1.0
    return (raw / raw.sum()).tolist()


FAMILIES = {"bernoulli": ("alpha", unit_weights), "poisson": ("lambda", rates), "iid": ("pmf", count_pmfs())}


def ranges(low, high, steps):
    ends = st.lists(st.one_of(st.sampled_from((low, high)), st.floats(low, high)), min_size=2, max_size=2)
    return st.tuples(ends.map(sorted), st.integers(1, steps)).map(lambda t: [*t[0], t[1]])


sweep_scales = st.one_of(
    st.sampled_from((1e-200, 1e-160, 1e150, 1e200)), st.floats(1e-3, 1e3), st.floats(1e-300, 1e300)
)
BLOCKS = {
    "omega": unit_weights,
    "solver": st.fixed_dictionaries({}, optional={
        "omega_init": unit_weights,
        "epsilon": st.floats(1e-10, 0.5),
        "max_iters": st.integers(1, 60),
        "omega_clamp": st.floats(1e-9, 0.49),
    }),
    "sweep": st.fixed_dictionaries(
        {"kappa": ranges(1.0, 1e12, 3), "omega": ranges(0.0, 1.0, 5)},
        optional={"sigma1_sq": sweep_scales, "det_sigma": sweep_scales},
    ),
}


@st.composite
def scenarios(draw, loc_pairs):
    """A scenario of a drawn family and dimension, its two localisations
    drawn by ``loc_pairs(dim)``, with optional weight, solver and sweep
    blocks."""
    family = draw(st.sampled_from(sorted(FAMILIES)))
    field, values = FAMILIES[family]
    locs = draw(loc_pairs(draw(st.sampled_from((1, 2, 2, 3)))))
    payload = {"version": 1, "family": family, "inputs": [{field: draw(values), "loc": loc} for loc in locs]}
    for key, block in BLOCKS.items():
        if draw(st.booleans()):
            payload[key] = draw(block)
    return payload


@given(payload=scenarios(gaussian_pairs))
def test_gaussian_scenarios_end_in_a_result_or_a_typed_error(payload):
    run_payload(payload)


# ---------------------------------------------------------------------------
# Grid scenarios
# ---------------------------------------------------------------------------

origins = _vectors(st.one_of(st.floats(-1e3, 1e3), _signed((1e150, 1e300))))
cell_sizes = _vectors(st.floats(1e-3, 1e3))
shifts = st.one_of(st.just(0.0), st.just(0.0), st.floats(0.0, 1.0))


@st.composite
def grid_pairs(draw, dim):
    """Lattices and values of two grids, as (origin, cell size, values):
    one shape of 1 to 6 cells per axis, cells of zero density, and the
    second origin the first one or moved by up to a cell (misaligned)."""
    rng = np.random.default_rng(draw(seeds))
    shape = tuple(draw(st.integers(1, 6 if dim == 1 else 4)) for _ in range(dim))
    origin, cell = np.array(draw(origins[dim])), np.array(draw(cell_sizes[dim]))
    pair = []
    for shift in (0.0, draw(shifts)):
        raw = _with_zeros(draw, rng, math.prod(shape))
        mass = raw.sum() * math.prod(cell)
        pair.append((origin + shift * cell, cell, (raw / mass if mass > 0 else raw).reshape(shape)))
    return pair


@given(payload=scenarios(grid_pairs))
def test_grid_scenarios_end_in_a_result_or_a_typed_error(payload):
    payload = copy.deepcopy(payload)
    with tempfile.TemporaryDirectory() as tmp:
        for name, spec in zip(("i.npz", "j.npz"), payload["inputs"]):
            origin, cell, values = spec["loc"]
            np.savez(Path(tmp) / name, origin=origin, cell_size=cell, values=values)
            spec["loc"] = {"grid": name}
        path = Path(tmp) / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        check_run(path, Path(tmp))


# ---------------------------------------------------------------------------
# Fields of the wrong JSON type
# ---------------------------------------------------------------------------

def _committed():
    """The committed scenarios, each with a small sweep block in place of
    its own, so that ``sweep`` runs in a few milliseconds."""
    payloads = []
    for path in sorted(SCENARIO_DIR.glob("*.json")):
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["sweep"] = {"kappa": [1.0, 4.0, 2], "omega": [0.0, 1.0, 3], "sigma1_sq": 1.0}
        payloads.append(payload)
    return payloads


COMMITTED = _committed()
WRONG_TYPES = (None, True, False, "x", "", "bernoulli", [], {}, [1.0], ["iid"], {"a": 1}, {"mean": 1}, 1.5, 3, -1)


def _paths(value, prefix=()):
    """Every key path in a JSON value, containers included."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield (*prefix, key)
        yield from _paths(child, (*prefix, key))


@st.composite
def wrong_type_payloads(draw):
    payload = copy.deepcopy(draw(st.sampled_from(COMMITTED)))
    for _ in range(draw(st.integers(1, 2))):
        *parents, last = draw(st.sampled_from(list(_paths(payload))))
        target = payload
        for key in parents:
            target = target[key]
        target[last] = copy.deepcopy(draw(st.sampled_from(WRONG_TYPES)))
    return payload


@given(payload=wrong_type_payloads())
def test_wrong_type_fields_end_in_a_result_or_a_typed_error(payload):
    run_payload(payload)


def test_non_string_family_is_an_unknown_family(tmp_path):
    for family in (["iid"], {"name": "iid"}, 3, None):
        payload = {"version": 1, "family": family, "inputs": []}
        assert run_payload(payload) == [2, 2, 2]
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(payload), encoding="utf-8")
        stderr = io.StringIO()
        with redirect_stderr(stderr):
            assert cli.main(["fuse", "--mode", "p2", "--scenario", str(path), "--out", str(tmp_path / "o")]) == 2
        assert stderr.getvalue() == f"error: unknown family {family!r}\n"


def test_consistency_check_sees_counts_below_both_inputs():
    """``check_consistent`` fails on a fused pmf below both inputs at a
    count, and on a fused rate outside the input rates."""
    def iid(probs):
        return SimpleNamespace(card=CardinalityPmf(probs))

    scenario = SimpleNamespace(family="iid", f_i=iid([0.5, 0.5]), f_j=iid([0.4, 0.6]))
    with pytest.raises(AssertionError):
        check_consistent(scenario, iid([0.7, 0.3]))
    check_consistent(scenario, iid([0.45, 0.55]))
    poisson = SimpleNamespace(family="poisson", f_i=SimpleNamespace(rate=2.0), f_j=SimpleNamespace(rate=3.0))
    with pytest.raises(AssertionError):
        check_consistent(poisson, SimpleNamespace(rate=1.5))
