import json
import math
import re
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from schull import (
    DIAMETER_WITNESS_FACTOR,
    TWO_APPROX_FACTOR,
    CapabilityError,
    DatasetError,
    StochasticDataset,
    dataset_to_json,
    expected_complexity,
    expected_diameter_two_approx,
    expected_diameter_witness,
    expected_width_witness,
    oracle_expectation,
    oracle_face_expectations,
    parse_dataset,
    width_simplex_factor,
)
import schull.dataset
from schull.dataset import ORACLE_STATISTICS, _ordered_sum, _subset_probs, _subset_widths
from schull.dataset import rng_stream

from conftest import grid_dataset, random_dataset
from reference import oracle_by_realization, pointset_width


def make(points, probs):
    return StochasticDataset(np.asarray(points, dtype=float), probs)


def test_dataset_validation_errors():
    with pytest.raises(DatasetError):
        make([], [])
    with pytest.raises(DatasetError):
        make([[0.0, 0.0]], [0.0])  # prob must be > 0
    with pytest.raises(DatasetError):
        make([[0.0, 0.0]], [1.5])
    with pytest.raises(DatasetError):
        make([[0.0, 0.0]], [float("nan")])
    with pytest.raises(DatasetError):
        make([[0.0, 0.0], [0.0, 0.0]], [0.5, 0.5])  # duplicate point
    with pytest.raises(DatasetError):
        make([[1.0, 0.0], [2.0, 1.0], [1.0, -0.0]], [0.5] * 3)  # -0.0 == 0.0
    with pytest.raises(DatasetError):
        make([[0.0, 0.0], [1.0, 0.0]], [0.5])  # length mismatch
    with pytest.raises(DatasetError, match="point 1 "):
        make([[0.0, 0.0], [1e160, 1.0], [-1e160, 0.0]], [0.5] * 3)  # squares overflow


def test_dataset_error_names_offending_index():
    with pytest.raises(DatasetError, match="1"):
        make([[0.0, 0.0], [1.0, 0.0]], [0.5, -0.25])
    for bad in (float("inf"), float("-inf"), float("nan")):
        with pytest.raises(DatasetError, match="^point 1 has a non-finite coordinate$"):
            make([[0.0, 0.0], [1.0, bad], [2.0, bad]], [0.5] * 3)
        with pytest.raises(DatasetError,
                           match=r"^probability of point 1 is [-a-z]+, must be in \(0, 1\]$"):
            make([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]], [0.5, bad, bad])


def test_dataset_immutable():
    ds = make([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    with pytest.raises((AttributeError, ValueError)):
        ds.points = np.zeros((2, 2))
    with pytest.raises(ValueError):
        ds.points[0, 0] = 9.0


def test_parse_and_serialize_round_trip():
    ds = make([[0.0, 1.5], [2.0, -3.25]], [0.5, 0.75])
    text = dataset_to_json(ds)
    again = parse_dataset(text)
    assert np.array_equal(again.points, ds.points)
    assert np.array_equal(again.probs, ds.probs)
    assert dataset_to_json(again) == text  # byte-stable


def test_parse_rejects_malformed():
    good = {"dim": 2, "points": [{"coords": [0.0, 0.0], "prob": 0.5}]}
    for breakage in (
        "not json",
        json.dumps([1, 2, 3]),
        json.dumps({"points": good["points"]}),
        json.dumps({"dim": 2, "points": []}),
        json.dumps({"dim": 2, "points": [{"coords": [0.0], "prob": 0.5}]}),
        json.dumps({"dim": 2, "points": [{"coords": [0.0, 0.0]}]}),
        json.dumps({"dim": 2, "points": [{"coords": [0.0, "x"], "prob": 0.5}]}),
        json.dumps({"dim": True, "points": good["points"]}),
        "[" * 100000 + "]" * 100000,
        # integer literals too large for a float, or past Python's digit limit
        '{"dim": 1, "points": [{"coords": [1%s], "prob": 0.5}]}' % ("0" * 400),
        '{"dim": 1, "points": [{"coords": [0.0], "prob": 1%s}]}' % ("0" * 400),
        '{"dim": 1, "points": [{"coords": [1%s], "prob": 0.5}]}' % ("0" * 5000),
    ):
        with pytest.raises(DatasetError):
            parse_dataset(breakage)


def test_parse_rejects_non_utf8():
    with pytest.raises(DatasetError, match="UTF-8"):
        parse_dataset(b"\xff\xfe{}")


def test_parse_reports_point_index():
    bad = json.dumps(
        {
            "dim": 1,
            "points": [
                {"coords": [0.0], "prob": 0.5},
                {"coords": [1.0], "prob": 2.0},
            ],
        }
    )
    with pytest.raises(DatasetError, match="1"):
        parse_dataset(bad)
    # JSON Infinity and NaN parse as floats; the point holding one is named
    for coords, prob, what in [([math.inf], 0.5, "coordinate"),
                               ([math.nan], 0.5, "coordinate"),
                               ([1.0], math.nan, "probability")]:
        bad = json.dumps({"dim": 1, "points": [{"coords": [0.0], "prob": 0.5},
                                               {"coords": coords, "prob": prob}]})
        with pytest.raises(DatasetError, match=f"^point 1: non-finite {what}$"):
            parse_dataset(bad)


def test_readme_dataset_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Dataset format", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    ds = parse_dataset(block)
    assert ds.dim == 2
    assert ds.points.tolist() == [[0.0, 0.0], [1.0, 0.25]]
    assert ds.probs.tolist() == [0.9, 0.5]


def test_readme_library_example_runs():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    block = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_readme_root_export_count():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Library", 1)[1]
    count = re.search(r"exports .*?, (\d+)\s+names:", section, re.S).group(1)
    assert int(count) == len(schull.__all__)


def test_rng_stream_distinct_keys_differ():
    x = rng_stream(0, 1, 2).random(4)
    y = rng_stream(0, 1, 3).random(4)
    assert not np.allclose(x, y)


def test_rng_stream_rejects_negative_seed():
    with pytest.raises(DatasetError, match="seed"):
        rng_stream(-1, 2)


def test_rng_stream_rejects_float_and_bool_seeds():
    # rng_stream(0.9) would draw as rng_stream(0), and True as 1
    for seed in (0.9, 1.0, True, False):
        with pytest.raises(DatasetError, match="seed must be a non-negative integer"):
            rng_stream(seed, 2)
    assert np.array_equal(rng_stream(np.int64(3), 2).random(4), rng_stream(3, 2).random(4))


def test_oracle_two_point_diameter():
    ds = make([[0.0, 0.0], [3.0, 4.0]], [0.5, 0.4])
    assert oracle_expectation(ds, "diameter") == pytest.approx(0.5 * 0.4 * 5.0)


def test_oracle_width_needs_full_rank():
    ds = make([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]], [1.0, 1.0, 1.0])
    # width of the single realization = triangle width
    assert oracle_expectation(ds, "width") == pytest.approx(
        pointset_width(ds.points)
    )


def test_oracle_complexity_triangle():
    tri = make([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]], [1.0, 1.0, 1.0])
    assert oracle_expectation(tri, "complexity") == pytest.approx(6.0)


def test_oracle_size_guard(rng):
    ds = random_dataset(rng, 23, 2)
    with pytest.raises(CapabilityError):
        oracle_expectation(ds, "diameter")


def test_oracle_unknown_statistic(rng):
    ds = random_dataset(rng, 4, 2)
    with pytest.raises(CapabilityError):
        oracle_expectation(ds, "perimeter")


def _oracle_cases(rng):
    """Random and integer-grid datasets, d = 2 and 3, with probability-1
    points and realizations of affine rank below d."""
    cases = []
    for d in (2, 3):
        for n in (1, 2, 3, 5, 7, 9):
            cases.append(random_dataset(rng, n, d))
            cases.append(grid_dataset(rng, n, d))
        certain = random_dataset(rng, 6, d)
        probs = certain.probs.copy()
        probs[[0, 3]] = 1.0
        cases.append(StochasticDataset(certain.points, probs))
        # integer points exactly on a tilted line (d = 2) or plane (d = 3),
        # plus two off it
        cells = rng.choice(7 ** (d - 1), size=5, replace=False)
        free = np.array(np.unravel_index(cells, (7,) * (d - 1)), dtype=float).T - 3.0
        last = free @ (2.0, -3.0)[:d - 1] + 1.0
        flat = np.column_stack([free, last])
        off = rng.uniform(-1.0, 1.0, size=(2, d))
        probs = rng.uniform(0.2, 0.9, size=7)
        probs[1] = 1.0
        cases.append(StochasticDataset(np.vstack([flat, off]), probs))
        # every point on one line: in space no pair of differences spans a
        # direction
        line = np.outer(rng.permutation(6) - 2.0, (1.0, 2.0, 3.0)[:d])
        cases.append(StochasticDataset(line, rng.uniform(0.2, 0.9, size=6)))
    return cases


def test_mask_oracle_matches_realization_walk(rng):
    # Coordinates are unit-scale. The walk gives a rank-deficient realization
    # width 0 by its rank test; the mask oracle gives it the rounding noise
    # of its extents (6e-17 on an all-collinear set), hence the abs floor.
    # One face walk per case serves the face census and, summed, the complexity.
    for ds in _oracle_cases(rng):
        faces = oracle_by_realization(ds, "faces")
        for stat in ORACLE_STATISTICS:
            ref = faces.sum() if stat == "complexity" else oracle_by_realization(ds, stat)
            assert oracle_expectation(ds, stat) == pytest.approx(ref, rel=1e-12, abs=1e-15)
        assert oracle_face_expectations(ds) == pytest.approx(faces, rel=1e-12, abs=1e-15)


def test_mask_oracle_blocks_do_not_change_bits(rng, monkeypatch):
    # Block size changes no probability, no per-mask value and no summation
    # order, so 16-mask blocks must reproduce the one-block results exactly.
    def values(ds):
        return [oracle_expectation(ds, s) for s in ORACLE_STATISTICS] + list(
            oracle_face_expectations(ds))

    cases = _oracle_cases(rng)
    full = [values(ds) for ds in cases]
    monkeypatch.setattr(schull.dataset, "_CHUNK", 16)
    assert [values(ds) for ds in cases] == full


def _loop_sum(total, terms):
    for term in terms:
        total += term
    return total


def test_ordered_sum_equals_term_loop(rng):
    # Every expectation adds its terms through _ordered_sum, and the bit pins
    # and the mass cut rely on it adding them one at a time, in order.
    # Magnitudes spread over 2^-60 .. 2^4 so that any other association of
    # the additions shows in the bits.
    for total in (0.0, 0.3):
        assert _ordered_sum(total, np.zeros(0)) is total
        assert _ordered_sum(total, []) is total
        for k in (1, 2, 70, 1 << 14):
            terms = rng.uniform(0.0, 1.0, k) * np.exp2(rng.integers(-60, 5, k))
            terms[rng.random(k) < 0.2] = 0.0
            want = _loop_sum(total, terms.tolist())
            got = _ordered_sum(total, terms.copy())
            assert type(got) is float
            assert got.hex() == want.hex()
            # a list of numpy scalars, as the width witness passes its dots
            assert _ordered_sum(total, list(terms)).hex() == want.hex()
    batch = rng.uniform(0.0, 1.0, (5, 70)) * np.exp2(rng.integers(-60, 5, (5, 70)))
    batch[:, ::3] = 0.0
    got = _ordered_sum(0.0, batch.copy())
    assert got.shape == (5,)
    for row, value in zip(batch, got.tolist()):
        assert value.hex() == _loop_sum(0.0, row.tolist()).hex()
    starts = rng.uniform(0.0, 1.0, 5)
    got = _ordered_sum(starts, batch.copy())
    for start, row, value in zip(starts.tolist(), batch, got.tolist()):
        assert value.hex() == _loop_sum(start, row.tolist()).hex()


@pytest.mark.parametrize("d", [2, 3])
def test_subset_tables_batch_equal_single_sets(rng, d):
    # The sampling estimator evaluates its exact cells in batches, so every
    # row of a batched call must have the bits of a call on its set alone.
    # The high part is empty (the oracle's first block) or d + 1 points (a
    # cell's simplex).  In space one set lies on one line: no candidate
    # direction, so width inf.  No caller passes a set of no points.
    for k, h in [(k, h) for k in range(7) for h in (0, d + 1) if k + h]:
        sets = rng.uniform(-1.0, 1.0, size=(2, 3, k + h, d))
        if d == 3:
            sets[1, 2] = np.outer(rng.permutation(k + h) - 2.0, (1.0, 2.0, 3.0))
        probs = rng.uniform(0.1, 0.95, size=(2, 3, k))
        high = np.arange(k, k + h)
        widths, table = _subset_widths(sets, k, high), _subset_probs(probs)
        assert widths.shape == table.shape == (2, 3, 1 << k)
        for i in np.ndindex(2, 3):
            assert widths[i].tobytes() == _subset_widths(sets[i], k, high).tobytes()
            assert table[i].tobytes() == _subset_probs(probs[i]).tobytes()
        if d == 3:
            assert np.isinf(widths[1, 2]).all()


@pytest.mark.parametrize("points, faces", [
    (list(product((0.0, 1.0), repeat=3)), [8, 12, 6]),
    ([[0, 0, 0], [2, 0, 0], [2, 2, 0], [0, 2, 0], [1, 1, 1]], [5, 8, 5]),
    # the regular hexagon of the permutations of (1, -1, 0), in x + y + z = 3
    ([[2, 0, 1], [2, 1, 0], [1, 2, 0], [0, 2, 1], [0, 1, 2], [1, 0, 2]], [6, 6, 1]),
    ([[0, 0, 0], [1, 2, 3], [2, 4, 6]], [2, 1, 0]),
    ([[1, 2, 3]], [1, 0, 0]),
], ids=["cube", "square-pyramid", "tilted-hexagon", "collinear", "point"])
def test_face_oracle_degenerate_3d_hulls(points, faces):
    """Certain points: the expectation is the census of the one realization,
    with coplanar facets merged, collinear points on edges not counted and
    lower-dimensional hulls counted with their faces plus themselves."""
    ds = make(points, [1.0] * len(points))
    assert oracle_face_expectations(ds).tolist() == faces
    assert oracle_expectation(ds, "complexity") == sum(faces)


def test_face_oracle_3d_builds_no_hull(rng):
    # The package has no hull builder and no realization walk, so the 3-d
    # face census stands on its own; on grid points it still meets the walk.
    ds = grid_dataset(rng, 9, 3)
    ref = oracle_by_realization(ds, "faces")
    assert oracle_face_expectations(ds) == pytest.approx(ref, rel=1e-12)
    assert oracle_expectation(ds, "complexity") == pytest.approx(ref.sum(), rel=1e-12)


def test_oracle_scale_and_rigid_motion(rng):
    """Diameter and width scale with the coordinates and the complexity
    does not change, for scales 10^-8 .. 10^8; rotation, translation and
    input order change none of the three."""
    for d, n in ((2, 8), (3, 7)):
        ds = random_dataset(rng, n, d)
        base = {stat: oracle_expectation(ds, stat) for stat in ORACLE_STATISTICS}
        for k in range(-8, 9):
            scaled = StochasticDataset(ds.points * 10.0**k, ds.probs)
            for stat in ("diameter", "width"):
                assert oracle_expectation(scaled, stat) == pytest.approx(
                    base[stat] * 10.0**k, rel=1e-9), (d, k, stat)
            assert oracle_expectation(scaled, "complexity") == pytest.approx(
                base["complexity"], rel=1e-9), (d, k)
        rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
        perm = rng.permutation(n)
        moved = StochasticDataset(
            ds.points[perm] @ rot.T + rng.uniform(-5.0, 5.0, size=d), ds.probs[perm])
        for stat in ORACLE_STATISTICS:
            assert oracle_expectation(moved, stat) == pytest.approx(base[stat], rel=1e-9)


def test_witness_estimators_translation_and_permutation_invariant(rng):
    """The witness diameter and width estimators do not change when the
    input is translated and its points reordered.  Rotation is left out:
    both witnesses start at the lex-largest point, so a rotation may
    legitimately change the value.  The two-approximation and the FPRAS
    are left out too: they depend on point indices by design (the
    smallest-index anchor, and per-cell seeds keyed by indices)."""
    for d, n in ((2, 8), (3, 7)):
        for _ in range(3):
            ds = random_dataset(rng, n, d)
            perm = rng.permutation(n)
            moved = StochasticDataset(
                ds.points[perm] + rng.uniform(-5.0, 5.0, size=d), ds.probs[perm])
            for estimator in (expected_diameter_witness, expected_width_witness):
                assert estimator(moved) == pytest.approx(estimator(ds), rel=1e-9), (
                    d, estimator.__name__)


def test_estimators_meet_mask_oracle_past_n14():
    rng = np.random.default_rng(20261018)
    for d, n in ((2, 18), (3, 13)):
        ds = random_dataset(rng, n, d)
        diam = oracle_expectation(ds, "diameter")
        width = oracle_expectation(ds, "width")
        brackets = []
        v = expected_diameter_witness(ds)
        brackets.append((diam, v, v * DIAMETER_WITNESS_FACTOR))
        v = expected_diameter_two_approx(ds)
        brackets.append((diam, v, v * TWO_APPROX_FACTOR))
        v = expected_width_witness(ds)
        brackets.append((width, v, v / width_simplex_factor(d)))
        for truth, lo, hi in brackets:
            slack = 1e-9 * max(abs(lo), abs(hi), 1.0)
            assert lo - slack <= truth <= hi + slack, (d, n, truth, lo, hi)
        if d == 2:
            assert expected_complexity(ds) == pytest.approx(
                oracle_expectation(ds, "complexity"), abs=1e-9)
