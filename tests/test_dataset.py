import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from schull import (
    DIAMETER_WITNESS_FACTOR,
    TWO_APPROX_FACTOR,
    CapabilityError,
    DatasetError,
    StochasticDataset,
    dataset_to_json,
    enumerate_realizations,
    expected_complexity,
    expected_diameter_two_approx,
    expected_diameter_witness,
    expected_width_witness,
    oracle_distribution,
    oracle_expectation,
    oracle_face_expectations,
    parse_dataset,
    realization_prob,
    rng_stream,
    sample_realization,
    width_simplex_factor,
)
import schull.dataset
from schull.dataset import ORACLE_STATISTICS

from conftest import grid_dataset, oracle_by_realization, random_dataset


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


def test_dataset_error_names_offending_index():
    with pytest.raises(DatasetError, match="1"):
        make([[0.0, 0.0], [1.0, 0.0]], [0.5, -0.25])


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


def test_readme_dataset_example_parses():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## Dataset format", 1)[1]
    block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    ds = parse_dataset(block)
    assert ds.dim == 2
    assert ds.points.tolist() == [[0.0, 0.0], [1.0, 0.25]]
    assert ds.probs.tolist() == [0.9, 0.5]


def test_enumeration_matches_realization_prob(rng):
    for n in (6, 1, 5):
        ds = random_dataset(rng, n, 2)
        total = 0.0
        walk = list(enumerate_realizations(ds))
        # realization k holds point i iff bit i of k is set
        assert [idx for idx, _ in walk] == [
            tuple(i for i in range(n) if k >> i & 1) for k in range(1 << n)
        ]
        for idx, pr in walk:
            assert pr == pytest.approx(realization_prob(ds, idx), abs=1e-15)
            total += pr
        assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_enumeration_probabilities_sum_to_one(n, seed):
    r = np.random.default_rng(seed)
    ds = random_dataset(r, n, 2)
    assert sum(p for _, p in enumerate_realizations(ds)) == pytest.approx(1.0)


def test_realization_prob_validates():
    ds = make([[0.0, 0.0], [1.0, 0.0]], [0.5, 0.5])
    with pytest.raises(DatasetError):
        realization_prob(ds, [0, 0])
    with pytest.raises(DatasetError):
        realization_prob(ds, [7])


def test_sampling_deterministic_and_plausible():
    ds = make([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]], [0.9, 0.5, 0.1])
    a = [tuple(sample_realization(ds, rng_stream(4, i))) for i in range(200)]
    b = [tuple(sample_realization(ds, rng_stream(4, i))) for i in range(200)]
    assert a == b
    freq = np.zeros(3)
    for mask in a:
        for i in mask:
            freq[i] += 1
    freq /= 200
    assert abs(freq[0] - 0.9) < 0.12 and abs(freq[2] - 0.1) < 0.12


def test_rng_stream_distinct_keys_differ():
    x = rng_stream(0, 1, 2).random(4)
    y = rng_stream(0, 1, 3).random(4)
    assert not np.allclose(x, y)


def test_rng_stream_rejects_negative_seed():
    with pytest.raises(DatasetError, match="seed"):
        rng_stream(-1, 2)


def test_oracle_two_point_diameter():
    ds = make([[0.0, 0.0], [3.0, 4.0]], [0.5, 0.4])
    assert oracle_expectation(ds, "diameter") == pytest.approx(0.5 * 0.4 * 5.0)


def test_oracle_width_needs_full_rank():
    ds = make([[0.0, 0.0], [1.0, 0.0], [2.0, 1.0]], [1.0, 1.0, 1.0])
    # width of the single realization = triangle width
    from schull import pointset_width

    assert oracle_expectation(ds, "width") == pytest.approx(
        pointset_width(ds.points)
    )


def test_oracle_complexity_triangle():
    tri = make([[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]], [1.0, 1.0, 1.0])
    assert oracle_expectation(tri, "complexity") == pytest.approx(6.0)


def test_oracle_face_expectations_sum(rng):
    ds = random_dataset(rng, 7, 2)
    per_dim = oracle_face_expectations(ds)
    assert sum(per_dim) == pytest.approx(oracle_expectation(ds, "complexity"))


def test_oracle_distribution_masses(rng):
    ds = random_dataset(rng, 5, 2)
    dist = oracle_distribution(ds, lambda idx: len(idx))
    assert sum(dist.values()) == pytest.approx(1.0)
    assert set(dist) == set(range(6))


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
    for ds in _oracle_cases(rng):
        for stat in ORACLE_STATISTICS:
            ref = oracle_by_realization(ds, stat)
            assert oracle_expectation(ds, stat) == pytest.approx(ref, rel=1e-12, abs=1e-15)
        ref = oracle_by_realization(ds, "faces")
        assert oracle_face_expectations(ds) == pytest.approx(ref, rel=1e-12, abs=1e-15)


def test_mask_oracle_blocks_do_not_change_bits(rng, monkeypatch):
    # Block size changes no probability, no per-mask value and no summation
    # order, so 16-mask blocks must reproduce the one-block results exactly.
    # The 3-d complexity and faces walk the realizations, unblocked.
    def values(ds):
        if ds.dim == 3:
            return [oracle_expectation(ds, s) for s in ("diameter", "width")]
        return [oracle_expectation(ds, s) for s in ORACLE_STATISTICS] + list(
            oracle_face_expectations(ds))

    cases = _oracle_cases(rng)
    full = [values(ds) for ds in cases]
    monkeypatch.setattr(schull.dataset, "_BLOCK_BITS", 4)
    assert [values(ds) for ds in cases] == full


def test_oracle_scale_and_rigid_motion(rng):
    """Diameter and width scale with the coordinates and the planar
    complexity does not change, for scales 10^-8 .. 10^8; rotation,
    translation and input order change none of the three.  The 3-d
    complexity oracle still builds hulls with an absolute tolerance, so it
    is left out of the scale loop."""
    for d, n in ((2, 8), (3, 7)):
        ds = random_dataset(rng, n, d)
        base = {stat: oracle_expectation(ds, stat) for stat in ORACLE_STATISTICS}
        for k in range(-8, 9):
            scaled = StochasticDataset(ds.points * 10.0**k, ds.probs)
            for stat in ("diameter", "width"):
                assert oracle_expectation(scaled, stat) == pytest.approx(
                    base[stat] * 10.0**k, rel=1e-9), (d, k, stat)
            if d == 2:
                assert oracle_expectation(scaled, "complexity") == pytest.approx(
                    base["complexity"], rel=1e-9), (d, k)
        rot, _ = np.linalg.qr(rng.normal(size=(d, d)))
        perm = rng.permutation(n)
        moved = StochasticDataset(
            ds.points[perm] @ rot.T + rng.uniform(-5.0, 5.0, size=d), ds.probs[perm])
        for stat in ORACLE_STATISTICS:
            assert oracle_expectation(moved, stat) == pytest.approx(base[stat], rel=1e-9)


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
