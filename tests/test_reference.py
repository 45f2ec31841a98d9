import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import schull

from conftest import random_dataset
from reference import enumerate_realizations


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
            mask = np.isin(np.arange(n), idx)
            want = np.prod(np.where(mask, ds.probs, 1.0 - ds.probs))
            assert pr == pytest.approx(want, abs=1e-15)
            total += pr
        assert total == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**31))
def test_enumeration_probabilities_sum_to_one(n, seed):
    r = np.random.default_rng(seed)
    ds = random_dataset(r, n, 2)
    assert sum(p for _, p in enumerate_realizations(ds)) == pytest.approx(1.0)


def test_package_defines_only_what_it_runs():
    # Every top-level function and class of the package is read somewhere in
    # the package or exported from its root.  An import alone does not
    # count, so code that only tests run belongs in reference.py.
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(Path(schull.__file__).parent.glob("*.py"))}
    used = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                used.add(node.attr)
    unused = [
        f"{module}.{node.name}"
        for module, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and node.name not in used and node.name not in schull.__all__
    ]
    assert unused == []
