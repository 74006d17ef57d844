"""Fixture templates: loading, symbol validation, broadcasting."""

import numpy as np
import pytest

from meqlab.algebra import second_moment_flow
from meqlab.errors import ValidationError
from meqlab.fixtures import fixture_names, fixture_symbols, instantiate


def test_all_templates_load():
    names = fixture_names()
    assert "lme_block1" in names and "redfield_block1_normal" in names
    for name in names:
        symbols = fixture_symbols(name)
        values = {s: 1.0 for s in symbols}
        arr = instantiate(name, **values)
        # 10x10 blocks are derived by second_moment_flow, never stored
        assert arr.shape in ((4, 4), (10,))
        assert np.all(np.isfinite(arr))


def test_unknown_fixture_and_symbols():
    with pytest.raises(ValidationError):
        instantiate("nope")
    with pytest.raises(ValidationError):
        instantiate("lme_block1", w=1.0)  # missing symbols
    with pytest.raises(ValidationError):
        instantiate("lme_block1", w=1.0, k=0.0, Dh=0.0, Dc=0.0, bogus=1.0)


def test_zero_coupling_block_diagonal():
    block = second_moment_flow(
        instantiate("lme_block1", w=1.3, k=0.0, Dh=-1e-4, Dc=-2e-4)
    )
    assert np.abs(block[:3, 3:6]).max() == 0.0
    assert np.abs(block[3:6, :3]).max() == 0.0
    assert np.abs(block[:6, 6:]).max() == 0.0


def test_zeroth_template_differs_from_local_when_asymmetric():
    dh, dc = -1e-8, -1e-4
    zeroth = instantiate("gme0_block1_local", w=1.0, k=1e-4, Dh=dh, Dc=dc)
    local = instantiate("lme_block1", w=1.0, k=1e-4, Dh=dh, Dc=dc)
    assert np.abs(zeroth - local).max() > 1e-6
    symmetric = instantiate("gme0_block1_local", w=1.0, k=1e-4, Dh=dc, Dc=dc)
    local_sym = instantiate("lme_block1", w=1.0, k=1e-4, Dh=dc, Dc=dc)
    assert np.abs(symmetric - local_sym).max() == 0.0


def test_broadcasting_shape():
    w = np.linspace(0.5, 1.5, 7)[:, None]
    k = np.linspace(0.0, 1e-4, 5)[None, :]
    stack = instantiate("lme_block1", w=w, k=k, Dh=-1e-8 + 0 * w * k, Dc=-1e-4)
    assert stack.shape == (7, 5, 4, 4)
    single = instantiate("lme_block1", w=w[3, 0], k=k[0, 2], Dh=-1e-8, Dc=-1e-4)
    assert np.abs(stack[3, 2] - single).max() == 0.0
