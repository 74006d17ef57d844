"""The memoised ingredients of a point: normal modes, noise coefficients,
lowering operators and the checked normal-mode frame.

Each must give the bits of its undecorated body (``__wrapped__``), share
an entry across the sign of a zero coupling only where its body gives
the same bits there, return the cached object on a hit without running
the body, hand out read-only arrays, and raise every error anew.
"""

import math
import os
import threading
from sys import getswitchinterval, setswitchinterval

import numpy as np
import pytest

import meqlab.generators as gmod
from meqlab.bath import BathSpec, sigma_coeff
from meqlab.errors import (
    ConsistencyError,
    ContractError,
    DomainError,
    StabilityError,
    ValidationError,
)
from meqlab.generators import GME, LME, REDFIELD, _normal_frame, mode_frame
from meqlab.model import CACHE_SIZE, NormalModes, SystemSpec, lowering_ops, normal_modes
from meqlab.thermo import current_scale

HOT, COLD = BathSpec(1e-3, 10.0, 1e3), BathSpec(1e-2, 5.0, 1e3)

#: every memoised function of the package, as module.name; the source lint
#: of tests/test_cli.py finds exactly these caches of argument-taking
#: functions, and memoised_calls exercises each
MEMOISED = {"bath.sigma_coeff", "model.lowering_ops", "model.normal_modes",
            "generators._normal_frame"}


def bits(value):
    """Everything a result holds, as bytes and reprs: arrays by their
    bits, floats by their hex spelling (which keeps the sign of zero)."""
    if isinstance(value, NormalModes):
        return bits((value.matrix, value.omega1, value.omega2))
    if isinstance(value, tuple):
        return tuple(bits(v) for v in value)
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    return type(value), float(value).hex()


def seeded_points(seed, count):
    """Resonant and detuned systems over a wide range of frequencies and
    couplings, each with two random baths; k = +0.0 comes right before
    k = -0.0."""
    rng = np.random.default_rng(seed)
    points = []
    for i in range(count):
        wh = 10 ** rng.uniform(-2.0, 2.0)
        wc = wh if i % 2 else wh * 10 ** rng.uniform(-1.0, 1.0)
        k = rng.uniform(-0.99, 0.99) * wh * wc
        hot, cold = (BathSpec(10 ** rng.uniform(-6, -1), 10 ** rng.uniform(-1, 2),
                              10 ** rng.uniform(1, 4)) for _ in range(2))
        for coupling in (k, 0.0, -0.0):
            points.append((SystemSpec(wh, wc, coupling), hot, cold))
    return points


def memoised_calls(sys, hot, cold):
    """(function, arguments) of every memoised function at one point."""
    modes = normal_modes.__wrapped__(sys)
    bare = NormalModes(np.eye(2), sys.omega_h, sys.omega_c)
    calls = [(normal_modes, (sys,)), (_normal_frame, (sys, modes))]
    calls += [(lowering_ops, (m, own)) for m in (modes, bare) for own in (False, True)]
    calls += [(sigma_coeff, (bath, w)) for bath in (hot, cold)
              for w in (sys.omega_h, sys.omega_c, modes.omega1, modes.omega2)]
    return calls


def test_memoised_functions_give_the_bits_of_their_bodies():
    for sys, hot, cold in seeded_points(40, 60):
        for func, args in memoised_calls(sys, hot, cold):
            want = bits(func.__wrapped__(*args))
            # a miss and then a hit
            assert bits(func(*args)) == want, (func.__name__, args)
            assert bits(func(*args)) == want, (func.__name__, args)


def test_memoised_calls_cover_every_cache():
    names = {f"{func.__module__.rsplit('.', 1)[1]}.{func.__name__}"
             for func, _ in memoised_calls(SystemSpec(1.3, 1.3, 0.2), HOT, COLD)}
    assert names == MEMOISED


def signed_zero_specs(seed, count):
    """Pairs of specs at k = +0.0 and -0.0: resonant for one in three,
    else omega_c/omega_h = 10^U(-8, 8), with omega_h = 10^U(-150, 150)
    and both squares finite."""
    rng = np.random.default_rng(seed)
    pairs = []
    while len(pairs) < count:
        wh = 10 ** rng.uniform(-150.0, 150.0)
        wc = wh if len(pairs) % 3 == 0 else wh * 10 ** rng.uniform(-8.0, 8.0)
        if 1e-150 <= wc <= 1e150:
            pairs.append(tuple(SystemSpec(wh, wc, k) for k in (0.0, -0.0)))
    return pairs


def outcome(func, *args):
    """The bits of func(*args), or the type of the error it raises."""
    try:
        return bits(func(*args))
    except Exception as exc:
        return type(exc)


def test_keys_share_the_sign_of_a_zero_coupling():
    # a spec compares and hashes k = 0.0 and -0.0 alike, and so do the
    # caches keyed by it: exact, since their bodies give the same bits at
    # both signs, errors included
    for pos, neg in signed_zero_specs(42, 300):
        assert outcome(normal_modes.__wrapped__, neg) == outcome(
            normal_modes.__wrapped__, pos), pos
        modes = normal_modes.__wrapped__(pos)
        assert outcome(_normal_frame.__wrapped__, neg, modes) == outcome(
            _normal_frame.__wrapped__, pos, modes), pos
    for wh, wc in ((1.0, 1.0), (1.3, 0.7), (1e-120, 1e-120), (3e140, 2e133)):
        specs = [SystemSpec(wh, wc, k) for k in (0.0, -0.0, 0.0)]
        modes = normal_modes.__wrapped__(specs[0])
        want = bits(modes), bits(_normal_frame.__wrapped__(specs[0], modes))
        normal_modes.cache_clear()
        _normal_frame.cache_clear()
        for sys in specs:
            assert (bits(normal_modes(sys)), bits(_normal_frame(sys, modes))) == want
        for func in (normal_modes, _normal_frame):
            info = func.cache_info()
            assert (info.misses, info.hits, info.currsize) == (1, 2, 1), func.__name__
    # NormalModes compare by bits: modes that differ only in the sign of
    # a zero entry are two keys of lowering_ops
    signed = NormalModes(np.array([[1.0, 0.0], [-0.0, 1.0]]), 1.0, 1.0)
    plain = NormalModes(np.eye(2), 1.0, 1.0)
    assert lowering_ops(signed).tobytes() != lowering_ops(plain).tobytes()
    assert bits(lowering_ops(signed)) == bits(lowering_ops.__wrapped__(signed))


def test_a_hit_returns_the_cached_object_without_running_the_body():
    # every body makes a new object; equal but distinct arguments get the
    # very object the first call made
    sys = SystemSpec(1.3, 1.3, 0.2)
    for func, args in memoised_calls(sys, HOT, COLD):
        first = func(*args)
        again = tuple(SystemSpec(a.omega_h, a.omega_c, a.k) if isinstance(a, SystemSpec)
                      else a for a in args)
        assert func(*again) is first, func.__name__
    modes = normal_modes(sys)
    for own in (False, True):
        twin = NormalModes(np.array(modes.matrix), modes.omega1, modes.omega2)
        assert lowering_ops(twin, own) is lowering_ops(modes, own)


def test_cached_arrays_are_read_only():
    sys = SystemSpec(1.0, 1.0, 0.3)
    modes = normal_modes(sys)
    arrays = [modes.matrix, lowering_ops(modes), lowering_ops(modes, True),
              *_normal_frame(sys, modes)]
    _, t, g, _ = mode_frame(GME, sys, HOT, COLD)
    for arr in arrays + [t, g]:
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0


def test_caches_are_bounded():
    for func, _ in memoised_calls(SystemSpec(1.3, 1.3, 0.2), HOT, COLD):
        assert func.cache_info().maxsize == CACHE_SIZE
    normal_modes.cache_clear()
    for k in np.linspace(0.0, 0.5, 3 * CACHE_SIZE):
        normal_modes(SystemSpec(1.0, 1.0, float(k)))
    assert normal_modes.cache_info().currsize == CACHE_SIZE


def test_mode_frame_checks_modes_it_has_not_seen(monkeypatch):
    # the checked frame is keyed by the modes: wrong modes for a spec
    # whose frame is cached are checked, and refused, like new ones
    sys = SystemSpec(1.0, 1e-7, 0.0)
    for label in (GME, REDFIELD):
        mode_frame(label, sys, HOT, COLD)
    modes = normal_modes(sys)
    off = NormalModes(modes.matrix, modes.omega1, modes.omega2 * (1.0 + 4e-4))
    monkeypatch.setattr(gmod, "normal_modes", lambda sys: off)
    for label in (GME, REDFIELD):
        for _ in range(2):
            with pytest.raises(ConsistencyError, match=f"^{label} normal modes .* do not "
                                                       "diagonalize"):
                mode_frame(label, sys, HOT, COLD)
    mode_frame(LME, sys, HOT, COLD)


def test_errors_keep_their_type_and_message():
    bad_spec = SystemSpec(1.0, 1.0, 0.5)
    object.__setattr__(bad_spec, "k", 1.5)  # past the edge, skipping its own check
    modes = normal_modes(SystemSpec(1.0, 1.0, 0.1))
    hot_overflow = BathSpec(100.0, 1e300, 1e3)
    cases = [
        (sigma_coeff, (HOT, 0.0), DomainError),
        (sigma_coeff, (HOT, -0.0), DomainError),
        (sigma_coeff, (hot_overflow, 1e-6), ValidationError),
        (normal_modes, (bad_spec,), StabilityError),
        (lowering_ops, (NormalModes(modes.matrix, 1.0, 0.0),), ContractError),
        (_normal_frame, (SystemSpec(1.0, 1.0, 0.1), NormalModes(np.eye(2), 1.0, 1.0)),
         ConsistencyError),
    ]
    for func, args, error in cases:
        with pytest.raises(error) as want:
            func.__wrapped__(*args)
        for _ in range(2):
            with pytest.raises(error) as got:
                func(*args)
            assert str(got.value) == str(want.value), func.__name__
    # current_scale, not memoised, reads the same noise coefficients
    with pytest.raises(ValidationError) as want:
        sigma_coeff.__wrapped__(hot_overflow, 1e-6)
    for _ in range(2):
        with pytest.raises(ValidationError) as got:
            current_scale(SystemSpec(1e-6, 1e-6, 0.0), hot_overflow, COLD)
        assert str(got.value) == str(want.value)
    assert math.isfinite(current_scale(SystemSpec(1e-6, 1e-6, 0.0), HOT, COLD))


def test_threads_share_the_caches_safely():
    # more specs than a cache keeps, from more threads than cores, with
    # the interpreter switching threads often: each call still gets the
    # bits of the body, whatever the other threads evicted meanwhile
    points = seeded_points(41, 12)
    assert len(points) > CACHE_SIZE
    want = [[bits(func.__wrapped__(*args)) for func, args in memoised_calls(*point)]
            for point in points]
    failures = []

    def work(offset):
        try:
            for n in range(len(points)):
                i = (n + offset) % len(points)
                got = [bits(func(*args)) for func, args in memoised_calls(*points[i])]
                if got != want[i]:
                    failures.append(i)
        except Exception as exc:  # reported by the assertion below
            failures.append(exc)

    workers = min(len(os.sched_getaffinity(0)) + 2, 16)
    threads = [threading.Thread(target=work, args=(5 * n,)) for n in range(workers)]
    interval = getswitchinterval()
    setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]
