"""The memoised ingredients of a point: normal modes, noise coefficients,
lowering operators, the current scale and the checked normal-mode frame.

Each must give the bits of its undecorated body (``__wrapped__``), keep
+0.0 and -0.0 apart, return the cached object on a hit without running
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
    calls = [(normal_modes, (sys,)), (current_scale, (sys, hot, cold)),
             (_normal_frame, (sys, modes))]
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


def test_keys_keep_the_sign_of_a_zero_coupling():
    # a spec compares k = 0.0 and -0.0 equal; the caches do not
    for func, args in ((normal_modes, ()), (current_scale, (HOT, COLD))):
        func.cache_clear()
        for k in (0.0, -0.0, 0.0):
            func(SystemSpec(1.0, 1.0, k), *args)
        info = func.cache_info()
        assert (info.misses, info.hits, info.currsize) == (2, 1, 2), func.__name__
    # the normal-mode frame's check reads k itself; modes that differ only
    # in the sign of a zero entry are two keys of lowering_ops
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
    for func in (normal_modes, current_scale, _normal_frame, lowering_ops, sigma_coeff):
        assert func.cache_info().maxsize == CACHE_SIZE
    current_scale.cache_clear()
    for k in np.linspace(0.0, 0.5, 3 * CACHE_SIZE):
        current_scale(SystemSpec(1.0, 1.0, float(k)), HOT, COLD)
    assert current_scale.cache_info().currsize == CACHE_SIZE


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
        (current_scale, (SystemSpec(1e-6, 1e-6, 0.0), hot_overflow, COLD), ValidationError),
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
