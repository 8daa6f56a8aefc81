"""The source and temporal-trace kernels give the frozen reference's bits.

``reference_kernels`` keeps the straightforward forms of ``evaluate_uv``,
``_cosh_and_sinhc``, the dispersive phase and transfer, the alias gate, the
temporal FFT and ``rms_width``.  Over small grids, both pairings, analytic
and physical sources with up to three mismatch orders, gains that put all,
part or none of the grid below the small-|GL| series cutoff, and a gain and
mismatch that land GL = 0 exactly on a grid sample, the library must return
the same bytes for R, S, U, V, the flux, the trace and its widths, or fail
the same gate with the same message, also when a second trace reads the
bandwidth gated on the same source.  Odd mismatches of one to six orders
(even orders written as 0.0 or -0.0, and the empty mismatch), which take
the half-grid path of ``evaluate_uv``, and mixed-parity ones, which take
the full path, are held to it too, with gains of 0.0 and -0.0, with
coefficients that overflow, and in drawn sequences of sources on one grid
object, which hit and miss its memo of exp(i DL/2).  The dispersive phase
and transfer are held to the reference over all five orders and signed
coefficients, up to grid spacings whose powers overflow, and the transfer's
cos and sin to the reference's exp(1j * phase) over coefficients of every
decimal exponent from -300 to 300.
"""

import math
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import reference_kernels as ref
from spdcsim.analysis import rms_width
from spdcsim.correlators import _g2_time
from spdcsim.elements import MAX_PHASE_ORDER, DispersiveElement, dispersive_transfer
from spdcsim.errors import SpdcSimError
from spdcsim.grid import FrequencyGrid
from spdcsim.source import (
    _SERIES_CUTOFF,
    SourceSpec,
    _cosh_and_sinhc,
    evaluate_analytic,
    evaluate_uv,
    gamma_of,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# 0 and 1e-9 put every |GL| near zero detuning below the cutoff, 3e-7 some
# of them, the drawn gains (almost always) none.
SERIES_GAINS = (0.0, 1e-9, 3e-7)
GAINS = st.one_of(
    st.sampled_from(SERIES_GAINS + (math.nan, math.inf)),
    st.floats(min_value=0.0, max_value=8.0),
)
MISMATCH = st.lists(st.floats(min_value=-2.0, max_value=2.0), max_size=3)
GRID_POINTS = st.integers(min_value=6, max_value=12).map(lambda k: 2**k)
GRID_SPACINGS = st.floats(min_value=0.005, max_value=0.5)


def _outcome(fn, *args):
    """(result, None) or (None, (error type, message)) of a gated call."""
    try:
        return fn(*args), None
    except SpdcSimError as exc:
        return None, (type(exc), str(exc))


def _bits(x) -> bytes:
    return np.float64(x).tobytes()


def _assert_same_arrays(a, b):
    if b is None:
        assert a is None
        return
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def _assert_same_source(new, old):
    for name in ("R", "S", "U", "V"):
        _assert_same_arrays(getattr(new, name), getattr(old, name))
    assert _bits(new.flux_n) == _bits(old.flux_n)


def _element(draw, grid: FrequencyGrid) -> DispersiveElement:
    """Up to three phase orders, each scaled so that its band-edge group
    delay is at most a fifth of the delay window: most draws pass the alias
    gate, some do not."""
    fractions = draw(st.lists(st.floats(min_value=-1.0, max_value=1.0), max_size=3))
    return DispersiveElement(
        tuple(
            f * 0.2 * grid.tau_window * math.factorial(k - 1) / grid.omega_max ** (k - 1)
            for k, f in enumerate(fractions, start=1)
        )
    )


def _assert_same_traces(draw, new_src, old_src):
    grid = old_src.grid
    h1, h2 = _element(draw, grid), _element(draw, grid)
    for inter in (True, False):
        new, new_err = _outcome(_g2_time, new_src, h1, h2, inter)
        old, old_err = _outcome(ref.g2_time, old_src, h1, h2, inter)
        assert new_err == old_err
        # A second trace on the source gates the bandwidth memoised by the first.
        again, again_err = _outcome(_g2_time, new_src, h1, h2, inter)
        assert again_err == old_err
        if old is None:
            continue
        _assert_same_arrays(again.values, old.values)
        _assert_same_arrays(new.values, old.values)
        _assert_same_arrays(new.tau_grid, old.tau_grid)
        assert _bits(new.peak_tau) == _bits(old.peak_tau)
        assert _bits(new.background) == _bits(old.background)

        width, width_err = _outcome(rms_width, old)
        old_width, old_width_err = _outcome(ref.rms_width, old)
        assert width_err == old_width_err
        if old_width is not None:
            assert width.method == old_width.method
            assert np.array(astuple(width)[:3]).tobytes() == np.array(astuple(old_width)[:3]).tobytes()


def _check_physical(draw, spec: SourceSpec, grid: FrequencyGrid):
    new, new_err = _outcome(evaluate_uv, spec, grid)
    old, old_err = _outcome(ref.evaluate_uv, spec, grid)
    assert new_err == old_err
    if old is not None:
        _assert_same_source(new, old)
        _assert_same_traces(draw, new, old)


@PROPERTY
@given(data=st.data(), n=GRID_POINTS, spacing=GRID_SPACINGS, gain=GAINS, mismatch=MISMATCH)
def test_physical_source_and_traces_match_reference(data, n, spacing, gain, mismatch):
    _check_physical(data.draw, SourceSpec.physical(gain, mismatch), FrequencyGrid(n, spacing))


@PROPERTY
@given(
    data=st.data(),
    n=GRID_POINTS,
    spacing=GRID_SPACINGS,
    gain=st.sampled_from(SERIES_GAINS),
    mismatch=MISMATCH,
)
def test_series_gains_match_reference(data, n, spacing, gain, mismatch):
    grid = FrequencyGrid(n, spacing)
    spec = SourceSpec.physical(gain, mismatch)
    gl = gamma_of(gain, spec.mismatch.phase(grid.omegas))
    assert np.any(np.abs(gl) < _SERIES_CUTOFF)  # the series branch is taken
    _check_physical(data.draw, spec, grid)


@PROPERTY
@given(
    data=st.data(),
    log_n=st.integers(min_value=6, max_value=12),
    log_spacing=st.integers(min_value=-7, max_value=-1),
    log_gain=st.integers(min_value=-30, max_value=1),
    sign=st.sampled_from((1.0, -1.0)),
)
def test_branch_point_on_a_sample_matches_reference(data, log_n, log_spacing, log_gain, sign):
    """Powers of two make DL = 2*gain exact at a grid sample, where GL = 0."""
    n = 2**log_n
    grid = FrequencyGrid(n, 2.0**log_spacing)
    offset = 2 ** data.draw(st.integers(min_value=0, max_value=log_n - 2))
    gain = 2.0**log_gain
    spec = SourceSpec.physical(gain, [sign * 2.0 * gain / (offset * grid.delta_omega)])
    gl = gamma_of(gain, spec.mismatch.phase(grid.omegas))
    assert gl[n // 2 + offset] == 0.0
    _check_physical(data.draw, spec, grid)


def _mismatch(draw, grid: FrequencyGrid, parity: str) -> list:
    """One to six orders, each scaled so that it alone reaches a phase of at
    most 8 at the band edge.  ``parity`` "odd" writes every even order as
    0.0 or -0.0; "mixed" makes at least one even order nonzero."""
    size = draw(st.integers(min_value=1 if parity == "odd" else 2, max_value=6))
    coeffs = [
        draw(st.floats(min_value=-8.0, max_value=8.0)) / grid.omega_max**k
        for k in range(1, size + 1)
    ]
    if parity == "odd":
        for i in range(1, size, 2):  # orders 2, 4 and 6
            coeffs[i] = draw(st.sampled_from((0.0, -0.0)))
    else:
        i = draw(st.sampled_from(range(1, size, 2)))
        coeffs[i] = coeffs[i] or 1.0 / grid.omega_max ** (i + 1)
    return coeffs


# Odd mismatches take the half-grid path, with a gain of -0.0 the full one.
PATH_GAINS = st.one_of(st.sampled_from(SERIES_GAINS + (-0.0,)), GAINS)


@PROPERTY
@given(
    data=st.data(),
    n=GRID_POINTS,
    spacing=GRID_SPACINGS,
    gain=PATH_GAINS,
    parity=st.sampled_from(("odd", "mixed")),
)
def test_odd_and_mixed_mismatches_match_reference(data, n, spacing, gain, parity):
    grid = FrequencyGrid(n, spacing)
    spec = SourceSpec.physical(gain, _mismatch(data.draw, grid, parity))
    assert spec.mismatch.is_odd == (parity == "odd")
    _check_physical(data.draw, spec, grid)


@pytest.mark.parametrize("coeffs", [[0.5], [1.3, 0.0, 0.015], [0.47, -0.0]])
@pytest.mark.parametrize("n, spacing", [(64, 0.3), (64, 0.5), (1024, 0.05)])
def test_negative_zero_gain_matches_reference(n, spacing, coeffs):
    """V is a signed zero everywhere; mirroring cosh(GL) and sinh(GL)/GL
    would flip the sign of some of R's zeros."""
    spec = SourceSpec.physical(-0.0, coeffs)
    grid = FrequencyGrid(n, spacing)
    _assert_same_source(evaluate_uv(spec, grid), ref.evaluate_uv(spec, grid))


@PROPERTY
@given(data=st.data(), n=GRID_POINTS, spacing=GRID_SPACINGS, gain=PATH_GAINS)
def test_empty_mismatch_matches_reference(data, n, spacing, gain):
    spec = SourceSpec.physical(gain)
    assert spec.mismatch.is_odd
    _check_physical(data.draw, spec, FrequencyGrid(n, spacing))


@pytest.mark.parametrize(
    "coeffs",
    [
        [1e300],
        [1.0, 0.0, 1e300],
        [0.0, -0.0, 0.0, 0.0, 1e300],
        [1e300, 1e300],
        [0.5, 0.0, 1e200, 0.0, 0.0, 1e300],
    ],
)
@pytest.mark.parametrize("gain", [0.0, 0.5])
def test_overflowing_mismatch_fails_the_reference_gate(coeffs, gain):
    spec = SourceSpec.physical(gain, coeffs)
    grid = FrequencyGrid(256, 0.5)
    new, new_err = _outcome(evaluate_uv, spec, grid)
    old, old_err = _outcome(ref.evaluate_uv, spec, grid)
    assert new_err == old_err
    assert new_err is not None and new_err[1].startswith("Bogoliubov unitarity violated by ")


def _next_mismatch(draw, grid: FrequencyGrid, previous: list) -> list:
    """A mismatch after ``previous`` on one grid: a repeat of the last, the
    last with the sign of each zero coefficient flipped (an equal value), or
    a fresh odd, mixed-parity or empty one."""
    kinds = ("odd", "mixed", "empty") + (("repeat", "flip") if previous else ())
    kind = draw(st.sampled_from(kinds))
    if kind == "repeat":
        return previous[-1]
    if kind == "flip":
        return [-c if c == 0.0 else c for c in previous[-1]]
    if kind == "empty":
        return []
    return _mismatch(draw, grid, kind)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(n=GRID_POINTS, spacing=GRID_SPACINGS, calls=st.integers(2, 6), data=st.data())
def test_one_grid_serves_a_sequence_of_sources_like_the_reference(n, spacing, calls, data):
    """One grid object memoises exp(i DL/2) for the last mismatch asked.
    Every source of a drawn sequence on it, whether it hits the memo (a
    repeated or equal mismatch, at any gain) or misses it, gives the
    reference's bytes or fails its gate with the same message."""
    grid = FrequencyGrid(n, spacing)
    mismatches = []
    for _ in range(calls):
        mismatches.append(_next_mismatch(data.draw, grid, mismatches))
        spec = SourceSpec.physical(data.draw(PATH_GAINS), mismatches[-1])
        new, new_err = _outcome(evaluate_uv, spec, grid)
        old, old_err = _outcome(ref.evaluate_uv, spec, grid)
        assert new_err == old_err
        if old is not None:
            _assert_same_source(new, old)


@PROPERTY
@given(data=st.data(), n=GRID_POINTS, spacing=GRID_SPACINGS, bandwidth=st.floats(0.01, 10.0))
def test_analytic_source_traces_match_reference(data, n, spacing, bandwidth):
    src = evaluate_analytic(SourceSpec.analytic(bandwidth), FrequencyGrid(n, spacing))
    _assert_same_traces(data.draw, src, src)


COMPLEX = st.one_of(
    st.complex_numbers(max_magnitude=2.0 * _SERIES_CUTOFF),
    st.complex_numbers(max_magnitude=50.0),
    st.complex_numbers(allow_nan=True, allow_infinity=True),
)


@PROPERTY
@given(values=st.lists(COMPLEX, min_size=1, max_size=64))
def test_cosh_and_sinhc_match_reference(values):
    z = np.array(values, dtype=complex)
    with np.errstate(all="ignore"):
        new = _cosh_and_sinhc(z)
        old = ref.cosh_and_sinhc(z)
    for a, b in zip(new, old):
        _assert_same_arrays(a, b)


# Spacings from fine to those whose fifth (and lower) detuning powers
# overflow a double: |Omega|^5 does above about 1.3e61 rad/ps.
PHASE_SPACINGS = st.one_of(
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(min_value=1.0, max_value=1e70),
)
PHASE_COEFFS = st.lists(
    st.one_of(
        st.just(0.0),
        st.floats(min_value=-100.0, max_value=100.0),
        st.floats(min_value=-1e300, max_value=1e300),
    ),
    min_size=1,
    max_size=MAX_PHASE_ORDER,
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    n=st.integers(min_value=6, max_value=12).map(lambda k: 2**k),
    spacing=PHASE_SPACINGS,
    coeffs=PHASE_COEFFS,
    others=st.lists(PHASE_COEFFS, max_size=2),
)
def test_dispersive_phase_and_transfer_match_reference(n, spacing, coeffs, others):
    """Elements on one grid, the first raising its powers and the others
    reading them from the grid, give the reference's phase and transfer
    bytes, or its error type and message; the transfer warns nothing."""
    grid = FrequencyGrid(n, spacing)
    for phase_coeffs in [coeffs] + others:
        element = DispersiveElement(tuple(phase_coeffs))
        with np.errstate(all="ignore"):
            new_phase = element.phase(grid)
            old_phase = ref.phase(element, grid.omegas)
        _assert_same_arrays(new_phase, old_phase)
        new, new_err = _outcome(dispersive_transfer, element, grid)
        old, old_err = _outcome(ref.dispersive_transfer, element, grid)
        assert new_err == old_err
        if old is not None:
            _assert_same_arrays(new, old)


def _log_uniform(low: int, high: int):
    """Signed floats whose decimal exponent is drawn uniformly in [low, high]."""
    return st.tuples(
        st.sampled_from((1.0, -1.0)),
        st.floats(min_value=1.0, max_value=10.0, exclude_max=True),
        st.integers(min_value=low, max_value=high),
    ).map(lambda t: t[0] * t[1] * 10.0 ** t[2])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    n=GRID_POINTS,
    spacing=_log_uniform(-8, 70).map(abs),
    coeffs=st.lists(
        st.one_of(st.just(0.0), st.just(-0.0), _log_uniform(-300, 300)),
        min_size=1,
        max_size=MAX_PHASE_ORDER,
    ),
)
def test_transfer_of_wide_coefficients_matches_the_exponential(n, spacing, coeffs):
    """cos and sin of the phase give the bits of exp(1j * phase) for phases
    of any magnitude, or the same refusal where the phase overflows.  The
    one phase where they differ, -0.0, never occurs: zero coefficients, and
    terms that round to -0.0, still leave +0.0."""
    grid = FrequencyGrid(n, spacing)
    element = DispersiveElement(tuple(coeffs))
    with np.errstate(all="ignore"):
        phase = element.phase(grid)
    assert not np.any((phase == 0.0) & np.signbit(phase))
    new, new_err = _outcome(dispersive_transfer, element, grid)
    old, old_err = _outcome(ref.dispersive_transfer, element, grid)
    assert new_err == old_err
    if old is not None:
        _assert_same_arrays(new, old)
