"""Boxes, regions, coverage decisions, and deterministic sampling."""

import sys
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from vbx import geometry
from vbx.bundles import check_vb
from vbx.cli import main
from vbx.coords import Box, box_inside, make_box, region_contains
from vbx.errors import DomainViolation, ShapeMismatch
from vbx.geometry import halton, sample_box, sample_region, sampling_scope
from vbx.intervals import box_covered, box_minus, intersect_boxes
from vbx.specio import gallery_path, load_spec

MAX = sys.float_info.max


def test_make_box_rejects_empty_intervals():
    make_box([(0, 1), (-2, 2)])
    with pytest.raises(ShapeMismatch):
        make_box([(1, 1)])
    with pytest.raises(ShapeMismatch):
        make_box([(2, 1)])
    with pytest.raises(ShapeMismatch):
        make_box([])


def test_contains_is_strict():
    b = make_box([(0, 1)])
    assert b.contains([0.5])
    assert not b.contains([0.0])
    assert not b.contains([1.0])


def test_intersections():
    a = make_box([(0, 2), (0, 2)])
    b = make_box([(1, 3), (-1, 1)])
    c = intersect_boxes(a, b)
    assert c == make_box([(1, 2), (0, 1)])
    assert intersect_boxes(a, make_box([(5, 6), (0, 1)])) is None
    # touching boundaries have empty open intersection
    assert intersect_boxes(make_box([(0, 1)]), make_box([(1, 2)])) is None


def test_box_inside_uses_closures():
    assert box_inside(make_box([(0, 1)]), make_box([(0, 1)]))
    assert box_inside(make_box([(0.2, 0.8)]), make_box([(0, 1)]))
    assert not box_inside(make_box([(-0.1, 0.5)]), make_box([(0, 1)]))
    # a box of another dimension is inside neither way, whatever its bounds
    assert not box_inside(make_box([(0.2, 0.8), (0, 1)]), make_box([(0, 1)]))
    assert not box_inside(make_box([(0.2, 0.8)]), make_box([(0, 1), (0, 1)]))


def test_region_contains_any_box():
    region = [make_box([(0, 1)]), make_box([(2, 3)])]
    assert region_contains(region, [0.5])
    assert region_contains(region, [2.5])
    assert not region_contains(region, [1.5])


def test_box_minus_partitions():
    e = make_box([(0, 4), (0, 4)])
    u = make_box([(1, 2), (1, 3)])
    parts = box_minus(e, u)
    # the pieces and the removed box tile e: volumes add up and a grid of
    # probe points lands in exactly one piece each
    vol = sum(np.prod([h - l for l, h in zip(p.lo, p.hi)]) for p in parts)
    assert vol == pytest.approx(16 - 2, abs=1e-12)
    for x in np.linspace(0.05, 3.95, 23):
        for y in np.linspace(0.05, 3.95, 23):
            hits = sum(p.contains([x, y]) for p in parts) + u.contains([x, y])
            assert hits <= 1
            on_cut = any(abs(v - c) < 1e-9 for v in (x, y) for c in (1, 2, 3))
            if not on_cut:
                assert hits == 1


def test_box_minus_disjoint_inputs():
    e = make_box([(0, 1)])
    assert box_minus(e, make_box([(5, 6)])) == [e]


def test_box_covered_exact_tilings():
    e = make_box([(0, 2)])
    assert box_covered(e, [make_box([(0, 1)]), make_box([(1, 2)])])
    assert not box_covered(e, [make_box([(0, 1)]), make_box([(1.1, 2)])])
    assert box_covered(e, [make_box([(-1, 3)])])
    # two dimensions, four quadrants with shared inner corner
    q = make_box([(0, 2), (0, 2)])
    quads = [make_box([(0, 1), (0, 1)]), make_box([(1, 2), (0, 1)]),
             make_box([(0, 1), (1, 2)]), make_box([(1, 2), (1, 2)])]
    assert box_covered(q, quads)
    assert not box_covered(q, quads[:3])


def test_box_covered_with_overlapping_pieces():
    e = make_box([(0, 3)])
    assert box_covered(e, [make_box([(0, 2)]), make_box([(1, 3)])])


@seed(20240817)
@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.floats(-5, 5), st.floats(0.1, 4)), min_size=1, max_size=5))
def test_box_covered_agrees_with_probing(pieces):
    e = make_box([(0, 2)])
    boxes = [make_box([(lo, lo + w)]) for lo, w in pieces]
    claim = box_covered(e, boxes)
    probes = np.linspace(0.001, 1.999, 617)
    holes = [x for x in probes if not region_contains(boxes, [x])]
    if claim:
        assert not holes
    # probing cannot prove coverage, so only the covered claim is checked


def test_halton_is_deterministic_and_in_range():
    a = halton(100, 3, seed=5)
    b = halton(100, 3, seed=5)
    assert np.array_equal(a, b)
    assert a.shape == (100, 3)
    assert np.all((a > 0) & (a < 1))
    c = halton(100, 3, seed=6)
    assert not np.array_equal(a, c)


def halton_loop(n, dims, seed=0):
    """The original per-row Halton loop, kept as the oracle."""
    start = 1 + (int(seed) % 100_003)
    primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
              67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127, 131, 137,
              139, 149, 151, 157, 163, 167, 173)
    out = np.empty((n, dims), dtype=float)
    for k in range(dims):
        base = primes[k]
        for row in range(n):
            i = start + row
            f, x = 1.0, 0.0
            while i > 0:
                f /= base
                x += f * (i % base)
                i //= base
            out[row, k] = x
    return out


@pytest.mark.parametrize("n, dims, seed", [
    (1, 1, 0), (7, 2, 42), (200, 3, 42), (2000, 1, 7), (333, 40, 100_002), (64, 12, -5),
    (0, 3, 1), (50, 4, 10**9),
])
def test_halton_is_byte_identical_to_the_scalar_loop(n, dims, seed):
    assert halton(n, dims, seed).tobytes() == halton_loop(n, dims, seed).tobytes()


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of each (n, dims, start) the Halton kernel computes."""
    calls = Counter()
    kernel = geometry._halton_kernel

    def counted(n, dims, start):
        calls[n, dims, start] += 1
        return kernel(n, dims, start)

    monkeypatch.setattr(geometry, "_halton_kernel", counted)
    return calls


def test_one_check_command_computes_each_point_set_once(kernel_calls, capsys):
    assert main(["check", str(gallery_path("mobius")), "--samples", "50"]) == 0
    assert kernel_calls and set(kernel_calls.values()) == {1}
    assert geometry._point_sets is None


def test_a_suite_called_on_its_own_shares_its_point_sets(kernel_calls):
    B = load_spec(gallery_path("mobius")).bundle
    check_vb(B, 50, seed=3)
    check_vb(B, 50, seed=3)
    assert kernel_calls == {(50, 1, 4): 2}  # once per call: nothing is kept between them


def test_point_sets_are_read_only_and_live_for_the_outermost_scope():
    with sampling_scope():
        a = halton(30, 2, seed=4)
        with sampling_scope():
            assert halton(30, 2, seed=4) is a
        assert halton(30, 2, seed=4 + 100_003) is a  # the seed folds into the same start
        with pytest.raises(ValueError):
            a[0, 0] = 0.5
    b = halton(30, 2, seed=4)
    assert b is not a and b.tobytes() == a.tobytes()
    assert not b.flags.writeable


@pytest.fixture
def region_calls(monkeypatch):
    """Counts of each (region id, n, seed) sampled afresh."""
    calls = Counter()
    sample = geometry._sample_region

    def counted(boxes, n, seed):
        calls[id(boxes), n, seed] += 1
        return sample(boxes, n, seed)

    monkeypatch.setattr(geometry, "_sample_region", counted)
    return calls


def test_one_check_command_samples_each_region_once(region_calls, capsys):
    # The triple checks walk each i->j part once per chart triple it starts.
    assert main(["check", str(gallery_path("projective_tangent")), "--samples", "50"]) == 0
    assert region_calls and set(region_calls.values()) == {1}
    assert geometry._point_sets is None


def test_region_samples_are_read_only_and_live_for_the_outermost_scope():
    region = (make_box([(0, 1)]), make_box([(10, 11)]))
    with sampling_scope():
        a = sample_region(region, 40, seed=3)
        with sampling_scope():
            assert sample_region(region, 40, seed=3) is a
        assert sample_region(region, 40, seed=4) is not a
        assert sample_region(list(region), 40, seed=3) is not a  # keyed by the region's identity
        with pytest.raises(ValueError):
            a[0, 0] = 0.5
    b = sample_region(region, 40, seed=3)
    assert b is not a and b.tobytes() == a.tobytes()
    assert not b.flags.writeable


def test_sample_box_stays_strictly_inside():
    box = make_box([(-2, 2), (0, 10)])
    pts = sample_box(box, 500, seed=1)
    assert pts.shape == (500, 2)
    for x in pts:
        assert box.contains(x)


def test_sample_region_splits_between_boxes():
    region = [make_box([(0, 1)]), make_box([(10, 11)])]
    pts = sample_region(region, 40, seed=3)
    assert len(pts) == 40
    low = sum(1 for x in pts if x[0] < 5)
    assert low == 20


@pytest.mark.parametrize("lo,hi", [
    (0.0, np.inf),
    (-1e308, 1e308),  # wider than the float range
    (-MAX, MAX),
    (-np.inf, -20.0),  # the clamp window misses the half-line
    (20.0, np.inf),
    (-np.inf, -1e308),  # the finite end's ulp dwarfs INF_CLAMP
    (1e308, np.inf),
    (-np.inf, np.nextafter(-MAX, 0)),  # one float inside, far below any margin
    (1e300, np.nextafter(np.nextafter(1e300, np.inf), np.inf)),  # the same, finite
])
def test_sample_box_with_unbounded_sides(lo, hi):
    pts = sample_box(make_box([(lo, hi)]), 50, seed=2)
    assert np.all(np.isfinite(pts))
    assert np.all((pts > lo) & (pts < hi))


@pytest.mark.parametrize("lo,hi", [(0.0, 2e-6), (-np.inf, -MAX), (MAX, np.inf),
                                   (1e300, np.nextafter(1e300, np.inf))])
def test_an_interval_without_room_inside_its_margins_is_too_thin_to_sample(lo, hi):
    # The last three hold no float at all.
    with pytest.raises(DomainViolation, match="too thin to sample"):
        sample_box(make_box([(lo, hi)]), 5)
