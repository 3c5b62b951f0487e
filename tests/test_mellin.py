"""Tests for the forward transform identity and the contour-integral solver."""

import cmath
import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mellinroots import (ConvergenceConditionError, NumericalError, Problem,
                         QuadratureError, check_functional_equation, default_contour,
                         forward_mellin_check, kernel_value, principal_root,
                         principal_root_mb, principal_root_param)
from mellinroots import mellin, sampling
from mellinroots.hyper import shift_ratio_factors
from mellinroots.mellin import (Contour, _kernel_args, _lattice_tables, _line_nodes,
                                _rect_integrand, contour_integrand)

# frozen 40-digit reference values
KERNEL_A1_U05 = 3.496076739056159747286452786521492551577   # (1/2)G(.25)G(.5)/G(1.75)
FORWARD_RHS_A3_U05 = 1.498318602452639891694194051366353950676
QUAD_CLOSED = {
    0.1: 0.9512492197250392863848606074161302710743,
    0.2: 0.9049875621120890270219264912759576186945,
    0.5: 0.7807764064044151374553524639935192562868,
    1.0: 0.6180339887498948482045868343656381177203,
    2.0: 0.4142135623730950488016887242096980785697,
}


def test_kernel_frozen_values():
    u, omega = _kernel_args((2, (1,)), 1.0, [0.5])
    assert (u, omega) == pytest.approx((0.25, 1.75))
    value = kernel_value((2, (1,)), 1.0, [0.5])
    assert value.real == pytest.approx(KERNEL_A1_U05, rel=1e-13)

    u, omega = _kernel_args((2, (1,)), 2.0, [1.0])
    assert (u, omega) == pytest.approx((0.5, 2.5))
    value = kernel_value((2, (1,)), 2.0, [1.0])
    assert value.real == pytest.approx(4.0 / 3.0, rel=1e-13)


def test_kernel_conjugate_symmetry():
    shape = (3, (2, 1))
    u = [0.4 + 0.7j, 0.6 - 0.2j]
    a = kernel_value(shape, 2.0, u)
    b = kernel_value(shape, 2.0, [v.conjugate() for v in u])
    assert b == pytest.approx(a.conjugate(), rel=1e-13)


@pytest.mark.parametrize("call", [
    lambda: kernel_value((3, (2, 1)), 2.0, [0.5]),
    lambda: check_functional_equation((3, (2, 1)), 2.0, [0.5]),
], ids=["kernel_value", "check_functional_equation"])
def test_kernel_args_length_mismatch(call):
    # one argument per exponent: zip must not drop the extra ones silently
    with pytest.raises(ValueError, match="arguments for . exponents"):
        call()


@pytest.mark.parametrize("shape", [(2, (3,)), (3, (1, 2))])
@pytest.mark.parametrize("call", [
    lambda shape: kernel_value(shape, 3.0, [0.5] * len(shape[1])),
    lambda shape: forward_mellin_check(shape, 3.0, [0.5] * len(shape[1])),
    lambda shape: shift_ratio_factors(shape, 3.0),
], ids=["kernel_value", "forward_mellin_check", "shift_ratio_factors"])
def test_raw_shapes_checked_as_problem(call, shape):
    # a shape passed without a Problem is held to Problem's rule 0 < n_p < ... < n_1 < n
    with pytest.raises(ValueError, match="exponents must satisfy"):
        call(shape)


def _no_quadrature(*args, **kwargs):
    raise AssertionError("the strip must be checked before any quadrature runs")


def test_params_validation(monkeypatch):
    monkeypatch.setattr(mellin, "integrate_orthant_log", _no_quadrature)
    with pytest.raises(ConvergenceConditionError, match="Re u = -1 <= 0"):
        forward_mellin_check((2, (1,)), 1.0, [3.0])         # Re u < 0
    with pytest.raises(ConvergenceConditionError, match="Re u_i > 0"):
        forward_mellin_check((2, (1,)), 1.0, [-0.5])        # Re u_1 < 0
    with pytest.raises(ConvergenceConditionError, match="alpha must be positive and finite"):
        forward_mellin_check((2, (1,)), -1.0, [0.5])
    nan, inf = float("nan"), float("inf")
    for alpha, u in [(nan, 0.5), (inf, 0.5), (1.0, nan), (1.0, complex(0.5, inf))]:
        with pytest.raises(ConvergenceConditionError, match="finite"):
            forward_mellin_check((2, (1,)), alpha, [u])


def _strip_verdict(call):
    """"reject" if call raises ConvergenceConditionError, else "accept"."""
    try:
        call()
    except ConvergenceConditionError:
        return "reject"
    except NumericalError:
        return "accept"  # past the strip, e.g. the pole of Gamma(u) at Re u ~ 1e-17
    return "accept"


@pytest.mark.parametrize("shape, alpha, point, verdict", [
    ((2, (1,)), 1.0, (0.5,), "accept"),
    ((2, (1,)), 1.0, (2.0,), "reject"),                     # u = 0 exactly
    ((3, (2, 1)), 2.0, (0.5, 0.4), "accept"),
    ((3, (2, 1)), 1.0, (0.5, 0.5), "reject"),
    # alpha = n_1 a_1 + n_2 a_2 up to rounding: u and alpha - sum n_s a_s round
    # to opposite sides of 0, so one formula must decide for every caller
    ((3, (2, 1)), 0.9, (0.3, 0.3), "reject"),
    ((3, (2, 1)), 0.30000000000000004, (0.1, 0.1), "accept"),
    ((5, (4,)), 0.4000000000000001, (0.1,), "reject"),
])
def test_strip_boundary_agrees(monkeypatch, shape, alpha, point, verdict):
    monkeypatch.setattr(mellin, "integrate_orthant_log", lambda *a, **k: (0.0, 0, 0))
    problem = Problem(shape[0], shape[1], [0.5] * len(point))
    contour = Contour(abscissas=point, height=2.0, nodes_per_line=9)
    assert [_strip_verdict(lambda: forward_mellin_check(shape, alpha, point)),
            _strip_verdict(lambda: principal_root_mb(problem, alpha=alpha, contour=contour)),
            _strip_verdict(lambda: contour_integrand(problem, alpha, contour))] == [verdict] * 3


def test_forward_check_frozen_p1():
    shape = (2, (1,))
    lhs, rhs = forward_mellin_check(shape, 3.0, [0.5], tol=1e-8)
    assert rhs.real == pytest.approx(FORWARD_RHS_A3_U05, rel=1e-13)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_forward_check_exact_p1():
    # n=3, alpha=4, u1=1: u = 1, rhs = (4/3) Gamma(1)^2 / Gamma(3) = 2/3
    shape = (3, (1,))
    lhs, rhs = forward_mellin_check(shape, 4.0, [1.0], tol=1e-8)
    assert rhs.real == pytest.approx(2.0 / 3.0, rel=1e-13)
    assert abs(lhs - rhs) <= 1e-8 * abs(rhs)


def test_forward_check_p2():
    shape = (3, (2, 1))
    lhs, rhs = forward_mellin_check(shape, 9.0, [0.7, 0.6], tol=1e-6)
    assert abs(lhs - rhs) <= 1e-5 * abs(rhs)


def test_forward_check_rejects_p3():
    shape = (5, (3, 2, 1))
    with pytest.raises(ValueError):
        forward_mellin_check(shape, 9.0, [0.5, 0.5, 0.5])


def test_mb_quadratic_unit():
    problem = Problem(2, [1], [1.0])
    res = principal_root_mb(problem, alpha=1.0)
    assert abs(res.value.real - QUAD_CLOSED[1.0]) <= max(1e-8, res.err_estimate)
    assert abs(res.value.imag) <= res.err_estimate


def test_mb_quadratic_alpha2():
    problem = Problem(2, [1], [0.5])
    res = principal_root_mb(problem, alpha=2.0)
    assert abs(res.value.real - QUAD_CLOSED[0.5] ** 2) <= max(1e-8, res.err_estimate)


def test_mb_p2_matches_param():
    problem = Problem(3, [2, 1], [0.3, 0.4])
    res = principal_root_mb(problem, alpha=1.0)
    assert abs(res.value.real - principal_root_param(problem)) <= max(1e-6, res.err_estimate)


def test_mb_power_consistency():
    problem = Problem(3, [1], [0.7])
    r1 = principal_root_mb(problem, alpha=1.0)
    r2 = principal_root_mb(problem, alpha=2.0)
    combined = r2.err_estimate + 2.0 * abs(r1.value) * r1.err_estimate + r1.err_estimate ** 2
    assert abs(r2.value - r1.value ** 2) <= max(1e-9, combined)


def test_mb_contour_independence():
    problem = Problem(2, [1], [0.8])
    base = default_contour(problem, 1.0)
    shifted = Contour(abscissas=(base.abscissas[0] * 0.6,),
                      height=base.height, nodes_per_line=base.nodes_per_line)
    r1 = principal_root_mb(problem, contour=base)
    r2 = principal_root_mb(problem, contour=shifted)
    assert abs(r1.value - r2.value) <= r1.err_estimate + r2.err_estimate + 1e-9


def test_mb_imaginary_part_vanishes_full_grid(monkeypatch):
    for problem in [Problem(2, [1], [0.6]), Problem(4, [3, 1], [0.5, 1.1])]:
        with monkeypatch.context() as m:
            m.setattr(mellin, "_grid_sum", functools.partial(mellin._grid_sum, full_grid=True))
            res = principal_root_mb(problem, alpha=1.0)
        assert abs(res.value.imag) <= res.err_estimate
        # the conjugate-symmetry fold (t_1 = 0 row, center term) adds nothing
        folded = principal_root_mb(problem, alpha=1.0)
        assert abs(folded.value.real - res.value.real) <= 1e-14 * abs(res.value.real)


def _direct_integrand(shape, alpha, x, u_list):
    """kernel * prod x_s^-u_s from the scalar kernel, point by point."""
    v = kernel_value(shape, alpha, u_list)
    for xv, uv in zip(x, u_list):
        v *= cmath.exp(-uv * cmath.log(xv))
    return v


@pytest.mark.parametrize("problem, alpha, height, nodes", [
    (Problem(3, [2], [0.7]), 2.0, 12.0, 25),
    (Problem(4, [3, 1], [0.5, 1.3]), 1.0, 8.0, 17),
    (Problem(6, [4, 2], [0.9, 0.4]), 3.0, 8.0, 13),  # gcd 2 for both u and omega
])
def test_lattice_integrand_matches_kernel(problem, alpha, height, nodes):
    a = default_contour(problem, alpha).abscissas
    contour = Contour(abscissas=a, height=height, nodes_per_line=nodes)
    pts, vals = contour_integrand(problem, alpha, contour)
    assert np.max(np.abs(pts)) == pytest.approx(height, rel=1e-15)  # the ends |t| = T
    for ts, v in zip(pts, vals):
        ref = _direct_integrand(problem.shape, alpha, problem.coeffs,
                                [a_s + 1j * t for a_s, t in zip(a, ts)])
        assert abs(v - ref) <= 1e-13 * abs(ref)


def test_lattice_integrand_matches_kernel_complex_coefficient():
    shape, alpha, a = (3, (2,)), 1.0, [0.25]
    x = [0.9 * cmath.exp(0.5j * 2 * math.pi / 6)]  # inside |arg x| < pi n_1/n
    t, h = _line_nodes(10.0, 21)
    tables = _lattice_tables(shape, alpha, x, a, h, [np.array([-10, 10])])
    # the one row, k_1 = 0 at p = 1
    mag, phase = _rect_integrand(tables, 0, -10, np.empty((1, 21)), np.empty((1, 21), complex))
    vals = (mag * phase)[0]
    for tv, v in zip(t, vals):
        ref = _direct_integrand(shape, alpha, x, [a[0] + 1j * tv])
        assert abs(v - ref) <= 1e-13 * abs(ref)


@pytest.mark.parametrize("problem, alpha, evaluations", [
    (Problem(5, [3], [0.7]), 2.0, 105),
    (Problem(3, [2, 1], [0.4, 0.9]), 3.0, 17674),
])
def test_mb_grid_pinned(problem, alpha, evaluations):
    # points of the rectangles covering the Stirling mask, after the conjugate-symmetry fold
    assert principal_root_mb(problem, alpha=alpha).evaluations == evaluations


def _stirling_grid(shape, x, T, m):
    """The Stirling exponent point by point over the full m^p tensor."""
    n, exps = shape
    t, _ = _line_nodes(T, m)
    ts = [t[ix] for ix in np.ix_(*[np.arange(m)] * len(x))]
    im_u = -sum(e * tv for e, tv in zip(exps, ts)) / n
    im_om = sum(ts, im_u)
    E = (math.pi / 2.0) * (sum(map(np.abs, ts), np.abs(im_u)) - np.abs(im_om))
    return E - sum(tv * cmath.phase(xv) for tv, xv in zip(ts, x))


def _stirling_kept(shape, x, T, m, fold, cut):
    """Reference mask: the offsets (k_1, ..., k_p) whose Stirling exponent is at
    most ``cut``, found point by point over the full m^p tensor, in row-major
    order; with the fold, only those whose first nonzero offset is positive, and 0."""
    E = _stirling_grid(shape, x, T, m)
    k = np.stack(np.nonzero(E <= cut), axis=1) - (m - 1) // 2
    if fold:
        k = k[np.where(k[:, 0] != 0, k[:, 0], k[:, -1]) >= 0]
    return k


@pytest.mark.parametrize("shape, x, full_grid", [
    ((3, (2,)), [0.7], False),
    ((3, (2,)), [0.7], True),
    ((3, (2,)), [0.7 * cmath.exp(1.2j)], False),          # inside |arg x| < 2 pi/3
    ((3, (2, 1)), [0.4, 0.9], False),
    ((3, (2, 1)), [0.4, 0.9], True),
    ((5, (4, 1)), [0.7, 1.3], False),
    ((5, (4, 1)), [0.7, 1.3], True),
    ((5, (4, 2)), [0.5, 1.1], False),                      # gcd 2 for u and omega
    ((5, (4, 2)), [0.5, 1.1], True),
    ((3, (2, 1)), [0.5 * cmath.exp(1.1j), 0.9 * cmath.exp(-0.8j)], False),
    ((4, (3, 1)), [0.7 * cmath.exp(0.9j), 1.3 * cmath.exp(-0.35j)], False),
])
def test_grid_sum_keeps_reference_mask(monkeypatch, shape, x, full_grid):
    # the rectangles cover every point the per-point mask keeps, once each, inside
    # the (folded) box, and the points summed are theirs
    x = [complex(v) for v in x]
    p = len(x)
    problem = Problem(shape[0], list(shape[1]), [abs(v) for v in x])
    setup = mellin._setup(problem, 1.0, coeffs=x)
    contour = setup.contour
    fold = not full_grid and all(v.imag == 0.0 for v in x)
    covers = []
    cover = mellin._cover

    def spy(*args):
        covers.append((args[-1], cover(*args)))
        return covers[-1][1]

    monkeypatch.setattr(mellin, "_cover", spy)
    # each height puts the cut somewhere else along the rows: the first keeps the
    # whole box, edges and corners included, and the last drops points.
    # Rectangles of 23 points are narrower than most rows, so rows are cut in pieces
    for (scale, m), block in itertools.product([(0.3, 41), (1.0, 101), (2.5, 201), (3.0, 61)],
                                               [mellin._BLOCK_POINTS, 23]):
        monkeypatch.setattr(mellin, "_BLOCK_POINTS", block)
        T = scale * contour.height
        *sums, _, count = mellin._grid_sum(setup, T, m, 1e-7, full_grid=full_grid)
        cut, rects = covers[-1]
        c = (m - 1) // 2
        hits = np.zeros((m,) * p, dtype=int)
        for k1, kp, rows, cols in rects:
            assert rows <= mellin._BLOCK_ROWS and rows * cols <= block
            hits[(slice(k1 + c, k1 + c + rows),) * (p - 1) + (slice(kp + c, kp + c + cols),)] += 1
        assert count == (rects[:, 2] * rects[:, 3]).sum() == hits.sum()
        assert hits.max() == 1, (scale, m, block)
        ref = _stirling_kept(shape, x, T, m, fold, cut)
        assert hits[tuple((ref + c).T)].all(), (scale, m, block)
        covered = np.stack(np.nonzero(hits), axis=1) - c
        if fold:
            assert (np.where(covered[:, 0] != 0, covered[:, 0], covered[:, -1]) >= 0).all()
        # the sums against direct sums of f over the rectangles' points
        h = _line_nodes(T, m)[1]
        tables = _lattice_tables(shape, 1.0, x, contour.abscissas, h, [np.array([-c, c])] * p)
        size = (m ** (p - 1), m)
        mag, phase = _rect_integrand(tables, -c * (p - 1), -c, np.empty(size),
                                     np.empty(size, complex))
        f = (mag * phase).reshape((m,) * p)
        k = np.indices((m,) * p) - c
        w = np.prod(np.where(np.abs(k) == c, 0.5, 1.0), axis=0) * hits
        w[(c,) * p] *= 0.5 if fold else 1.0
        on = [hits.astype(bool)] + [(k % q == 0).all(axis=0) & (hits > 0) for q in (2, 4)]
        direct = [q ** p * (w * f)[o].sum() for q, o in zip([1, 2, 4], on)]
        direct += [np.abs(f)[(np.abs(k) == c).any(axis=0) & on[0]].sum(), np.abs(f)[on[0]].sum()]
        scale = (2.0 if fold else 1.0) * (h / (2.0 * math.pi)) ** p
        for v, d in zip(sums, direct, strict=True):
            d = scale * (d.real if fold else d)
            assert abs(v - d) <= 1e-13 * scale * np.abs(w * f).sum() * 4 ** p, (scale, m, block)
    assert len(ref) <= count < m ** p // (2 if fold else 1)


@pytest.mark.parametrize("shape, x, full_grid", [
    ((3, (2,)), [0.7], False),
    ((4, (3, 1)), [0.5, 1.1], False),
    ((4, (3, 1)), [0.5, 1.1], True),
    ((4, (3, 1)), [0.7 * cmath.exp(0.9j), 1.3 * cmath.exp(-0.35j)], False),
])
def test_grid_sum_block_boundaries(monkeypatch, shape, x, full_grid):
    # one row per rectangle against the row cap, rectangles of 7 points against
    # one of 2^25: a cover's extra points are true terms of the sums, so each sum
    # moves by no more than the bound on them that the masked term drops
    x = [complex(v) for v in x]
    p = len(x)
    problem = Problem(shape[0], list(shape[1]), [abs(v) for v in x])
    setup = mellin._setup(problem, 1.0, coeffs=x)
    fold = not full_grid and all(v.imag == 0.0 for v in x)
    n_box = (201 ** p + 1) // 2 if fold else 201 ** p
    caps, sums = [(1, 2 ** 25), (mellin._BLOCK_ROWS, 2 ** 25), (mellin._BLOCK_ROWS, 7), (1, 7)], []
    for rows, block in caps:
        monkeypatch.setattr(mellin, "_BLOCK_ROWS", rows)
        monkeypatch.setattr(mellin, "_BLOCK_POINTS", block)
        sums.append(mellin._grid_sum(setup, setup.contour.height, 201, 1e-7,
                                     full_grid=full_grid))
    (*ref, masked_ref, count_ref) = sums[0]
    for cap, (*other, masked, count) in zip(caps[1:], sums[1:]):
        assert count >= count_ref
        # the same bound per point left out
        assert masked * (n_box - count_ref) == pytest.approx(
            masked_ref * (n_box - count), rel=2e-15, abs=0)
        for name, weight, v, v_ref in zip(["v_f", "v_b", "v_c", "ring", "total"],
                                          [1, 2 ** p, 4 ** p, 1, 1], other, ref, strict=True):
            assert abs(v - v_ref) <= 2e-15 * abs(v_ref) + weight * (masked_ref - masked), (
                name, cap, v, v_ref)


@pytest.mark.parametrize("shape, x", [
    ((3, (2,)), [0.7]),
    ((8, (3,)), [1.5 * cmath.exp(0.5j)]),
    ((3, (2, 1)), [0.4, 0.9]),
    ((5, (4, 1)), [0.7 * cmath.exp(0.4j), 1.3 * cmath.exp(-0.2j)]),
])
def test_whole_box_rule(monkeypatch, shape, x):
    # the polygon is built unless the per-point mask keeps every node of the box,
    # and then the rectangles hold the whole box
    setup = mellin._setup(Problem(shape[0], list(shape[1]), [abs(v) for v in x]), 1.0, coeffs=x)
    scans = []
    polygon = mellin._polygon
    monkeypatch.setattr(mellin, "_polygon", lambda *args: scans.append(args) or polygon(*args))
    m = 41
    for T, cut in itertools.product([0.5, 2.0, 8.0], [2.0, 10.0, 30.0]):
        t, _ = _line_nodes(T, m)
        scans.clear()
        rects = mellin._cover(setup, t, False, cut)
        whole = len(_stirling_kept(shape, x, T, m, False, cut)) == m ** len(x)
        assert (not scans) == whole, (T, cut)
        if whole:
            assert (rects[:, 2] * rects[:, 3]).sum() == m ** len(x)


def _check_cover(shape, x, fold, T, m, cut):
    """_cover against the per-point exponent; returns whether it leaves points out.

    Every offset with E <= cut - 1e-9 (so that rounding at a tie decides
    nothing) lies in exactly one rectangle, and every rectangle lies inside
    the (folded) box within both caps.
    """
    p = len(x)
    setup = mellin._setup(Problem(shape[0], list(shape[1]), [abs(v) for v in x]), 1.0, coeffs=x)
    t, _ = _line_nodes(T, m)
    c = (m - 1) // 2
    hits = np.zeros((m,) * p, dtype=int)
    for k1, kp, rows, cols in mellin._cover(setup, t, fold, cut).tolist():
        assert 1 <= rows <= mellin._BLOCK_ROWS and 1 <= cols and rows * cols <= mellin._BLOCK_POINTS
        assert -c <= kp and kp + cols - 1 <= c
        assert (k1, rows) == (0, 1) if p == 1 else -c <= k1 and k1 + rows - 1 <= c
        if fold:
            assert k1 > 0 or (k1, rows) == (0, 1) and kp >= 0
        hits[(slice(k1 + c, k1 + c + rows),) * (p - 1) + (slice(kp + c, kp + c + cols),)] += 1
    assert hits.max() <= 1
    k = np.indices((m,) * p) - c
    kept = _stirling_grid(shape, x, T, m) <= cut - 1e-9
    if fold:
        kept &= np.where(k[0] != 0, k[0], k[-1]) >= 0
    assert hits[kept].all(), (shape, x, fold, T, m, cut)
    return hits.sum() < ((m ** p + 1) // 2 if fold else m ** p)


def test_cover_against_the_per_point_exponent(monkeypatch):
    # a row of this grid keeps offset 0 and, between two offsets, a stretch of
    # the polygon that holds no offset
    _check_cover((5, (4, 3)), [cmath.rect(6.9, 2.24), cmath.rect(5.07, -0.46)],
                 False, 23.3, 9, 2.5)
    # seeded draws: p = 1 and 2, real x (fold on and off) and complex x inside
    # the sector, random height, nodes and cut; every other draw with
    # rectangles of 23 points, narrower than most rows
    rng = np.random.default_rng(20)
    draws = partial = 0
    while draws < 600:
        p = int(rng.integers(1, 3))
        n = int(rng.integers(p + 1, 9))
        shape = (n, tuple(sorted(rng.choice(range(1, n), p, replace=False).tolist())[::-1]))
        turn = rng.uniform(-1.0, 1.0, p) * (rng.random() < 0.5)
        x = [10 ** rng.uniform(-3, 3) * cmath.exp(1j * math.pi * ts * e / n)
             for ts, e in zip(turn, shape[1])]
        try:
            mellin._setup(Problem(n, list(shape[1]), [abs(v) for v in x]), 1.0, coeffs=x)
        except ConvergenceConditionError:
            continue
        draws += 1
        monkeypatch.setattr(mellin, "_BLOCK_POINTS", 23 if draws % 2 else 2 ** 15)
        fold = not turn.any() and rng.random() < 0.7
        partial += _check_cover(shape, x, fold, 10 ** rng.uniform(-0.5, 2),
                                2 * int(rng.integers(4, 60)) + 1, rng.uniform(0.5, 50))
    assert partial > 200


@pytest.mark.parametrize("shape, x", [((3, (2,)), [0.9]), ((3, (2, 1)), [0.4, 0.9])])
def test_view_past_its_table_raises(shape, x):
    # the tables span offsets -10..10 on each axis: a rectangle reaching past
    # them raises, where a gather past a table would read other memory
    p = len(x)
    _, h = _line_nodes(10.0, 21)
    tables = _lattice_tables(shape, 1.0, x, [0.25] * p, h, [np.array([-10, 10])] * p)
    k1 = -10 if p == 2 else 0

    def rect(k1, kp, size):
        return _rect_integrand(tables, k1, kp, np.empty(size), np.empty(size, complex))

    mag, phase = rect(k1, -10, (21 if p == 2 else 1, 21))
    assert np.isfinite(mag).all() and np.isfinite(phase).all()
    for k1, kp, size in [(k1, -11, (1, 3)), (k1, 9, (1, 3)), (k1, -10, (1, 22))] + (
            [(-11, 0, (1, 1)), (10, 0, (2, 1))] if p == 2 else []):
        with pytest.raises(ValueError):
            rect(k1, kp, size)


def test_mb_fully_masked_blocks():
    # h = 250: every off-center node lies below the Stirling cut, so each
    # row's runs are empty but for the center; the one grid sums one point
    coarse = Contour(abscissas=(0.5,), height=1000.0, nodes_per_line=9)
    assert principal_root_mb(Problem(2, [1], [1.0]), contour=coarse).evaluations == 1


def _continued_root(n, n1, x):
    """Principal branch at complex x via Newton homotopy along the argument."""
    z = complex(principal_root(Problem(n, [n1], [abs(x)])))
    phase = cmath.phase(x)
    for k in range(1, 41):
        xt = abs(x) * cmath.exp(1j * phase * k / 40.0)
        for _ in range(60):
            f = z ** n + xt * z ** n1 - 1.0
            df = n * z ** (n - 1) + n1 * xt * z ** (n1 - 1)
            step = f / df
            z -= step
            if abs(step) <= 1e-15 * max(1.0, abs(z)):
                break
    return z


def test_mb_complex_coefficient_in_sector():
    # p = 1: arg(x) strictly inside the sector |arg x| < pi n1/n, where the decay
    # rate pi n1/n - |arg x| is positive; |frac| > 1 lies past n1 pi/(2n)
    for n, n1, r, frac in [(2, 1, 0.9, 0.5), (3, 2, 1.2, -0.6), (5, 3, 0.4, 0.3),
                           (2, 1, 0.9, 1.8), (3, 2, 1.2, -1.8), (3, 1, 0.5, 1.8)]:
        x = r * cmath.exp(1j * frac * n1 * math.pi / (2.0 * n))
        problem = Problem(n, [n1], [r])
        res = principal_root_mb(problem, alpha=1.0, coeffs=[x])
        ref = _continued_root(n, n1, x)
        assert abs(res.value - ref) <= max(1e-6, res.err_estimate)


def test_mb_rejects_out_of_sector():
    problem = Problem(2, [1], [1.0])
    x = cmath.exp(1j * 0.6 * math.pi)  # |arg| > pi/4
    with pytest.raises(ConvergenceConditionError):
        principal_root_mb(problem, coeffs=[x])


def test_mb_rejects_direction_outside_sector():
    # each argument lies inside its line's sector |arg x_s| < pi n_s/n, but along
    # (t_1, t_2) = (1, -2) the Stirling exponent is pi (1 - 0.57 - 0.57) < 0
    problem = Problem(3, [2, 1], [0.5, 0.5])

    def coeffs(scale):
        return [0.5 * cmath.exp(0.57j * scale * math.pi),
                0.5 * cmath.exp(-0.285j * scale * math.pi)]

    with pytest.raises(ConvergenceConditionError, match="every direction"):
        principal_root_mb(problem, coeffs=coeffs(1.0))
    with pytest.raises(ConvergenceConditionError, match="every direction"):
        default_contour(problem, 1.0, coeffs=coeffs(1.0))
    # at 0.8 of those arguments the exponent is positive on every direction
    assert principal_root_mb(problem, coeffs=coeffs(0.8)).evaluations == 984858


def test_mb_rejects_zero_coefficient():
    with pytest.raises(ConvergenceConditionError, match="strictly positive"):
        principal_root_mb(Problem(3, [2, 1], [0.0, 1.0]))
    with pytest.raises(ConvergenceConditionError, match="strictly positive"):
        default_contour(Problem(3, [2, 1], [0.0, 1.0]), 1.0)


@pytest.mark.parametrize("coeffs", [[0.5], [0.5, 0.5, 0.5]])
def test_default_contour_rejects_wrong_coefficient_count(coeffs):
    # default_contour makes principal_root_mb's checks, with the same message
    problem = Problem(3, [2, 1], [0.5, 0.5])
    message = f"{len(coeffs)} coefficients for p = 2"
    with pytest.raises(ValueError, match=message):
        principal_root_mb(problem, coeffs=coeffs)
    with pytest.raises(ValueError, match=message):
        default_contour(problem, 1.0, coeffs=coeffs)


def test_default_contour_rejects_p3():
    with pytest.raises(ValueError, match="implemented for p <= 2"):
        default_contour(Problem(5, [3, 2, 1], [0.5, 0.5, 0.5]), 1.0)


def test_ring_exponent_once_per_solve(monkeypatch):
    # the set-up finds the ring once; the whole-box rule reuses it
    calls = []
    ring_exponent = mellin._ring_exponent
    monkeypatch.setattr(mellin, "_ring_exponent",
                        lambda *args: calls.append(args) or ring_exponent(*args))
    principal_root_mb(Problem(3, [2, 1], [0.4, 0.9]), alpha=2.0)
    assert len(calls) == 1


@pytest.mark.parametrize("problem, alpha, tol, coeffs", [
    (Problem(5, [3], [0.7]), 2.0, 1e-8, None),
    (Problem(3, [2, 1], [0.4, 0.9]), 3.0, 1e-7, None),
    (Problem(4, [3, 1], [0.7, 1.3]), 1.0, 1e-6,
     [0.7 * cmath.exp(0.9j), 1.3 * cmath.exp(-0.35j)]),
])
def test_mb_default_contour_is_the_solve_contour(problem, alpha, tol, coeffs):
    # a solve on default_contour's contour is the solve on its own default, bit for bit
    res = principal_root_mb(problem, alpha, tol=tol, coeffs=coeffs)
    contour = default_contour(problem, alpha, tol, coeffs)
    given = principal_root_mb(problem, alpha, contour=contour, tol=tol, coeffs=coeffs)
    assert (given.value, given.err_estimate, given.evaluations) == (
        res.value, res.err_estimate, res.evaluations)


def test_contour_integrand_rejects_zero_coefficient():
    contour = Contour(abscissas=(0.25, 0.25), height=10.0, nodes_per_line=21)
    with pytest.raises(ConvergenceConditionError, match="strictly positive"):
        contour_integrand(Problem(3, [2, 1], [0.0, 1.0]), 1.0, contour)


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_mb_rejects_nonpositive_alpha(alpha):
    with pytest.raises(ConvergenceConditionError, match="alpha must be positive and finite"):
        principal_root_mb(Problem(2, [1], [1.0]), alpha=alpha)
    with pytest.raises(ConvergenceConditionError, match="alpha must be positive and finite"):
        default_contour(Problem(2, [1], [1.0]), alpha)


def test_mb_rejects_p3():
    with pytest.raises(ValueError):
        principal_root_mb(Problem(5, [3, 2, 1], [0.5, 0.5, 0.5]))


def test_contour_constraint_violation():
    problem = Problem(2, [1], [1.0])
    bad = Contour(abscissas=(1.5,), height=20.0, nodes_per_line=101)
    with pytest.raises(ConvergenceConditionError):
        principal_root_mb(problem, alpha=1.0, contour=bad)
    with pytest.raises(ConvergenceConditionError):
        Contour(abscissas=(-0.5,), height=20.0, nodes_per_line=101)


@pytest.mark.parametrize("abscissas, height", [
    ((0.5,), float("inf")),
    ((0.5,), float("nan")),
    ((float("nan"),), 20.0),
    ((float("inf"),), 20.0),
])
def test_contour_rejects_non_finite_values(abscissas, height):
    # a malformed height is bad input; a bad abscissa breaks a convergence condition
    if math.isfinite(height):
        with pytest.raises(ConvergenceConditionError):
            Contour(abscissas=abscissas, height=height, nodes_per_line=9)
    else:
        with pytest.raises(ValueError, match="height must be positive and finite") as info:
            Contour(abscissas=abscissas, height=height, nodes_per_line=9)
        assert not isinstance(info.value, NumericalError)


def test_mb_refuses_too_many_rows():
    # a tall, fine contour keeps few points but sums 2^21 + 1 nodes per line
    contour = Contour(abscissas=(0.25, 0.25), height=1e9, nodes_per_line=2 ** 20 + 1)
    with pytest.raises(QuadratureError, match="of 2097153 nodes per line exceeds 1048576"):
        principal_root_mb(Problem(3, [2, 1], [0.5, 1.0]), contour=contour)


def test_mb_memory_does_not_scale_with_the_grid():
    # criterion-02's (5, (4, 1)) instance at tol 1e-12 sums 2.6 M points; a
    # complex per-point array of them alone is 41 MB.  Its c is 2,136, so 16 full
    # rows exceed 2^15 points: each band of 16 rows is cut into column pieces
    tracemalloc.start()
    try:
        res = principal_root_mb(Problem(5, [4, 1], [1.914, 0.713]), tol=1e-12)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.evaluations == 2608940
    assert peak < 32 * 2 ** 20


def test_mb_tol_enforcement():
    problem = Problem(2, [1], [1.0])
    coarse = Contour(abscissas=(0.5,), height=3.0, nodes_per_line=11)
    with pytest.raises(QuadratureError):
        principal_root_mb(problem, contour=coarse, tol=1e-10)


def test_mb_refuses_a_nan_estimate(monkeypatch):
    # a NaN sum gives a NaN estimate, which used to pass the bound
    grid_sum = mellin._grid_sum
    monkeypatch.setattr(mellin, "_grid_sum",
                        lambda *args: (math.nan, *grid_sum(*args)[1:]))
    with pytest.raises(QuadratureError, match="estimate nan exceeds"):
        principal_root_mb(Problem(2, [1], [1.0]), tol=1e-7)


def _criterion_02_head(count=20):
    """The first ``count`` criterion-02 instances, (problem, alpha)."""
    rng = np.random.default_rng(1002)
    for _ in range(count):
        problem = sampling.random_mb_problem(rng)
        yield problem, float(rng.choice([1.0, 2.0, 3.0]))


@pytest.mark.parametrize("tol", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_mb_honours_tol(tol):
    # err_estimate bounds the error of the returned value, so tol is met, not refused
    for problem, alpha in _criterion_02_head():
        res = principal_root_mb(problem, alpha, tol=tol)
        observed = abs(res.value - principal_root_param(problem) ** alpha)
        assert observed <= res.err_estimate <= tol, (problem, alpha)


def test_mb_estimate_is_close_to_the_error():
    # a bound, not a gross overestimate: the median est/obs lies in [1, 100]
    ratios = []
    for problem, alpha in _criterion_02_head():
        res = principal_root_mb(problem, alpha, tol=1e-7)
        ratios.append(res.err_estimate / abs(res.value - principal_root_param(problem) ** alpha))
    assert 1.0 <= float(np.median(ratios)) <= 100.0, sorted(ratios)


@st.composite
def _criterion_02_draws(draw):
    """A criterion-02 shape (p = 1 with n <= 8, p = 2 with n <= 5), log10 x_s
    uniform on [-40, 0], alpha and tol."""
    p = draw(st.integers(1, 2))
    n = draw(st.integers(p + 1, 8 if p == 1 else 5))
    exps = sorted(draw(st.sets(st.integers(1, n - 1), min_size=p, max_size=p)), reverse=True)
    logs = draw(st.lists(st.floats(-40.0, 0.0), min_size=p, max_size=p))
    return (Problem(n, exps, [10.0 ** v for v in logs]), draw(st.sampled_from([1.0, 2.0, 3.0])),
            draw(st.sampled_from([1e-6, 1e-9, 1e-12])))


@settings(max_examples=40, deadline=None)
@given(_criterion_02_draws())
# rounding: the sum of |f| cancels about 440 to 1 and each term carries several ulps
@example((Problem(2, [1], [1.1450129094116148e-06]), 2.0, 1e-12))
# discretisation: the coarse levels meet by chance, so the three-level fit undercounts
@example((Problem(7, [2], [0.01]), 3.0, 1e-6))
def test_mb_value_within_its_estimate(draw):
    # a value within err_estimate <= tol of the root, or a typed refusal
    problem, alpha, tol = draw
    try:
        res = principal_root_mb(problem, alpha, tol=tol)
    except NumericalError:
        return
    observed = abs(res.value - principal_root_param(problem) ** alpha)
    assert observed <= res.err_estimate <= tol


def test_mb_small_coefficient_rounding_counted():
    # x^-a = 1e10 at a = 0.1, and the sum cancels down to 1: its rounding is counted
    problem = Problem(40, [5], [1e-100])
    res = principal_root_mb(problem)
    assert abs(res.value - principal_root_param(problem)) <= res.err_estimate


@pytest.mark.parametrize("tol", [0.0, -1e-7, float("nan"), float("inf")])
def test_mb_rejects_bad_tol(tol):
    with pytest.raises(ValueError, match="tol must be positive and finite"):
        principal_root_mb(Problem(2, [1], [1.0]), tol=tol)


def test_mb_deterministic():
    problem = Problem(3, [2, 1], [0.4, 0.9])
    r1 = principal_root_mb(problem, alpha=2.0)
    r2 = principal_root_mb(problem, alpha=2.0)
    assert r1.value == r2.value and r1.err_estimate == r2.err_estimate


@pytest.mark.parametrize("x", [0.1, 0.2, 0.5, 1.0, 2.0])
def test_quadratic_mb_frozen_grid(x):
    mb = principal_root_mb(Problem(2, [1], [x]), tol=1e-8).value.real
    closed = -x / 2.0 + math.sqrt(1.0 + (x / 2.0) ** 2)
    assert closed == pytest.approx(QUAD_CLOSED[x], rel=1e-15)
    assert abs(mb - closed) <= 1e-8


def test_quadratic_mb_small_x_limit():
    mb = principal_root_mb(Problem(2, [1], [1e-4]), tol=1e-8).value.real
    assert abs(mb - 1.0) <= 1e-3


def test_quadratic_mb_rejects_nonpositive():
    for x in [-1.0, float("nan"), float("inf")]:
        with pytest.raises(ValueError):
            principal_root_mb(Problem(2, [1], [x]), tol=1e-8)
