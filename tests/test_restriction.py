"""Probing near sources: the free-space route against the mode sum."""

from types import SimpleNamespace

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.special import erfc

from heattrack import restriction
from heattrack.errors import InsufficientDataError
from heattrack.restriction import (
    boundary_distance,
    images_point_solution,
    restriction_gap_report,
)
from heattrack.spectral import DomainSpec

from probes import (ResolutionError, free_space_point_solution,
                    looped_images_point_solution, neumann_solution_probe)

KAPPA = 1.0
SAMPLES, QUAD_ORDER = 48, 12    # the packaged restriction block's values


def _interval():
    return DomainSpec.interval(1.0, kappa=KAPPA)


def _box():
    return DomainSpec.box((1.0, 1.0, 1.0), kappa=KAPPA)


# ---------------------------------------------------------------------------
# geometry helpers


def test_boundary_distance_interval_and_box():
    dom = _interval()
    assert boundary_distance(dom, np.array([[0.3]])) == pytest.approx(0.3)
    assert boundary_distance(dom, np.array([[0.9]])) == pytest.approx(0.1)
    box = _box()
    d = boundary_distance(box, np.array([[0.5, 0.2, 0.7]]))
    assert d == pytest.approx(0.2)


def test_probe_set_requires_strict_interior():
    dom = _interval()
    sources = np.array([[0.4]])
    horizons = [0.02, 0.01, 0.005]
    report = restriction_gap_report(dom, sources, np.array([[0.25], [0.75]]),
                                    horizons, SAMPLES, QUAD_ORDER)
    assert report.margin == pytest.approx(0.25)
    with pytest.raises(ValueError, match="strictly interior"):
        restriction_gap_report(dom, sources, np.array([[0.0]]), horizons,
                               SAMPLES, QUAD_ORDER)
    with pytest.raises(ValueError, match="strictly interior"):
        restriction_gap_report(dom, sources, np.array([[1.2]]), horizons,
                               SAMPLES, QUAD_ORDER)


# ---------------------------------------------------------------------------
# free-space route: closed form under constant unit input
#
#   int_0^t Phi(r, t - tau) dtau
#     = sqrt(t / (pi kappa)) exp(-r^2 / (4 kappa t))
#       - (r / (2 kappa)) erfc(r / (2 sqrt(kappa t)))      (one dimension)


def _constant_input_integral(r, t, kappa):
    if t == 0.0:
        return 0.0
    return (np.sqrt(t / (np.pi * kappa)) * np.exp(-r * r / (4 * kappa * t))
            - r / (2 * kappa) * erfc(r / (2 * np.sqrt(kappa * t))))


def test_free_space_probe_matches_the_erfc_closed_form():
    times = np.linspace(0.0, 0.2, 41)
    inputs = np.ones((41, 1))
    sources = np.array([[0.4]])
    probes = np.array([[0.25], [0.55]])
    worst = 0.0
    for t in times[1:]:
        vals = free_space_point_solution(sources, times, inputs, probes,
                                         KAPPA, t=t)
        assert vals.shape == (2,)
        for j, p in enumerate((0.25, 0.55)):
            r = abs(p - 0.4)
            worst = max(worst,
                        abs(vals[j] - _constant_input_integral(r, t, KAPPA)))
    assert worst < 1e-6


def test_free_space_probe_is_linear_in_the_amplitude():
    times = np.linspace(0.0, 0.1, 21)
    inputs = np.sin(np.pi * times / 0.1)[:, None] ** 2
    sources = np.array([[0.4]])
    probes = np.array([[0.3]])
    one = free_space_point_solution(sources, times, inputs, probes, KAPPA)
    three = free_space_point_solution(sources, times, 3.0 * inputs, probes,
                                      KAPPA)
    assert_allclose(three, 3.0 * one, rtol=1e-12)


def test_probe_argument_validation():
    times = np.linspace(0.0, 0.1, 21)
    inputs = np.ones((21, 1))
    with pytest.raises(ValueError):  # probe on top of the source
        free_space_point_solution(np.array([[0.4]]), times, inputs,
                                  np.array([[0.4]]), KAPPA)
    with pytest.raises(ValueError):  # off-grid evaluation time
        free_space_point_solution(np.array([[0.4]]), times, inputs,
                                  np.array([[0.3]]), KAPPA, t=0.012)
    with pytest.raises(ValueError):  # wrong sample count
        free_space_point_solution(np.array([[0.4]]), times, np.ones((20, 1)),
                                  np.array([[0.3]]), KAPPA)


def test_images_reduce_to_free_space_at_short_times():
    """Reflections sit at distance >= 0.8; at t = 0.003 they are invisible."""
    dom = _interval()
    times = np.linspace(0.0, 0.003, 13)
    inputs = np.ones((13, 1))
    sources = np.array([[0.4]])
    probes = np.array([[0.5]])
    free = free_space_point_solution(sources, times, inputs, probes, KAPPA)
    gap = images_point_solution(dom, sources, times, inputs, probes,
                                QUAD_ORDER)
    assert_allclose(free + gap, free, atol=1e-14)


def test_reflected_only_is_the_image_correction():
    """The gap is the whole image sum less its principal image."""
    dom = _interval()
    times = np.linspace(0.0, 0.05, 25)
    inputs = np.sin(np.pi * times / 0.05)[:, None] ** 2
    sources = np.array([[0.4]])
    probes = np.array([[0.3]])
    full = looped_images_point_solution(dom, sources, times, inputs, probes)
    free = free_space_point_solution(sources, times, inputs, probes, KAPPA)
    refl = images_point_solution(dom, sources, times, inputs, probes,
                                 QUAD_ORDER)
    assert_allclose(full - free, refl, atol=1e-14)
    assert np.all(refl > 0.0)  # insulated walls only add heat back


# ---------------------------------------------------------------------------
# the broadcast image sum against the image-by-image loop

# DomainSpec has no 2-D kind; the image sum reads only lengths and kappa.
_RECT = SimpleNamespace(kind="rect", lengths=(1.0, 0.7), kappa=0.8, dim=2)
_IMAGE_CASES = {
    "interval": (_interval(), [[0.4]], [[0.3], [0.55], [0.9]]),
    "rect": (_RECT, [[0.4, 0.3], [0.6, 0.5]], [[0.5, 0.35]]),
    "box3": (DomainSpec.box((1.0, 0.8, 0.6), kappa=KAPPA),
             [[0.4, 0.4, 0.3], [0.6, 0.4, 0.3], [0.5, 0.2, 0.45]],
             [[0.5, 0.4, 0.3], [0.3, 0.6, 0.2]]),
}


@pytest.mark.parametrize("case", sorted(_IMAGE_CASES))
@pytest.mark.parametrize("reflected_only", [False, True])
@pytest.mark.parametrize("quad_order", [1, 12])
@pytest.mark.parametrize("mid", [False, True])
def test_image_sum_matches_the_image_loop(case, reflected_only, quad_order,
                                          mid):
    """The gap against the loop's reflected images, or, added to the
    free-space field, against the loop's whole image sum; ``mid`` stops
    the grid halfway, while the sources still fire."""
    domain, sources, probes = _IMAGE_CASES[case]
    times = np.linspace(0.0, 0.02, 25)
    shape = np.sin(np.pi * times / 0.02) ** 2
    inputs = shape[:, None] * np.linspace(1.0, 0.5, len(sources))[None, :]
    if mid:
        times, inputs = times[:13], inputs[:13]
    fast = images_point_solution(domain, sources, times, inputs, probes,
                                 quad_order)
    loop = looped_images_point_solution(domain, sources, times, inputs,
                                        probes, quad_order=quad_order,
                                        reflected_only=reflected_only)
    if not reflected_only:
        fast = fast + free_space_point_solution(
            sources, times, inputs, probes, domain.kappa,
            quad_order=quad_order)
    assert fast.shape == (len(probes),)
    assert np.all(loop > 0.0)
    assert_allclose(fast, loop, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("case", ["interval", "box3"])
def test_image_sum_blocks_agree_with_the_image_loop(monkeypatch, case):
    """A long horizon needs many images; small blocks split their table."""
    domain, sources, probes = _IMAGE_CASES[case]
    times = np.linspace(0.0, 0.5, 9)
    inputs = np.ones((9, len(sources)))
    loop = looped_images_point_solution(domain, sources, times, inputs,
                                        probes, reflected_only=True)
    whole = images_point_solution(domain, sources, times, inputs, probes,
                                  QUAD_ORDER)
    monkeypatch.setattr(restriction, "_BLOCK_VALUES", 500)
    blocked = images_point_solution(domain, sources, times, inputs, probes,
                                    QUAD_ORDER)
    assert_allclose(whole, loop, rtol=1e-13, atol=0.0)
    assert_allclose(blocked, loop, rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("case", sorted(_IMAGE_CASES))
def test_images_past_the_floor_are_exact_zeros(case):
    """At t = 1e-5 every wall image is past the exp floor: the gap is 0."""
    domain, sources, probes = _IMAGE_CASES[case]
    times = np.linspace(0.0, 1e-5, 5)
    inputs = np.ones((5, len(sources)))
    fast = images_point_solution(domain, sources, times, inputs, probes,
                                 QUAD_ORDER)
    loop = looped_images_point_solution(domain, sources, times, inputs,
                                        probes, reflected_only=True)
    assert np.all(loop == 0.0) and np.all(fast == 0.0)


def test_the_exp_floor_applies_node_by_node():
    """Only the wall image at 0.9 is alive, just above the floor at the
    longest elapsed time and below it at shorter ones."""
    times = np.linspace(0.0, 2.94e-4, 9)
    inputs = np.ones((9, 1))
    args = (_interval(), [[0.4]], times, inputs, [[0.5]])
    loop = looped_images_point_solution(*args, reflected_only=True)
    assert 0.0 < loop[0] < 1e-290
    assert_allclose(images_point_solution(*args, QUAD_ORDER), loop,
                    rtol=1e-13, atol=0.0)


def test_gauss_rule_is_cached_read_only_and_exact():
    for order in (1, 12, 100):
        nodes, weights = restriction._gauss_rule(order)
        expected = np.polynomial.legendre.leggauss(order)
        np.testing.assert_array_equal(nodes, expected[0])
        np.testing.assert_array_equal(weights, expected[1])
        assert not nodes.flags.writeable and not weights.flags.writeable
        with pytest.raises(ValueError):
            nodes[0] = 0.0
        assert restriction._gauss_rule(order)[0] is nodes


# ---------------------------------------------------------------------------
# the two routes must meet in the middle


def test_dual_route_agreement_interval():
    dom = _interval()
    times = np.linspace(0.0, 0.05, 49)
    shape = np.sin(np.pi * times / 0.05) ** 2
    inputs = np.stack([shape, 0.5 * shape], axis=1)
    sources = np.array([[0.4], [0.6]])
    probes = np.array([[0.25], [0.5], [0.7]])
    via_images = (
        free_space_point_solution(sources, times, inputs, probes, KAPPA)
        + images_point_solution(dom, sources, times, inputs, probes,
                                QUAD_ORDER))
    via_modes = neumann_solution_probe(dom, sources, times, inputs, probes,
                                       n_modes=64)
    assert np.max(np.abs(via_images - via_modes)) < 1e-7
    # while the sources still fire, 64 modes only roughly resolve the spike
    mid = times[24]
    head = (sources, times[:25], inputs[:25], probes)
    rough_images = (free_space_point_solution(*head, KAPPA)
                    + images_point_solution(dom, *head, QUAD_ORDER))
    rough_modes = neumann_solution_probe(dom, sources, times, inputs, probes,
                                         n_modes=64, t=mid, check=False)
    assert np.max(np.abs(rough_images - rough_modes)) < 1e-3


def _box_bump(times, horizon):
    # active only on the first half; both routes then resolve it fully
    s = np.clip(2.0 * times / horizon, 0.0, 1.0)
    bump = np.sin(np.pi * s) ** 2
    bump[times > horizon / 2.0] = 0.0
    return bump


def test_dual_route_agreement_box():
    dom = _box()
    horizon = 0.12
    times = np.linspace(0.0, horizon, 49)
    inputs = _box_bump(times, horizon)[:, None]
    sources = np.array([[0.45, 0.5, 0.5]])
    probes = np.array([[0.6, 0.45, 0.55]])
    via_images = (
        free_space_point_solution(sources, times, inputs, probes, KAPPA)
        + images_point_solution(dom, sources, times, inputs, probes,
                                QUAD_ORDER))
    coarse = neumann_solution_probe(dom, sources, times, inputs, probes,
                                    n_modes=40, check=False)
    fine = neumann_solution_probe(dom, sources, times, inputs, probes,
                                  n_modes=300)
    # the coarse gap proves the two routes are independent computations
    assert np.max(np.abs(via_images - coarse)) > 1e-8
    assert np.max(np.abs(via_images - fine)) < 1e-12


def test_mode_route_rejects_unresolved_requests():
    dom = _box()
    times = np.linspace(0.0, 0.05, 33)
    s = np.clip(times / 0.05, 0.0, 1.0)
    inputs = (np.sin(np.pi * s) ** 2)[:, None]  # still active at the end
    sources = np.array([[0.45, 0.5, 0.5]])
    probes = np.array([[0.6, 0.45, 0.55]])
    with pytest.raises(ResolutionError):
        neumann_solution_probe(dom, sources, times, inputs, probes,
                               n_modes=512)
    # the check can be waived explicitly
    vals = neumann_solution_probe(dom, sources, times, inputs, probes,
                                  n_modes=512, check=False)
    assert vals.shape == (1,)


def test_single_mode_carries_the_injected_mass():
    """K = 1 keeps only the mean: the probe sees exactly mass / volume."""
    dom = _interval()
    times = np.linspace(0.0, 0.05, 25)
    inputs = np.sin(np.pi * times / 0.05)[:, None] ** 2
    vals = neumann_solution_probe(dom, np.array([[0.4]]), times, inputs,
                                  np.array([[0.7]]), n_modes=1, check=False)
    mass = np.trapezoid(inputs[:, 0], times)
    assert vals[0] == pytest.approx(mass, rel=1e-12)


# ---------------------------------------------------------------------------
# gap reports


def test_gap_report_shrinks_with_the_horizon():
    dom = _box()
    sources = np.array([[0.45, 0.5, 0.5]])
    probes = np.array([[0.6, 0.45, 0.55]])
    report = restriction_gap_report(dom, sources, probes,
                                    horizons=[0.08, 0.04, 0.02, 0.01],
                                    samples=SAMPLES, quad_order=QUAD_ORDER)
    assert report.monotone
    assert report.r_squared >= 0.95
    assert report.rate > 0.0
    # horizons come back sorted ascending, so d^2 / T falls along the rows
    assert np.all(np.diff(report.horizons) > 0.0)
    assert np.all(np.diff(report.dsq_over_horizon) < 0.0)
    assert report.gaps[0] < report.gaps[-1]
    assert report.margin == pytest.approx(0.4)


def test_gap_report_needs_enough_horizons():
    dom = _interval()
    with pytest.raises(InsufficientDataError):
        restriction_gap_report(dom, np.array([[0.4]]), np.array([[0.5]]),
                               horizons=[0.08, 0.04], samples=SAMPLES,
                               quad_order=QUAD_ORDER)


def test_gap_report_fits_three_distinct_horizons():
    """A repeated horizon adds no abscissa to the fit."""
    dom = _interval()
    with pytest.raises(InsufficientDataError, match="distinct"):
        restriction_gap_report(dom, np.array([[0.4]]), np.array([[0.5]]),
                               horizons=[0.08, 0.08, 0.04], samples=SAMPLES,
                               quad_order=QUAD_ORDER)


@pytest.mark.parametrize("amplitudes", [[1.0], [1.0, 0.5, 0.25], [[1.0, 0.5]]],
                         ids=str)
def test_gap_report_needs_one_amplitude_per_source(amplitudes):
    dom = _interval()
    with pytest.raises(ValueError, match="one amplitude per source"):
        restriction_gap_report(dom, np.array([[0.4], [0.6]]),
                               np.array([[0.5]]), [0.02, 0.01, 0.005],
                               SAMPLES, QUAD_ORDER, amplitudes=amplitudes)
