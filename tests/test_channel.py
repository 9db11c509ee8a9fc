"""SNR laws: path loss, truncation, quadrature expectations, discretization."""
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesplit import (
    NumericalError,
    PathLossParams,
    StageDistribution,
    distribution_from_config,
    mean_snr_from_pathloss,
)
from edgesplit import channel
from edgesplit.channel import inv_rate_expectation, inv_rate_table, inv_rate_tails, per_stage

from conftest import MEAN_SNR_D50, channel_at, make_params, pathloss_at

W = 2e6


def inv_rate(s):
    return 1.0 / (W * np.log1p(s) / math.log(2.0))


# -- path loss ---------------------------------------------------------------

def test_mean_snr_golden(params):
    assert mean_snr_from_pathloss(pathloss_at(50), params) == pytest.approx(MEAN_SNR_D50, rel=1e-14)


def test_mean_snr_power_law(params):
    near = mean_snr_from_pathloss(pathloss_at(25), params)
    far = mean_snr_from_pathloss(pathloss_at(50), params)
    assert near == pytest.approx(8 * far, rel=1e-12)


def test_mean_snr_zero_exponent_ignores_distance(params):
    base = dict(antenna_gain=4.11, carrier_hz=915e6, exponent=1e-300)
    a = mean_snr_from_pathloss(PathLossParams(distance_m=10, **base), params)
    b = mean_snr_from_pathloss(PathLossParams(distance_m=1000, **base), params)
    assert a == pytest.approx(b, rel=1e-9)
    assert a == pytest.approx(params.tx_power_w * 4.11 / params.noise_w, rel=1e-9)


# -- law shape ----------------------------------------------------------------

@pytest.fixture(scope="module")
def trunc():
    return StageDistribution.truncated_exponential(MEAN_SNR_D50, floor_ratio=1e-3)


def test_cdf_endpoints(trunc):
    assert trunc.cdf(trunc.support_lo) == 0.0
    assert trunc.cdf(trunc.support_lo / 2) == 0.0
    assert trunc.cdf(math.inf) == 1.0
    assert trunc.cdf(trunc.support_lo + 50 * trunc.mean_snr) == pytest.approx(1.0, abs=1e-15)


def test_pdf_normalizes(trunc):
    assert trunc.expect(lambda s: 1.0) == pytest.approx(1.0, abs=1e-9)


def test_pdf_nonnegative_and_cdf_monotone(trunc):
    xs = np.linspace(trunc.support_lo / 2, trunc.support_lo + 10 * trunc.mean_snr, 400)
    assert np.all(trunc.pdf(xs) >= 0)
    cdfs = trunc.cdf(xs)
    assert np.all(np.diff(cdfs) >= -1e-15)


def test_expectation_of_identity_is_mean():
    plain = StageDistribution.exponential(MEAN_SNR_D50)
    assert plain.expect(lambda s: s) == pytest.approx(MEAN_SNR_D50, rel=1e-8)


def test_indicator_expectation_matches_survival(trunc):
    for t in (trunc.support_lo * 2, 0.3, 1.0):
        got = trunc.expect(lambda s, t=t: 1.0 * (s > t))
        assert got == pytest.approx(1.0 - trunc.cdf(t), abs=1e-9)


def test_doubly_truncated_support():
    d = StageDistribution.truncated_exponential(1.0, floor=0.1, upper=2.0)
    assert d.cdf(0.1) == 0.0
    assert d.cdf(2.0) == 1.0
    assert d.expect(lambda s: 1.0) == pytest.approx(1.0, abs=1e-10)
    assert d.quantile(1.0) == pytest.approx(2.0, rel=1e-12)


# -- expectation operators -----------------------------------------------------

def test_inv_rate_expectation_vs_monte_carlo(trunc):
    analytic = trunc.expect(inv_rate)
    rng = np.random.default_rng(2024)
    samples = trunc.sample(rng, size=10_000_000)
    vals = inv_rate(samples)
    mc = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(analytic - mc) <= 3 * se


def test_partial_expect_additivity(trunc):
    split = 0.4
    left = trunc.partial_expect(inv_rate, trunc.support_lo, split)
    right = trunc.partial_expect(inv_rate, split, math.inf)
    assert left + right == pytest.approx(trunc.expect(inv_rate), abs=1e-9)


def test_partial_expect_degenerate_and_ordering(trunc):
    assert trunc.partial_expect(inv_rate, 0.5, 0.5) == 0.0
    with pytest.raises(ValueError):
        trunc.partial_expect(inv_rate, 0.7, 0.2)


def test_partial_expect_matches_conditional_monte_carlo(trunc):
    t = 0.25
    analytic = trunc.partial_expect(inv_rate, t, math.inf)
    rng = np.random.default_rng(7)
    samples = trunc.sample(rng, size=2_000_000)
    kept = samples[samples > t]
    # E[g | s > t] * P{s > t}, estimated by rejection
    vals = inv_rate(kept)
    est = vals.sum() / len(samples)
    se = math.sqrt(np.var(np.where(samples > t, inv_rate(np.maximum(samples, t)), 0.0), ddof=1)
                   / len(samples))
    assert abs(analytic - est) <= 3 * se


# E[1/R; snr >= t] at W = 2e6 on the reference law (floor 1e-3 x mean), from
# scripts/golden_oracles.py at 30 digits; pairs with tail mass below 1e-3 are
# left out, which drops (100 m, t = 1.0).
MPMATH_INV_RATE_TAILS = [
    (25, "0", 6.04034117385336118182333404508e-7),
    (25, "3*floor", 5.22257200429466445084201080063e-7),
    (25, "0.1", 3.74576257738331560315258919087e-7),
    (25, "1.0", 1.89390359634573239678926290634e-7),
    (50, "0", 3.92292332027744765062708098889e-6),
    (50, "3*floor", 3.27112735167384815913121538827e-6),
    (50, "0.1", 9.37691891653645859428112622421e-7),
    (50, "1.0", 7.01016458907753146459034519356e-8),
    (100, "0", 3.02616016423271584827543444965e-5),
    (100, "3*floor", 2.50496569539062670956428438331e-5),
    (100, "0.1", 6.21114052468212118727077421955e-7),
]


@pytest.mark.parametrize("distance,threshold,reference", MPMATH_INV_RATE_TAILS)
def test_inv_rate_expectation_matches_mpmath(params, distance, threshold, reference):
    dist = channel_at(distance, params)
    t = 3 * dist.support_lo if threshold == "3*floor" else float(threshold)
    got = inv_rate_expectation(dist, t, params.bandwidth_hz)
    assert got == pytest.approx(reference, rel=1e-10)


# The same at mean SNR 1e-7 and 1e-11 (about 10 km and 220 km at the reference
# radio), where 1 + gamma rounds in float64.
MPMATH_SMALL_SNR_TAILS = [
    (1e-7, "0", 2.19653978862372749027085812406e+1),
    (1e-7, "3*floor", 1.81610199027058747378367837705e+1),
    (1e-7, "mean", 7.61087548812515999229237012152e-1),
    (1e-11, "0", 2.19653977129678113332373000942e+5),
    (1e-11, "3*floor", 1.81610197297826037932524758451e+5),
    (1e-11, "mean", 7.6108748500646947650024962553e+3),
]


@pytest.mark.parametrize("mean,threshold,reference", MPMATH_SMALL_SNR_TAILS)
def test_inv_rate_expectation_at_small_mean_snr_matches_mpmath(mean, threshold, reference):
    dist = StageDistribution.truncated_exponential(mean)
    t = {"0": 0.0, "3*floor": 3 * dist.support_lo, "mean": mean}[threshold]
    assert inv_rate_expectation(dist, t, W) == pytest.approx(reference, rel=1e-10)


def test_gauss_kronrod_constants():
    nodes = channel._GK_NODES
    kronrod, gauss = channel._GK_WEIGHTS.T
    assert np.all(np.diff(nodes) > 0) and np.array_equal(nodes, -nodes[::-1])
    # the 21-point Kronrod rule integrates polynomials exactly up to degree 31
    for k in range(32):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert kronrod @ nodes**k == pytest.approx(exact, abs=1e-15)
    assert kronrod @ nodes**32 != pytest.approx(2.0 / 33, abs=1e-13)
    # the embedded 10-point rule is Gauss-Legendre on the odd-indexed nodes
    x10, w10 = np.polynomial.legendre.leggauss(10)
    assert np.count_nonzero(gauss) == 10
    np.testing.assert_allclose(nodes[gauss != 0], x10, rtol=0, atol=1e-15)
    np.testing.assert_allclose(gauss[gauss != 0], w10, rtol=0, atol=1e-15)


# -- the per-law tail table -------------------------------------------------------

_SPOTS = ("below", "floor", "edge", "left_of_edge", "right_of_edge", "inside",
          "near_cutoff", "cutoff", "past_cutoff", "inf")


def _threshold(table, law, spot, k, u):
    edge = table.edges[k % len(table.edges)]
    return {
        "below": 0.5 * law.support_lo, "floor": law.support_lo, "edge": edge,
        "left_of_edge": np.nextafter(edge, 0.0), "right_of_edge": np.nextafter(edge, math.inf),
        "inside": law.support_lo + u * (table.cutoff - law.support_lo),
        "near_cutoff": table.cutoff * (1.0 - 1e-6 * u), "cutoff": table.cutoff,
        "past_cutoff": 2.0 * table.cutoff, "inf": math.inf,
    }[spot]


@given(mean=st.floats(0.05, 40.0), ceiling=st.one_of(st.none(), st.floats(0.5, 4.0)),
       picks=st.lists(st.tuples(st.sampled_from(_SPOTS), st.integers(0, 10**6),
                                st.floats(0.0, 1.0)), min_size=1, max_size=12))
def test_table_reads_match_the_adaptive_rule_per_threshold(mean, ceiling, picks):
    law = StageDistribution.truncated_exponential(
        mean, upper=math.inf if ceiling is None else mean * ceiling)
    table = inv_rate_table(law, W)
    assert table.full == law.expect(inv_rate)
    thresholds = [float(_threshold(table, law, *pick)) for pick in picks]
    got = inv_rate_tails(law, thresholds, W)
    for t, tail in zip(thresholds, got.tolist()):
        ref = law.partial_expect(inv_rate, t, math.inf)
        assert abs(tail - ref) <= 1e-10 * ref, (t, tail, ref)
        # a read does not depend on the other thresholds sharing its call
        assert tail == inv_rate_expectation(law, t, W)


@given(snrs=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=8, unique=True),
       weights=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8))
def test_discrete_table_reads_count_a_tie_as_a_stop(snrs, weights):
    weights = weights[:len(snrs)]
    law = StageDistribution.discrete([(s, w / sum(weights)) for s, w in zip(snrs, weights)])
    atoms = sorted(snrs)
    thresholds = [0.5 * atoms[0], 2.0 * atoms[-1], math.inf, *atoms,
                  *np.nextafter(atoms, 0.0), *np.nextafter(atoms, math.inf)]
    got = inv_rate_tails(law, thresholds, W)
    for t, tail in zip(thresholds, got.tolist()):
        brute = math.fsum(p * inv_rate(s) for s, p in law.atoms if s >= t)
        assert tail == pytest.approx(brute, rel=1e-13, abs=0.0)


def test_adaptive_rule_keeps_each_owners_panels_apart():
    # a kink inside every panel makes every owner refine
    x0, x1 = np.array([0.0, 0.2, 0.4]), np.array([1.0, 0.9, 0.6])
    left, right, integrals, owner, total = channel._gk_adaptive(
        lambda x: np.abs(x - 0.45) ** 1.5, x0, x1, np.arange(3), np.full(3, 1e-10))
    assert len(owner) > 3
    exact = (np.abs(x0 - 0.45) ** 2.5 + np.abs(x1 - 0.45) ** 2.5) / 2.5
    np.testing.assert_allclose(np.bincount(owner, integrals, 3), exact, rtol=0, atol=1e-10)
    for k in range(3):
        mine = np.argsort(left[owner == k])
        edges = np.append(left[owner == k][mine], right[owner == k][mine][-1])
        assert edges[0] == x0[k] and edges[-1] == x1[k]
        assert np.array_equal(edges[1:-1], right[owner == k][mine][:-1])
    assert total == pytest.approx(exact.sum(), abs=1e-10)


def test_untruncated_inv_rate_diverges():
    plain = StageDistribution.exponential(MEAN_SNR_D50)
    with pytest.raises(NumericalError) as err:
        plain.expect(inv_rate)
    assert err.value.estimate is not None


@pytest.mark.parametrize("g,stop", [
    (lambda s: 1.0 / s**2, r"after 100 levels"),      # finite in doubles: the level cap
    (lambda s: np.sin(1e9 * s), r"after \d levels"),   # the panel cap
], ids=["singular_at_zero", "rough_everywhere"])
def test_quadrature_caps_raise_with_partial_estimate(g, stop):
    plain = StageDistribution.exponential(1.0)
    with pytest.raises(NumericalError, match=f"did not converge.*{stop}") as err:
        plain.expect(g)
    assert math.isfinite(err.value.estimate)
    assert err.value.error_bound > 0


def test_truncation_floor_lowers_inv_rate_expectation():
    a = StageDistribution.truncated_exponential(1.0, floor_ratio=1e-4).expect(inv_rate)
    b = StageDistribution.truncated_exponential(1.0, floor_ratio=1e-2).expect(inv_rate)
    assert b < a


# -- sampling -------------------------------------------------------------------

def test_quantile_median_of_exponential():
    d = StageDistribution.exponential(1.0)
    assert d.quantile(0.5) == pytest.approx(math.log(2), rel=1e-12)


_LAWS = {
    "truncated": StageDistribution.truncated_exponential(MEAN_SNR_D50, floor_ratio=1e-3),
    "ceiling": StageDistribution.truncated_exponential(1.0, floor=0.01, upper=3.0),
    "discrete": StageDistribution.discrete([(0.5, 0.25), (1.0, 0.5), (2.0, 0.25)]),
}


@pytest.mark.parametrize("law", _LAWS.values(), ids=_LAWS.keys())
@pytest.mark.parametrize("u", [math.nan, np.array([0.25, math.nan]), -0.1, np.array([[0.5, 1.1]])],
                         ids=["nan", "nan_array", "negative", "above_one_2d"])
def test_quantile_rejects_nan_and_out_of_range(law, u):
    with pytest.raises(ValueError, match="quantile"):
        law.quantile(u)


@pytest.mark.parametrize("law", _LAWS.values(), ids=_LAWS.keys())
def test_quantile_of_a_block_matches_its_columns(law):
    u = np.random.default_rng(3).random((500, 4))
    u[0, :] = [0.0, 1.0, 0.5, 1e-300]
    kept = u.copy()
    block = law.quantile(u)
    assert block.shape == u.shape
    assert np.array_equal(u, kept)  # the argument is not overwritten
    for j in range(u.shape[1]):
        assert np.array_equal(block[:, j], law.quantile(np.ascontiguousarray(u[:, j])))


@pytest.mark.parametrize("law", [*_LAWS.values(), StageDistribution.exponential(0.3),
                                 StageDistribution.truncated_exponential(4.0, floor=0.5, upper=0.6)],
                         ids=[*_LAWS.keys(), "exponential", "narrow_ceiling"])
def test_quantile_stays_in_support(law):
    u = np.concatenate([np.random.default_rng(8).random(2000),
                        [0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]])
    for q in (law.quantile(u), np.array([law.quantile(float(v)) for v in u])):
        assert np.all((q >= law.support_lo) & (q <= law.support_hi))
    assert law.quantile(1.0) <= law.support_hi


def test_quantile_one_is_the_finite_ceiling():
    law = _LAWS["ceiling"]
    assert law.quantile(1.0) == law.support_hi == 3.0
    assert law.quantile(np.array([1.0])).tolist() == [3.0]


def _pdf_by_atom_loop(law, x):
    """The discrete pdf as one np.where per atom."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for snr, prob in law.atoms:
        out = np.where(x == snr, prob, out)
    return float(out) if out.ndim == 0 else out


@pytest.mark.parametrize("law", [_LAWS["discrete"], StageDistribution.discrete([(0.7, 1.0)]),
                                 channel_at(50.0, make_params()).discretize(4096)],
                         ids=["three_atoms", "one_atom", "grid_4096"])
def test_discrete_pdf_matches_atom_loop(law):
    snrs = np.array([s for s, _ in law.atoms])
    between = (snrs[:-1] + snrs[1:]) / 2
    outside = [0.0, -1.0, snrs[0] / 2, snrs[-1] * 2, math.inf, -math.inf, math.nan]
    x = np.concatenate([snrs, between, outside, np.nextafter(snrs, math.inf)])
    got = law.pdf(x)
    assert np.array_equal(got, _pdf_by_atom_loop(law, x))
    assert np.array_equal(got[:len(snrs)], [p for _, p in law.atoms])
    assert not got[len(snrs):].any()
    assert np.array_equal(law.pdf(x.reshape(-1, 1)), _pdf_by_atom_loop(law, x.reshape(-1, 1)))
    for v in x[::97]:
        assert law.pdf(float(v)) == _pdf_by_atom_loop(law, float(v))


def test_sampling_ks_statistic(trunc):
    rng = np.random.default_rng(99)
    samples = np.sort(trunc.sample(rng, size=1_000_000))
    n = len(samples)
    grid = (np.arange(n) + np.arange(1, n + 1)) / (2 * n)
    ks = np.max(np.abs(trunc.cdf(samples) - grid)) + 0.5 / n
    assert ks < 0.002


def test_sampling_deterministic(trunc):
    a = trunc.sample(np.random.default_rng(5), size=16)
    b = trunc.sample(np.random.default_rng(5), size=16)
    assert np.array_equal(a, b)


def test_consecutive_stage_samples_uncorrelated(trunc):
    rng = np.random.default_rng(11)
    draws = np.column_stack([trunc.sample(rng, size=100_000) for _ in range(2)])
    r = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(r) < 0.01


def test_single_atom_always_same():
    d = StageDistribution.discrete([(5.0, 1.0)])
    rng = np.random.default_rng(0)
    assert np.all(d.sample(rng, size=8) == 5.0)


# -- discrete laws ---------------------------------------------------------------

def test_discrete_validation():
    with pytest.raises(ValueError):
        StageDistribution(kind="discrete", atoms=((1.0, 0.5), (2.0, 0.4)))
    with pytest.raises(ValueError):
        StageDistribution(kind="discrete", atoms=((2.0, 0.5), (1.0, 0.5)))
    with pytest.raises(ValueError):
        StageDistribution(kind="discrete", atoms=((-1.0, 1.0),))


def test_discrete_canonicalization_merges_and_sorts():
    a = StageDistribution.discrete([(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
    b = StageDistribution.discrete([(1.0, 0.5), (2.0, 0.5)])
    assert a == b


def test_discrete_rejects_malformed_atoms():
    for atoms in ([], [(1.0, 0.5, 0.5)], [[1.0]], np.ones((2, 3))):
        with pytest.raises(ValueError):
            StageDistribution.discrete(atoms)
    with pytest.raises(ValueError, match="pairs"):
        StageDistribution(kind="discrete", atoms=((1.0,), (0.5, 2.0, 0.5)))
    with pytest.raises(ValueError, match="positive and finite"):
        StageDistribution.discrete([(math.nan, 1.0)])


def test_discrete_atom_arrays_are_the_atoms():
    d = StageDistribution.discrete([(2.0, 0.25), (1.0, 0.75)])
    snrs, probs = d.atom_arrays
    assert snrs.tolist() == [1.0, 2.0] and probs.tolist() == [0.75, 0.25]
    with pytest.raises(ValueError):
        snrs[0] = 3.0  # read-only: the law stays immutable
    with pytest.raises(ValueError):
        StageDistribution.exponential(1.0).atom_arrays


def _dict_merge(atoms):
    """The merge discrete() made with a dict: sums in input order, then sorts."""
    merged = {}
    for snr, prob in atoms:
        merged[float(snr)] = merged.get(float(snr), 0.0) + float(prob)
    return tuple(sorted(merged.items()))


def _law_or_error(build):
    try:
        return build()
    except ValueError:
        return ValueError


_SNRS = st.one_of(st.sampled_from([0.1, 0.25, 1.0, 3.0]),
                  st.floats(1e-6, 1e6, allow_nan=False, allow_infinity=False))


@given(pairs=st.lists(st.tuples(_SNRS, st.floats(1e-3, 1.0)), min_size=1, max_size=40),
       order=st.randoms(use_true_random=False), split_at=st.integers(0, 39),
       share=st.floats(0.01, 0.99))
def test_discrete_equals_dict_merge_under_reordering_and_splitting(pairs, order, split_at,
                                                                    share):
    total = sum(p for _, p in pairs)
    atoms = [(s, p / total) for s, p in pairs]
    shuffled = list(atoms)
    order.shuffle(shuffled)
    s, p = atoms[split_at % len(atoms)]
    split = atoms + [(s, p * share)]
    split[split_at % len(atoms)] = (s, p - p * share)
    for variant in (atoms, shuffled, split):
        want = _law_or_error(lambda: StageDistribution(kind="discrete", atoms=_dict_merge(variant)))
        assert _law_or_error(lambda: StageDistribution.discrete(variant)) == want
        assert _law_or_error(lambda: StageDistribution.discrete(np.array(variant))) == want


@given(counts=st.dictionaries(_SNRS, st.integers(1, 8), min_size=1, max_size=12),
       order=st.randoms(use_true_random=False))
def test_discrete_law_invariant_under_reordering_and_splitting(counts, order):
    # dyadic probabilities add exactly, so every grouping gives the same law
    scale = 2.0 ** -(math.ceil(math.log2(sum(counts.values()))) + 1)
    atoms = [(s, c * scale) for s, c in counts.items()]
    atoms.append((max(counts) * 2.0, 1.0 - sum(p for _, p in atoms)))
    pieces = [(s, 0.5 * p) for s, p in atoms] * 2
    order.shuffle(pieces)
    base = StageDistribution.discrete(atoms)
    assert StageDistribution.discrete(pieces) == base
    assert StageDistribution.discrete(reversed(atoms)) == base


def test_discrete_expectation_is_exact_sum():
    d = StageDistribution.discrete([(1.0, 0.25), (2.0, 0.25), (4.0, 0.5)])
    assert d.expect(lambda s: s) == 1.0 * 0.25 + 2.0 * 0.25 + 4.0 * 0.5
    assert d.partial_expect(lambda s: s, 2.0, 4.0) == 2.0 * 0.25 + 4.0 * 0.5
    assert d.cdf(2.0) == 0.5
    assert d.cdf(1.9999) == 0.25


def test_prob_below_leaves_out_the_atom_at_x(trunc):
    d = StageDistribution.discrete([(1.0, 0.25), (2.0, 0.25), (4.0, 0.5)])
    assert d.prob_below(2.0) == 0.25 and d.cdf(2.0) == 0.5
    assert d.prob_below(1.0) == 0.0 and d.prob_below(4.5) == 1.0
    assert d.prob_below(np.array([1.0, 2.5, 4.0])).tolist() == [0.0, 0.5, 0.5]
    xs = np.linspace(0.0, trunc.support_lo + 10 * trunc.mean_snr, 101)
    assert np.array_equal(trunc.prob_below(xs), trunc.cdf(xs))


# -- discretization ----------------------------------------------------------------

def test_discretize_two_points(trunc):
    d = trunc.discretize(2)
    atoms = d.atoms
    assert len(atoms) == 2
    assert atoms[0][1] == pytest.approx(0.5)
    assert atoms[0][0] == pytest.approx(trunc.quantile(0.25), rel=1e-12)
    assert atoms[1][0] == pytest.approx(trunc.quantile(0.75), rel=1e-12)
    with pytest.raises(ValueError):
        trunc.discretize(1)


def test_discretize_mean_converges(trunc):
    true_mean = trunc.expect(lambda s: s)
    errors = []
    for n in (64, 128, 256, 512):
        approx = trunc.discretize(n).expect(lambda s: s)
        errors.append(abs(approx - true_mean))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    # roughly halves per doubling
    assert errors[-1] < errors[0] / 4


def test_discretized_expectation_is_finite_sum(trunc):
    d = trunc.discretize(32)
    by_hand = sum(p * inv_rate(s) for s, p in d.atoms)
    assert d.expect(inv_rate) == by_hand


# -- config parsing -----------------------------------------------------------------

def test_distribution_from_config_kinds(params):
    t = distribution_from_config({"kind": "truncated_exponential", "mean_snr": 2.0,
                                  "snr_floor_ratio": 0.01}, params)
    assert t.support_lo == pytest.approx(0.02)
    p = distribution_from_config({"kind": "pathloss_rayleigh", "distance_m": 50,
                                  "antenna_gain": 4.11, "carrier_hz": 915e6,
                                  "exponent": 3, "snr_floor_ratio": 1e-3}, params)
    assert p.mean_snr == pytest.approx(MEAN_SNR_D50, rel=1e-12)
    d = distribution_from_config({"kind": "discrete", "atoms": [[1.0, 1.0]]}, params)
    assert d.kind == "discrete"
    with pytest.raises(ValueError):
        distribution_from_config({"kind": "weibull"}, params)


def test_per_stage_helpers(trunc):
    assert per_stage(trunc, 3) == (trunc, trunc, trunc)
    assert per_stage([trunc] * 5, 3) == (trunc, trunc, trunc)
    with pytest.raises(ValueError):
        per_stage([trunc], 2)
