"""SNR laws: path loss, truncation, quadrature expectations, discretization."""
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from edgesplit import ConfigError, NumericalError, PathLossParams, StageDistribution, load_config
from edgesplit import channel
from edgesplit.channel import inv_rate_table, mean_snr_from_pathloss, per_stage

from conftest import (
    MEAN_SNR_D50,
    atom_pairs,
    channel_at,
    expect,
    inv_rate_tail,
    make_params,
    pathloss_at,
    reference_config_dict,
)

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
    assert trunc.cdf([trunc.support_lo, trunc.support_lo / 2, math.inf]) == [0.0, 0.0, 1.0]
    assert trunc.cdf([trunc.support_lo + 50 * trunc.mean_snr]) == [pytest.approx(1.0, abs=1e-15)]


def test_pdf_normalizes(trunc):
    assert expect(trunc, lambda s: 1.0) == pytest.approx(1.0, abs=1e-9)


def test_pdf_nonnegative_and_cdf_monotone(trunc):
    xs = np.linspace(trunc.support_lo / 2, trunc.support_lo + 10 * trunc.mean_snr, 400)
    assert np.all(np.asarray(trunc.pdf(xs)) >= 0)
    cdfs = trunc.cdf(xs)
    assert np.all(np.diff(cdfs) >= -1e-15)


def test_expectation_of_identity_is_mean(trunc):
    assert expect(trunc, lambda s: s) == pytest.approx(trunc.support_lo + MEAN_SNR_D50, rel=1e-8)


def test_indicator_expectation_matches_survival(trunc):
    # the step of 1{s > t} is the lower limit: a fixed rule does not resolve a
    # jump inside a panel
    for t in (trunc.support_lo * 2, 0.3, 1.0):
        got = trunc.partial_expect(lambda s: 1.0, t)
        assert got == pytest.approx(1.0 - trunc.cdf([t])[0], abs=1e-9)


def test_doubly_truncated_support():
    # the exponential kind has a floor and no ceiling: a law takes no support_hi
    for hi in (2.0, 0.1, 1e300):
        with pytest.raises(TypeError, match="support_hi"):
            StageDistribution("truncated_exponential", mean_snr=1.0, support_lo=0.1, support_hi=hi)
    d = StageDistribution("truncated_exponential", mean_snr=1.0, support_lo=0.1)
    assert d.quantile(1.0) == math.inf and "snr_ceiling" not in d.to_json_dict()


# -- expectation operators -----------------------------------------------------

def test_inv_rate_expectation_vs_monte_carlo(trunc):
    analytic = expect(trunc, inv_rate)
    rng = np.random.default_rng(2024)
    samples = trunc.quantile(rng.random(10_000_000))
    vals = inv_rate(samples)
    mc = vals.mean()
    se = vals.std(ddof=1) / math.sqrt(len(vals))
    assert abs(analytic - mc) <= 3 * se


def test_partial_expect_additivity(trunc):
    # the tail at `split` plus the integral over [floor, split], from mpmath
    import mpmath

    split = 0.4
    lo, mean = trunc.support_lo, trunc.mean_snr
    left = float(mpmath.quad(lambda s: mpmath.exp(-(s - lo) / mean) / mean
                             / (W * mpmath.log1p(s) / mpmath.log(2)), [lo, 0.01, split]))
    right = trunc.partial_expect(inv_rate, split)
    assert left + right == pytest.approx(expect(trunc, inv_rate), abs=1e-9)


def test_partial_expect_degenerate_and_ordering(trunc):
    # nothing lies at or above +inf, and a tail shrinks as its threshold rises
    assert trunc.partial_expect(inv_rate, math.inf) == 0.0
    tails = [trunc.partial_expect(inv_rate, t) for t in (0.0, trunc.support_lo, 0.2, 0.7)]
    assert tails[0] == tails[1] > tails[2] > tails[3] > 0.0


def test_partial_expect_matches_conditional_monte_carlo(trunc):
    t = 0.25
    analytic = trunc.partial_expect(inv_rate, t)
    rng = np.random.default_rng(7)
    samples = trunc.quantile(rng.random(2_000_000))
    kept = samples[samples > t]
    # E[g | s > t] * P{s > t}, estimated by rejection
    vals = inv_rate(kept)
    est = vals.sum() / len(samples)
    se = math.sqrt(np.var(np.where(samples > t, inv_rate(np.maximum(samples, t)), 0.0), ddof=1)
                   / len(samples))
    assert abs(analytic - est) <= 3 * se


# E[1/R; snr >= t] at W = 2e6 on the reference law (floor 1e-3 x mean), from
# scripts/golden_oracles.py at 30 digits; (100 m, t = 1.0), with tail mass
# 1.1e-6, is among the deep tails below.
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
    got = inv_rate_tail(dist, t, params.bandwidth_hz)
    assert got == pytest.approx(reference, rel=1e-10, abs=0.0)


# Deep tails of the same laws at t = floor + k x mean, down to a tail mass of
# 1e-14, from scripts/golden_oracles.py; each holds to 1e-12 of itself.
MPMATH_DEEP_TAILS = [
    (100, "1.0", 5.36245708893907174268205362945e-13),
    (25, 5, 6.96752895907415473280707145152e-10),
    (25, 10, 3.9798495449360398099878755151e-12),
    (25, 20, 1.55467817400442771177209321991e-16),
    (25, 30, 6.50993393860410234050925594882e-21),
    (25, 32, 8.70162263808143930183948657806e-22),
    (50, 5, 1.56801783282881575011988595339e-9),
    (50, 10, 7.86969535907204069551107622865e-12),
    (50, 20, 2.76503370872771610798108951591e-16),
    (50, 30, 1.09966998918304176120225073105e-20),
    (50, 32, 1.45884479261661649719279414697e-21),
    (100, 5, 6.54810884498268064260351348575e-9),
    (100, 10, 2.68339833660638155599950692213e-11),
    (100, 20, 7.69587614106447077515615447094e-16),
    (100, 30, 2.74370366476756260097498540772e-20),
    (100, 32, 3.58041898088991150096013854134e-21),
]


@pytest.mark.parametrize("distance,threshold,reference", MPMATH_DEEP_TAILS)
def test_deep_inv_rate_tails_match_mpmath_relative_to_themselves(params, distance, threshold,
                                                                    reference):
    dist = channel_at(distance, params)
    t = float(threshold) if isinstance(threshold, str) else dist.support_lo + threshold * dist.mean_snr
    assert inv_rate_tail(dist, t, params.bandwidth_hz) == pytest.approx(reference, rel=1e-12, abs=0.0)


# Tails at t = floor + 29.9 x mean of the same laws, from scripts/golden_oracles.py
# at the laws' own doubles. The table reads them off its panels, which must run
# far enough past t that the mass they leave out (e^-30.1 of the tail, 8.5e-14,
# were they to stop 60 means above the floor) is below the tolerance.
MPMATH_REACH_TAILS = [
    (25, 7.19923305370110832472175678782e-21),
    (50, 1.2165882011401638887324659476e-20),
    (100, 3.03802685449883644215401386889e-20),
]


@pytest.mark.parametrize("distance,reference", MPMATH_REACH_TAILS)
def test_tails_just_inside_the_table_reach_match_mpmath(params, distance, reference):
    dist = channel_at(distance, params)
    t = dist.support_lo + 29.9 * dist.mean_snr
    assert inv_rate_tail(dist, t, params.bandwidth_hz) == pytest.approx(reference, rel=2e-14, abs=0.0)


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
    assert inv_rate_tail(dist, t, W) == pytest.approx(reference, rel=1e-10)


def test_gauss_legendre_constants():
    nodes, weights = np.array(channel._GL_NODES), np.array(channel._GL_WEIGHTS)
    assert np.all(np.diff(nodes) > 0) and np.array_equal(weights, weights[::-1])
    np.testing.assert_allclose(nodes, 1.0 - nodes[::-1], rtol=0, atol=1e-16)
    # the 12-point rule on [0, 1] integrates polynomials exactly up to degree 23
    for k in range(24):
        assert weights @ nodes**k == pytest.approx(1.0 / (k + 1), abs=1e-15)
    assert weights @ nodes**24 != pytest.approx(1.0 / 25, abs=1e-16)
    # numpy's weights are good to about 3e-16
    x12, w12 = np.polynomial.legendre.leggauss(12)
    np.testing.assert_allclose(nodes, (1.0 + x12) / 2, rtol=0, atol=1e-16)
    np.testing.assert_allclose(weights, w12 / 2, rtol=0, atol=1e-15)


# -- the per-law tail table -------------------------------------------------------

_SPOTS = ("below", "floor", "edge", "left_of_edge", "right_of_edge", "inside",
          "near_reach", "reach", "past_reach", "end", "inf")


def _threshold(table, law, spot, k, u):
    # table.near: the last threshold read off the table's panels
    edge = table.edges[k % len(table.edges)]
    return {
        "below": 0.5 * law.support_lo, "floor": law.support_lo, "edge": edge,
        "left_of_edge": np.nextafter(edge, 0.0), "right_of_edge": np.nextafter(edge, math.inf),
        "inside": law.support_lo + u * (table.near - law.support_lo),
        "near_reach": table.near * (1.0 - 1e-6 * u), "reach": table.near,
        "past_reach": table.near + u * (table.edges[-1] - table.near),
        "end": table.edges[-1] * (1.0 + u), "inf": math.inf,
    }[spot]


@given(mean=st.floats(0.05, 40.0),
       picks=st.lists(st.tuples(st.sampled_from(_SPOTS), st.integers(0, 10**6),
                                st.floats(0.0, 1.0)), min_size=1, max_size=12))
def test_table_reads_match_the_fixed_rule_per_threshold(mean, picks):
    law = StageDistribution.truncated_exponential(mean)
    table = inv_rate_table(law, W)
    assert table.full == expect(law, table.g)
    thresholds = [float(_threshold(table, law, *pick)) for pick in picks]
    got = table.tails(thresholds)
    for t, tail in zip(thresholds, got):
        ref = law.partial_expect(table.g, t)
        assert abs(tail - ref) <= 1e-10 * ref, (t, tail, ref)
        # a read does not depend on the other thresholds sharing its call
        assert tail == inv_rate_tail(law, t, W)


@given(snrs=st.lists(st.floats(0.01, 50.0), min_size=1, max_size=8, unique=True),
       weights=st.lists(st.floats(0.05, 1.0), min_size=8, max_size=8))
def test_discrete_table_reads_count_a_tie_as_a_stop(snrs, weights):
    weights = weights[:len(snrs)]
    law = StageDistribution.discrete([(s, w / sum(weights)) for s, w in zip(snrs, weights)])
    atoms = sorted(snrs)
    thresholds = [0.5 * atoms[0], 2.0 * atoms[-1], math.inf, *atoms,
                  *np.nextafter(atoms, 0.0), *np.nextafter(atoms, math.inf)]
    got = inv_rate_table(law, W).tails(thresholds)
    for t, tail in zip(thresholds, got):
        brute = math.fsum(p * inv_rate(s) for s, p in atom_pairs(law) if s >= t)
        assert tail == pytest.approx(brute, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("floor", [0.0, -1e-3, math.nan, math.inf])
def test_an_untruncated_law_is_rejected(floor):
    # E[1/R] diverges without a positive floor: 1/log2(1 + g) ~ 1/g near 0
    with pytest.raises(ValueError, match="support_lo"):
        StageDistribution("truncated_exponential", mean_snr=MEAN_SNR_D50, support_lo=floor)
    with pytest.raises(ValueError, match="support_lo"):  # the same as a ratio to the mean
        StageDistribution.truncated_exponential(MEAN_SNR_D50, floor_ratio=floor)


def test_a_law_without_a_floor_is_rejected():
    with pytest.raises(ValueError, match="support_lo"):
        StageDistribution("truncated_exponential", mean_snr=MEAN_SNR_D50)


def test_a_non_finite_integrand_raises_with_the_estimate(trunc):
    with pytest.raises(NumericalError, match="not finite") as err:
        trunc.partial_expect(lambda s: math.inf, 0.3)
    assert err.value.estimate == math.inf


def test_truncation_floor_lowers_inv_rate_expectation():
    a = expect(StageDistribution.truncated_exponential(1.0, floor_ratio=1e-4), inv_rate)
    b = expect(StageDistribution.truncated_exponential(1.0, floor_ratio=1e-2), inv_rate)
    assert b < a


# -- sampling -------------------------------------------------------------------

def test_quantile_median_of_exponential():
    d = StageDistribution("truncated_exponential", mean_snr=1.0, support_lo=1e-3)
    assert d.quantile(0.5) == pytest.approx(1e-3 + math.log(2), rel=1e-12)


_LAWS = {
    "truncated": StageDistribution.truncated_exponential(MEAN_SNR_D50, floor_ratio=1e-3),
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


@pytest.mark.parametrize("law", [*_LAWS.values(),
                                 StageDistribution("truncated_exponential", mean_snr=0.3,
                                                   support_lo=3e-4)],
                         ids=[*_LAWS.keys(), "exponential"])
def test_quantile_stays_in_support(law):
    u = np.concatenate([np.random.default_rng(8).random(2000),
                        [0.0, 1e-300, 0.5, 1.0 - 2.0**-53, 1.0]])
    top = law.snrs[-1] if law.kind == "discrete" else math.inf  # the top atom, or no ceiling
    for q in (law.quantile(u), np.array([law.quantile(float(v)) for v in u])):
        assert np.all((q >= law.support_lo) & (q <= top))
    assert law.quantile(1.0) <= top


def _bits(x):
    return np.asarray(x, dtype=float).tobytes()


def _contiguous_reference(law, u):
    """The quantile as one expression on a contiguous copy of u."""
    u = np.ascontiguousarray(u, dtype=float)
    if law.kind == "discrete":
        cum = np.cumsum([p for _, p in atom_pairs(law)])
        snrs = np.array([s for s, _ in atom_pairs(law)])
        return snrs[np.minimum(np.searchsorted(cum, u, side="left"), len(snrs) - 1)]
    with np.errstate(divide="ignore"):
        return law.support_lo - law.mean_snr * np.log1p(-u)


_EDGE_UNIFORMS = [0.0, -0.0, 1.0, 1.0 - 2.0**-53, 1.0 - 2.0**-52, 2.0**-1074, 0.5]
_QUANTILE_LAWS = [*_LAWS.values(),
                  StageDistribution("truncated_exponential", mean_snr=0.3, support_lo=3e-4)]


@given(law=st.sampled_from(_QUANTILE_LAWS), rows=st.integers(0, 60), cols=st.integers(1, 5),
       step=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       edges=st.lists(st.sampled_from(_EDGE_UNIFORMS), max_size=8),
       bad=st.sampled_from([math.nan, -0.5, -2.0**-1074, 1.0 + 2.0**-52, 2.0, math.inf]))
def test_quantile_of_strided_views_matches_a_contiguous_copy(law, rows, cols, step, seed,
                                                              edges, bad):
    rng = np.random.default_rng(seed)
    block = rng.random((rows, cols))
    flat = block.reshape(-1)
    flat[:len(edges)] = edges[:flat.size]
    kept = block.copy()
    j = int(rng.integers(cols))
    arguments = [block[::step, j], block[:, j], block, np.array(rng.random()), np.empty(0),
                 np.empty((0, cols))[:, :1]] + [np.array(v) for v in edges]
    for u in arguments:
        got = law.quantile(u)
        assert _bits(got) == _bits(_contiguous_reference(law, u))
        if np.ndim(u):
            assert got.shape == u.shape and not np.shares_memory(got, block)
        else:
            assert isinstance(got, float)
    assert _bits(block) == _bits(kept)  # no argument is overwritten
    if rows:
        view = block[::step, j]
        view[int(rng.integers(len(view)))] = bad
        for u in (view, np.array(bad), bad):
            with pytest.raises(ValueError, match="quantile"):
                law.quantile(u)


def test_a_discrete_quantile_reads_the_atoms_once_and_keeps_the_law(monkeypatch):
    """The SNR and cumulative columns are built on the first quantile, not at
    construction, and are kept out of the law's equality, hash and JSON."""
    reads = []
    atom_arrays = StageDistribution.atom_arrays
    monkeypatch.setattr(StageDistribution, "atom_arrays",
                        property(lambda law: reads.append(law) or atom_arrays.fget(law)))
    law, fresh = (channel_at(50.0, make_params()).discretize(4096) for _ in range(2))
    assert reads == []
    u = np.random.default_rng(2).random(1000)
    first = law.quantile(u)
    assert _bits(law.quantile(u)) == _bits(first) == _bits(_contiguous_reference(law, u))
    assert law.quantile(0.5) == _contiguous_reference(law, 0.5)
    assert reads == [law]
    assert law == fresh and hash(law) == hash(fresh) and law.to_json_dict() == fresh.to_json_dict()


def _prob_below_by_atom_loop(law, x):
    """P{SNR < x} of a discrete law as one np.where per atom, added in atom order."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    for snr, prob in atom_pairs(law):
        out = out + np.where(x > snr, prob, 0.0)
    return out


@pytest.mark.parametrize("law", [_LAWS["discrete"], StageDistribution.discrete([(0.7, 1.0)]),
                                 channel_at(50.0, make_params()).discretize(4096)],
                         ids=["three_atoms", "one_atom", "grid_4096"])
def test_discrete_prob_below_matches_atom_loop(law):
    snrs, probs = law.atom_arrays
    between = (snrs[:-1] + snrs[1:]) / 2
    outside = [0.0, -1.0, snrs[0] / 2, snrs[-1] * 2, math.inf, -math.inf]
    x = np.concatenate([snrs, between, outside, np.nextafter(snrs, math.inf)])
    got = np.array(law.prob_below(x))
    assert np.array_equal(got, _prob_below_by_atom_loop(law, x))
    # the step at each atom is its probability
    above = got[len(snrs) + len(between) + len(outside):]
    assert np.allclose(above - got[:len(snrs)], probs, rtol=0, atol=1e-15)
    # a discrete law has no density: the program reads it through prob_below
    for read in (law.pdf, law.cdf):
        with pytest.raises(ValueError, match="prob_below"):
            read(x)


def test_sampling_ks_statistic(trunc):
    rng = np.random.default_rng(99)
    samples = np.sort(trunc.quantile(rng.random(1_000_000)))
    n = len(samples)
    grid = (np.arange(n) + np.arange(1, n + 1)) / (2 * n)
    ks = np.max(np.abs(trunc.cdf(samples) - grid)) + 0.5 / n
    assert ks < 0.002


def test_sampling_deterministic(trunc):
    a = trunc.quantile(np.random.default_rng(5).random(16))
    b = trunc.quantile(np.random.default_rng(5).random(16))
    assert np.array_equal(a, b)


def test_consecutive_stage_samples_uncorrelated(trunc):
    rng = np.random.default_rng(11)
    draws = np.column_stack([trunc.quantile(rng.random(100_000)) for _ in range(2)])
    r = np.corrcoef(draws[:, 0], draws[:, 1])[0, 1]
    assert abs(r) < 0.01


def test_single_atom_always_same():
    d = StageDistribution.discrete([(5.0, 1.0)])
    rng = np.random.default_rng(0)
    assert np.all(d.quantile(rng.random(8)) == 5.0)


# -- discrete laws ---------------------------------------------------------------

def test_discrete_validation():
    with pytest.raises(ValueError):
        StageDistribution(kind="discrete", snrs=(1.0, 2.0), probs=(0.5, 0.4))
    with pytest.raises(ValueError):
        StageDistribution(kind="discrete", snrs=(2.0, 1.0), probs=(0.5, 0.5))
    with pytest.raises(ValueError):
        StageDistribution(kind="discrete", snrs=(-1.0,), probs=(1.0,))


def test_discrete_canonicalization_merges_and_sorts():
    a = StageDistribution.discrete([(2.0, 0.25), (1.0, 0.5), (2.0, 0.25)])
    b = StageDistribution.discrete([(1.0, 0.5), (2.0, 0.5)])
    assert a == b


def test_discrete_rejects_malformed_atoms():
    for atoms in ([], [(1.0, 0.5, 0.5)], [[1.0]], np.ones((2, 3))):
        with pytest.raises(ValueError):
            StageDistribution.discrete(atoms)
    with pytest.raises(ValueError, match="pairs"):
        StageDistribution.discrete(((1.0,), (0.5, 2.0, 0.5)))
    with pytest.raises(ValueError, match="positive and finite"):
        StageDistribution.discrete([(math.nan, 1.0)])


def test_discrete_atom_arrays_are_the_atoms():
    d = StageDistribution.discrete([(2.0, 0.25), (1.0, 0.75)])
    snrs, probs = d.atom_arrays
    assert snrs.tolist() == [1.0, 2.0] and probs.tolist() == [0.75, 0.25]
    with pytest.raises(ValueError):
        snrs[0] = 3.0  # read-only: the law stays immutable
    with pytest.raises(ValueError):
        StageDistribution("truncated_exponential", mean_snr=1.0, support_lo=1e-3).atom_arrays


def _dict_merge(atoms):
    """The merge discrete() made with a dict: sums in input order, then sorts."""
    merged = {}
    for snr, prob in atoms:
        merged[float(snr)] = merged.get(float(snr), 0.0) + float(prob)
    return tuple(sorted(merged.items()))


def _from_columns(atoms):
    """The discrete law whose columns are the (snr, probability) pairs `atoms`, as given."""
    return StageDistribution(kind="discrete", snrs=tuple(s for s, _ in atoms),
                             probs=tuple(p for _, p in atoms))


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
        want = _law_or_error(lambda: _from_columns(_dict_merge(variant)))
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


def _reads(law, points):
    """Every read the planner makes of a law, from a freshly built tail table."""
    return law.prob_below(points), inv_rate_table(law, W).tails(points)


def _agree_as_laws(a, b, points):
    assert a == b and hash(a) == hash(b)
    assert atom_pairs(a) == atom_pairs(b)
    assert a.to_json_dict() == b.to_json_dict()
    assert _reads(a, points) == _reads(b, points)


@given(pairs=st.lists(st.tuples(_SNRS, st.floats(1e-3, 1.0)), min_size=1, max_size=40),
       repeats=st.lists(st.integers(0, 39), max_size=10), order=st.randoms(use_true_random=False))
def test_column_storage_keeps_every_discrete_law_built_from_pairs(pairs, repeats, order):
    pairs = pairs + [(pairs[k % len(pairs)][0], 0.5) for k in repeats]  # repeated SNRs
    order.shuffle(pairs)
    total = sum(p for _, p in pairs)
    pairs = [(s, p / total) for s, p in pairs]
    law = _law_or_error(lambda: StageDistribution.discrete(pairs))
    if law is ValueError:  # the merged probabilities miss 1 by more than 1e-12
        return
    merged = _dict_merge(pairs)
    assert atom_pairs(law) == merged
    assert law.snrs == tuple(s for s, _ in merged) and law.probs == tuple(p for _, p in merged)
    assert law.to_json_dict() == {"kind": "discrete", "atoms": [list(atom) for atom in merged]}
    points = [s for s, _ in merged] + [0.0, merged[0][0] / 2, merged[-1][0] * 2]
    cum = [sum(p for s, p in merged if s < x) for x in points]
    assert _reads(law, points)[0] == cum
    for rebuilt in (_from_columns(atom_pairs(law)),
                    StageDistribution.discrete(atom_pairs(law)), StageDistribution.discrete(merged)):
        _agree_as_laws(rebuilt, law, points)


@given(mean=st.floats(1e-6, 1e6), ratio=st.sampled_from([1e-12, 1e-3, 1.0, 2.0**20]),
       grid=st.integers(2, 600), discrete=st.booleans())
def test_discretize_is_the_discrete_law_of_its_quantile_pairs(mean, ratio, grid, discrete):
    law = (StageDistribution.discrete([(mean, 0.25), (2.0 * mean, 0.5), (5.0 * mean, 0.25)])
           if discrete else StageDistribution("truncated_exponential", mean_snr=mean,
                                             support_lo=ratio * mean))
    u = (np.arange(grid) + 0.5) / grid
    pairs = list(zip(law.quantile(u).tolist(), [1.0 / grid] * grid))  # repeats on a discrete law
    grid_law = law.discretize(grid)
    points = [s for s, _ in atom_pairs(grid_law)] + [0.0, grid_law.snrs[-1] * 2]
    _agree_as_laws(grid_law, StageDistribution.discrete(pairs), points)


def test_discrete_expectation_is_exact_sum():
    d = StageDistribution.discrete([(1.0, 0.25), (2.0, 0.25), (4.0, 0.5)])
    assert expect(d, lambda s: s) == 1.0 * 0.25 + 2.0 * 0.25 + 4.0 * 0.5
    assert d.partial_expect(lambda s: s, 2.0) == 2.0 * 0.25 + 4.0 * 0.5
    assert d.prob_below([np.nextafter(2.0, 3.0), 2.0]) == [0.5, 0.25]


def test_prob_below_leaves_out_the_atom_at_x(trunc):
    d = StageDistribution.discrete([(1.0, 0.25), (2.0, 0.25), (4.0, 0.5)])
    assert d.prob_below([2.0, 1.0, 4.5]) == [0.25, 0.0, 1.0]
    assert d.prob_below(np.array([1.0, 2.5, 4.0])) == [0.0, 0.5, 0.5]
    xs = np.linspace(0.0, trunc.support_lo + 10 * trunc.mean_snr, 101)
    assert np.array_equal(trunc.prob_below(xs), trunc.cdf(xs))


# -- discretization ----------------------------------------------------------------

def test_discretize_two_points(trunc):
    d = trunc.discretize(2)
    atoms = atom_pairs(d)
    assert len(atoms) == 2
    assert atoms[0][1] == pytest.approx(0.5)
    assert atoms[0][0] == pytest.approx(trunc.quantile(0.25), rel=1e-12)
    assert atoms[1][0] == pytest.approx(trunc.quantile(0.75), rel=1e-12)
    with pytest.raises(ValueError):
        trunc.discretize(1)


def test_discretize_rejects_masses_that_discrete_rejects(trunc):
    """The left-to-right sum of 100000 masses of 1e-5 misses 1 by more than 1e-12."""
    with pytest.raises(ValueError, match="sum to 1"):
        StageDistribution.discrete([(float(k + 1), 1e-5) for k in range(100_000)])
    with pytest.raises(ValueError, match="sum to 1"):
        trunc.discretize(100_000)


def test_discretize_mean_converges(trunc):
    true_mean = expect(trunc, lambda s: s)
    errors = []
    for n in (64, 128, 256, 512):
        approx = expect(trunc.discretize(n), lambda s: s)
        errors.append(abs(approx - true_mean))
    assert all(a > b for a, b in zip(errors, errors[1:]))
    # roughly halves per doubling
    assert errors[-1] < errors[0] / 4


def test_discretized_expectation_is_finite_sum(trunc):
    d = trunc.discretize(32)
    by_hand = sum(p * inv_rate(s) for s, p in atom_pairs(d))
    assert expect(d, inv_rate) == by_hand


def test_a_law_keeps_its_discretization():
    law = StageDistribution.truncated_exponential(MEAN_SNR_D50)
    grids = [law.discretize(4096) for _ in range(9)]
    assert all(grid is grids[0] for grid in grids)
    assert grids[0] == StageDistribution.truncated_exponential(MEAN_SNR_D50).discretize(4096)


def test_a_discretization_at_another_grid_replaces_the_kept_one():
    law = StageDistribution.truncated_exponential(MEAN_SNR_D50)
    fine = law.discretize(4096)
    coarse = law.discretize(64)
    assert len(coarse.snrs) == 64 and law.discretize(64) is coarse
    # one law is kept at a time: the fine grid is built again, equal to the first
    again = law.discretize(4096)
    assert again is not fine and again == fine
    assert law.discretize(4096) is again and law.discretize(64) is not coarse


@pytest.mark.parametrize("grid", [1, 0, -4096])
def test_a_law_with_a_kept_discretization_still_rejects_fewer_than_two_points(grid):
    law = StageDistribution.truncated_exponential(MEAN_SNR_D50)
    kept = law.discretize(4096)
    with pytest.raises(ValueError, match="at least 2"):
        law.discretize(grid)
    assert law.discretize(4096) is kept


def test_a_grid_that_is_not_an_integer_is_rejected_whether_or_not_a_law_is_kept():
    law = StageDistribution.truncated_exponential(MEAN_SNR_D50)
    with pytest.raises(TypeError):
        law.discretize(4096.0)
    kept = law.discretize(np.int64(4096))
    with pytest.raises(TypeError):
        law.discretize(4096.0)
    assert law.discretize(4096) is kept


@pytest.mark.parametrize("build", [
    lambda: StageDistribution.truncated_exponential(MEAN_SNR_D50),
    lambda: StageDistribution.discrete([(0.05, 0.25), (0.6, 0.5), (4.0, 0.25)]),
], ids=["exponential", "discrete"])
def test_the_kept_discretization_takes_no_part_in_equality_hash_or_json(build):
    law, fresh = build(), build()
    law.discretize(4096)
    assert law == fresh and hash(law) == hash(fresh) and law.to_json_dict() == fresh.to_json_dict()
    fresh.discretize(64)  # kept grids that differ
    assert law == fresh and hash(law) == hash(fresh) and law.to_json_dict() == fresh.to_json_dict()


def test_nine_discretizations_of_one_law_peak_below_two_of_one():
    """The oracle's M + 1 stages of one law hold one discrete law, not M + 1."""
    StageDistribution.truncated_exponential(MEAN_SNR_D50).discretize(4096)  # warm: numpy's import
    peaks = []
    for calls in (1, 9):
        law = StageDistribution.truncated_exponential(MEAN_SNR_D50)
        tracemalloc.start()
        try:
            laws = [law.discretize(4096) for _ in range(calls)]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(laws) == calls
    assert peaks[1] < 2 * peaks[0], peaks


# -- config parsing -----------------------------------------------------------------

def _load_law(spec):
    return load_config(reference_config_dict(channel=spec)).stage_dists(1)[0]


def test_channel_config_kinds():
    t = _load_law({"kind": "truncated_exponential", "mean_snr": 2.0, "snr_floor_ratio": 0.01})
    assert t.support_lo == pytest.approx(0.02)
    p = _load_law({"kind": "pathloss_rayleigh", "distance_m": 50,
                   "antenna_gain": 4.11, "carrier_hz": 915e6,
                   "exponent": 3, "snr_floor_ratio": 1e-3})
    assert p.mean_snr == pytest.approx(MEAN_SNR_D50, rel=1e-12)
    # the untruncated law is not a kind of its own: E[1/R] diverges on it
    with pytest.raises(ConfigError, match="unknown channel kind") as err:
        _load_law({"kind": "exponential", "mean_snr": 2.0})
    assert err.value.field == "channel"
    d = _load_law({"kind": "discrete", "atoms": [[1.0, 1.0]]})
    assert d.kind == "discrete"
    with pytest.raises(ValueError):
        _load_law({"kind": "weibull"})


def test_per_stage_helpers(trunc):
    assert per_stage(trunc, 3) == (trunc, trunc, trunc)
    assert per_stage([trunc] * 5, 3) == (trunc, trunc, trunc)
    with pytest.raises(ValueError, match="need distributions for 2 stages, got 1"):
        per_stage([trunc], 2)
    # at most `most` laws, where it is given
    assert per_stage([trunc] * 10, 3, 10) == (trunc,) * 3
    with pytest.raises(ValueError, match="there are 9 stages, got 10 stage laws"):
        per_stage([trunc] * 10, 3, 9)
    with pytest.raises(TypeError, match="StageDistribution"):
        per_stage([trunc, 2.0], 2, 9)


def _counting_comparisons(monkeypatch):
    """The (left, right) pair of every `==` between two laws."""
    pairs, eq = [], StageDistribution.__eq__

    def counted(a, b):
        pairs.append((a, b))
        return eq(a, b)
    monkeypatch.setattr(StageDistribution, "__eq__", counted)
    return pairs


def test_per_stage_repeats_a_shared_law_without_a_comparison(trunc, monkeypatch):
    pairs = _counting_comparisons(monkeypatch)
    laws = per_stage(trunc, 4)
    assert len(laws) == 4 and all(law is trunc for law in laws)
    assert per_stage([trunc] * 4, 4, 9) == laws  # identity first: one object repeated, no `==`
    assert pairs == []


def test_per_stage_merges_equal_exponential_laws_into_the_first(monkeypatch):
    near = [StageDistribution.truncated_exponential(MEAN_SNR_D50) for _ in range(3)]
    far = [StageDistribution.truncated_exponential(MEAN_SNR_D50 / 8) for _ in range(2)]
    order = [near[0], far[0], near[1], near[2], far[1]]
    pairs = _counting_comparisons(monkeypatch)
    laws = per_stage(order, 5)
    assert [id(law) for law in laws] == [id(near[0]), id(far[0]), id(near[0]), id(near[0]), id(far[0])]
    # each law against the distinct laws before it, up to the first equal one
    assert len(pairs) == 0 + 1 + 1 + 1 + 2


def test_per_stage_merges_equal_discretized_laws_with_one_comparison_each(monkeypatch):
    # nine equal continuous laws, each discretized: equal laws that are nine objects
    atoms = [StageDistribution.truncated_exponential(MEAN_SNR_D50).discretize(4096) for _ in range(9)]
    assert len({id(a) for a in atoms}) == 9
    pairs = _counting_comparisons(monkeypatch)
    laws = per_stage(atoms, 9)
    assert all(merged is atoms[0] for merged in laws)
    assert len(pairs) == 8  # the cost of nine equal laws built apart


def test_a_floor_that_swallows_the_tail_cutoff_is_rejected():
    # the rule resolves a floor of up to 2**20 means (the mpmath check below);
    # above it the nodes round to the floor's grid of doubles: the rule's E[1/R]
    # is off by 2e-5 relative at 2**40 and 21 times at 2**58
    law = StageDistribution.truncated_exponential(MEAN_SNR_D50, floor_ratio=2.0**20)
    assert 0.0 < inv_rate_tail(law, 0.0, W) < math.inf
    for ratio in (2.0**20 * (1 + 2.0**-52), 2.0**21, 2.0**40, 2.0**58, 2.0**60, 2.0**70):
        with pytest.raises(ValueError, match="floor"):
            StageDistribution.truncated_exponential(MEAN_SNR_D50, floor_ratio=ratio)


# E[1/R] on laws with a floor of up to 2^20 means, from scripts/golden_oracles.py
# at 30 digits, as (mean, floor, value).
MPMATH_HIGH_FLOOR = [
    (0.58398635357342641, 612354.0746846092, 2.60091412954049070216582256907e-8),
    (0.001, 1048.576, 4.98226696820632130280221609528e-8),
    (1000.0, 1048576000.0, 1.66856963351961132409406173667e-8),
    (35606.25893370789, 36345582055.45803, 1.42527040572075031388474617156e-8),
]


@pytest.mark.parametrize("mean,floor,reference", MPMATH_HIGH_FLOOR)
def test_the_highest_accepted_floor_matches_mpmath(mean, floor, reference):
    law = StageDistribution("truncated_exponential", mean_snr=mean, support_lo=floor)
    assert inv_rate_table(law, W).full == pytest.approx(reference, rel=1e-10, abs=0.0)
