import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from barystream import measures
from barystream.measures import (
    SIMPLEX_TOL,
    WEIGHT_FLOOR,
    BlockDraws,
    DiscreteMeasure,
    GaussianParamLaw,
    Grid1D,
    MeasureError,
    MeasureStream,
    discretize_gaussian,
    draw_index,
    load_corpus,
    normalize,
    normalize_clamped,
    sampling_cdf,
    save_corpus,
)


def test_grid_invariants():
    g = Grid1D.uniform(-10, 10, 300)
    assert g.n == 300
    assert g.points[0] == -10 and g.points[-1] == 10
    with pytest.raises(MeasureError):
        Grid1D(np.array([0.0, 0.0, 1.0]), 0, 1)
    with pytest.raises(MeasureError):
        Grid1D(np.array([0.0]), 0, 1)
    with pytest.raises(MeasureError):
        Grid1D(np.array([0.0, 2.0]), 0, 1)


def test_measure_simplex_invariant():
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([0.5, 0.6]))
    with pytest.raises(MeasureError):
        DiscreteMeasure(np.array([-0.1, 1.1]))
    m = DiscreteMeasure(np.array([0.25, 0.75]))
    assert m.n == 2


@pytest.mark.parametrize("raw,expected", [
    ((1, 1, 1, 1), (0.25, 0.25, 0.25, 0.25)),
    ((2, 0), (1, 0)),
    ((1, 3), (0.25, 0.75)),
])
def test_normalize(raw, expected):
    np.testing.assert_allclose(normalize(np.array(raw, float)).weights,
                               expected, atol=1e-15)


def test_normalize_rejections():
    with pytest.raises(MeasureError):
        normalize(np.zeros(3))
    with pytest.raises(MeasureError):
        normalize(np.array([1.0, -1.0]))


def test_discretize_gaussian_symmetry():
    g = Grid1D.uniform(-5, 5, 21)
    m = discretize_gaussian(0.0, 1.0, g)
    np.testing.assert_allclose(m.weights, m.weights[::-1], atol=1e-15)


def test_discretize_gaussian_concentration():
    g = Grid1D.uniform(0, 10, 11)
    m = discretize_gaussian(5.0, 0.01, g)
    assert m.weights[5] > 0.999


def test_discretize_gaussian_moments():
    # direct summation oracle over the grid
    g = Grid1D.uniform(-10, 10, 300)
    m = discretize_gaussian(1.0, 2.0, g)
    assert abs(m.mean() - 1.0) < 0.05
    assert abs(m.sd() - 2.0) < 0.05


def test_discretize_gaussian_translation_consistency():
    g = Grid1D.uniform(-10, 10, 201)  # step 0.1
    step = g.points[1] - g.points[0]
    a = discretize_gaussian(0.0, 1.0, g)
    b = discretize_gaussian(step, 1.0, g)
    # interior shift by one index, boundary truncation mass tiny
    assert np.abs(b.weights[1:] - a.weights[:-1]).max() < 1e-6


def test_discretize_gaussian_rejects_bad_sigma():
    g = Grid1D.uniform(0, 1, 5)
    with pytest.raises(MeasureError):
        discretize_gaussian(0.0, 0.0, g)


def _two_pass_gaussian(mu, sigma, grid):
    """The sampler's weights by the two-pass formula: the unclamped density
    exp(logw - logw.max()), then np.maximum at the floor and w / w.sum()."""
    z = (grid.points - mu) / sigma
    logw = -0.5 * z * z
    raw = np.exp(logw - logw.max())
    w = np.maximum(raw, WEIGHT_FLOOR)
    return raw, w / w.sum()


@settings(max_examples=300, deadline=None)
@given(mu=st.floats(-50, 50), sigma=st.floats(1e-6, 1e3),
       n=st.integers(2, 1000))
def test_one_pass_sampler_has_the_two_pass_bytes(mu, sigma, n):
    g = Grid1D.uniform(-10, 10, n)
    raw, expected = _two_pass_gaussian(mu, sigma, g)
    before = raw.copy()
    for m in (discretize_gaussian(mu, sigma, g), normalize_clamped(raw, g)):
        assert m.weights.tobytes() == expected.tobytes() and m.grid is g
        assert m.weights.min() > 0 and abs(m.weights.sum() - 1) <= SIMPLEX_TOL
    assert raw.tobytes() == before.tobytes()  # normalize_clamped copies raw


def test_a_sigma_whose_every_z_overflows_is_a_measure_error():
    # no grid point is at mu, so every z is infinite and every weight NaN
    g = Grid1D.uniform(0, 1, 5)
    with np.errstate(all="ignore"), pytest.raises(MeasureError,
                                                  match="non-finite"):
        discretize_gaussian(0.1, 5e-324, g)


@pytest.mark.parametrize("raw", [np.zeros((2, 2)), np.ones(3)])
def test_normalize_clamped_rejects_a_bad_shape(raw):
    with pytest.raises(MeasureError):
        normalize_clamped(raw, Grid1D.uniform(0, 1, 2))


def test_finite_stream_degenerate():
    c1 = DiscreteMeasure(np.array([0.3, 0.7]))
    stream = MeasureStream.finite([c1], [1.0], seed=1)
    for _ in range(10):
        assert stream.sample() is c1


def test_finite_stream_frequencies():
    c1 = DiscreteMeasure(np.array([1.0, 0.0]))
    c2 = DiscreteMeasure(np.array([0.0, 1.0]))
    stream = MeasureStream.finite([c1, c2], [0.5, 0.5], seed=7)
    hits = sum(stream.sample() is c1 for _ in range(100_000))
    assert abs(hits / 100_000 - 0.5) < 0.01  # binomial 3 sigma is ~0.005


@pytest.mark.parametrize("weights", [[np.nan, 1.0], [np.inf, 1.0],
                                     [-np.inf, 1.0], [1e308, 1e308]])
def test_finite_stream_rejects_non_finite_weights(weights):
    c1 = DiscreteMeasure(np.array([0.3, 0.7]))
    c2 = DiscreteMeasure(np.array([0.6, 0.4]))
    with pytest.raises(MeasureError, match="sampling weights"):
        MeasureStream.finite([c1, c2], weights, seed=1)


@st.composite
def index_laws(draw):
    """Simplex vectors of length 1-20 with zeros, tiny and subnormal masses."""
    mass = st.one_of(st.just(0.0), st.sampled_from([5e-324, 1e-300, 1e-17]),
                     st.floats(1e-12, 1.0))
    raw = np.array(draw(st.lists(mass, min_size=1, max_size=20)))
    raw[draw(st.integers(0, raw.size - 1))] = draw(st.floats(1e-3, 1.0))
    return raw / raw.sum()


@settings(max_examples=300, deadline=None)
@given(p=index_laws(), seed=st.integers(0, 2 ** 32 - 1), draws=st.integers(1, 4))
def test_draw_matches_generator_choice(p, seed, draws):
    ours = np.random.Generator(np.random.PCG64(seed))
    numpys = np.random.Generator(np.random.PCG64(seed))
    cdf = sampling_cdf(p)
    for _ in range(draws):
        idx = draw_index(cdf, ours)
        assert idx == numpys.choice(len(p), p=p) and p[idx] > 0
        assert ours.bit_generator.state == numpys.bit_generator.state


def test_gaussian_stream_mean():
    g = Grid1D.uniform(-10, 10, 60)
    law = GaussianParamLaw(mu0=1.0, sigma0_sq=4.0, rate=0.5)
    stream = MeasureStream.gaussian(law, g, seed=3)
    means = [stream.sample().mean() for _ in range(10_000)]
    # CLT 3 sigma on E[mu]=1 with sd 2 (plus sigma-spread), generous
    assert abs(np.mean(means) - 1.0) < 0.07


def test_stream_reproducibility():
    g = Grid1D.uniform(-10, 10, 40)
    law = GaussianParamLaw(1.0, 4.0, 0.5)
    s1 = MeasureStream.gaussian(law, g, seed=42)
    s2 = MeasureStream.gaussian(law, g, seed=42)
    for _ in range(50):
        np.testing.assert_array_equal(s1.sample().weights, s2.sample().weights)


def test_stream_state_roundtrip():
    g = Grid1D.uniform(-10, 10, 40)
    law = GaussianParamLaw(1.0, 4.0, 0.5)
    s1 = MeasureStream.gaussian(law, g, seed=9)
    for _ in range(7):
        s1.sample()
    state = s1.rng.bit_generator.state
    a = [s1.sample().weights for _ in range(5)]
    s2 = MeasureStream.gaussian(law, g, seed=9)
    s2.rng.bit_generator.state = state
    b = [s2.sample().weights for _ in range(5)]
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x, y)


def _one_at_a_time_pair(rng, law):
    """(mu, sigma) by the Gaussian stream's one-sample loop."""
    mu = rng.normal(law.mu0, math.sqrt(law.sigma0_sq))
    sigma = rng.exponential(1.0 / law.rate)
    while sigma <= 0:
        sigma = rng.exponential(1.0 / law.rate)
    return mu, sigma


def _outcome(draw):
    """The weights' bytes, or the MeasureError's message, of draw(), and the
    messages of every warning it issued."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result = draw().weights.tobytes()
        except MeasureError as exc:
            result = str(exc)
    return result, [str(w.message) for w in caught]


# a long double wider than a double holds the rate 2^1074, whose 1 / rate is
# the least subnormal float: about 39% of the sigma draws round to 0 and are
# redrawn
_RATES = [1e-3, 0.5, 10.0, 1e150, 1e300] + (
    [np.longdouble(2) ** 1074] if np.finfo(np.longdouble).maxexp > 1075 else [])


@st.composite
def gaussian_laws(draw):
    """Laws with extremes: a rate of 1e300 makes every z of a draw overflow
    (MeasureError), 1e150 some of them (numpy warnings), and the subnormal
    scale redraws sigma."""
    mu0 = draw(st.one_of(st.floats(-20, 20), st.sampled_from([-1e300, 1e300])))
    sigma0_sq = draw(st.sampled_from([1e-300, 1e-6, 1.0, 100.0, 1e300]))
    return GaussianParamLaw(mu0, sigma0_sq, draw(st.sampled_from(_RATES)))


@settings(max_examples=100, deadline=None)
@given(law=gaussian_laws(), n=st.integers(2, 200), seed=st.integers(0, 2 ** 32 - 1),
       count=st.integers(1, 200), data=st.data())
def test_block_stream_is_the_one_at_a_time_stream(law, n, seed, count, data):
    # every sample (bytes, MeasureError and warnings) and the generator state
    # after it are those of pairs drawn one at a time, so a look-ahead row
    # that is never served warns of nothing; a state set mid-block (to an
    # earlier one) gives the samples of a fresh stream set to it
    grid = Grid1D.uniform(-10, 10, n)
    stream = MeasureStream.gaussian(law, grid, seed)
    ref = np.random.Generator(np.random.PCG64(seed))
    reset_at = data.draw(st.integers(1, count))
    fresh, states = None, []
    for k in range(count):
        if k == reset_at:
            state = states[data.draw(st.integers(0, k - 1))]
            stream.rng.bit_generator.state = ref.bit_generator.state = state
            fresh = MeasureStream.gaussian(law, grid, seed + 1)
            fresh.rng.bit_generator.state = state
        states.append(ref.bit_generator.state)
        want = _outcome(lambda: discretize_gaussian(*_one_at_a_time_pair(ref, law),
                                                    grid))
        assert _outcome(stream.sample) == want
        assert stream.rng.bit_generator.state == ref.bit_generator.state
        if fresh is not None:
            assert _outcome(fresh.sample) == want


def test_a_served_sample_is_read_only():
    stream = MeasureStream.gaussian(GaussianParamLaw(0.0, 1.0, 1.0),
                                    Grid1D.uniform(-5, 5, 16), seed=0)
    m = stream.sample()
    with pytest.raises(ValueError, match="read-only"):
        m.weights[0] = 0.5


# n = 1 draws nothing, 2**32 is next_uint32 as is, 2**31 + 11 rejects about
# half its first words, and past 2**32 the draw goes to the generator
BLOCK_DRAW_NS = (1, 2, 5, 2**31 + 11, 2**32, 2**32 + 1)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**63), half_word=st.booleans(),
       block=st.sampled_from((1, 2, 7, measures.DRAW_BLOCK)),
       ops=st.lists(st.tuples(st.sampled_from(("random", "integers", "sync", "set")),
                              st.sampled_from(BLOCK_DRAW_NS), st.integers(1, 40)),
                    max_size=30))
def test_block_draws_match_a_generators_draws_and_state(seed, half_word, block, ops):
    # interleaved random()/integers(n) runs that cross block boundaries, syncs,
    # and states set through .bit_generator in the middle of a block
    plain = np.random.Generator(np.random.PCG64(seed))
    if half_word:
        plain.integers(7)  # leaves the upper half of a word buffered
    wrapped = np.random.Generator(np.random.PCG64(0))
    wrapped.bit_generator.state = plain.bit_generator.state
    draws = BlockDraws(wrapped)
    with mock.patch.object(measures, "DRAW_BLOCK", block):
        for op, n, count in ops:
            if op == "random":
                for _ in range(count):
                    assert draws.random() == plain.random()
            elif op == "integers":
                for _ in range(count):
                    assert draws.integers(n) == plain.integers(n)
            elif op == "sync":
                draws.sync()
                assert wrapped.bit_generator.state == plain.bit_generator.state
            else:
                other = np.random.Generator(np.random.PCG64(seed + count))
                other.integers(count)  # a half-word buffered for odd counts
                draws.bit_generator.state = other.bit_generator.state
                plain.bit_generator.state = other.bit_generator.state
            assert draws.bit_generator.state == plain.bit_generator.state
    draws.sync()
    assert wrapped.bit_generator.state == plain.bit_generator.state


def test_block_draws_offer_only_the_draws_and_the_bit_generator():
    draws = BlockDraws(np.random.Generator(np.random.PCG64(0)))
    with pytest.raises(AttributeError):
        draws.normal
    with pytest.raises(AttributeError):
        draws.choice = None


def test_block_draws_pass_a_bad_bound_to_the_generator():
    plain = np.random.Generator(np.random.PCG64(3))
    draws = BlockDraws(np.random.Generator(np.random.PCG64(3)))
    draws.random()
    plain.random()
    for n in (0, -1):
        with pytest.raises(ValueError) as want:
            plain.integers(n)
        with pytest.raises(ValueError) as got:
            draws.integers(n)
        assert str(got.value) == str(want.value)
    # a numpy integer bound takes the generator's own draw
    assert draws.integers(np.int64(5)) == plain.integers(5)
    assert draws.random() == plain.random()
    assert draws.bit_generator.state == plain.bit_generator.state


def test_corpus_roundtrip(tmp_path):
    g = Grid1D.uniform(-1, 1, 5)
    measures = [discretize_gaussian(mu, 0.5, g) for mu in (-0.5, 0.0, 0.5)]
    path = tmp_path / "corpus.csv"
    save_corpus(path, measures, g)
    grid, loaded = load_corpus(path)
    assert grid == g
    for m, l in zip(measures, loaded):
        np.testing.assert_allclose(l.weights, m.weights, rtol=1e-15)


def _corpus(tmp_path, text):
    path = tmp_path / "corpus.csv"
    path.write_text(text)
    return path


@pytest.mark.parametrize("make, message", [
    (lambda tmp: DiscreteMeasure(np.full((2, 2), 0.25)), "weights must be a vector"),
    (lambda tmp: DiscreteMeasure(np.full(3, 1 / 3), Grid1D.uniform(0, 1, 4)),
     "weights length does not match grid size"),
    (lambda tmp: DiscreteMeasure(np.array([0.5, 0.5])).mean(), "measure has no grid"),
    (lambda tmp: DiscreteMeasure(np.array([0.5, 0.5])).sd(), "measure has no grid"),
    (lambda tmp: GaussianParamLaw(0.0, 1.0, 0.0), "rate must be > 0"),
    (lambda tmp: GaussianParamLaw(0.0, 1.0, -1.0), "rate must be > 0"),
    (lambda tmp: MeasureStream.finite(
        [DiscreteMeasure(np.array([0.5, 0.5])), DiscreteMeasure(np.full(3, 1 / 3))],
        None, 0), "finite stream: mixed supports"),
    (lambda tmp: MeasureStream.finite(
        [DiscreteMeasure(np.array([0.5, 0.5]), Grid1D.uniform(0, 1, 2)),
         DiscreteMeasure(np.array([0.5, 0.5]), Grid1D.uniform(0, 2, 2))],
        None, 0), "finite stream: mixed supports"),
    (lambda tmp: load_corpus(_corpus(tmp, "# a comment\n\n")), "holds no measures"),
    # a row before the header is read with no grid; its length is checked
    # against the header's n once the file is read
    (lambda tmp: load_corpus(_corpus(tmp, "0.5,0.5\n# grid: 0.0 1.0 3\n0.2,0.3,0.5\n")),
     "row length does not match grid"),
], ids=["matrix", "grid_size", "mean_no_grid", "sd_no_grid", "rate_0", "rate_negative",
        "mixed_sizes", "mixed_grids", "no_measures", "row_before_header"])
def test_measures_refuse_bad_input(tmp_path, make, message):
    with pytest.raises(MeasureError, match=message):
        make(tmp_path)


def test_load_corpus_skips_blank_lines(tmp_path):
    grid, loaded = load_corpus(_corpus(tmp_path, "# grid: 0.0 1.0 2\n\n0.25,0.75\n  \n"))
    assert grid == Grid1D.uniform(0.0, 1.0, 2)
    assert [m.weights.tolist() for m in loaded] == [[0.25, 0.75]]


def test_save_corpus_leaves_the_old_corpus_until_the_rename(tmp_path, monkeypatch):
    # a save cut before its rename leaves the old corpus whole, not a
    # truncated one that loads as fewer measures
    g = Grid1D.uniform(0, 1, 2)
    path = tmp_path / "corpus.csv"
    save_corpus(path, [DiscreteMeasure(np.array([0.25, 0.75]), g)] * 3, g)
    old = path.read_bytes()

    def cut(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(measures.os, "replace", cut)
    with pytest.raises(KeyboardInterrupt):
        save_corpus(path, [DiscreteMeasure(np.array([0.5, 0.5]), g)], g)
    assert path.read_bytes() == old
