"""Mixture-density LSTM decoder: head activations, NLL, sampling, rollout."""

import math

import numpy as np
import pytest
from scipy.special import expit, logsumexp
from scipy.stats import chisquare

import lattisketch as ls
from lattisketch import decoder
from lattisketch.decoder import (LOG_2PI, _head, _lstm_cell, _rollout_columns, _rollout_noise,
                                 _sample)


@pytest.fixture
def dec_cfg():
    return ls.DecoderConfig(hidden_size=16, M=3, n_max=24, z_dim=8)


@pytest.fixture
def dec_store(dec_cfg):
    return ls.init_decoder_params(dec_cfg, np.random.default_rng(0))


def head_vector(M=1, logits=0.0, mu_x=0.0, mu_y=0.0, log_sx=0.0, log_sy=0.0,
                rho_raw=0.0, pen=(0.0, 0.0, 0.0)):
    """A raw (6M+3) head output from its parts, in the decoder's layout."""
    parts = (logits, mu_x, mu_y, log_sx, log_sy, rho_raw)
    return np.concatenate([np.broadcast_to(np.asarray(p, float), (M,)) for p in parts]
                          + [np.asarray(pen, float)])


def head_nll(y, target):
    """(offset, pen) NLL of one stroke-5 row through teacher_forced_nll,
    with a zero head matrix pinning the head output to y."""
    M = (len(y) - 3) // 6
    cfg = ls.DecoderConfig(hidden_size=4, M=M, n_max=1, z_dim=2)
    store = ls.init_decoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
    store["dec.head.W"] = np.zeros_like(store["dec.head.W"])
    store["dec.head.b"] = np.asarray(y, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)[None, None]
    loss, cache = ls.teacher_forced_nll(target, np.zeros((1, 2)), store, cfg)
    offset = -float(cache["lse"][0, 0])
    return offset, loss - offset


def softmax(a):
    e = np.exp(a - np.max(a))
    return e / e.sum()


def naive_mixture_nll(pi, mu_x, mu_y, sigma_x, sigma_y, rho, dx, dy):
    """Direct density evaluation, no log-sum-exp tricks."""
    total = 0.0
    for j in range(len(pi)):
        zx = (dx - mu_x[j]) / sigma_x[j]
        zy = (dy - mu_y[j]) / sigma_y[j]
        s = 1.0 - rho[j] * rho[j]
        norm = 1.0 / (2.0 * np.pi * sigma_x[j] * sigma_y[j] * np.sqrt(s))
        q = zx * zx - 2 * rho[j] * zx * zy + zy * zy
        total += pi[j] * norm * np.exp(-q / (2 * s))
    return -np.log(total)


def reference_step_nll(y, target, M):
    """Offset and pen NLL of one stroke-5 row under raw head output y."""
    offset = naive_mixture_nll(softmax(y[:M]), y[M : 2 * M], y[2 * M : 3 * M],
                               np.exp(y[3 * M : 4 * M]), np.exp(y[4 * M : 5 * M]),
                               np.tanh(y[5 * M : 6 * M]), target[0], target[1])
    return offset, -np.log(softmax(y[6 * M :])[np.argmax(target[2:5])])


def sigmoid(a):
    return 1.0 / (1.0 + np.exp(-a))


def reference_lstm_step(x, h, c, store):
    """One LSTM step from the store's arrays; gates in (i, f, g, o) order."""
    a = x @ store["dec.lstm.Wx"] + h @ store["dec.lstm.Wh"] + store["dec.lstm.b"]
    i, f, g, o = np.split(a, 4)
    c = sigmoid(f) * c + sigmoid(i) * np.tanh(g)
    return sigmoid(o) * np.tanh(c), c


def reference_argmax(values):
    """Scalar argmax: the first index of the largest value."""
    pick = 0
    for i, a in enumerate(values):
        if a > values[pick]:
            pick = i
    return pick


def reference_noise(rng, n, K):
    """Untempered Gumbel noise -log(E), one entry at a time, then raw normals,
    drawn in the rollout's stream order."""
    e = rng.standard_exponential((n, K))
    gumbel = [[-math.log(max(v, np.finfo(float).tiny)) for v in row] for row in e]
    return np.array(gumbel), rng.standard_normal((n, 2))


def reference_sample(pi, mu_x, mu_y, sigma_x, sigma_y, rho, pen, gumbel, normal):
    """Gumbel-max over log pi and log pen with untempered noise, then a
    correlated normal offset from the drawn component."""
    M = len(pi)
    j = reference_argmax(np.log(pi) + gumbel[:M])
    u, v = normal
    dx = mu_x[j] + sigma_x[j] * u
    dy = mu_y[j] + sigma_y[j] * (rho[j] * u + np.sqrt(1.0 - rho[j] ** 2) * v)
    return dx, dy, reference_argmax(np.log(pen) + gumbel[M:])


def sample(y, tau, rng):
    """One draw from raw head output y, in the decoder's layout, with a
    one-step noise block from rng."""
    M = (len(y) - 3) // 6
    gumbel, normal = _rollout_noise(rng, 1, M, tau)
    return _sample(_rollout_columns(np.asarray(y), M), gumbel[0], normal[0], M, np.empty(M + 3))


def reference_rollout(z, store, cfg, rng):
    """Float64 rollout one step at a time: the full [x, z] W_x + h W_h + b
    projection, draws from log-softmax probabilities tempered by tau."""
    M, tau = cfg.M, cfg.temperature
    root_tau = np.sqrt(tau)
    h, c = np.split(np.tanh(z @ store["dec.init.W"] + store["dec.init.b"]), 2)
    gumbel, normal = reference_noise(rng, cfg.n_max, M + 3)
    prev = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
    steps = []
    for t in range(cfg.n_max):
        h, c = reference_lstm_step(np.concatenate([prev, z]), h, c, store)
        y = h @ store["dec.head.W"] + store["dec.head.b"]
        log_pi = y[:M] - logsumexp(y[:M])
        pen_logp = y[6 * M :] - logsumexp(y[6 * M :])
        dx, dy, pen = reference_sample(
            softmax(log_pi / tau), y[M : 2 * M], y[2 * M : 3 * M],
            np.exp(y[3 * M : 4 * M]) * root_tau, np.exp(y[4 * M : 5 * M]) * root_tau,
            np.tanh(y[5 * M : 6 * M]), softmax(pen_logp / tau), gumbel[t], normal[t])
        steps.append([dx, dy, pen])
        if pen == ls.PEN_END:
            break
        prev = np.array([dx, dy, 0.0, 0.0, 0.0])
        prev[2 + pen] = 1.0
    steps = np.array(steps)
    steps[-1, 2] = ls.PEN_END
    return steps


class CountingRng:
    """A generator that records the name of every method called on it."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), []

    def __getattr__(self, name):
        self.calls.append(name)
        return getattr(self.rng, name)


# ---------------------------------------------------------------------------
# init_state


def test_init_state_zero_weights(dec_cfg, dec_store):
    dec_store["dec.init.W"] = np.zeros_like(dec_store["dec.init.W"])
    dec_store["dec.init.b"] = np.zeros_like(dec_store["dec.init.b"])
    h0, c0 = decoder.init_state(np.ones(dec_cfg.z_dim), dec_store)
    assert np.all(h0 == 0.0) and np.all(c0 == 0.0)


def test_init_state_bounded_and_deterministic(dec_cfg, dec_store):
    z = np.random.default_rng(0).standard_normal(dec_cfg.z_dim)
    h0, c0 = decoder.init_state(z, dec_store)
    assert h0.shape == (dec_cfg.hidden_size,)
    assert np.all(np.abs(h0) < 1.0) and np.all(np.abs(c0) < 1.0)
    h1, c1 = decoder.init_state(z, dec_store)
    assert np.array_equal(h0, h1) and np.array_equal(c0, c1)


# ---------------------------------------------------------------------------
# head activations


def test_zero_head_gives_uniform_mixture():
    M = 4
    log_pi, _, _, log_sx, log_sy, rho, s, pen_logp = _head(np.zeros(6 * M + 3), M)
    assert np.allclose(np.exp(log_pi), 1.0 / M)
    assert np.allclose(log_sx, 0.0) and np.allclose(log_sy, 0.0)
    assert np.allclose(rho, 0.0) and np.allclose(s, 1.0)
    assert np.allclose(np.exp(pen_logp), 1.0 / 3)


def test_head_ranges_and_shapes(dec_cfg, dec_store):
    z = np.random.default_rng(1).standard_normal(dec_cfg.z_dim)
    h, _ = decoder.init_state(z, dec_store)
    head = _head(h @ dec_store["dec.head.W"] + dec_store["dec.head.b"], dec_cfg.M)
    log_pi, mu_x, mu_y, log_sx, log_sy, rho, s, pen_logp = head
    for part in head[:-1]:
        assert part.shape == (dec_cfg.M,)
    assert pen_logp.shape == (3,)
    assert np.exp(log_pi).sum() == pytest.approx(1.0, abs=1e-6)
    assert np.all(np.abs(rho) < 1.0) and np.all((s > 0) & (s <= 1.0))
    assert np.exp(pen_logp).sum() == pytest.approx(1.0, abs=1e-6)


def test_generate_shape_mismatch(dec_cfg, dec_store):
    with pytest.raises(ls.ShapeMismatch):
        ls.generate(np.zeros(dec_cfg.z_dim + 1), dec_store, dec_cfg,
                    np.random.default_rng(0))


def test_temperature_concentrates_pi():
    # components sit far apart with tiny deviations, so dx names the component
    y = head_vector(3, logits=[0.5, 2.0, 1.0], mu_x=[0.0, 10.0, 20.0], log_sx=-20.0,
                    log_sy=-20.0)
    rng = np.random.default_rng(0)
    hot = [round(sample(y, 1e-3, rng)[0] / 10.0) for _ in range(200)]
    assert hot == [1] * 200
    warm = [round(sample(y, 1.0, rng)[0] / 10.0) for _ in range(2000)]
    assert np.mean(np.array(warm) == 1) < 0.7


def test_temperature_one_matches_eval_exactly():
    M = 5
    y = np.random.default_rng(2).standard_normal(6 * M + 3)
    untempered = (softmax(y[:M]), y[M : 2 * M], y[2 * M : 3 * M], np.exp(y[3 * M : 4 * M]),
                  np.exp(y[4 * M : 5 * M]), np.tanh(y[5 * M : 6 * M]), softmax(y[6 * M :]))
    picks = set()
    for seed in range(20):
        got = sample(y, 1.0, np.random.default_rng(seed))
        gumbel, normal = reference_noise(np.random.default_rng(seed), 1, M + 3)
        want = reference_sample(*untempered, gumbel[0], normal[0])
        assert got[2] == want[2]
        assert got == pytest.approx(want, rel=1e-12, abs=1e-12)
        picks.add(round(got[0], 6))
    assert len(picks) > 1


def test_temperature_scales_sigma():
    y = head_vector(1)
    one = np.ones(1)
    for seed in range(10):
        got = sample(y, 0.25, np.random.default_rng(seed))
        gumbel, normal = reference_noise(np.random.default_rng(seed), 1, 4)
        want = reference_sample(one, 0 * one, 0 * one, 0.5 * one, 0.5 * one, 0 * one,
                                np.full(3, 1 / 3), gumbel[0], normal[0])
        assert got == pytest.approx(want, abs=1e-12)  # sqrt(tau) scaling


@pytest.mark.parametrize("dtype, tol", [(np.float64, 1e-15),
                                        (np.float32, 2 * np.finfo(np.float32).eps)])
def test_lstm_cell_matches_expit_oracle(dtype, tol):
    hs, B = 16, 3
    rng = np.random.default_rng(6)
    Wh = (rng.standard_normal((hs, 4 * hs)) * 0.3).astype(dtype)
    h = rng.uniform(-1.0, 1.0, (B, hs)).astype(dtype)
    c = rng.standard_normal((B, hs)).astype(dtype)
    # pre-activations from -40 to 40 in every block, saturated gates included
    a_x = np.linspace(-40.0, 40.0, B * 4 * hs).reshape(B, 4 * hs).astype(dtype)
    a_x = rng.permuted(a_x, axis=1)
    a = h @ Wh + a_x
    assert np.abs(a).max() > 39.0
    # the prescaled pre-activation, which the cell activates in place
    gates = a * np.repeat([0.5, 0.5, 1.0, 0.5], hs).astype(dtype)
    c_new, tc, h_new = np.empty_like(c), np.empty_like(c), np.empty_like(h)
    in_place = gates.copy()
    _lstm_cell(gates, c, c_new, tc, h_new)
    c_same, tc_same, h_same = c.copy(), np.empty_like(c), np.empty_like(h)
    _lstm_cell(in_place, c_same, c_same, tc_same, h_same)  # c' written over c
    assert c_same.tobytes() == c_new.tobytes() and h_same.tobytes() == h_new.tobytes()

    i, f, g, o = np.split(a, 4, axis=1)
    want = np.concatenate([expit(i), expit(f), np.tanh(g), expit(o)], axis=1)
    assert gates.dtype == h_new.dtype == c_new.dtype == dtype
    assert np.abs(gates - want).max() <= tol
    sig = np.concatenate([gates[:, : 2 * hs], gates[:, 3 * hs :]], axis=1)
    assert sig.min() >= 0.0 and sig.max() <= 1.0
    assert np.array_equal(gates[:, 2 * hs : 3 * hs], np.tanh(g))
    wi, wf, wg, wo = np.split(want, 4, axis=1)
    assert np.abs(c_new - (wf * c + wi * wg)).max() <= 4 * tol * max(1.0, np.abs(c).max())
    assert np.array_equal(tc, np.tanh(c_new))
    assert np.array_equal(h_new, gates[:, 3 * hs :] * tc)


def test_draw_matches_scalar_gumbel_max_reference():
    rng = np.random.default_rng(8)
    for trial in range(300):
        M = int(rng.integers(1, 25))
        y = head_vector(M, logits=rng.standard_normal(M) * rng.uniform(0.1, 10.0),
                        mu_x=10.0 * np.arange(M), log_sx=-20.0, pen=rng.standard_normal(3) * 3.0)
        y_roll = _rollout_columns(y, M)
        tau = float(rng.uniform(0.05, 2.0))
        gumbel, normal = _rollout_noise(np.random.default_rng([14, trial]), 10, M, tau)
        want, _ = reference_noise(np.random.default_rng([14, trial]), 10, M + 3)
        assert np.allclose(gumbel, tau * want, rtol=1e-14, atol=0.0)
        buf = np.empty(M + 3)
        for g, nv in zip(gumbel, normal):
            dx, _, pen = _sample(y_roll, g, nv, M, buf)
            scalar = [float(a) + float(b) for a, b in zip(y_roll[: M + 3], g)]
            assert pen == reference_argmax(scalar[M:])
            assert round(dx / 10.0) == reference_argmax(scalar[:M])


def test_draw_frequencies_follow_tempered_softmax():
    # components sit far apart with tiny deviations, so dx names the component
    n = 20_000
    for seed, (logits, pen, tau) in enumerate([([0.5, 2.0, 1.0, -1.0], [0.0, -1.0, 1.0], 1.0),
                                               ([0.1, 0.3, 0.2, -0.4], [0.2, -0.3, 0.0], 0.4),
                                               ([0.0, 0.0, -1.5, 0.5], [0.0, -2.0, 0.5], 2.0)]):
        M = len(logits)
        y = _rollout_columns(head_vector(M, logits=logits, mu_x=10.0 * np.arange(M),
                                         log_sx=-20.0, log_sy=-20.0, pen=pen), M)
        gumbel, normal = _rollout_noise(np.random.default_rng([20, seed]), n, M, tau)
        buf = np.empty(M + 3)
        draws = [_sample(y, g, nv, M, buf) for g, nv in zip(gumbel, normal)]
        for picks, l in (([round(d[0] / 10.0) for d in draws], logits),
                         ([d[2] for d in draws], pen)):
            counts = np.bincount(picks, minlength=len(l))
            assert chisquare(counts, n * softmax(np.asarray(l) / tau)).pvalue > 1e-3


def test_draw_keeps_a_vanishing_category_at_its_share():
    # pen logits 50 apart at tau 0.4: the middle state's tempered share is
    # about e^-125, so ordinary noise never draws it but noise that deep in
    # the Gumbel tail does
    y = head_vector(1, pen=[0.0, -50.0, 0.0])
    rng = np.random.default_rng(0)
    assert {sample(y, 0.4, rng)[2] for _ in range(2000)} == {0, 2}
    gumbel = np.array([0.0, 0.0, 0.4 * 126.0, 0.0])
    assert _sample(_rollout_columns(y, 1), gumbel, (0.0, 0.0), 1, np.empty(4))[2] == 1


@pytest.mark.parametrize("logits", [[np.nan, 0.0, 1.0], [0.0, 1.0, np.nan],
                                    [0.0, np.nan, 1.0], [np.inf, 0.0, 1.0],
                                    [-np.inf, -np.inf]])
def test_draw_non_finite_logits_raise(logits):
    # NaN or +inf in any position, or every logit -inf, as mixture or pen logits
    pen = (logits + [-np.inf] * 3)[:3]
    for y in (head_vector(len(logits), logits=logits), head_vector(1, pen=pen)):
        with pytest.raises(ls.NumericalUnderflow):
            sample(y, 0.4, np.random.default_rng(0))


def test_rollout_noise_guards_a_zero_exponential_draw():
    class ZeroExponential:
        def standard_exponential(self, shape):
            return np.zeros(shape)

        standard_normal = np.random.default_rng(0).standard_normal

    gumbel, _ = _rollout_noise(ZeroExponential(), 2, 1, 0.4)
    assert np.all(np.isfinite(gumbel)) and gumbel.min() > 0.4 * 700.0


# ---------------------------------------------------------------------------
# the decoder's own log_softmax and logsumexp, bit for bit against scipy's


def hard_rows(dtype) -> np.ndarray:
    """(4, 52, 7) rows, read through a strided view as the head's columns are.
    Most tie two entries at the max; a sum that drops only the first of them
    rounds differently in about one row in twenty. Others have three ties,
    -inf entries (also beside a tie), equal values or large magnitudes."""
    rng = np.random.default_rng(41)
    rows = rng.standard_normal((208, 7)) * 3.0
    rows[:200, [2, 5]] = rows[:200].max(axis=1, keepdims=True) + 0.5
    rows[200, [0, 3, 6]] = 4.0
    rows[201, 4] = rows[202, [1, 2]] = -np.inf
    rows[203] = 1.25
    rows[204:] *= 1e4
    rows[205, 1] = -np.inf
    wide = np.concatenate([rows, rng.standard_normal((208, 3))], axis=1).astype(dtype)
    return wide.reshape(4, 52, 10)[..., :7]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_log_softmax_and_logsumexp_match_scipy_bit_for_bit(dtype):
    from scipy import special

    x = hard_rows(dtype)
    for ours, theirs in ((decoder.log_softmax(x), special.log_softmax(x, axis=-1)),
                         (decoder.logsumexp(x), special.logsumexp(x, axis=-1))):
        assert ours.dtype == theirs.dtype == dtype
        assert ours.shape == theirs.shape
        assert ours.tobytes() == theirs.tobytes()


def test_logsumexp_of_an_all_minus_inf_row_is_minus_inf():
    x = np.array([[-np.inf, -np.inf], [0.0, -np.inf]])
    assert decoder.logsumexp(x).tolist() == [-np.inf, 0.0]


# ---------------------------------------------------------------------------
# mixture NLL through teacher_forced_nll


def test_nll_standard_normal_at_mean():
    offset, _ = head_nll(head_vector(), [0.0, 0.0, 1.0, 0.0, 0.0])
    assert offset == pytest.approx(LOG_2PI, abs=1e-6)


def test_nll_standard_normal_at_unit_offset():
    offset, _ = head_nll(head_vector(), [1.0, 0.0, 1.0, 0.0, 0.0])
    assert offset == pytest.approx(LOG_2PI + 0.5, abs=1e-6)


def test_nll_pen_term_is_cross_entropy():
    y = head_vector(pen=np.log([0.7, 0.2, 0.1]))
    offset, pen = head_nll(y, [0.0, 0.0, 1.0, 0.0, 0.0])
    assert pen == pytest.approx(-np.log(0.7), abs=1e-9)
    assert offset == pytest.approx(LOG_2PI, abs=1e-6)


def test_nll_matches_naive_density_oracle():
    rng = np.random.default_rng(3)
    for _ in range(25):
        M = int(rng.integers(1, 6))
        y = head_vector(M, logits=rng.standard_normal(M), mu_x=rng.standard_normal(M),
                        mu_y=rng.standard_normal(M), log_sx=rng.standard_normal(M) * 0.3,
                        log_sy=rng.standard_normal(M) * 0.3,
                        rho_raw=rng.standard_normal(M) * 0.5, pen=np.log([0.5, 0.3, 0.2]))
        dx, dy = rng.standard_normal(2) * 2
        target = np.array([dx, dy, 0.0, 1.0, 0.0])
        got, _ = head_nll(y, target)
        want, _ = reference_step_nll(y, target, M)
        assert got == pytest.approx(want, abs=1e-6)


def test_nll_finite_for_large_offsets():
    y = head_vector(log_sx=np.log(0.5), log_sy=np.log(0.5))
    for dx in (-1e3, 1e3):
        offset, pen = head_nll(y, [dx, 1e3, 0.0, 0.0, 1.0])
        assert np.isfinite(offset + pen)


# ---------------------------------------------------------------------------
# sampling


def test_sample_degenerate_component_returns_mean():
    y = head_vector(mu_x=3.0, mu_y=-2.0, log_sx=np.log(1e-12), log_sy=np.log(1e-12))
    dx, dy, _ = sample(y, 1e-6, np.random.default_rng(0))
    assert dx == pytest.approx(3.0, abs=1e-5)
    assert dy == pytest.approx(-2.0, abs=1e-5)


def test_sample_pen_forced():
    y = head_vector(pen=np.log([1.0 - 2e-12, 1e-12, 1e-12]))
    for seed in range(10):
        assert sample(y, 1.0, np.random.default_rng(seed))[2] == ls.PEN_DOWN


def test_sample_monte_carlo_mean():
    y = head_vector(mu_x=1.5, mu_y=-0.5, log_sx=np.log(2.0), log_sy=0.0,
                    rho_raw=np.arctanh(0.3))
    gumbel, normal = _rollout_noise(np.random.default_rng(7), 100_000, 1, 1.0)
    y, buf = _rollout_columns(y, 1), np.empty(4)
    draws = np.array([_sample(y, g, nv, 1, buf)[:2] for g, nv in zip(gumbel, normal)])
    se_x = 2.0 / np.sqrt(len(draws))
    se_y = 1.0 / np.sqrt(len(draws))
    assert abs(draws[:, 0].mean() - 1.5) < 3 * se_x
    assert abs(draws[:, 1].mean() + 0.5) < 3 * se_y


def test_sample_deterministic_per_seed():
    y = head_vector()
    a = sample(y, 0.4, np.random.default_rng(11))
    b = sample(y, 0.4, np.random.default_rng(11))
    assert a == b


# ---------------------------------------------------------------------------
# generation


def test_generate_terminates_within_n_max(dec_cfg, dec_store):
    rng = np.random.default_rng(0)
    for seed in range(20):
        z = np.random.default_rng(seed).standard_normal(dec_cfg.z_dim)
        sk = ls.generate(z, dec_store, dec_cfg, np.random.default_rng(seed))
        assert 1 <= sk.n_steps <= dec_cfg.n_max
        assert sk.steps[-1, 2] == ls.PEN_END


def test_generate_deterministic(dec_cfg, dec_store):
    z = np.random.default_rng(1).standard_normal(dec_cfg.z_dim)
    a = ls.generate(z, dec_store, dec_cfg, np.random.default_rng(42))
    b = ls.generate(z, dec_store, dec_cfg, np.random.default_rng(42))
    assert np.array_equal(a.steps, b.steps)


def test_generate_outputs_valid_sketches(dec_cfg, dec_store):
    # untrained params, many rollouts: every output passes the invariants
    for seed in range(100):
        z = np.random.default_rng([9, seed]).standard_normal(dec_cfg.z_dim)
        sk = ls.generate(z, dec_store, dec_cfg, np.random.default_rng([10, seed]))
        sk.validate()


def test_generate_applies_offset_scale(dec_cfg, dec_store):
    import dataclasses
    z = np.random.default_rng(1).standard_normal(dec_cfg.z_dim)
    base = ls.generate(z, dec_store, dec_cfg, np.random.default_rng(5))
    scaled_cfg = dataclasses.replace(dec_cfg, offset_scale=10.0)
    scaled = ls.generate(z, dec_store, scaled_cfg, np.random.default_rng(5))
    assert np.allclose(scaled.steps[:, :2], 10.0 * base.steps[:, :2], rtol=1e-5)
    assert np.array_equal(scaled.steps[:, 2], base.steps[:, 2])


def test_generate_never_draws_zero_probability_pen(dec_cfg, dec_store):
    # the benchmark's heal model: pen=end's tempered share is about e^-125
    dec_store["dec.head.b"][6 * dec_cfg.M + ls.PEN_END] = -50.0
    for seed in range(20):
        sk = ls.generate(np.zeros(dec_cfg.z_dim), dec_store, dec_cfg,
                         np.random.default_rng(seed))
        assert sk.n_steps == dec_cfg.n_max


def test_generate_non_finite_head_raises(dec_cfg, dec_store):
    dec_store["dec.head.b"][0] = np.nan
    with pytest.raises(ls.NumericalUnderflow):
        ls.generate(np.zeros(dec_cfg.z_dim), dec_store, dec_cfg, np.random.default_rng(0))


def test_sample_deviation_beyond_the_float_range_raises():
    y = _rollout_columns(head_vector(1, log_sx=800.0), 1)
    with pytest.raises(ls.NumericalUnderflow, match="deviation"):
        _sample(y, np.zeros(4), (1.0, 0.0), 1, np.empty(4))


def test_generate_undrawable_sketch_raises(dec_cfg, dec_store):
    # finite offsets that overflow once scaled back to pixels
    import dataclasses
    dec_store["dec.head.b"][dec_cfg.M : 2 * dec_cfg.M] = 5.0  # mu_x
    cfg = dataclasses.replace(dec_cfg, offset_scale=1e308)
    with pytest.raises(ls.NumericalUnderflow, match="cannot be drawn"):
        ls.generate(np.zeros(dec_cfg.z_dim), dec_store, cfg, np.random.default_rng(0))


def test_generate_draws_its_noise_once_per_rollout(dec_cfg, dec_store):
    lengths = set()
    for seed in range(20):
        rng = CountingRng(seed)
        sk = ls.generate(np.zeros(dec_cfg.z_dim), dec_store, dec_cfg, rng)
        assert rng.calls == ["standard_exponential", "standard_normal"]
        lengths.add(sk.n_steps)
    assert len(lengths) > 3


def test_generate_matches_float64_reference_rollout(dec_cfg):
    store = ls.init_decoder_params(dec_cfg, np.random.default_rng(0), dtype=np.float64)
    lengths = set()
    for seed in range(20):
        z = np.random.default_rng([12, seed]).standard_normal(dec_cfg.z_dim)
        got = ls.generate(z, store, dec_cfg, np.random.default_rng([13, seed])).steps
        want = reference_rollout(z, store, dec_cfg, np.random.default_rng([13, seed]))
        assert got.shape == want.shape
        assert np.array_equal(got[:, 2], want[:, 2])
        assert np.allclose(got[:, :2], want[:, :2], rtol=0.0, atol=1e-9)
        lengths.add(len(got))
    assert len(lengths) > 3  # rollouts of several lengths, not all cut at step 1


def test_generate_state_stays_in_store_dtype(dec_cfg, dec_store, monkeypatch):
    calls = []

    def spy(pre, c, c_out, tc_out, h_out):
        cell(pre, c, c_out, tc_out, h_out)
        calls.append(tuple((a.dtype, a.__array_interface__["data"][0])
                           for a in (pre, c, c_out, tc_out, h_out)))

    cell = decoder._lstm_cell
    monkeypatch.setattr(decoder, "_lstm_cell", spy)
    dec_store["dec.head.b"][6 * dec_cfg.M + ls.PEN_END] = -50.0
    z = np.random.default_rng(3).standard_normal(dec_cfg.z_dim)  # float64
    ls.generate(z, dec_store, dec_cfg, np.random.default_rng(0))
    assert len(calls) == dec_cfg.n_max
    # every step writes into the same float32 buffers, c' over c
    assert len(set(calls)) == 1
    assert {dt for dt, _ in calls[0]} == {np.dtype(np.float32)}
    assert calls[0][1][1] == calls[0][2][1]


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [None, 1, 2, 32])
def test_gate_prescale_is_bit_exact(dtype, batch):
    # (h W_h + a) s == h (W_h s) + a s for s = 1/2 or 1, as a GEMV and as a GEMM
    hs = 64
    rng = np.random.default_rng(16)
    shape = (hs,) if batch is None else (batch, hs)
    h = rng.uniform(-1.0, 1.0, shape).astype(dtype)
    a = rng.standard_normal(shape[:-1] + (4 * hs,)).astype(dtype)
    Wh = (rng.standard_normal((hs, 4 * hs)) * 0.1).astype(dtype)
    s = np.repeat([0.5, 0.5, 1.0, 0.5], hs).astype(dtype)
    want = (h @ Wh + a) * s
    got = h @ (Wh * s) + a * s
    assert got.dtype == dtype
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_generate_leaves_store_and_z_untouched(dec_cfg, dtype):
    store = ls.init_decoder_params(dec_cfg, np.random.default_rng(0), dtype=dtype)
    before = {name: arr.tobytes() for name, arr in store.items()}
    z = np.random.default_rng(17).standard_normal(dec_cfg.z_dim).astype(dtype)
    z0 = z.copy()
    for seed in range(5):
        ls.generate(z, store, dec_cfg, np.random.default_rng(seed))
    assert {name: arr.tobytes() for name, arr in store.items()} == before
    assert z.tobytes() == z0.tobytes()


def test_rollout_and_teacher_forcing_share_one_cell(dec_cfg, monkeypatch):
    """Replaying a float64 rollout's own steps through teacher forcing gives
    the hidden states the rollout's cell calls produced, so the folded
    matrix carries the right offset and pen rows and z's share."""
    import dataclasses
    cfg = dataclasses.replace(dec_cfg, offset_scale=2.5)
    store = ls.init_decoder_params(cfg, np.random.default_rng(0), dtype=np.float64)
    states = []

    def spy(pre, c, c_out, tc_out, h_out):
        cell(pre, c, c_out, tc_out, h_out)
        states.append(h_out.reshape(-1).copy())

    cell = decoder._lstm_cell
    monkeypatch.setattr(decoder, "_lstm_cell", spy)
    lengths = set()
    for seed in range(20):
        z = np.random.default_rng([18, seed]).standard_normal(cfg.z_dim)
        states.clear()
        sk = ls.generate(z, store, cfg, np.random.default_rng([19, seed]))
        rolled = np.array(states)
        targets = ls.to_stroke5(sk, sk.n_steps)
        targets[:, :2] /= cfg.offset_scale
        _, cache = ls.teacher_forced_nll(targets[None], z[None], store, cfg)
        forced = np.array(states[len(rolled) :])
        assert len(forced) == len(rolled) == sk.n_steps  # both went through the cell
        assert np.abs(cache["H"][0, 1:] - rolled).max() <= 1e-12
        assert np.abs(forced - rolled).max() <= 1e-12
        lengths.add(sk.n_steps)
    assert len(lengths) > 3


# ---------------------------------------------------------------------------
# teacher forcing


def batch_targets(rng, B, T):
    t = np.zeros((B, T, 5))
    t[:, :, :2] = rng.standard_normal((B, T, 2))
    t[:, :, 2] = 1.0
    t[:, -1] = [0, 0, 0, 0, 1]
    return t


def test_teacher_forced_nll_matches_stepwise_oracle(dec_cfg, dec_store):
    """Batch NLL equals a per-sequence loop of reference LSTM steps + scalar NLL."""
    rng = np.random.default_rng(4)
    B, T = 3, 6
    targets = batch_targets(rng, B, T)
    z = rng.standard_normal((B, dec_cfg.z_dim))
    loss, _ = ls.teacher_forced_nll(targets, z, dec_store, dec_cfg)

    total = 0.0
    for b in range(B):
        h, c = np.split(np.tanh(z[b] @ dec_store["dec.init.W"] + dec_store["dec.init.b"]), 2)
        prev = np.array([0.0, 0.0, 1.0, 0.0, 0.0])
        end_seen = False
        for t in range(T):
            h, c = reference_lstm_step(np.concatenate([prev, z[b]]), h, c, dec_store)
            y = h @ dec_store["dec.head.W"] + dec_store["dec.head.b"]
            offset, pen = reference_step_nll(y, targets[b, t], dec_cfg.M)
            if not end_seen:
                total += offset
            total += pen
            if targets[b, t, 4] == 1.0:
                end_seen = True
            prev = targets[b, t]
    want = total / (B * dec_cfg.n_max)
    assert loss == pytest.approx(want, rel=1e-6)


def test_teacher_forced_offset_masked_after_end(dec_cfg, dec_store):
    rng = np.random.default_rng(5)
    B, T = 2, 8
    targets = batch_targets(rng, B, T)
    targets[:, 4] = [0, 0, 0, 0, 1]  # end at step 4
    targets[:, 5:] = [0, 0, 0, 0, 1]
    z = np.zeros((B, dec_cfg.z_dim))
    base, _ = ls.teacher_forced_nll(targets, z, dec_store, dec_cfg)
    # a wild offset in the last post-end row never feeds the next input,
    # so if the offset mask works the loss cannot move
    wild = targets.copy()
    wild[:, T - 1, :2] = 1e6
    loss_wild, _ = ls.teacher_forced_nll(wild, z, dec_store, dec_cfg)
    assert loss_wild == pytest.approx(base, rel=1e-9)
    # the same offset before the end step must move it
    moved = targets.copy()
    moved[:, 2, :2] = 50.0
    loss_moved, _ = ls.teacher_forced_nll(moved, z, dec_store, dec_cfg)
    assert loss_moved != pytest.approx(base, rel=1e-6)


def test_teacher_forced_normalizes_by_n_max(dec_cfg, dec_store):
    rng = np.random.default_rng(6)
    targets = batch_targets(rng, 2, 5)
    z = np.zeros((2, dec_cfg.z_dim))
    import dataclasses
    loss_a, _ = ls.teacher_forced_nll(targets, z, dec_store, dec_cfg)
    wide = dataclasses.replace(dec_cfg, n_max=2 * dec_cfg.n_max)
    loss_b, _ = ls.teacher_forced_nll(targets, z, dec_store, wide)
    assert loss_a == pytest.approx(2.0 * loss_b, rel=1e-6)
