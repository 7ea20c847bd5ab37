"""Generative stroke decoder: LSTM conditioned on z with a mixture-density head.

Each step consumes [previous stroke-5 row, z], updates the LSTM state and
emits a length 6M+3 vector that parameterizes M bivariate Gaussians over
the next offset (weights, means, deviations, correlations) plus a 3-way
pen-state categorical. Training minimizes the negative log-likelihood of
the target strokes under that distribution; there is no KL term, the
latent stays stochastic through the reparameterization alone.

Both paths split the input projection [x, z] W_x + b into the stroke
row's share and z's share, computing the latter once per sequence, and
share one LSTM cell. The cell activates all four gate blocks in one tanh
pass: sigmoid(a) = 1/2 + tanh(a/2)/2 on the i, f and o blocks, tanh on g.
The halving is folded into W_h, W_x and b once per call; scaling by a
power of two is exact, so training's loss and gradients keep their bits.

The rollout folds the sampled stroke into the recurrent product: each
step is one [h, dx, dy, onehot(pen)] row times a stacked matrix that
carries z's share in its pen rows, in the store's dtype. Float32 rollouts
therefore round differently from versions that added the stroke's share
after h W_h. Sampling draws mixture components and pen states by inverse
CDF over the tempered logits and activates only the drawn component, all
in float64 on the head's values.

Backward passes are hand-written (full backprop through time); caches
from the forward run carry the needed intermediates.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import log_softmax, logsumexp

from .errors import NumericalUnderflow, OutOfRange, ShapeMismatch
from .params import ParameterStore
from .sketch_data import PEN_DOWN, PEN_END, VectorSketch

LOG_2PI = float(np.log(2.0 * np.pi))
# floor for 1 - rho^2 so the density stays finite if tanh saturates
RHO_S_FLOOR = 1e-10

START_ROW = np.array([0.0, 0.0, 1.0, 0.0, 0.0])


@dataclass
class DecoderConfig:
    hidden_size: int = 512
    M: int = 20
    n_max: int = 200
    temperature: float = 0.4
    z_dim: int = 128
    # dataset offset scale: targets are divided by it, samples multiplied back
    offset_scale: float = 1.0

    def __post_init__(self):
        if self.M < 1 or self.n_max < 1 or self.hidden_size < 1 or self.z_dim < 1:
            raise OutOfRange("hidden_size, M, n_max and z_dim must be >= 1")
        if self.temperature <= 0.0 or self.offset_scale <= 0.0:
            raise OutOfRange("temperature and offset_scale must be positive")

    @property
    def head_width(self) -> int:
        return 6 * self.M + 3


def init_decoder_params(cfg: DecoderConfig, rng: np.random.Generator,
                        dtype=np.float32, store: ParameterStore | None = None) -> ParameterStore:
    from .encoder import glorot  # shared init helper

    if store is None:
        store = ParameterStore()
    h = cfg.hidden_size
    store.add("dec.init.W", glorot(rng, (cfg.z_dim, 2 * h), dtype))
    store.add("dec.init.b", np.zeros(2 * h, dtype=dtype))
    store.add("dec.lstm.Wx", glorot(rng, (5 + cfg.z_dim, 4 * h), dtype))
    store.add("dec.lstm.Wh", glorot(rng, (h, 4 * h), dtype))
    b = np.zeros(4 * h, dtype=dtype)
    b[h : 2 * h] = 1.0  # forget-gate bias
    store.add("dec.lstm.b", b)
    store.add("dec.head.W", glorot(rng, (h, cfg.head_width), dtype))
    store.add("dec.head.b", np.zeros(cfg.head_width, dtype=dtype))
    return store


def init_state(z: np.ndarray, store: ParameterStore):
    """(h0, c0) = split(Tanh(z W_z + b_z)); both inside (-1, 1)."""
    s = np.tanh(z @ store["dec.init.W"] + store["dec.init.b"])
    h = store["dec.init.W"].shape[1] // 2
    return s[..., :h], s[..., h:]


@functools.lru_cache(maxsize=None)
def _gate_scale(hs: int, dtype: np.dtype):
    """Read-only (s, 1 - s) with s = 1/2 on the i, f, o blocks and 1 on g."""
    s = np.full(4 * hs, 0.5, dtype=dtype)
    s[2 * hs : 3 * hs] = 1.0
    one_minus = 1.0 - s
    s.flags.writeable = one_minus.flags.writeable = False
    return s, one_minus


def _lstm_cell(pre, c, h_out):
    """One LSTM step from the prescaled pre-activation pre = (h W_h + x W_x + b) s.

    Activates pre in place into the i, f, g, o gate blocks side by side, all
    four from one tanh(pre) s + (1 - s) pass, writes h' into h_out and
    returns (c', tanh(c')).
    """
    hs = c.shape[-1]
    s, one_minus = _gate_scale(hs, pre.dtype)
    np.tanh(pre, out=pre)
    pre *= s
    pre += one_minus
    i, f = pre[..., :hs], pre[..., hs : 2 * hs]
    g, o = pre[..., 2 * hs : 3 * hs], pre[..., 3 * hs :]
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    np.multiply(o, tc, out=h_out)
    return c_new, tc


def _columns(Y: np.ndarray, M: int):
    """Views (logits, mu_x, mu_y, log_sx, log_sy, rho_raw, pen_logits) of (..., 6M+3) outputs."""
    return (Y[..., :M], Y[..., M : 2 * M], Y[..., 2 * M : 3 * M], Y[..., 3 * M : 4 * M],
            Y[..., 4 * M : 5 * M], Y[..., 5 * M : 6 * M], Y[..., 6 * M :])


def _head(Y: np.ndarray, M: int):
    """Activated (log_pi, mu_x, mu_y, log_sx, log_sy, rho, s, pen_logp) of (..., 6M+3) outputs."""
    logits, mu_x, mu_y, lsx, lsy, rho_raw, pen_logits = _columns(Y, M)
    rho = np.tanh(rho_raw)
    return (log_softmax(logits, axis=-1), mu_x, mu_y, lsx, lsy, rho,
            np.maximum(1.0 - rho * rho, RHO_S_FLOOR), log_softmax(pen_logits, axis=-1))


def _draw(logits: list, tau: float, rng: np.random.Generator) -> int:
    """Inverse-CDF categorical draw from softmax(logits / tau), in Python floats.

    A category whose tempered weight vanishes against the running sum has
    an empty CDF interval and is never drawn.
    """
    top = max(logits)  # the top category's weight is 1, so a finite sum is >= 1
    cdf, total = [], 0.0
    for x in logits:
        total += math.exp((x - top) / tau)
        cdf.append(total)
    if not total >= 1.0:  # NaN from a non-finite head, in whichever position
        raise NumericalUnderflow("non-finite mixture or pen logits")
    return bisect.bisect_right(cdf, rng.random() * total)


def _sample(y: np.ndarray, M: int, tau: float, rng: np.random.Generator):
    """Draw (dx, dy, pen) from one step's raw head output y at temperature tau.

    Mixture and pen logits are divided by tau (softmax(log_softmax(l) / tau)
    is softmax(l / tau)) and deviations scaled by sqrt(tau). Only the drawn
    component's correlation is activated, with the floor the training loss
    uses, so a saturated correlation still samples. The arithmetic runs in
    float64 on y's values, with numpy's tanh and exp: math.tanh differs
    from np.tanh in the last place on some inputs.
    """
    y = y.tolist()
    j = _draw(y[:M], tau, rng)
    rho = np.tanh(y[5 * M + j])
    s = max(1.0 - rho * rho, RHO_S_FLOOR)
    u, v = rng.standard_normal(2).tolist()
    root_tau = math.sqrt(tau)
    dx = y[M + j] + np.exp(y[3 * M + j]) * root_tau * u
    dy = y[2 * M + j] + np.exp(y[4 * M + j]) * root_tau * (rho * u + math.sqrt(s) * v)
    return dx, dy, _draw(y[6 * M :], tau, rng)


def generate(z: np.ndarray, store: ParameterStore, cfg: DecoderConfig,
             rng: np.random.Generator) -> VectorSketch:
    """Autoregressive rollout from the start token (0, 0, down) at cfg.temperature.

    Runs in the store's dtype. Each step is one product v W of the row
    v = [h, dx, dy, onehot(pen)] with W = [W_h; W_x[0]; W_x[1]; W_x[2:5] +
    z W_x[5:] + b], gate-prescaled once per rollout. Stops at the first
    sampled pen=end; hitting the n_max cap forces the final step's pen to
    end so the output always satisfies the sketch invariants. Offsets are
    scaled back to pixels by cfg.offset_scale.
    """
    dtype = store["dec.head.W"].dtype
    z = np.asarray(z, dtype=dtype).reshape(-1)
    if z.shape[0] != cfg.z_dim:
        raise ShapeMismatch(f"z has {z.shape[0]} entries, want {cfg.z_dim}")
    Wx, Wh = store["dec.lstm.Wx"], store["dec.lstm.Wh"]
    W_head, b_head = store["dec.head.W"], store["dec.head.b"]
    hs = Wh.shape[0]
    W = np.concatenate([Wh, Wx[:2], Wx[2:5] + (z @ Wx[5:] + store["dec.lstm.b"])])
    W *= _gate_scale(hs, dtype)[0]
    v = np.zeros(hs + 5, dtype=dtype)
    h, x = v[:hs], v[hs:]
    h[:], c = init_state(z, store)
    x[2 + PEN_DOWN] = 1.0  # the start token (0, 0, down)
    gates = np.empty(4 * hs, dtype=dtype)
    y = np.empty(cfg.head_width, dtype=dtype)
    steps = []
    for _ in range(cfg.n_max):
        c, _ = _lstm_cell(np.matmul(v, W, out=gates), c, h)
        np.matmul(h, W_head, out=y)
        y += b_head
        dx, dy, pen = _sample(y, cfg.M, cfg.temperature, rng)
        steps.append((dx, dy, pen))
        if pen == PEN_END:
            break
        x[:] = dx, dy, 0.0, 0.0, 0.0
        x[2 + pen] = 1.0
    steps = np.array(steps, dtype=float)
    steps[-1, 2] = PEN_END  # a rollout truncated by the cap ends here
    steps[:, :2] *= cfg.offset_scale
    return VectorSketch(steps)


def teacher_forced_nll(targets: np.ndarray, z: np.ndarray, store: ParameterStore,
                       cfg: DecoderConfig):
    """Sequence NLL with teacher forcing; returns (scalar loss, cache).

    targets: (B, T, 5) stroke-5 rows (offsets already on the model scale);
    inputs are the same rows shifted right behind the start token. Offset
    terms are masked after each sequence's end step, pen terms count at
    every unrolled step, and the per-item sum is divided by cfg.n_max.
    """
    targets = np.asarray(targets)
    if targets.ndim != 3 or targets.shape[2] != 5:
        raise ShapeMismatch("targets must be (B, T, 5)")
    B, T, _ = targets.shape
    if T > cfg.n_max:
        raise ShapeMismatch(f"T={T} exceeds n_max={cfg.n_max}")
    z = np.asarray(z)
    if z.shape != (B, cfg.z_dim):
        raise ShapeMismatch(f"z {z.shape} must be ({B}, {cfg.z_dim})")
    dtype = store["dec.head.W"].dtype
    M, hs = cfg.M, cfg.hidden_size

    x_prev = np.empty((B, T, 5), dtype=dtype)
    x_prev[:, 0, :] = START_ROW
    x_prev[:, 1:, :] = targets[:, :-1, :]
    # gate prescale by a power of two: exact, so the cell sees (h W_h + x W_x + b) s
    s = _gate_scale(hs, dtype)[0]
    Wx, Wh = store["dec.lstm.Wx"] * s, store["dec.lstm.Wh"] * s
    gates = (x_prev.reshape(B * T, 5) @ Wx[:5]).reshape(B, T, 4 * hs)
    gates += (z.astype(dtype) @ Wx[5:] + store["dec.lstm.b"] * s)[:, None, :]

    H = np.empty((B, T + 1, hs), dtype=dtype)  # states before the first step and after each
    C = np.empty((B, T + 1, hs), dtype=dtype)
    H[:, 0], C[:, 0] = init_state(z, store)
    TC = np.empty((B, T, hs), dtype=dtype)
    for t in range(T):
        gates[:, t] += H[:, t] @ Wh
        C[:, t + 1], TC[:, t] = _lstm_cell(gates[:, t], C[:, t], H[:, t + 1])

    Y = H[:, 1:] @ store["dec.head.W"] + store["dec.head.b"]

    log_pi, mu_x, mu_y, lsx, lsy, rho, s, pen_logp = _head(Y, M)
    sx, sy = np.exp(lsx), np.exp(lsy)
    zx = (targets[:, :, 0:1] - mu_x) / sx
    zy = (targets[:, :, 1:2] - mu_y) / sy
    q = zx * zx - 2.0 * rho * zx * zy + zy * zy
    log_n = -(LOG_2PI + lsx + lsy + 0.5 * np.log(s)) - q / (2.0 * s)
    comp = log_pi + log_n
    lse = logsumexp(comp, axis=-1)

    pen_target = np.argmax(targets[:, :, 2:5], axis=2)
    is_end = pen_target == PEN_END
    # offsets count up to and including each sequence's first end step
    off_mask = (np.cumsum(is_end, axis=1) - is_end == 0).astype(targets.dtype)
    pen_nll = -np.take_along_axis(pen_logp, pen_target[:, :, None], axis=2)[:, :, 0]
    loss = float((-(lse) * off_mask).sum() + pen_nll.sum()) / (B * cfg.n_max)

    cache = {
        "targets": targets, "x_prev": x_prev, "H": H, "C": C, "gates": gates, "TC": TC,
        "Y": Y, "log_pi": log_pi, "comp": comp, "lse": lse, "zx": zx, "zy": zy, "sx": sx,
        "sy": sy, "rho": rho, "s": s, "q": q, "pen_logp": pen_logp, "pen_target": pen_target,
        "off_mask": off_mask, "z": z, "B": B, "T": T,
    }
    return loss, cache


def teacher_forced_backward(cache: dict, store: ParameterStore, cfg: DecoderConfig,
                            grads: dict) -> np.ndarray:
    """Backprop through head, LSTM and initial state; returns dloss/dz (B, z_dim)."""
    M, hs = cfg.M, cfg.hidden_size
    B, T = cache["B"], cache["T"]
    zx, zy, sx, sy = cache["zx"], cache["zy"], cache["sx"], cache["sy"]
    rho, s, q = cache["rho"], cache["s"], cache["q"]
    dtype = store["dec.head.W"].dtype

    w = (cache["off_mask"] / (B * cfg.n_max))[:, :, None].astype(dtype)
    resp = np.exp(cache["comp"] - cache["lse"][:, :, None])  # responsibilities
    pi = np.exp(cache["log_pi"])

    dY = np.empty_like(cache["Y"])
    d_logits, d_mu_x, d_mu_y, d_lsx, d_lsy, d_rho, d_pen = _columns(dY, M)
    d_logits[...] = (pi - resp) * w
    # d log N / d(mu, log sigma, rho_raw); the tanh factor 1 - rho^2 = s
    # is folded into the rho_raw formula already
    gx = (zx - rho * zy) / s
    gy = (zy - rho * zx) / s
    d_mu_x[...] = -resp * gx / sx * w
    d_mu_y[...] = -resp * gy / sy * w
    d_lsx[...] = resp * (1.0 - zx * gx) * w
    d_lsy[...] = resp * (1.0 - zy * gy) * w
    d_rho[...] = -resp * (rho + zx * zy - rho * q / s) * w
    pen_onehot = np.zeros((B, T, 3), dtype=dtype)
    np.put_along_axis(pen_onehot, cache["pen_target"][:, :, None], 1.0, axis=2)
    d_pen[...] = (np.exp(cache["pen_logp"]) - pen_onehot) / (B * cfg.n_max)

    dY2 = dY.reshape(B * T, cfg.head_width)
    grads["dec.head.W"] += cache["H"][:, 1:].reshape(B * T, hs).T @ dY2
    grads["dec.head.b"] += dY2.sum(axis=0)
    dH = (dY2 @ store["dec.head.W"].T).reshape(B, T, hs)

    gates, C, TC = cache["gates"], cache["C"], cache["TC"]
    dA = np.empty((B, T, 4 * hs), dtype=dtype)
    dh_next = np.zeros((B, hs), dtype=dtype)
    dc_next = np.zeros((B, hs), dtype=dtype)
    WhT = np.ascontiguousarray(store["dec.lstm.Wh"].T)
    for t in range(T - 1, -1, -1):
        i, f, g, o = (gates[:, t, k * hs : (k + 1) * hs] for k in range(4))
        tc = TC[:, t]
        dh = dH[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dA[:, t, :hs] = dc * g * i * (1.0 - i)
        dA[:, t, hs : 2 * hs] = dc * C[:, t] * f * (1.0 - f)
        dA[:, t, 2 * hs : 3 * hs] = dc * i * (1.0 - g * g)
        dA[:, t, 3 * hs :] = do * o * (1.0 - o)
        dh_next = dA[:, t] @ WhT
        dc_next = dc * f

    dA2 = dA.reshape(B * T, 4 * hs)
    dA_seq = dA.sum(axis=1)  # z's share of the projection is the same at every step
    grads["dec.lstm.Wx"][:5] += cache["x_prev"].reshape(B * T, 5).T @ dA2
    grads["dec.lstm.Wx"][5:] += cache["z"].T @ dA_seq
    grads["dec.lstm.Wh"] += cache["H"][:, :-1].reshape(B * T, hs).T @ dA2
    grads["dec.lstm.b"] += dA_seq.sum(axis=0)
    dz = dA_seq @ store["dec.lstm.Wx"][5:].T

    # initial state: (h0, c0) = tanh(z W + b)
    s_init = np.concatenate([cache["H"][:, 0], cache["C"][:, 0]], axis=1)
    ds_init = np.concatenate([dh_next, dc_next], axis=1) * (1.0 - s_init ** 2)
    grads["dec.init.W"] += cache["z"].T @ ds_init
    grads["dec.init.b"] += ds_init.sum(axis=0)
    dz += ds_init @ store["dec.init.W"].T
    return dz
