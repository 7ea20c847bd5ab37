"""Generative stroke decoder: LSTM conditioned on z with a mixture-density head.

Each step consumes [previous stroke-5 row, z], updates the LSTM state and
emits a length 6M+3 vector that parameterizes M bivariate Gaussians over
the next offset (weights, means, deviations, correlations) plus a 3-way
pen-state categorical. Training minimizes the negative log-likelihood of
the target strokes under that distribution; there is no KL term, the
latent stays stochastic through the reparameterization alone.

Backward passes are hand-written (full backprop through time); caches
from the forward run carry the needed intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, log_softmax, logsumexp

from .errors import NumericalUnderflow, OutOfRange, ShapeMismatch
from .params import ParameterStore
from .sketch_data import PEN_END, VectorSketch

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

    def to_dict(self) -> dict:
        return dict(self.__dict__)

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


def _lstm_cell(x, h, c, store: ParameterStore):
    """One LSTM step; returns (h', c', gate cache)."""
    hs = h.shape[-1]
    a = x @ store["dec.lstm.Wx"] + h @ store["dec.lstm.Wh"] + store["dec.lstm.b"]
    i = expit(a[..., :hs])
    f = expit(a[..., hs : 2 * hs])
    g = np.tanh(a[..., 2 * hs : 3 * hs])
    o = expit(a[..., 3 * hs :])
    c_new = f * c + i * g
    tc = np.tanh(c_new)
    return o * tc, c_new, (i, f, g, o, c, tc)


def _head(Y: np.ndarray, M: int):
    """Split and activate (..., 6M+3) head outputs.

    Returns (log_pi, mu_x, mu_y, log_sx, log_sy, rho, s, pen_logp): mixture
    log-weights, means, log-deviations, correlations, the floored
    s = max(1 - rho^2, RHO_S_FLOOR) and pen log-probabilities.
    """
    rho = np.tanh(Y[..., 5 * M : 6 * M])
    return (log_softmax(Y[..., :M], axis=-1), Y[..., M : 2 * M], Y[..., 2 * M : 3 * M],
            Y[..., 3 * M : 4 * M], Y[..., 4 * M : 5 * M], rho,
            np.maximum(1.0 - rho * rho, RHO_S_FLOOR), log_softmax(Y[..., 6 * M :], axis=-1))


def _draw(logits: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF categorical draw; a zero-probability category is never drawn."""
    cdf = np.cumsum(np.exp(logits - logits.max()))
    if not cdf[-1] >= 1.0:  # NaN from a non-finite head
        raise NumericalUnderflow("non-finite mixture or pen logits")
    return int(np.searchsorted(cdf, rng.random() * cdf[-1], side="right"))


def _sample(head, tau: float, rng: np.random.Generator):
    """Draw (dx, dy, pen) from one step's activated head at temperature tau.

    Mixture and pen log-probabilities are divided by tau and deviations
    scaled by sqrt(tau). The correlated part uses sqrt(s), the floor the
    training loss uses, so a saturated correlation still samples.
    """
    log_pi, mu_x, mu_y, lsx, lsy, rho, s, pen_logp = head
    j = _draw(log_pi / tau, rng)
    u, v = rng.standard_normal(2)
    root_tau = np.sqrt(tau)
    dx = mu_x[j] + np.exp(lsx[j]) * root_tau * u
    dy = mu_y[j] + np.exp(lsy[j]) * root_tau * (rho[j] * u + np.sqrt(s[j]) * v)
    return dx, dy, _draw(pen_logp / tau, rng)


def generate(z: np.ndarray, store: ParameterStore, cfg: DecoderConfig,
             rng: np.random.Generator) -> VectorSketch:
    """Autoregressive rollout from the start token (0, 0, down) at cfg.temperature.

    Runs in the store's dtype. Stops at the first sampled pen=end; hitting
    the n_max cap forces the final step's pen to end so the output always
    satisfies the sketch invariants. Offsets are scaled back to pixels by
    cfg.offset_scale.
    """
    dtype = store["dec.head.W"].dtype
    z = np.asarray(z, dtype=dtype).reshape(-1)
    if z.shape[0] != cfg.z_dim:
        raise ShapeMismatch(f"z has {z.shape[0]} entries, want {cfg.z_dim}")
    h, c = init_state(z, store)
    x = np.concatenate([START_ROW.astype(dtype), z])
    steps = np.zeros((cfg.n_max, 3))
    for n in range(cfg.n_max):
        h, c, _ = _lstm_cell(x, h, c, store)
        head = _head(h @ store["dec.head.W"] + store["dec.head.b"], cfg.M)
        dx, dy, pen = _sample(head, cfg.temperature, rng)
        steps[n] = dx, dy, pen
        x[:5] = dx, dy, 0.0, 0.0, 0.0
        x[2 + pen] = 1.0
        if pen == PEN_END:
            break
    steps = steps[: n + 1]
    steps[-1, 2] = PEN_END  # a rollout truncated by the cap ends here
    steps[:, :2] *= cfg.offset_scale
    return VectorSketch(steps)


def _offset_mask(targets: np.ndarray) -> np.ndarray:
    """1.0 up to and including the end step, 0.0 after (per sequence)."""
    pen_idx = np.argmax(targets[:, :, 2:5], axis=2)
    is_end = pen_idx == PEN_END
    has_end = is_end.any(axis=1)
    first_end = np.where(has_end, is_end.argmax(axis=1), targets.shape[1] - 1)
    t_idx = np.arange(targets.shape[1])
    return (t_idx[None, :] <= first_end[:, None]).astype(targets.dtype)


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
    X = np.concatenate([x_prev, np.broadcast_to(z[:, None, :], (B, T, cfg.z_dim))], axis=2)
    X = np.ascontiguousarray(X, dtype=dtype)

    s_init = np.tanh(z @ store["dec.init.W"] + store["dec.init.b"])
    h, c = s_init[:, :hs], s_init[:, hs:]
    h0 = h
    H = np.empty((B, T, hs), dtype=dtype)
    H_prev = np.empty((B, T, hs), dtype=dtype)
    gates = np.empty((B, T, 4 * hs), dtype=dtype)
    C_prev = np.empty((B, T, hs), dtype=dtype)
    TC = np.empty((B, T, hs), dtype=dtype)
    for t in range(T):
        H_prev[:, t] = h
        h, c, (i, f, g, o, c_prev, tc) = _lstm_cell(X[:, t], h, c, store)
        H[:, t] = h
        gates[:, t, :hs] = i
        gates[:, t, hs : 2 * hs] = f
        gates[:, t, 2 * hs : 3 * hs] = g
        gates[:, t, 3 * hs :] = o
        C_prev[:, t] = c_prev
        TC[:, t] = tc

    Y = H.reshape(B * T, hs) @ store["dec.head.W"] + store["dec.head.b"]
    Y = Y.reshape(B, T, cfg.head_width)

    log_pi, mu_x, mu_y, lsx, lsy, rho, s, pen_logp = _head(Y, M)
    sx, sy = np.exp(lsx), np.exp(lsy)
    zx = (targets[:, :, 0:1] - mu_x) / sx
    zy = (targets[:, :, 1:2] - mu_y) / sy
    q = zx * zx - 2.0 * rho * zx * zy + zy * zy
    log_n = -(LOG_2PI + lsx + lsy + 0.5 * np.log(s)) - q / (2.0 * s)
    comp = log_pi + log_n
    lse = logsumexp(comp, axis=-1)

    off_mask = _offset_mask(targets)
    pen_target = np.argmax(targets[:, :, 2:5], axis=2)
    pen_nll = -np.take_along_axis(pen_logp, pen_target[:, :, None], axis=2)[:, :, 0]
    loss = float((-(lse) * off_mask).sum() + pen_nll.sum()) / (B * cfg.n_max)

    cache = {
        "targets": targets, "X": X, "H": H, "H_prev": H_prev, "gates": gates,
        "C_prev": C_prev, "TC": TC, "Y": Y, "log_pi": log_pi, "comp": comp,
        "lse": lse, "zx": zx, "zy": zy, "sx": sx, "sy": sy, "rho": rho, "s": s,
        "q": q, "pen_logp": pen_logp, "pen_target": pen_target,
        "off_mask": off_mask, "s_init": s_init, "z": z, "h0": h0, "B": B, "T": T,
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
    dY[:, :, :M] = (pi - resp) * w
    # d log N / d(mu, log sigma, rho_raw); the tanh factor 1 - rho^2 = s
    # is folded into the rho_raw formula already
    gx = (zx - rho * zy) / s
    gy = (zy - rho * zx) / s
    dY[:, :, M : 2 * M] = -resp * gx / sx * w
    dY[:, :, 2 * M : 3 * M] = -resp * gy / sy * w
    dY[:, :, 3 * M : 4 * M] = resp * (1.0 - zx * gx) * w
    dY[:, :, 4 * M : 5 * M] = resp * (1.0 - zy * gy) * w
    dY[:, :, 5 * M : 6 * M] = -resp * (rho + zx * zy - rho * q / s) * w
    pen_onehot = np.zeros((B, T, 3), dtype=dtype)
    np.put_along_axis(pen_onehot, cache["pen_target"][:, :, None], 1.0, axis=2)
    dY[:, :, 6 * M :] = (np.exp(cache["pen_logp"]) - pen_onehot) / (B * cfg.n_max)

    dY2 = dY.reshape(B * T, cfg.head_width)
    grads["dec.head.W"] += cache["H"].reshape(B * T, hs).T @ dY2
    grads["dec.head.b"] += dY2.sum(axis=0)
    dH = (dY2 @ store["dec.head.W"].T).reshape(B, T, hs)

    gates, C_prev, TC = cache["gates"], cache["C_prev"], cache["TC"]
    dA = np.empty((B, T, 4 * hs), dtype=dtype)
    dh_next = np.zeros((B, hs), dtype=dtype)
    dc_next = np.zeros((B, hs), dtype=dtype)
    Wh = store["dec.lstm.Wh"]
    for t in range(T - 1, -1, -1):
        i = gates[:, t, :hs]
        f = gates[:, t, hs : 2 * hs]
        g = gates[:, t, 2 * hs : 3 * hs]
        o = gates[:, t, 3 * hs :]
        tc = TC[:, t]
        dh = dH[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        dA[:, t, :hs] = dc * g * i * (1.0 - i)
        dA[:, t, hs : 2 * hs] = dc * C_prev[:, t] * f * (1.0 - f)
        dA[:, t, 2 * hs : 3 * hs] = dc * i * (1.0 - g * g)
        dA[:, t, 3 * hs :] = do * o * (1.0 - o)
        dh_next = dA[:, t] @ Wh.T
        dc_next = dc * f

    dA2 = dA.reshape(B * T, 4 * hs)
    grads["dec.lstm.Wx"] += cache["X"].reshape(B * T, -1).T @ dA2
    grads["dec.lstm.Wh"] += cache["H_prev"].reshape(B * T, hs).T @ dA2
    grads["dec.lstm.b"] += dA2.sum(axis=0)
    dX = (dA2 @ store["dec.lstm.Wx"].T).reshape(B, T, 5 + cfg.z_dim)
    dz = dX[:, :, 5:].sum(axis=1)

    # initial state: (h0, c0) = tanh(z W + b)
    ds_init = np.concatenate([dh_next, dc_next], axis=1) * (1.0 - cache["s_init"] ** 2)
    grads["dec.init.W"] += cache["z"].T @ ds_init
    grads["dec.init.b"] += ds_init.sum(axis=0)
    dz += ds_init @ store["dec.init.W"].T
    return dz
