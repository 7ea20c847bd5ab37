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

The rollout folds the sampled stroke and z's share into one recurrent
product per step, [h, 1, dx, dy, onehot(pen)] W, and the head's bias into
one [h', 1] product, in the store's dtype, with every buffer allocated
once. Its randomness is drawn up front (see _rollout_noise), and each step
draws the component and the pen state by Gumbel-max, an exact draw from
softmax(logits / tau), in float64 on the head's values.

Backward passes are hand-written (full backprop through time); caches
from the forward run carry the needed intermediates.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import MalformedRecord, NumericalUnderflow, OutOfRange, ShapeMismatch
from .params import ParameterStore, draw_params
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
        if not (self.temperature > 0.0 and self.offset_scale > 0.0):  # NaN fails too
            raise OutOfRange("temperature and offset_scale must be positive")

    @property
    def head_width(self) -> int:
        return 6 * self.M + 3


def decoder_layout(cfg: DecoderConfig) -> list:
    """The decoder's rows (name, shape, trainable, draw) in draw order (params.draw_params)."""
    h, w = cfg.hidden_size, cfg.head_width
    return [("dec.init.W", (cfg.z_dim, 2 * h), True, "glorot"),
            ("dec.init.b", (2 * h,), True, "zeros"),
            ("dec.lstm.Wx", (5 + cfg.z_dim, 4 * h), True, "glorot"),
            ("dec.lstm.Wh", (h, 4 * h), True, "glorot"),
            ("dec.lstm.b", (4 * h,), True, "forget"),
            ("dec.head.W", (h, w), True, "glorot"), ("dec.head.b", (w,), True, "zeros")]


def init_decoder_params(cfg: DecoderConfig, rng: np.random.Generator,
                        dtype=np.float32) -> ParameterStore:
    """Fresh decoder parameters in a new store, in the layout's draw order."""
    return draw_params(decoder_layout(cfg), rng, dtype, ParameterStore())


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


def _lstm_cell(pre, c, c_out, tc_out, h_out):
    """One LSTM step from the prescaled pre-activation pre = (h W_h + x W_x + b) s.

    Activates pre in place into the i, f, g, o gate blocks side by side, all
    four from one tanh(pre) s + (1 - s) pass, and writes c' into c_out (which
    may be c), tanh(c') into tc_out and h' into h_out.
    """
    hs = c.shape[-1]
    s, one_minus = _gate_scale(hs, pre.dtype)
    np.tanh(pre, out=pre)
    pre *= s
    pre += one_minus
    i, f = pre[..., :hs], pre[..., hs : 2 * hs]
    g, o = pre[..., 2 * hs : 3 * hs], pre[..., 3 * hs :]
    np.multiply(i, g, out=tc_out)
    np.multiply(f, c, out=c_out)
    c_out += tc_out  # f c + i g
    np.tanh(c_out, out=tc_out)
    np.multiply(o, tc_out, out=h_out)


def log_softmax(x: np.ndarray) -> np.ndarray:
    """(x - max) - log(sum(exp(x - max))) along the last axis, as scipy 1.17.1
    computes it; a non-finite max is taken as 0."""
    x_max = x.max(axis=-1, keepdims=True)
    x_max[~np.isfinite(x_max)] = 0
    tmp = x - x_max
    with np.errstate(divide="ignore"):
        return tmp - np.log(np.exp(tmp).sum(axis=-1, keepdims=True))


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) along the last axis, as scipy 1.17.1 computes it:
    the k entries equal to the max leave the sum, giving log1p(sum(exp(a -
    max)) / k) + log(k) + max; where that is not finite, log(sum(exp(a)))."""
    a_max = a.max(axis=-1, keepdims=True)
    at_max = a == a_max
    k = at_max.sum(axis=-1, keepdims=True, dtype=a.dtype)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.exp(np.where(at_max, -np.inf, a) - a_max).sum(axis=-1, keepdims=True)
        out = np.log1p(np.where(s == 0, s, s / k)) + np.log(k) + a_max
        if not np.isfinite(out).all():
            out = np.where(np.isfinite(out), out, np.log(np.exp(a).sum(axis=-1, keepdims=True)))
    return out[..., 0]


def _columns(Y: np.ndarray, M: int):
    """Views (logits, mu_x, mu_y, log_sx, log_sy, rho_raw, pen_logits) of (..., 6M+3) outputs."""
    return (Y[..., :M], Y[..., M : 2 * M], Y[..., 2 * M : 3 * M], Y[..., 3 * M : 4 * M],
            Y[..., 4 * M : 5 * M], Y[..., 5 * M : 6 * M], Y[..., 6 * M :])


def _head(Y: np.ndarray, M: int):
    """Activated (log_pi, mu_x, mu_y, log_sx, log_sy, rho, s, pen_logp) of (..., 6M+3) outputs."""
    logits, mu_x, mu_y, lsx, lsy, rho_raw, pen_logits = _columns(Y, M)
    rho = np.tanh(rho_raw)
    return (log_softmax(logits), mu_x, mu_y, lsx, lsy, rho,
            np.maximum(1.0 - rho * rho, RHO_S_FLOOR), log_softmax(pen_logits))


def _rollout_columns(A: np.ndarray, M: int) -> np.ndarray:
    """A copy of (..., 6M+3) head columns in the rollout's order: mixture
    logits, pen logits, then mu_x, mu_y, log_sx, log_sy, rho_raw blocks."""
    return np.concatenate([A[..., :M], A[..., 6 * M :], A[..., M : 6 * M]], axis=-1)


def _rollout_noise(rng: np.random.Generator, n: int, M: int, tau: float):
    """A rollout's randomness: (n, M + 3) Gumbel noise -log(E) scaled by tau,
    then a list of n pairs of standard normals scaled by sqrt(tau)."""
    g = rng.standard_exponential((n, M + 3))
    np.maximum(g, np.finfo(g.dtype).tiny, out=g)  # a zero draw would give log(0)
    np.log(g, out=g)
    g *= -tau
    return g, (math.sqrt(tau) * rng.standard_normal((n, 2))).tolist()


def _sample(y: np.ndarray, gumbel: np.ndarray, normal, M: int, buf: np.ndarray):
    """Draw (dx, dy, pen) from one step's head output y, in rollout column
    order, with one row of _rollout_noise.

    Gumbel-max: argmax(logits + tau G) over buf = y[:M + 3] + gumbel, in
    float64, draws from softmax(logits / tau); a non-finite pick (NaN or
    +inf anywhere, or all -inf) raises, and so does a deviation beyond the
    float range. Only the drawn component's correlation is activated, with
    the training loss's floor, so a saturated correlation still samples.
    """
    np.add(y[: M + 3], gumbel, out=buf)
    j, pen = int(buf[:M].argmax()), int(buf[M:].argmax())
    if not (math.isfinite(buf.item(j)) and math.isfinite(buf.item(M + pen))):
        raise NumericalUnderflow("non-finite mixture or pen logits")
    mu_x, mu_y, lsx, lsy, rho = y[M + 3 + j :: M].tolist()
    rho = math.tanh(rho)
    u, v = normal
    try:
        dx = mu_x + math.exp(lsx) * u
        dy = mu_y + math.exp(lsy) * (rho * u + math.sqrt(max(1.0 - rho * rho, RHO_S_FLOOR)) * v)
    except OverflowError:
        raise NumericalUnderflow("a mixture deviation overflows a float") from None
    return dx, dy, pen


def generate(z: np.ndarray, store: ParameterStore, cfg: DecoderConfig,
             rng: np.random.Generator) -> VectorSketch:
    """Autoregressive rollout from the start token (0, 0, down) at cfg.temperature.

    Runs in the store's dtype. Each step is one product v W of the row
    v = [h, 1, dx, dy, onehot(pen)] with W = [W_h; z W_x[5:] + b; W_x[:5]],
    gate-prescaled once per rollout, then [h', 1] times the head's weights
    over its bias, and one _sample draw. Stops at the first sampled pen=end;
    hitting the n_max cap forces the final step's pen to end so the output
    always satisfies the pen invariants. Offsets are scaled back to pixels
    by cfg.offset_scale; a sketch that then breaks an offset invariant, and
    so cannot be drawn, raises NumericalUnderflow.
    """
    dtype = store["dec.head.W"].dtype
    z = np.asarray(z, dtype=dtype).reshape(-1)
    if z.shape[0] != cfg.z_dim:
        raise ShapeMismatch(f"z has {z.shape[0]} entries, want {cfg.z_dim}")
    Wx, Wh = store["dec.lstm.Wx"], store["dec.lstm.Wh"]
    M, hs = cfg.M, Wh.shape[0]
    W = np.concatenate([Wh, (z @ Wx[5:] + store["dec.lstm.b"])[None], Wx[:5]])
    W *= _gate_scale(hs, dtype)[0]
    W_head = _rollout_columns(np.vstack([store["dec.head.W"], store["dec.head.b"]]), M)
    gumbel, normal = _rollout_noise(rng, cfg.n_max, M, cfg.temperature)
    v = np.zeros(hs + 6, dtype=dtype)
    h, h1, x = v[:hs], v[: hs + 1], v[hs:]
    h[:], c = init_state(z, store)
    x[[0, 3 + PEN_DOWN]] = 1.0  # the constant 1 and the start token (0, 0, down)
    gates, tc = np.empty(4 * hs, dtype=dtype), np.empty(hs, dtype=dtype)
    y, buf = np.empty(cfg.head_width, dtype=dtype), np.empty(M + 3)
    steps = []
    for t in range(cfg.n_max):
        _lstm_cell(np.matmul(v, W, out=gates), c, c, tc, h)
        dx, dy, pen = _sample(np.matmul(h1, W_head, out=y), gumbel[t], normal[t], M, buf)
        steps.append((dx, dy, pen))
        if pen == PEN_END:
            break
        x[:] = 1.0, dx, dy, 0.0, 0.0, 0.0
        x[3 + pen] = 1.0
    steps = np.array(steps, dtype=float)
    steps[-1, 2] = PEN_END  # a rollout truncated by the cap ends here
    with np.errstate(over="ignore"):  # checked just below
        steps[:, :2] *= cfg.offset_scale
    sketch = VectorSketch(steps)
    # offsets this small keep every invariant; only larger ones need the full check
    if not np.abs(steps[:, :2]).max() * len(steps) < sys.float_info.max / 4:
        try:
            sketch.validate()
        except MalformedRecord as exc:
            raise NumericalUnderflow(f"the sampled sketch cannot be drawn: {exc}") from None
    return sketch


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
    tc = np.empty((B, hs), dtype=dtype)  # tanh(c'), which backward recomputes
    for t in range(T):
        gates[:, t] += H[:, t] @ Wh
        _lstm_cell(gates[:, t], C[:, t], C[:, t + 1], tc, H[:, t + 1])

    Y = H[:, 1:] @ store["dec.head.W"] + store["dec.head.b"]

    log_pi, mu_x, mu_y, lsx, lsy, rho, s, pen_logp = _head(Y, M)
    sx, sy = np.exp(lsx), np.exp(lsy)
    zx = (targets[:, :, 0:1] - mu_x) / sx
    zy = (targets[:, :, 1:2] - mu_y) / sy
    q = zx * zx - 2.0 * rho * zx * zy + zy * zy
    log_n = -(LOG_2PI + lsx + lsy + 0.5 * np.log(s)) - q / (2.0 * s)
    comp = log_pi + log_n
    lse = logsumexp(comp)

    pen_target = np.argmax(targets[:, :, 2:5], axis=2)
    is_end = pen_target == PEN_END
    # offsets count up to and including each sequence's first end step
    off_mask = (np.cumsum(is_end, axis=1) - is_end == 0).astype(targets.dtype)
    pen_nll = -np.take_along_axis(pen_logp, pen_target[:, :, None], axis=2)[:, :, 0]
    loss = float((-(lse) * off_mask).sum() + pen_nll.sum()) / (B * cfg.n_max)

    cache = {
        "x_prev": x_prev, "H": H, "C": C, "gates": gates,
        "Y": Y, "log_pi": log_pi, "comp": comp, "lse": lse, "zx": zx, "zy": zy, "sx": sx,
        "sy": sy, "rho": rho, "s": s, "q": q, "pen_logp": pen_logp, "pen_target": pen_target,
        "off_mask": off_mask, "z": z, "B": B, "T": T,
    }
    return loss, cache


def teacher_forced_backward(cache: dict, store: ParameterStore, cfg: DecoderConfig,
                            grads: dict) -> np.ndarray:
    """Backprop through head, LSTM and initial state; returns dloss/dz (B, z_dim).

    Consumes the cache: the mixture terms leave it once dY is formed, and
    each step's gate derivatives dA are written over its activated gates.
    """
    M, hs = cfg.M, cfg.hidden_size
    B, T = cache["B"], cache["T"]
    zx, zy, sx, sy, rho, s, q = (cache.pop(k) for k in ("zx", "zy", "sx", "sy", "rho", "s", "q"))
    dtype = store["dec.head.W"].dtype

    w = (cache["off_mask"] / (B * cfg.n_max))[:, :, None].astype(dtype)
    resp = np.exp(cache.pop("comp") - cache.pop("lse")[:, :, None])  # responsibilities
    pi = np.exp(cache.pop("log_pi"))

    dY = np.empty_like(cache.pop("Y"))
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
    d_pen[...] = (np.exp(cache.pop("pen_logp")) - pen_onehot) / (B * cfg.n_max)
    del zx, zy, sx, sy, rho, s, q, resp, pi, gx, gy, w, pen_onehot

    dY2 = dY.reshape(B * T, cfg.head_width)
    grads["dec.head.W"] += cache["H"][:, 1:].reshape(B * T, hs).T @ dY2
    grads["dec.head.b"] += dY2.sum(axis=0)
    dH = (dY2 @ store["dec.head.W"].T).reshape(B, T, hs)

    dA, C = cache["gates"], cache["C"]  # dA[:, t] is written over step t's gates
    dh_next = np.zeros((B, hs), dtype=dtype)
    dc_next = np.zeros((B, hs), dtype=dtype)
    WhT = np.ascontiguousarray(store["dec.lstm.Wh"].T)
    for t in range(T - 1, -1, -1):
        i, f, g, o = (dA[:, t, k * hs : (k + 1) * hs] for k in range(4))
        tc = np.tanh(C[:, t + 1])  # the forward's ufunc on the same values: the same bits
        dh = dH[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        d_i = dc * g * i * (1.0 - i)
        dc_next = dc * f
        f[...] = dc * C[:, t] * f * (1.0 - f)
        g[...] = dc * i * (1.0 - g * g)
        i[...] = d_i
        o[...] = do * o * (1.0 - o)
        dh_next = dA[:, t] @ WhT
    del dH

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
