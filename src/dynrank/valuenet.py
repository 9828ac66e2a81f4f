"""Recurrent value network: stacked LSTM over (document, query) input units.

The network consumes an ordered list of input vectors (one per ranked
document, most recent last), runs them through J stacked LSTM layers,
and feeds the final hidden state of the top layer into a ReLU dense head
ending in a single scalar. Forward, exact reverse-mode gradients of the
squared regression loss, plain SGD updates and a versioned binary
checkpoint format are all implemented here on flat float64 parameter
vectors with structured views.

Conventions:
  - gate order inside stacked matrices is (forget, input, output, candidate)
  - the forward pass only sees the last ``window`` inputs
  - initial hidden/cell states are initialized like weights but frozen:
    ``apply_update`` never moves them
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np


class CheckpointError(ValueError):
    """Raised for malformed or incompatible serialized parameters."""


@dataclass(frozen=True)
class NetConfig:
    """Architecture and training hyperparameters of the value network."""

    layers: int = 3
    input_dim: int = 1024
    hidden_dims: tuple[int, ...] | None = None
    dense_dims: tuple[int, ...] | None = None
    window: int = 5
    dropout: float = 0.5
    learning_rate: float = 0.01
    output: str = "linear"  # or "sigmoid" for normalized targets
    # input conditioning: unit-norm embeddings have O(1/sqrt(dim)) entries,
    # which attenuate through the stack; sqrt(dim) restores O(1) entries
    input_scale: float = 1.0

    def __post_init__(self):
        if self.layers < 1:
            raise ValueError(f"layers must be >= 1, got {self.layers}")
        if self.input_dim < 1:
            raise ValueError(f"input_dim must be >= 1, got {self.input_dim}")
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if not 0.0 <= self.dropout < 1.0:
            raise ValueError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.learning_rate <= 0.0:
            raise ValueError(f"learning_rate must be > 0, got {self.learning_rate}")
        if self.output not in ("linear", "sigmoid"):
            raise ValueError(f"output must be 'linear' or 'sigmoid', got {self.output!r}")
        if self.input_scale <= 0.0:
            raise ValueError(f"input_scale must be > 0, got {self.input_scale}")
        if self.hidden_dims is not None:
            object.__setattr__(self, "hidden_dims", tuple(int(h) for h in self.hidden_dims))
            if len(self.hidden_dims) != self.layers:
                raise ValueError("hidden_dims length must equal layers")
            if any(h < 1 for h in self.hidden_dims):
                raise ValueError("hidden_dims must be positive")
        if self.dense_dims is not None:
            object.__setattr__(self, "dense_dims", tuple(int(w) for w in self.dense_dims))
            if any(w < 1 for w in self.dense_dims):
                raise ValueError("dense_dims must be positive")

    def resolved_hidden(self) -> tuple[int, ...]:
        if self.hidden_dims is not None:
            return self.hidden_dims
        return (self.input_dim,) * self.layers

    def resolved_dense(self) -> tuple[int, ...]:
        """Dense-head hidden widths; by default scaled down from the top hidden width."""
        if self.dense_dims is not None:
            return self.dense_dims
        h = self.resolved_hidden()[-1]
        return (h, max(h // 2, 1), max(h // 4, 1), max(h // 64, 4), max(h // 128, 4))


def config_to_dict(config: NetConfig) -> dict:
    return {
        "layers": config.layers,
        "input_dim": config.input_dim,
        "hidden_dims": list(config.hidden_dims) if config.hidden_dims is not None else None,
        "dense_dims": list(config.dense_dims) if config.dense_dims is not None else None,
        "window": config.window,
        "dropout": config.dropout,
        "learning_rate": config.learning_rate,
        "output": config.output,
        "input_scale": config.input_scale,
    }


def config_from_dict(d: dict) -> NetConfig:
    d = dict(d)
    for key in ("hidden_dims", "dense_dims"):
        if d.get(key) is not None:
            d[key] = tuple(d[key])
    return NetConfig(**d)


class _LstmLayer:
    __slots__ = ("W", "U", "b", "h0", "c0", "H", "in_dim")

    def __init__(self, W, U, b, h0, c0, H, in_dim):
        self.W, self.U, self.b, self.h0, self.c0 = W, U, b, h0, c0
        self.H, self.in_dim = H, in_dim


class _DenseLayer:
    __slots__ = ("W", "b")

    def __init__(self, W, b):
        self.W, self.b = W, b


class _Offsets:
    def __init__(self, theta):
        self.theta = theta
        self.pos = 0

    def take(self, *shape):
        size = int(np.prod(shape))
        view = self.theta[self.pos : self.pos + size].reshape(shape)
        self.pos += size
        return view


def _build_views(config: NetConfig, theta: np.ndarray):
    hidden = config.resolved_hidden()
    dense_dims = config.resolved_dense()
    off = _Offsets(theta)
    lstm = []
    frozen_spans = []
    in_dim = config.input_dim
    for H in hidden:
        W = off.take(4 * H, in_dim)
        U = off.take(4 * H, H)
        b = off.take(4 * H)
        start = off.pos
        h0 = off.take(H)
        c0 = off.take(H)
        frozen_spans.append((start, off.pos))
        lstm.append(_LstmLayer(W, U, b, h0, c0, H, in_dim))
        in_dim = H
    dense = []
    d_in = hidden[-1]
    for width in dense_dims:
        dense.append(_DenseLayer(off.take(width, d_in), off.take(width)))
        d_in = width
    dense.append(_DenseLayer(off.take(1, d_in), off.take(1)))
    return lstm, dense, off.pos, frozen_spans


def param_count(config: NetConfig) -> int:
    """Total number of parameters, initial states included."""
    total = 0
    in_dim = config.input_dim
    for H in config.resolved_hidden():
        total += 4 * H * in_dim + 4 * H * H + 4 * H + 2 * H
        in_dim = H
    d_in = config.resolved_hidden()[-1]
    for w in config.resolved_dense():
        total += w * d_in + w
        d_in = w
    return total + d_in + 1


class ValueNetParams:
    """All parameters as one flat float64 vector plus structured views."""

    def __init__(self, config: NetConfig, theta: np.ndarray):
        theta = np.asarray(theta, dtype=np.float64)
        expected = param_count(config)
        if theta.shape != (expected,):
            raise ValueError(f"theta must have shape ({expected},), got {theta.shape}")
        self.config = config
        self.theta = theta
        self.lstm, self.dense, _, self._frozen_spans = _build_views(config, theta)

    @property
    def n_params(self) -> int:
        return self.theta.size

    def with_theta(self, theta: np.ndarray) -> "ValueNetParams":
        return ValueNetParams(self.config, theta)

    def copy(self) -> "ValueNetParams":
        return ValueNetParams(self.config, self.theta.copy())

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, ValueNetParams)
            and self.config == other.config
            and np.array_equal(self.theta, other.theta)
        )


def _glorot_bound(fan_in: int, fan_out: int) -> float:
    return float(np.sqrt(6.0 / (fan_in + fan_out)))


def init_glorot(config: NetConfig, seed) -> ValueNetParams:
    """Uniform Glorot initialization of every weight, bias and initial state.

    Matrices of shape (fan_out, fan_in) use bound sqrt(6 / (fan_in + fan_out));
    gate matrices use the per-gate shape, not the stacked one. Vectors of
    length n use bound sqrt(6 / (n + 1)).
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    theta = np.empty(param_count(config), dtype=np.float64)
    params = ValueNetParams(config, theta)
    for ly in params.lstm:
        ly.W[:] = rng.uniform(-_glorot_bound(ly.in_dim, ly.H), _glorot_bound(ly.in_dim, ly.H), ly.W.shape)
        ly.U[:] = rng.uniform(-_glorot_bound(ly.H, ly.H), _glorot_bound(ly.H, ly.H), ly.U.shape)
        ly.b[:] = rng.uniform(-_glorot_bound(ly.H, 1), _glorot_bound(ly.H, 1), ly.b.shape)
        ly.h0[:] = rng.uniform(-_glorot_bound(ly.H, 1), _glorot_bound(ly.H, 1), ly.h0.shape)
        ly.c0[:] = rng.uniform(-_glorot_bound(ly.H, 1), _glorot_bound(ly.H, 1), ly.c0.shape)
    for dl in params.dense:
        fan_out, fan_in = dl.W.shape
        dl.W[:] = rng.uniform(-_glorot_bound(fan_in, fan_out), _glorot_bound(fan_in, fan_out), dl.W.shape)
        dl.b[:] = rng.uniform(-_glorot_bound(fan_out, 1), _glorot_bound(fan_out, 1), dl.b.shape)
    return params


class _StepCache:
    __slots__ = ("below", "h_prev", "c_prev", "f", "i", "o", "g", "c", "tc")

    def __init__(self, below, h_prev, c_prev, f, i, o, g, c, tc):
        self.below, self.h_prev, self.c_prev = below, h_prev, c_prev
        self.f, self.i, self.o, self.g, self.c, self.tc = f, i, o, g, c, tc


@dataclass
class ForwardCache:
    """Intermediates of one train-mode forward pass, consumed by backward."""

    params: ValueNetParams
    mode: str
    inputs: list
    steps: list  # steps[k][j] -> _StepCache
    dense: list  # (layer input, relu mask, dropout mask or None) per hidden layer
    head_in: np.ndarray
    v_pre: float
    value: float


def _sigmoid_(x: np.ndarray) -> np.ndarray:
    """Logistic sigmoid in place, as 0.5*tanh(0.5x)+0.5 (cannot overflow)."""
    x *= 0.5
    np.tanh(x, out=x)
    x *= 0.5
    x += 0.5
    return x


def _cell(ly: _LstmLayer, pre: np.ndarray, c_prev):
    """One LSTM cell step from its gate pre-activation ``pre`` (4H wide),
    which is activated in place; works for single vectors and batched rows
    alike. The returned gates are views into ``pre``."""
    H = ly.H
    _sigmoid_(pre[..., : 3 * H])  # forget, input, output
    g = pre[..., 3 * H :]
    np.tanh(g, out=g)
    f, i, o = pre[..., :H], pre[..., H : 2 * H], pre[..., 2 * H : 3 * H]
    c = f * c_prev + i * g
    tc = np.tanh(c)
    h = o * tc
    return f, i, o, g, c, tc, h


def forward(params: ValueNetParams, inputs: Sequence, mode: str = "eval", rng=None):
    """Run the network over an input sequence.

    Only the last ``window`` inputs are used. ``mode='train'`` applies
    inverted dropout to the dense-head hidden activations (``rng`` seeds
    the masks); eval mode is a pure function of (params, inputs).

    Returns (value, cache); the cache feeds :func:`backward`.
    """
    cfg = params.config
    if mode not in ("train", "eval"):
        raise ValueError(f"mode must be 'train' or 'eval', got {mode!r}")
    xs = [np.asarray(x, dtype=np.float64) for x in inputs]
    if not xs:
        raise ValueError("empty input sequence")
    xs = xs[-cfg.window :]
    for x in xs:
        if x.shape != (cfg.input_dim,):
            raise ValueError(f"input shape {x.shape} does not match input_dim {cfg.input_dim}")
    if cfg.input_scale != 1.0:
        xs = [x * cfg.input_scale for x in xs]
    use_dropout = mode == "train" and cfg.dropout > 0.0
    if use_dropout and not isinstance(rng, np.random.Generator):
        rng = np.random.default_rng(rng)

    h_prev = [ly.h0 for ly in params.lstm]
    c_prev = [ly.c0 for ly in params.lstm]
    steps = []
    for x in xs:
        below = x
        layer_caches = []
        for j, ly in enumerate(params.lstm):
            pre = below @ ly.W.T + h_prev[j] @ ly.U.T + ly.b
            f, i, o, g, c, tc, h = _cell(ly, pre, c_prev[j])
            layer_caches.append(_StepCache(below, h_prev[j], c_prev[j], f, i, o, g, c, tc))
            h_prev[j] = h
            c_prev[j] = c
            below = h
        steps.append(layer_caches)

    z = h_prev[-1]
    dense_cache = []
    for dl in params.dense[:-1]:
        a = dl.W @ z + dl.b
        relu_mask = (a > 0.0).astype(np.float64)
        zr = a * relu_mask
        if use_dropout:
            drop = (rng.random(zr.shape) >= cfg.dropout) / (1.0 - cfg.dropout)
            zr = zr * drop
        else:
            drop = None
        dense_cache.append((z, relu_mask, drop))
        z = zr
    out = params.dense[-1]
    v = out.W @ z + out.b
    v_pre = float(v[0])
    value = float(_sigmoid_(v)[0]) if cfg.output == "sigmoid" else v_pre
    cache = ForwardCache(params, mode, xs, steps, dense_cache, z, v_pre, value)
    return value, cache


def backward(params: ValueNetParams, cache: ForwardCache, target: float) -> np.ndarray:
    """Exact gradient of (value - target)**2 w.r.t. every parameter.

    Backpropagates through the dense head and through time across all
    unrolled steps and layers; returns a flat vector aligned with
    ``params.theta`` (initial-state coordinates included).
    """
    if cache.params is not params:
        raise ValueError("cache does not belong to these parameters")
    if cache.mode != "train":
        raise ValueError("backward requires a cache from a train-mode forward")
    cfg = params.config
    grad = np.zeros_like(params.theta)
    glstm, gdense, _, _ = _build_views(cfg, grad)

    dvalue = 2.0 * (cache.value - float(target))
    if cfg.output == "sigmoid":
        dv = dvalue * cache.value * (1.0 - cache.value)
    else:
        dv = dvalue

    out = params.dense[-1]
    gdense[-1].W += dv * cache.head_in[None, :]
    gdense[-1].b += dv
    dz = out.W[0] * dv
    for l in range(len(params.dense) - 2, -1, -1):
        z_in, relu_mask, drop = cache.dense[l]
        if drop is not None:
            dz = dz * drop
        da = dz * relu_mask
        gdense[l].W += np.outer(da, z_in)
        gdense[l].b += da
        dz = params.dense[l].W.T @ da

    L = len(params.lstm)
    K = len(cache.steps)
    incoming: list[list] = [[None] * K for _ in range(L)]
    incoming[L - 1][K - 1] = dz
    for j in range(L - 1, -1, -1):
        ly = params.lstm[j]
        gly = glstm[j]
        dh_carry = np.zeros(ly.H)
        dc_carry = np.zeros(ly.H)
        for k in range(K - 1, -1, -1):
            st = cache.steps[k][j]
            dh = dh_carry if incoming[j][k] is None else dh_carry + incoming[j][k]
            dc = dc_carry + dh * st.o * (1.0 - st.tc**2)
            do_pre = dh * st.tc * st.o * (1.0 - st.o)
            df_pre = dc * st.c_prev * st.f * (1.0 - st.f)
            di_pre = dc * st.g * st.i * (1.0 - st.i)
            dg_pre = dc * st.i * (1.0 - st.g**2)
            dpre = np.concatenate([df_pre, di_pre, do_pre, dg_pre])
            gly.W += np.outer(dpre, st.below)
            gly.U += np.outer(dpre, st.h_prev)
            gly.b += dpre
            dh_carry = ly.U.T @ dpre
            dc_carry = dc * st.f
            if j > 0:
                dx = ly.W.T @ dpre
                if incoming[j - 1][k] is None:
                    incoming[j - 1][k] = dx
                else:
                    incoming[j - 1][k] += dx
        gly.h0 += dh_carry
        gly.c0 += dc_carry
    return grad


def apply_update(params: ValueNetParams, grad: np.ndarray, learning_rate: float) -> ValueNetParams:
    """Plain SGD step over the trainable parameters.

    Initial hidden/cell states are frozen after initialization and are
    left untouched. Returns a new parameter object.
    """
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.theta.shape:
        raise ValueError(f"gradient shape {grad.shape} does not match {params.theta.shape}")
    theta = params.theta - learning_rate * grad
    for start, stop in params._frozen_spans:
        theta[start:stop] = params.theta[start:stop]
    return ValueNetParams(params.config, theta)


def project_docs(params: ValueNetParams, docs) -> np.ndarray:
    """Document half of the first layer's gate pre-activation, one row per
    document: ``(s * D) @ W_d.T``, where ``W_d`` holds the first ``docs``-width
    columns of the first layer's input matrix and ``s`` is ``input_scale``.

    A pure function of the weights, so callers scoring many candidates
    against one set of weights may compute it once and gather rows from it
    (see :func:`forward_candidates`).
    """
    D = np.atleast_2d(np.asarray(docs, dtype=np.float64))
    width = D.shape[1]
    if width > params.config.input_dim:
        raise ValueError(f"document rows have dim {width}, input_dim is {params.config.input_dim}")
    return (D * params.config.input_scale) @ params.lstm[0].W[:, :width].T


def forward_candidates(params: ValueNetParams, prefix_inputs: Sequence, doc_proj, query) -> np.ndarray:
    """Eval-mode values for many candidates sharing one ranked prefix.

    Candidate ``n``'s input unit is ``doc_n ‖ query``; ``doc_proj[n]`` is
    its :func:`project_docs` row and ``query`` the shared query half (empty
    in feature mode, where the document row is the whole unit). Equivalent
    to calling :func:`forward` once per candidate with inputs
    ``prefix + [doc_n ‖ query]``: the prefix states and the query half of
    the first layer are computed once and the final step runs batched.
    """
    cfg = params.config
    prefix = [np.asarray(x, dtype=np.float64) for x in prefix_inputs]
    prefix = prefix[-(cfg.window - 1) :] if cfg.window > 1 else []
    h_prev = [ly.h0 for ly in params.lstm]
    c_prev = [ly.c0 for ly in params.lstm]
    for x in prefix:
        if x.shape != (cfg.input_dim,):
            raise ValueError(f"prefix input shape {x.shape} does not match input_dim {cfg.input_dim}")
        below = x * cfg.input_scale if cfg.input_scale != 1.0 else x
        for j, ly in enumerate(params.lstm):
            pre = below @ ly.W.T + h_prev[j] @ ly.U.T + ly.b
            _, _, _, _, c, _, h = _cell(ly, pre, c_prev[j])
            h_prev[j] = h
            c_prev[j] = c
            below = h
    query = np.asarray(query, dtype=np.float64)
    first = params.lstm[0]
    pre = np.atleast_2d(np.asarray(doc_proj, dtype=np.float64))
    if pre.shape[1] != 4 * first.H:
        raise ValueError(f"document projections have width {pre.shape[1]}, expected {4 * first.H}")
    d = cfg.input_dim - query.size
    shared = first.W[:, d:] @ (cfg.input_scale * query) + first.U @ h_prev[0] + first.b
    pre = pre + shared
    for j, ly in enumerate(params.lstm):
        if j:
            pre = below @ ly.W.T
            pre += ly.U @ h_prev[j] + ly.b
        _, _, _, _, _, _, below = _cell(ly, pre, c_prev[j])
    z = below
    for dl in params.dense[:-1]:
        z = z @ dl.W.T
        z += dl.b
        np.maximum(z, 0.0, out=z)
    v = z @ params.dense[-1].W[0]
    v += params.dense[-1].b[0]
    if cfg.output == "sigmoid":
        _sigmoid_(v)
    return v


_MAGIC = b"DVNK"
_VERSION = 1


def serialize(params: ValueNetParams) -> bytes:
    """Versioned, self-describing checkpoint: JSON header + little-endian float64."""
    header = {
        "format": "dynrank-valuenet",
        "version": _VERSION,
        "config": config_to_dict(params.config),
        "n_params": int(params.theta.size),
    }
    hjson = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return _MAGIC + struct.pack("<I", len(hjson)) + hjson + params.theta.astype("<f8").tobytes()


def deserialize(blob: bytes) -> ValueNetParams:
    if len(blob) < 8:
        raise CheckpointError("truncated checkpoint: missing header")
    if blob[:4] != _MAGIC:
        raise CheckpointError(f"bad magic {blob[:4]!r}, expected {_MAGIC!r}")
    (hlen,) = struct.unpack("<I", blob[4:8])
    if len(blob) < 8 + hlen:
        raise CheckpointError("truncated checkpoint: incomplete header")
    try:
        header = json.loads(blob[8 : 8 + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CheckpointError(f"corrupt header: {exc}") from None
    if header.get("format") != "dynrank-valuenet":
        raise CheckpointError(f"unexpected format {header.get('format')!r}")
    if header.get("version") != _VERSION:
        raise CheckpointError(f"unsupported version {header.get('version')!r}")
    try:
        config = config_from_dict(header["config"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CheckpointError(f"invalid config in header: {exc}") from None
    n = int(header["n_params"])
    body = blob[8 + hlen :]
    if len(body) != 8 * n:
        raise CheckpointError(f"parameter payload has {len(body)} bytes, expected {8 * n}")
    theta = np.frombuffer(body, dtype="<f8").astype(np.float64)
    if n != param_count(config):
        raise CheckpointError("parameter count does not match the declared config")
    return ValueNetParams(config, theta)


def save(params: ValueNetParams, path) -> None:
    with open(path, "wb") as fh:
        fh.write(serialize(params))


def load(path) -> ValueNetParams:
    with open(path, "rb") as fh:
        return deserialize(fh.read())
