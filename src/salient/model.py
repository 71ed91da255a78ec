"""Encoder (noisy frames -> salient features) and its mirrored decoder.

The encoder is an LSTM stack processed left-to-right from a zero initial
state, followed by tanh fully connected layers and a linear head down to the
feature dimension (linear so the outputs cannot saturate). The decoder
mirrors the stack: FC layers first, then LSTMs, then a linear head back to
frame space. "Clones" are the same parameter set evaluated on different
inputs; every forward pass here shares one parameter table.

Inputs are expected in normalized frame space ((bins - mean) / std using the
stats stored with the parameters); decoder outputs live in the same space.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import struct
from dataclasses import dataclass, fields

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import BadMagic, CorruptFile, NonFiniteValue, ShapeMismatch, TruncatedFile, VersionMismatch
from .seeding import named_stream

CHECKPOINT_MAGIC = b"SLNT"
CHECKPOINT_VERSION = 1


@dataclass(frozen=True)
class EncoderConfig:
    lstm_layers: int = 2
    fc_layers: int = 1
    hidden: int = 64
    feature_dim: int = 12
    input_dim: int = 240


_CONFIG_KEYS = tuple(f.name for f in fields(EncoderConfig))

PRESETS = {
    "desk": EncoderConfig(lstm_layers=2, fc_layers=1, hidden=64),
    "small": EncoderConfig(lstm_layers=2, fc_layers=1, hidden=800),
    "large": EncoderConfig(lstm_layers=3, fc_layers=2, hidden=800),
}


@dataclass
class ModelParams:
    """Named parameter table plus per-bin normalization statistics."""

    config: EncoderConfig
    tensors: dict
    mean: np.ndarray  # (input_dim,) float32
    std: np.ndarray   # (input_dim,) float32, strictly positive


def param_shapes(cfg: EncoderConfig) -> dict:
    h, n, l = cfg.hidden, cfg.input_dim, cfg.feature_dim
    shapes = {}
    d = n
    for i in range(cfg.lstm_layers):
        shapes[f"enc.lstm{i}.wx"] = (d, 4 * h)
        shapes[f"enc.lstm{i}.wh"] = (h, 4 * h)
        shapes[f"enc.lstm{i}.b"] = (4 * h,)
        d = h
    for i in range(cfg.fc_layers):
        shapes[f"enc.fc{i}.w"] = (h, h)
        shapes[f"enc.fc{i}.b"] = (h,)
    shapes["enc.head.w"] = (h, l)
    shapes["enc.head.b"] = (l,)

    d = l
    for i in range(cfg.fc_layers):
        shapes[f"dec.fc{i}.w"] = (d, h)
        shapes[f"dec.fc{i}.b"] = (h,)
        d = h
    for i in range(cfg.lstm_layers):
        shapes[f"dec.lstm{i}.wx"] = (d, 4 * h)
        shapes[f"dec.lstm{i}.wh"] = (h, 4 * h)
        shapes[f"dec.lstm{i}.b"] = (4 * h,)
        d = h
    shapes["dec.head.w"] = (h, n)
    shapes["dec.head.b"] = (n,)
    return shapes


def init_params(config: EncoderConfig, seed: int) -> ModelParams:
    """Uniform(+-sqrt(6/(fan_in+fan_out))) weights; zero biases except the
    LSTM forget gate, whose bias starts at 1.0."""
    rng = named_stream(seed, "init")
    tensors = {}
    for name, shape in param_shapes(config).items():
        if name.endswith(".b"):
            b = np.zeros(shape, dtype=np.float32)
            if ".lstm" in name:
                h = shape[0] // 4
                b[h : 2 * h] = 1.0  # gate layout is [input, forget, candidate, output]
            tensors[name] = b
        else:
            fan_in, fan_out = shape
            a = np.sqrt(6.0 / (fan_in + fan_out))
            tensors[name] = rng.uniform(-a, a, size=shape).astype(np.float32)
    n = config.input_dim
    return ModelParams(
        config=config,
        tensors=tensors,
        mean=np.zeros(n, dtype=np.float32),
        std=np.ones(n, dtype=np.float32),
    )


def normalize(params: ModelParams, frames: np.ndarray) -> np.ndarray:
    return (np.asarray(frames, dtype=np.float32) - params.mean) / params.std


def denormalize(params: ModelParams, frames: np.ndarray) -> np.ndarray:
    return np.asarray(frames, dtype=np.float32) * params.std + params.mean


# ---------------------------------------------------------------------------
# layer stacks: on parameter leaves for training, on plain arrays for inference
# ---------------------------------------------------------------------------

def _dense(seq, leaves: dict, name: str):
    w, b = leaves[f"{name}.w"], leaves[f"{name}.b"]
    return ad.dense(seq, w, b) if isinstance(w, Tensor) else seq @ w + b


def _lstm_stack(seq, leaves: dict, prefix: str, layers: int):
    for i in range(layers):
        wx, wh, b = (leaves[f"{prefix}.lstm{i}.{k}"] for k in ("wx", "wh", "b"))
        seq = ad.lstm(ad.dense(seq, wx, b), wh) if isinstance(wx, Tensor) else ad.lstm_forward(seq @ wx + b, wh)[0][1:]
    return seq


def _fc_stack(seq, leaves: dict, prefix: str, layers: int):
    for i in range(layers):
        seq = _dense(seq, leaves, f"{prefix}.fc{i}")
        seq = seq.tanh() if isinstance(seq, Tensor) else np.tanh(seq)
    return seq


def encoder_graph(leaves: dict, config: EncoderConfig, x):
    """Features (T, B, L) for a time-major input sequence (T, B, input_dim)."""
    seq = _fc_stack(_lstm_stack(x, leaves, "enc", config.lstm_layers), leaves, "enc", config.fc_layers)
    return _dense(seq, leaves, "enc.head")


def decoder_graph(leaves: dict, config: EncoderConfig, z):
    """Reconstructions (T, B, input_dim) for time-major features (T, B, L)."""
    seq = _lstm_stack(_fc_stack(z, leaves, "dec", config.fc_layers), leaves, "dec", config.lstm_layers)
    return _dense(seq, leaves, "dec.head")


def param_leaves(tape: Tape, params: ModelParams) -> dict:
    """One leaf per named parameter. On a float32 tape the leaf shares the
    parameter's memory (no copy), so there is a single materialization."""
    return {k: tape.leaf(v) for k, v in params.tensors.items()}


# ---------------------------------------------------------------------------
# sequence API
# ---------------------------------------------------------------------------

def _run_sequence(params: ModelParams, rows: np.ndarray, builder, in_dim: int, what: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float32)
    if rows.ndim not in (2, 3) or rows.shape[-1] != in_dim or rows.shape[-2] < 1:
        raise ShapeMismatch(f"{what}: expected (T, {in_dim}) or (B, T, {in_dim}) with T >= 1, got {rows.shape}")
    if not (np.isfinite(rows).all() and all(np.isfinite(v).all() for v in params.tensors.values())):
        raise NonFiniteValue(f"{what}: non-finite input row or parameter")
    # a (T, D) input keeps its memory layout, so its products are the tape's bit for bit
    seq = rows[:, None] if rows.ndim == 2 else np.ascontiguousarray(rows.swapaxes(0, 1))
    out = builder(params.tensors, params.config, seq)
    if not np.isfinite(out).all():
        raise NonFiniteValue(f"{what}: non-finite output")
    return out[:, 0] if rows.ndim == 2 else out.swapaxes(0, 1)


def encode_sequence(params: ModelParams, frames: np.ndarray) -> np.ndarray:
    """Features (T, L) for normalized frames (T, input_dim), or (B, T, L) for
    B tracks of T frames; causal, zero initial state, computed without a tape."""
    return _run_sequence(params, frames, encoder_graph, params.config.input_dim, "encode_sequence")


def decode_sequence(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Normalized-space reconstructions for features (T, L) or (B, T, L)."""
    return _run_sequence(params, features, decoder_graph, params.config.feature_dim, "decode_sequence")


# ---------------------------------------------------------------------------
# checkpoint serialization
# ---------------------------------------------------------------------------

def _serialize(params: ModelParams) -> bytes:
    cfg = params.config
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<I", CHECKPOINT_VERSION))
    cfg_text = "".join(f"{k}={getattr(cfg, k)}\n" for k in _CONFIG_KEYS).encode("utf-8")
    buf.write(struct.pack("<I", len(cfg_text)))
    buf.write(cfg_text)

    def put(name: str, arr: np.ndarray):
        nb = name.encode("utf-8")
        buf.write(struct.pack("<I", len(nb)))
        buf.write(nb)
        buf.write(struct.pack("<I", arr.ndim))
        buf.write(struct.pack(f"<{arr.ndim}I", *arr.shape))
        buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())

    put("norm.mean", params.mean)
    put("norm.std", params.std)
    for name in sorted(params.tensors):
        put(name, params.tensors[name])
    return buf.getvalue()


def save_checkpoint(params: ModelParams, path) -> None:
    """Serialize, write beside `path`, fsync and rename: a crash leaves no part."""
    data, tmp = _serialize(params), f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def params_digest(params: ModelParams) -> str:
    """Stable content hash; used to tag feature tracks and reports."""
    return hashlib.sha256(_serialize(params)).hexdigest()[:16]


def _read_exact(fh, n: int, what: str) -> bytes:
    """n bytes, checked against the bytes left in the file before reading,
    so a header that claims more than the file holds allocates nothing."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if n > left:
        raise TruncatedFile(f"checkpoint claims {n} bytes of {what}, {left} left")
    return fh.read(n)


def _read_text(fh, n: int, what: str, path) -> str:
    try:
        return _read_exact(fh, n, what).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptFile(f"{path}: {what} is not UTF-8 text") from exc


def load_checkpoint(path) -> ModelParams:
    with open(path, "rb") as fh:
        if _read_exact(fh, 4, "magic") != CHECKPOINT_MAGIC:
            raise BadMagic(f"{path}: not a checkpoint file")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, "version"))
        if version != CHECKPOINT_VERSION:
            raise VersionMismatch(f"{path}: format version {version}, expected {CHECKPOINT_VERSION}")
        (cfg_len,) = struct.unpack("<I", _read_exact(fh, 4, "config length"))
        cfg_text = _read_text(fh, cfg_len, "config block", path)
        values = {}
        for line in cfg_text.splitlines():
            if line.strip():
                k, _, v = line.partition("=")
                k = k.strip()
                if k in values or k not in _CONFIG_KEYS:
                    raise CorruptFile(f"{path}: config key {k!r} is {'repeated' if k in values else 'unknown'}")
                try:
                    values[k] = int(v)
                except ValueError as exc:
                    raise CorruptFile(f"{path}: config value {line.strip()!r} is not an integer") from exc
        missing = [k for k in _CONFIG_KEYS if k not in values]
        if missing:
            raise VersionMismatch(f"{path}: config block missing {missing}")
        config = EncoderConfig(**values)

        tensors = {}
        while True:
            head = fh.read(4)
            if head == b"":
                break
            if len(head) != 4:
                raise TruncatedFile("checkpoint ended inside a tensor header")
            (name_len,) = struct.unpack("<I", head)
            name = _read_text(fh, name_len, "tensor name", path)
            (rank,) = struct.unpack("<I", _read_exact(fh, 4, f"{name} rank"))
            dims = struct.unpack(f"<{rank}I", _read_exact(fh, 4 * rank, f"{name} dims"))
            raw = _read_exact(fh, 4 * math.prod(dims), f"{name} data")
            if name in tensors:
                raise CorruptFile(f"{path}: tensor {name!r} appears more than once")
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()

    try:
        mean = tensors.pop("norm.mean")
        std = tensors.pop("norm.std")
    except KeyError as exc:
        raise VersionMismatch(f"{path}: normalization stats missing") from exc
    expected = param_shapes(config)
    if set(tensors) != set(expected) or any(tensors[k].shape != expected[k] for k in expected):
        raise VersionMismatch(f"{path}: tensor table does not match config {config}")
    if not np.all(std > 0):
        raise VersionMismatch(f"{path}: non-positive normalization std")
    return ModelParams(config=config, tensors=tensors, mean=mean, std=std)
