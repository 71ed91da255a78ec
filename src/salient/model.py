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
import struct
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tape, Tensor
from .errors import BadMagic, CorruptFile, ShapeMismatch, TruncatedFile, VersionMismatch
from .seeding import named_stream

CHECKPOINT_MAGIC = b"SLNT"
CHECKPOINT_VERSION = 1

_CONFIG_KEYS = ("lstm_layers", "fc_layers", "hidden", "feature_dim", "input_dim")


@dataclass(frozen=True)
class EncoderConfig:
    lstm_layers: int = 2
    fc_layers: int = 1
    hidden: int = 64
    feature_dim: int = 12
    input_dim: int = 240


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

    def copy(self) -> "ModelParams":
        return ModelParams(
            config=self.config,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            mean=self.mean.copy(),
            std=self.std.copy(),
        )


def _param_shapes(cfg: EncoderConfig) -> dict:
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
    for name, shape in _param_shapes(config).items():
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
    return (np.asarray(frames, dtype=np.float64) - params.mean) / params.std


def denormalize(params: ModelParams, frames: np.ndarray) -> np.ndarray:
    return np.asarray(frames, dtype=np.float64) * params.std + params.mean


# ---------------------------------------------------------------------------
# tape graph builders (shared by inference and training)
# ---------------------------------------------------------------------------

def _dense(seq: Tensor, leaves: dict, name: str) -> Tensor:
    return ad.bias_add(ad.matmul(seq, leaves[f"{name}.w"]), leaves[f"{name}.b"])


def _lstm_stack(seq: Tensor, leaves: dict, prefix: str, layers: int) -> Tensor:
    for i in range(layers):
        name = f"{prefix}.lstm{i}"
        seq = ad.lstm(seq, leaves[f"{name}.wx"], leaves[f"{name}.wh"], leaves[f"{name}.b"])
    return seq


def encoder_graph(leaves: dict, config: EncoderConfig, x: Tensor) -> Tensor:
    """Features (T, B, L) for a time-major input sequence (T, B, input_dim)."""
    seq = _lstm_stack(x, leaves, "enc", config.lstm_layers)
    for i in range(config.fc_layers):
        seq = _dense(seq, leaves, f"enc.fc{i}").tanh()
    return _dense(seq, leaves, "enc.head")


def decoder_graph(leaves: dict, config: EncoderConfig, z: Tensor) -> Tensor:
    """Reconstructions (T, B, input_dim) for time-major features (T, B, L)."""
    seq = z
    for i in range(config.fc_layers):
        seq = _dense(seq, leaves, f"dec.fc{i}").tanh()
    seq = _lstm_stack(seq, leaves, "dec", config.lstm_layers)
    return _dense(seq, leaves, "dec.head")


def param_leaves(tape: Tape, params: ModelParams, requires_grad: bool = True) -> dict:
    """One leaf per named parameter. On a float32 tape the leaf shares the
    parameter's memory (no copy), so there is a single materialization."""
    return {k: tape.leaf(v, requires_grad=requires_grad) for k, v in params.tensors.items()}


# ---------------------------------------------------------------------------
# sequence API
# ---------------------------------------------------------------------------

def _run_sequence(params: ModelParams, rows: np.ndarray, builder, in_dim: int, what: str) -> np.ndarray:
    rows = np.asarray(rows, dtype=np.float32)
    if rows.ndim != 2 or rows.shape[1] != in_dim or rows.shape[0] < 1:
        raise ShapeMismatch(f"{what}: expected (T, {in_dim}) with T >= 1, got {rows.shape}")
    tape = Tape(np.float32)
    leaves = param_leaves(tape, params, requires_grad=False)
    out = builder(leaves, params.config, tape.constant(rows[:, None, :]))
    return out.data[:, 0, :]


def encode_sequence(params: ModelParams, frames: np.ndarray) -> np.ndarray:
    """Features (T, L) for normalized frames (T, input_dim); causal, zero
    initial state, one feature vector per frame."""
    return _run_sequence(params, frames, encoder_graph, params.config.input_dim, "encode_sequence")


def decode_sequence(params: ModelParams, features: np.ndarray) -> np.ndarray:
    """Normalized-space reconstructions (T, input_dim) for features (T, L)."""
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
    with open(path, "wb") as fh:
        fh.write(_serialize(params))


def params_digest(params: ModelParams) -> str:
    """Stable content hash; used to tag feature tracks and reports."""
    return hashlib.sha256(_serialize(params)).hexdigest()[:16]


def _read_exact(fh, n: int, what: str) -> bytes:
    data = fh.read(n)
    if len(data) != n:
        raise TruncatedFile(f"checkpoint ended while reading {what}")
    return data


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
        fields = {}
        for line in cfg_text.splitlines():
            if line.strip():
                k, _, v = line.partition("=")
                try:
                    fields[k.strip()] = int(v)
                except ValueError as exc:
                    raise CorruptFile(f"{path}: config value {line.strip()!r} is not an integer") from exc
        missing = [k for k in _CONFIG_KEYS if k not in fields]
        if missing:
            raise VersionMismatch(f"{path}: config block missing {missing}")
        config = EncoderConfig(**{k: fields[k] for k in _CONFIG_KEYS})

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
            raw = _read_exact(fh, 4 * int(np.prod(dims)), f"{name} data")
            if name in tensors:
                raise CorruptFile(f"{path}: tensor {name!r} appears more than once")
            tensors[name] = np.frombuffer(raw, dtype="<f4").reshape(dims).copy()

    try:
        mean = tensors.pop("norm.mean")
        std = tensors.pop("norm.std")
    except KeyError as exc:
        raise VersionMismatch(f"{path}: normalization stats missing") from exc
    expected = _param_shapes(config)
    if set(tensors) != set(expected) or any(tensors[k].shape != expected[k] for k in expected):
        raise VersionMismatch(f"{path}: tensor table does not match config {config}")
    if not np.all(std > 0):
        raise VersionMismatch(f"{path}: non-positive normalization std")
    return ModelParams(config=config, tensors=tensors, mean=mean, std=std)
