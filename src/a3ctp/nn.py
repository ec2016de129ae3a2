"""Network core: parameter storage, a binary checkpoint format, the
backward step of one dense layer, Adam, gradient clipping, and gradient
checking.

Everything is float64 numpy. Parameters live in an ordered `ParamSet`
keyed by "<layer>.W" and "<layer>.b"; which layers exist, and how they are
run forward, is the model's business (`model.ModelConfig.layers`). There is
no graph autodiff: the model's backward pass is hand-written on top of
`dense_backward` and validated against central finite differences.

Flat layout: a `ParamSet` stores all its tensors back to back in one
contiguous float64 vector (`flat`), in insertion order, and each named
tensor is a reshaped view of its slice. That order is the manifest order of
`*.ckpt` files, so serialization is a header plus the buffer's bytes, and
Adam, the scaling in gradient clipping, copies and zero-filled copies are
whole-buffer numpy operations. Adam keeps the per-element operations and
their order, so its results are bit-identical to a per-tensor loop;
`global_norm` still sums tensor by tensor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

CHECKPOINT_MAGIC = "A3CTP-TENSORS"
CHECKPOINT_VERSION = 1


class ShapeError(ValueError):
    """Raised when tensor shapes do not line up."""


class NonFiniteError(FloatingPointError):
    """Raised when an operation produces NaN or Inf."""


class ParamSet:
    """Ordered map of named float64 tensors over one flat buffer, plus an
    update counter.

    `flat` is one contiguous float64 vector. Each entry of `tensors` is a
    reshaped view of its slice, in insertion order, which is also the
    manifest order of the checkpoint format. Whole-set operations (Adam,
    clipping, copies, serialization) therefore run over `flat` directly.
    `tensors` is a read-only mapping, so a name cannot be rebound to an array
    outside `flat`. Write through `params[name] = value`: it copies into the
    existing view. The layout is fixed when the set is built (by the
    constructor, `zeros_like` or `copy`), so an unknown name raises KeyError.
    """

    def __init__(self, tensors: dict[str, np.ndarray] | None = None, version: int = 0):
        arrays = [(k, np.asarray(t, dtype=np.float64)) for k, t in (tensors or {}).items()]
        flat = np.concatenate([a.ravel() for _, a in arrays]) if arrays else np.zeros(0)
        self._bind(flat, _layout((k, a.shape) for k, a in arrays))
        self.version = version

    def _bind(self, flat: np.ndarray, layout: tuple) -> None:
        self.flat = flat
        self.layout = layout
        self.tensors: MappingProxyType[str, np.ndarray] = MappingProxyType({
            name: flat[start:stop].reshape(shape) for name, shape, start, stop in layout
        })

    @classmethod
    def _over(cls, flat: np.ndarray, layout: tuple, version: int) -> "ParamSet":
        params = cls.__new__(cls)
        params._bind(flat, layout)
        params.version = version
        return params

    def __getitem__(self, name: str) -> np.ndarray:
        return self.tensors[name]

    def __setitem__(self, name: str, value: np.ndarray) -> None:
        view = self.tensors[name]
        value = np.asarray(value, dtype=np.float64)
        if value.shape != view.shape:
            raise ShapeError(f"{name} has shape {view.shape}, not {value.shape}")
        np.copyto(view, value)

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    def __iter__(self):
        return iter(self.tensors)

    def names(self) -> list[str]:
        return list(self.tensors)

    def copy(self) -> "ParamSet":
        return ParamSet._over(self.flat.copy(), self.layout, self.version)

    def zeros_like(self) -> "ParamSet":
        return ParamSet._over(np.zeros_like(self.flat), self.layout, 0)

    def equal_bits(self, other: "ParamSet") -> bool:
        if self.names() != other.names():
            return False
        return all(np.array_equal(self[k], other[k]) for k in self)

    def global_norm(self) -> float:
        # Summed tensor by tensor, so the result does not depend on the layout.
        total = 0.0
        for t in self.tensors.values():
            total += float(np.sum(t * t))
        return float(np.sqrt(total))

    # -- serialization ----------------------------------------------------

    def to_bytes(self) -> bytes:
        header = _header(self.layout, {"version": str(self.version)})
        return header + _le_bytes(self.flat)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "ParamSet":
        layout, flat, extra = _tensors_from_bytes(blob)
        return cls._over(flat, layout, int(extra.get("version", "0")))

    def save(self, path) -> None:
        with open(path, "wb") as f:
            f.write(self.to_bytes())

    @classmethod
    def load(cls, path) -> "ParamSet":
        with open(path, "rb") as f:
            return cls.from_bytes(f.read())


def _layout(shapes) -> tuple:
    """(name, shape, start, stop) per tensor, packed back to back."""
    layout, start = [], 0
    for name, shape in shapes:
        stop = start + math.prod(shape)
        layout.append((name, tuple(shape), start, stop))
        start = stop
    return tuple(layout)


def _le_bytes(flat: np.ndarray) -> bytes:
    return np.ascontiguousarray(flat, dtype="<f8").tobytes()


def _header(layout: tuple, extra: dict[str, str]) -> bytes:
    """Versioned header: magic, format version, scalar fields and the tensor
    manifest. Raw little-endian float64 data follows in manifest order."""
    header = [f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}"]
    for k, v in extra.items():
        header.append(f"field {k} {v}")
    header.append(f"tensors {len(layout)}")
    for name, shape, _, _ in layout:
        dims = "x".join(str(d) for d in shape) if shape else "scalar"
        header.append(f"tensor {name} {dims}")
    header.append("end-header")
    return ("\n".join(header) + "\n").encode("ascii")


def _parse_dims(text: str) -> tuple[int, ...]:
    if text == "scalar":
        return ()
    parts = text.split("x")
    if not all(p.isdigit() for p in parts):
        raise ValueError(f"malformed tensor dims {text!r}")
    return tuple(int(p) for p in parts)


def _tensors_from_bytes(blob: bytes) -> tuple[tuple, np.ndarray, dict[str, str]]:
    """Parse a tensor blob into (layout, flat data, fields). Raises
    ValueError unless the blob is exactly one v1 header followed by exactly
    the data its manifest describes."""
    marker = b"\nend-header\n"
    cut = blob.find(marker)
    if cut < 0:
        raise ValueError("tensor blob has no end-header line")
    end = cut + len(marker)
    lines = blob[:cut].decode("ascii").split("\n")
    if lines[0] != f"{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}":
        raise ValueError(f"bad magic or version in tensor blob: {lines[0][:40]!r}")
    extra: dict[str, str] = {}
    shapes: list[tuple[str, tuple[int, ...]]] = []
    count = None
    for line in lines[1:]:
        parts = line.split(" ")
        if parts[0] == "field" and len(parts) >= 2:
            extra[parts[1]] = " ".join(parts[2:])
        elif parts[0] == "tensors" and len(parts) == 2 and count is None and parts[1].isdigit():
            count = int(parts[1])
        elif parts[0] == "tensor" and len(parts) == 3 and parts[1]:
            shapes.append((parts[1], _parse_dims(parts[2])))
        else:
            raise ValueError(f"malformed header line {line[:60]!r}")
    if count != len(shapes):
        raise ValueError(f"header announces {count} tensors, manifest lists {len(shapes)}")
    if len({name for name, _ in shapes}) != len(shapes):
        raise ValueError("duplicate tensor name in manifest")
    layout = _layout(shapes)
    size = layout[-1][3] if layout else 0
    if len(blob) - end != 8 * size:
        raise ValueError(f"manifest needs {8 * size} data bytes, blob has {len(blob) - end}")
    flat = np.frombuffer(blob, dtype="<f8", count=size, offset=end).astype(np.float64)
    return layout, flat, extra


# -- backward -------------------------------------------------------------


def dense_backward(x: np.ndarray, dz: np.ndarray, W: np.ndarray, gW: np.ndarray,
                   gb: np.ndarray, need_input: bool = True) -> np.ndarray | None:
    """One layer y = act(x @ W + b) backwards: given dz = dLoss/d(x @ W + b),
    accumulate dLoss/dW into gW and dLoss/db into gb, in place, and return
    dLoss/dx (None unless need_input)."""
    if dz.shape != (x.shape[0], W.shape[1]):
        raise ShapeError("output-gradient shape does not match cache")
    gW += x.T @ dz
    gb += dz.sum(axis=0)
    return dz @ W.T if need_input else None


# -- Adam -----------------------------------------------------------------


@dataclass
class AdamState:
    """Shared Adam accumulators mirroring a ParamSet's layout."""

    m: ParamSet
    v: ParamSet
    step: int = 0
    lr: float = 1e-4
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    # Two flat temporaries for adam_step, allocated on its first call.
    _scratch: tuple | None = field(default=None, init=False, repr=False, compare=False)

    @classmethod
    def for_params(cls, params: ParamSet, lr: float = 1e-4, beta1: float = 0.9,
                   beta2: float = 0.999, eps: float = 1e-8) -> "AdamState":
        return cls(m=params.zeros_like(), v=params.zeros_like(), step=0,
                   lr=lr, beta1=beta1, beta2=beta2, eps=eps)

    def to_bytes(self) -> bytes:
        layout = _layout([(f"m:{k}", shape) for k, shape, _, _ in self.m.layout]
                         + [(f"v:{k}", shape) for k, shape, _, _ in self.v.layout])
        extra = {
            "step": str(self.step),
            "lr": repr(self.lr),
            "beta1": repr(self.beta1),
            "beta2": repr(self.beta2),
            "eps": repr(self.eps),
        }
        return _header(layout, extra) + _le_bytes(self.m.flat) + _le_bytes(self.v.flat)

    @classmethod
    def from_bytes(cls, blob: bytes) -> "AdamState":
        """Raises ValueError on what the tensor parser rejects, and on a
        missing step/lr/beta1/beta2/eps field, a tensor name without an
        `m:` or `v:` prefix, or `m` and `v` layouts that differ."""
        layout, flat, extra = _tensors_from_bytes(blob)
        missing = [k for k in ("step", "lr", "beta1", "beta2", "eps") if k not in extra]
        if missing:
            raise ValueError(f"Adam state blob lacks the field(s) {', '.join(missing)}")
        tensors = {name: flat[start:stop].reshape(shape) for name, shape, start, stop in layout}
        m = ParamSet({k[2:]: v for k, v in tensors.items() if k.startswith("m:")})
        v = ParamSet({k[2:]: v for k, v in tensors.items() if k.startswith("v:")})
        if len(m.layout) + len(v.layout) != len(layout):
            raise ValueError("Adam state blob has a tensor named without an m: or v: prefix")
        if m.layout != v.layout:
            raise ValueError("Adam state m and v tensors differ in names, order or shapes")
        return cls(m=m, v=v, step=int(extra["step"]), lr=float(extra["lr"]),
                   beta1=float(extra["beta1"]), beta2=float(extra["beta2"]),
                   eps=float(extra["eps"]))


def adam_step(params: ParamSet, grads: ParamSet, state: AdamState) -> None:
    """One Adam update with bias correction, in place on params and state.

    Runs over the flat buffers with two preallocated temporaries. Each
    elementwise operation has the operands and the order of the textbook
    per-tensor update
        m = b1*m + (1-b1)*g;  v = b2*v + (1-b2)*(g*g)
        p = p - lr*(m/(1-b1**t)) / (sqrt(v/(1-b2**t)) + eps)
    so the result is bit-identical to it. Increments params.version by
    exactly 1.
    """
    if params.layout != state.m.layout or params.layout != state.v.layout:
        raise ShapeError("optimizer state does not mirror params")
    if grads.layout != params.layout:
        raise ShapeError("gradient layout does not match params")
    state.step += 1
    t = state.step
    b1, b2 = state.beta1, state.beta2
    p, g, m, v = params.flat, grads.flat, state.m.flat, state.v.flat
    if state._scratch is None or state._scratch[0].shape != p.shape:
        state._scratch = (np.empty_like(p), np.empty_like(p))
    s, r = state._scratch
    np.multiply(m, b1, out=m)
    np.multiply(g, 1.0 - b1, out=s)
    np.add(m, s, out=m)
    np.multiply(g, g, out=s)
    np.multiply(s, 1.0 - b2, out=s)
    np.multiply(v, b2, out=v)
    np.add(v, s, out=v)
    np.divide(m, 1.0 - b1 ** t, out=s)
    np.multiply(s, state.lr, out=s)
    np.divide(v, 1.0 - b2 ** t, out=r)
    np.sqrt(r, out=r)
    np.add(r, state.eps, out=r)
    np.divide(s, r, out=s)
    np.subtract(p, s, out=p)
    params.version += 1


def clip_global_norm(grads: ParamSet, max_norm: float) -> float:
    """Scale all gradients so the global L2 norm is at most max_norm.
    Returns the pre-clip norm."""
    norm = grads.global_norm()
    if max_norm > 0.0 and norm > max_norm:
        grads.flat *= max_norm / norm
    return norm


# -- gradient checking ----------------------------------------------------


@dataclass
class GradCheckReport:
    max_rel_error: float
    worst_param: str
    passed: bool
    per_param: dict[str, float] = field(default_factory=dict)


def gradient_check(params: ParamSet, loss_fn, grad_fn, tolerance: float = 1e-4,
                   h: float = 1e-5) -> GradCheckReport:
    """Compare analytic gradients against central finite differences.

    loss_fn(params) -> scalar loss; grad_fn(params) -> ParamSet of analytic
    gradients. Every parameter entry is perturbed individually.
    """
    analytic = grad_fn(params)
    per_param: dict[str, float] = {}
    worst = ("", 0.0)
    for k in params:
        base = params[k]
        num = np.zeros_like(base)
        flat = base.reshape(-1)
        num_flat = num.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = loss_fn(params)
            flat[i] = orig - h
            lm = loss_fn(params)
            flat[i] = orig
            num_flat[i] = (lp - lm) / (2.0 * h)
        a = analytic[k]
        denom = np.maximum(np.abs(a) + np.abs(num), 1e-6)
        rel = float(np.max(np.abs(a - num) / denom)) if a.size else 0.0
        per_param[k] = rel
        if rel > worst[1]:
            worst = (k, rel)
    return GradCheckReport(max_rel_error=worst[1], worst_param=worst[0],
                           passed=worst[1] < tolerance, per_param=per_param)
