"""MLP policies with exact input-space and parameter-space derivatives.

One layer recursion, ``_mlp``, runs over states stacked as (B, d) rows and
executes either on plain ndarrays (value paths used by the inner loop) or on
tape ``Node`` weights (parameter gradients). Tangents pushed alongside the
states supply Jacobian-vector products, one tangent per state or a stack of
them, and on request the second-order tangent D^2 pi[v, v] of one tangent
per state. The dense state-action Jacobian is small (the state has at most a
handful of entries), so ``_layer_pass`` takes it in one forward pass per
state that carries all ``in_dim`` identity tangents: ``jacobian`` reads it,
``vjp`` applies its transpose to the cotangent, and the outer step and its
training ascent read both outputs of the same pass. A tangent-only pass skips
the output layer's value, which nothing reads. Public functions validate a
state or a stack once per call; internal paths call the recursion directly.

A model stack keeps M policies of one shape as one: weights (M, out, in),
biases (M, out) and states (M, B, d), M = 1 included. A lone policy has no
model axis. Every model's rows go through the same calls as a lone
policy's, so a model never depends on the models stacked with it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import ConfigError, NumericError, check_count
from .tape import Node, backward, matvec, tanh

Array = np.ndarray

ACTIVATIONS = ("tanh", "identity")


@dataclass(frozen=True, eq=False)
class Layer:
    weight: Array  # (out, in), or (M, out, in) in a model stack
    bias: Array  # (out,), or (M, out)
    activation: str


@dataclass(frozen=True, eq=False)
class PolicyParams:
    """Weights of a deterministic MLP policy mapping states to actions.

    Layer dimensions must chain, every entry must be finite, and the final
    activation must be the identity so actions are unconstrained. Only
    smooth activations are allowed, which keeps the policy differentiable
    everywhere with bounded second derivatives.
    """

    layers: tuple[Layer, ...]
    handle: PolicyHandle = field(init=False, repr=False)  # the layers as plain ndarrays

    def __post_init__(self):
        if not self.layers:
            raise ConfigError("policy needs at least one layer")
        fixed = []
        for k, layer in enumerate(self.layers):
            W = np.asarray(layer.weight, dtype=np.float64)
            b = np.asarray(layer.bias, dtype=np.float64)
            other_stack = W.shape[:-2] != (fixed[0].weight.shape[:-2] if fixed else W.shape[:-2])
            if W.ndim not in (2, 3) or W.shape[:-1] != b.shape or other_stack:
                raise ConfigError(f"layer {k}: weight {W.shape} and bias {b.shape} do not agree")
            if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
                raise ConfigError(f"layer {k}: non-finite parameter entries")
            if k > 0 and W.shape[-1] != fixed[-1].weight.shape[-2]:
                raise ConfigError(
                    f"layer {k}: input size {W.shape[-1]} does not chain with "
                    f"previous output size {fixed[-1].weight.shape[-2]}"
                )
            fixed.append(Layer(W, b, layer.activation))
        object.__setattr__(self, "layers", tuple(fixed))
        policy_spec(self.dims(), self.activations())
        # a stack's (M, out) biases enter the handle as (M, 1, out), to broadcast over its rows
        handle = tuple((layer.weight, layer.bias[:, None] if self.models else layer.bias) for layer in fixed)
        object.__setattr__(self, "handle", PolicyHandle(handle, tuple(self.activations())))

    @property
    def models(self) -> int:
        """M for a stack of M models; 0 for a lone policy."""
        W = self.layers[0].weight
        return W.shape[0] if W.ndim == 3 else 0

    @property
    def in_dim(self) -> int:
        return self.layers[0].weight.shape[-1]

    @property
    def out_dim(self) -> int:
        return self.layers[-1].weight.shape[-2]

    def dims(self) -> list[int]:
        return [self.in_dim] + [layer.weight.shape[-2] for layer in self.layers]

    def activations(self) -> list[str]:
        return [layer.activation for layer in self.layers]


def stack_policies(members) -> PolicyParams:
    """One model stack from policies of one shape, in order; the stack always
    has its model axis, so a stack of one has ``models == 1``."""
    layers = [m.layers for m in members]
    return PolicyParams(
        tuple(
            Layer(np.stack([ls[k].weight for ls in layers]), np.stack([ls[k].bias for ls in layers]), layer.activation)
            for k, layer in enumerate(layers[0])
        )
    )


def unstack_policies(params: PolicyParams) -> list[PolicyParams]:
    """The models of a stack, in order, as lone policies; a lone policy is its own one model."""
    if not params.models:
        return [params]
    return [
        PolicyParams(tuple(Layer(layer.weight[i], layer.bias[i], layer.activation) for layer in params.layers))
        for i in range(params.models)
    ]


def policy_spec(dims: Sequence[int], activations: Sequence[str] | None = None, init_seed: int = 0) -> tuple[list, list]:
    """The layer sizes and activations of a policy, checked without building
    its weights; activations default to tanh hidden layers and an identity
    output."""
    dims = [check_count(d, 1, "dims", "entries") for d in dims]
    if len(dims) < 2:
        raise ConfigError(f"policy dims must be >= 2 positive sizes, got {dims}", field="dims")
    if activations is None:
        activations = ["tanh"] * (len(dims) - 2) + ["identity"]
    activations = list(activations)
    if len(activations) != len(dims) - 1:
        raise ConfigError(f"expected {len(dims) - 1} activations, got {len(activations)}", field="activations")
    for k, act in enumerate(activations):
        if act not in ACTIVATIONS:
            raise ConfigError(f"layer {k}: unknown activation '{act}'", field="activations")
    if activations[-1] != "identity":
        raise ConfigError("final layer activation must be identity", field="activations")
    check_count(init_seed, 0, "init_seed")
    return dims, activations


def init_policy(dims: Sequence[int], activations: Sequence[str] | None = None, seed: int = 0) -> PolicyParams:
    """Seeded uniform init in [-a, a] with a = 1/sqrt(fan_in)."""
    dims, activations = policy_spec(dims, activations, seed)
    rng = np.random.default_rng(seed)
    layers = []
    for k in range(len(dims) - 1):
        fan_in = dims[k]
        a = 1.0 / np.sqrt(fan_in)
        W = rng.uniform(-a, a, size=(dims[k + 1], fan_in))
        b = rng.uniform(-a, a, size=dims[k + 1])
        layers.append(Layer(W, b, activations[k]))
    return PolicyParams(tuple(layers))


def scale_policy(params: PolicyParams, factor: float) -> PolicyParams:
    """Scale every weight and bias by a positive factor."""
    return PolicyParams(
        tuple(Layer(layer.weight * factor, layer.bias * factor, layer.activation) for layer in params.layers)
    )


# -- the layer recursion ------------------------------------------------------


def _mlp(layers, activations, X, T=None, value=True, second=False):
    """Run the layers over a state (or states stacked as rows) X.

    Per layer a = h @ W.T + b, and tangents T, if given, are pushed forward
    alongside: one per state, shaped like X, or a stack of k per state,
    shaped (..., k, d) against X of shape (..., d). Weights may be ndarrays
    or tape ``Node``s. Returns (h, t); t is None without tangents, and a
    tangent stack that never meets a ``tanh`` keeps the leading shape of T.
    With ``value=False`` the output layer, always the identity, gives only
    its tangent product, and h is None.

    ``second=True`` (ndarray weights, one tangent v per state) also pushes
    the second-order tangent of the line X + r v, from t2 = 0 (Taylor mode):
    a'' = W t2, then h'' = (1 - h^2)(a'' - 2 h a'^2) at a tanh layer and
    h'' = a'' at an identity one; it returns (h, t, D^2 pi[v, v] = W t2).
    """
    h, t = X, T
    t2 = np.zeros_like(X) if second else None  # the line through X has no curvature
    stacked = T is not None and np.ndim(T) > np.ndim(X)
    for (W, b), act in zip(layers[:-1], activations):
        a = matvec(W, h) + b
        t2 = matvec(W, t2) if second else None
        if t is not None:
            t = matvec(W, t)
        if act == "tanh":
            h = tanh(a)
            if t is not None:
                dh = 1.0 - h * h
                t2 = dh * (t2 - 2.0 * h * t * t) if second else None
                t = (dh[..., None, :] if stacked else dh) * t
        else:
            h = a
    W, b = layers[-1]
    if t is not None:
        t = matvec(W, t)
    z = matvec(W, h) + b if value else None
    return (z, t, matvec(W, t2)) if second else (z, t)


@dataclass(frozen=True, eq=False)
class PolicyHandle:
    """Policy evaluated over either ndarray or tape-Node weights."""

    layers: tuple
    activations: tuple[str, ...]

    def forward(self, x):
        return _mlp(self.layers, self.activations, x)[0]

    def jvp(self, x, v):
        return _mlp(self.layers, self.activations, x, v, value=False)[1]


def _layer_pass(params: PolicyParams, S: Array, value: bool = True) -> tuple[Array | None, Array]:
    """The outputs (None with ``value=False``) and the dense Jacobians at a
    state or at every row of S, from one pass of the layers per state
    carrying the ``in_dim`` identity tangents; the outputs are bit for bit
    those of ``forward``."""
    n, handle = params.in_dim, params.handle
    Z, t = _mlp(handle.layers, handle.activations, S, np.eye(n).reshape((1,) * (S.ndim - 1) + (n, n)), value)
    shape = S.shape[:-1] + (n, params.out_dim)
    if t.shape != shape:  # no tanh layer: the tangents never met the states
        t = np.broadcast_to(t, shape).copy()
    return Z, np.swapaxes(t, -1, -2)


def _check_states(x, dim: int, what: str, rows: tuple | None = None, models: int = 0) -> Array:
    """A (dim,) vector or a (B, dim) stack of rows, all finite, or (M, B, dim)
    rows for a stack of M models; ``rows``, if given, fixes the leading shape."""
    x = np.asarray(x, dtype=np.float64)
    if rows is not None:
        ok, expected = x.shape[:-1] == rows, str(rows + (dim,))
    elif models:
        ok, expected = x.ndim == 3 and x.shape[0] == models, f"({models}, B, {dim})"
    else:
        ok, expected = x.ndim in (1, 2), f"({dim},) or (B, {dim})"
    if not ok or x.ndim == 0 or x.shape[-1] != dim:
        raise ConfigError(f"{what} has shape {x.shape}, expected {expected}")
    if not np.isfinite(x).all():
        raise NumericError(f"{what} contains non-finite entries")
    return x


def forward(params: PolicyParams, s) -> Array:
    """Evaluate the policy at a state, or at every row of a (B, in_dim) stack."""
    return params.handle.forward(_check_states(s, params.in_dim, "state", models=params.models))


def jvp(params: PolicyParams, s, v) -> Array:
    """Directional derivative of the policy output along v (forward mode);
    row by row when s and v are stacked."""
    s = _check_states(s, params.in_dim, "state", models=params.models)
    return params.handle.jvp(s, _check_states(v, params.in_dim, "tangent", s.shape[:-1]))


def jacobian(params: PolicyParams, s) -> Array:
    """Dense (out_dim, in_dim) Jacobian of the action with respect to the
    state; (B, out_dim, in_dim) for a (B, in_dim) stack of states."""
    return _layer_pass(params, _check_states(s, params.in_dim, "state", models=params.models), value=False)[1]


def vjp(params: PolicyParams, s, w) -> Array:
    """Pull a cotangent on the action back to the state: J(s).T @ w."""
    s = _check_states(s, params.in_dim, "state", models=params.models)
    w = _check_states(w, params.out_dim, "cotangent", s.shape[:-1])
    return matvec(np.swapaxes(_layer_pass(params, s, value=False)[1], -1, -2), w)


Objective = Callable[[PolicyHandle], object]


def param_gradient(params: PolicyParams, objective: Objective):
    """Gradient of a scalar objective with respect to all weights and biases.

    The objective receives a ``PolicyHandle`` whose ``forward``/``jvp`` build
    the tape; it must combine their outputs into a scalar, or for a stack
    of M models into one value per model. Their sum is differentiated, which
    gives each model exactly its own gradient. Returns the objective value
    (summed over the models) and one (dweight, dbias) pair per layer. An
    objective that never touches the handle has an exactly zero gradient.
    """
    leaves = tuple((Node(W, op="weight"), Node(b, op="bias")) for W, b in params.handle.layers)
    handle = PolicyHandle(leaves, tuple(params.activations()))
    out = objective(handle)
    if params.models and isinstance(out, Node) and out.value.shape == (params.models,):
        out = out.vsum()
    if not isinstance(out, Node):
        value = float(np.sum(out))
        if not np.isfinite(value):
            raise NumericError("objective value is non-finite")
        zeros = [
            (np.zeros_like(layer.weight), np.zeros_like(layer.bias)) for layer in params.layers
        ]
        return value, zeros
    if out.value.shape != ():
        raise ConfigError(f"objective must be scalar, got shape {out.value.shape}")
    backward(out)
    grads = []
    for (wn, bn), layer in zip(leaves, params.layers):
        dW = wn.grad if wn.grad is not None else np.zeros_like(layer.weight)
        db = bn.grad.reshape(layer.bias.shape) if bn.grad is not None else np.zeros_like(layer.bias)
        grads.append((np.asarray(dW, dtype=np.float64), np.asarray(db, dtype=np.float64)))
    return float(out.value), grads


def apply_gradient_step(params: PolicyParams, grads, lr: float) -> PolicyParams:
    """One plain gradient-descent update; returns a new parameter snapshot.

    An update that overflows raises ``NumericError``: the run diverged.
    """
    layers = []
    for k, (layer, (dW, db)) in enumerate(zip(params.layers, grads)):
        W, b = layer.weight - lr * dW, layer.bias - lr * db
        if not (np.all(np.isfinite(W)) and np.all(np.isfinite(b))):
            raise NumericError(f"layer {k}: gradient step produced non-finite parameters")
        layers.append(Layer(W, b, layer.activation))
    return PolicyParams(tuple(layers))


def gradient_norm(grads):
    """The l2 norm of a gradient; one norm per model of a stack."""
    total = 0.0
    for dW, db in grads:
        total += np.sum(dW * dW, axis=(-2, -1)) + np.sum(db * db, axis=-1)
    return np.sqrt(total)


# -- checkpoint format ------------------------------------------------------


def save_checkpoint(params: PolicyParams, path) -> None:
    payload = {
        "dims": params.dims(),
        "activations": params.activations(),
        "layers": [
            {"weight": [float(x) for x in layer.weight.ravel()], "bias": [float(x) for x in layer.bias]}
            for layer in params.layers
        ],
    }
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def load_checkpoint(path) -> PolicyParams:
    """The policy ``save_checkpoint`` wrote to ``path``; any other content is
    a ConfigError that names the file."""
    try:
        payload = json.loads(Path(path).read_text())
        if not isinstance(payload, dict):
            raise ConfigError("expected a JSON object")
        for key in ("dims", "activations", "layers"):
            if not isinstance(payload.get(key), list):
                raise ConfigError(f"'{key}' must be a list" if key in payload else f"missing key '{key}'")
        dims, acts = policy_spec(payload["dims"], payload["activations"])
        if len(payload["layers"]) != len(dims) - 1:
            raise ConfigError(f"expected {len(dims) - 1} layers, got {len(payload['layers'])}", field="layers")
        layers = []
        for k, raw in enumerate(payload["layers"]):
            if not isinstance(raw, dict) or not {"weight", "bias"} <= raw.keys():
                raise ConfigError(f"layer {k} must be an object with 'weight' and 'bias'")
            for name, x, n in (("weight", raw["weight"], dims[k + 1] * dims[k]), ("bias", raw["bias"], dims[k + 1])):
                if not (isinstance(x, list) and len(x) == n and set(map(type, x)) <= {int, float}):
                    raise ConfigError(f"layer {k} {name} must be a list of {n} numbers")
            W, b = (np.array(raw[name], dtype=np.float64) for name in ("weight", "bias"))
            layers.append(Layer(W.reshape(dims[k + 1], dims[k]), b, acts[k]))
        return PolicyParams(tuple(layers))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ConfigError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    except OSError as exc:  # a missing file, a directory, no read permission
        raise ConfigError(f"checkpoint {path} cannot be read: {exc.strerror or exc}") from exc
    except (ConfigError, OverflowError) as exc:  # OverflowError: an integer weight beyond the float range
        raise ConfigError(f"checkpoint {path}: {exc}") from None
