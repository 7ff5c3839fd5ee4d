"""Module base class: parameter registration, traversal, train/eval mode."""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.nn.parameter import Parameter


class Module:
    """Base class for layers with explicit ``forward``/``backward``.

    Subclasses assign :class:`Parameter` and :class:`Module` attributes;
    both are discovered automatically by ``named_parameters``.  Each
    ``forward`` call stores a backward closure; ``backward(grad_out)``
    consumes it, accumulates parameter gradients and returns the input
    gradient.  A module instance therefore supports exactly one
    in-flight forward at a time (like a layer inside one training step).
    """

    def __init__(self) -> None:
        self.training = True
        self._back = None

    # ------------------------------------------------------------------ #
    # Forward/backward protocol
    # ------------------------------------------------------------------ #
    def forward(self, *args, **kwargs):  # pragma: no cover - abstract
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)

    def backward(self, grad_out: np.ndarray):
        """Run the stored backward closure for the latest forward call."""
        if self._back is None:
            raise RuntimeError(
                f"{type(self).__name__}.backward called without a pending forward"
            )
        back, self._back = self._back, None
        return back(grad_out)

    # ------------------------------------------------------------------ #
    # Traversal
    # ------------------------------------------------------------------ #
    def named_children(self) -> Iterator[tuple[str, "Module"]]:
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield name, value
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield f"{name}.{i}", item
            elif isinstance(value, dict):
                for key, item in value.items():
                    if isinstance(item, Module):
                        yield f"{name}.{key}", item

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        for name, value in vars(self).items():
            if isinstance(value, Parameter):
                yield (f"{prefix}{name}", value)
        for name, child in self.named_children():
            yield from child.named_parameters(prefix=f"{prefix}{name}.")

    def parameters(self) -> list[Parameter]:
        """All parameters, deduplicated by identity.

        Shared modules (e.g. a sampled-softmax head referencing the
        output embedding) surface the same :class:`Parameter` under
        several names; optimizers must see it exactly once.
        """
        seen: set[int] = set()
        out = []
        for _, p in self.named_parameters():
            if id(p) not in seen:
                seen.add(id(p))
                out.append(p)
        return out

    def dense_parameters(self) -> list[Parameter]:
        """Parameters whose gradients are dense (AllReduce traffic)."""
        return [p for p in self.parameters() if not p.sparse_grad]

    def sparse_parameters(self) -> list[Parameter]:
        """Parameters with row-sparse gradients (embedding tables)."""
        return [p for p in self.parameters() if p.sparse_grad]

    def num_parameters(self) -> int:
        return sum(p.numel for p in self.parameters())

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    # ------------------------------------------------------------------ #
    # Mode
    # ------------------------------------------------------------------ #
    def train(self, mode: bool = True) -> "Module":
        self.training = mode
        for _, child in self.named_children():
            child.train(mode)
        return self

    def eval(self) -> "Module":
        return self.train(False)

    # ------------------------------------------------------------------ #
    # Precision
    # ------------------------------------------------------------------ #
    def astype(self, dtype) -> "Module":
        """Convert every parameter to ``dtype`` in place; returns ``self``.

        Layers cast their inputs to their own weights' dtype, so the
        forward/backward pass — activations, gradients and optimizer
        state — follows.  Call it between steps (pending gradients are
        not converted).
        """
        for p in self.parameters():
            p.data = p.data.astype(dtype, copy=False)
        return self

    # ------------------------------------------------------------------ #
    # State
    # ------------------------------------------------------------------ #
    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(f"state dict mismatch: missing={missing}, unexpected={unexpected}")
        for name, p in own.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"{name}: shape {state[name].shape} != {p.data.shape}"
                )
            # Each parameter keeps its dtype: a double-precision
            # checkpoint loads into a single-precision model.
            p.data = np.array(state[name], dtype=p.data.dtype, copy=True)


class Sequential(Module):
    """Chain of single-input single-output modules."""

    def __init__(self, *layers: Module):
        super().__init__()
        if not layers:
            raise ValueError("Sequential requires at least one layer")
        self.layers = list(layers)

    def forward(self, x):
        for layer in self.layers:
            x = layer(x)

        def back(grad):
            for layer in reversed(self.layers):
                grad = layer.backward(grad)
            return grad

        self._back = back
        return x
