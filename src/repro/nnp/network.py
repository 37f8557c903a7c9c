"""The atomistic neural network — a stack of 1x1 convolutions.

A convolution with 1x1 kernels and stride 1 over an (N, H, W, C) tensor is an
MLP applied independently to every pixel (paper Fig. 6a); in TensorAlloy each
"pixel" is one atom.  This module implements that MLP from scratch in NumPy
with full backpropagation, plus the input-gradient path needed for force
prediction, and a per-element container (one subnetwork per chemical element,
TensorAlloy style).

The same weights feed the operator studies in :mod:`repro.operators`.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

from ..constants import N_ELEMENTS

__all__ = ["AtomicNetwork", "ElementNetworks"]


def _he_init(rng: np.random.Generator, fan_in: int, fan_out: int, dtype) -> np.ndarray:
    scale = np.sqrt(2.0 / fan_in)
    return (rng.standard_normal((fan_in, fan_out)) * scale).astype(dtype)


class AtomicNetwork:
    """Fully-connected ReLU network mapping feature vectors to atomic energies.

    Parameters
    ----------
    channels:
        Layer widths including input and output, e.g. the paper's
        ``(64, 128, 128, 128, 64, 1)``.  The output width must be 1.
    rng:
        Source of initial weights (He initialisation).
    dtype:
        Working precision; float32 matches the Sunway kernels.
    """

    def __init__(
        self,
        channels: Sequence[int],
        rng: np.random.Generator,
        dtype: np.dtype = np.float32,
    ) -> None:
        channels = tuple(int(c) for c in channels)
        if len(channels) < 2:
            raise ValueError("need at least input and output widths")
        if channels[-1] != 1:
            raise ValueError(f"output width must be 1, got {channels[-1]}")
        self.channels = channels
        self.dtype = np.dtype(dtype)
        self.weights: List[np.ndarray] = []
        self.biases: List[np.ndarray] = []
        for cin, cout in zip(channels[:-1], channels[1:]):
            self.weights.append(_he_init(rng, cin, cout, self.dtype))
            self.biases.append(np.zeros(cout, dtype=self.dtype))

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    @property
    def n_parameters(self) -> int:
        return sum(w.size for w in self.weights) + sum(b.size for b in self.biases)

    # ------------------------------------------------------------------
    # Forward / backward
    # ------------------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Per-atom energies ``(n,)`` from features ``(n, c_in)``."""
        h = np.asarray(x, dtype=self.dtype)
        last = self.n_layers - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if l != last:
                np.maximum(h, 0.0, out=h)
        return h[:, 0]

    def forward_cached(self, x: np.ndarray) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Forward pass keeping post-activation tensors for backprop.

        Returns ``(energies, cache)`` where ``cache[l]`` is the input of
        layer ``l`` (``cache[0]`` is ``x`` itself).
        """
        h = np.asarray(x, dtype=self.dtype)
        cache = [h]
        last = self.n_layers - 1
        for l, (w, b) in enumerate(zip(self.weights, self.biases)):
            h = h @ w + b
            if l != last:
                np.maximum(h, 0.0, out=h)
            cache.append(h)
        return h[:, 0], cache

    def backward(
        self, grad_out: np.ndarray, cache: List[np.ndarray]
    ) -> Tuple[List[np.ndarray], List[np.ndarray], np.ndarray]:
        """Backpropagate ``dL/dE`` through the network.

        Parameters
        ----------
        grad_out:
            ``(n,)`` gradient of the loss with respect to each atomic energy.
        cache:
            The cache from :meth:`forward_cached`.

        Returns
        -------
        ``(grad_weights, grad_biases, grad_input)`` with ``grad_input`` of
        shape ``(n, c_in)`` (used for force training).
        """
        g = np.asarray(grad_out, dtype=self.dtype)[:, None]
        grad_w: List[np.ndarray] = [np.empty(0)] * self.n_layers
        grad_b: List[np.ndarray] = [np.empty(0)] * self.n_layers
        last = self.n_layers - 1
        for l in range(last, -1, -1):
            if l != last:
                # grad through ReLU of layer l's output.
                g = g * (cache[l + 1] > 0)
            grad_w[l] = cache[l].T @ g
            grad_b[l] = g.sum(axis=0)
            if l > 0:
                g = g @ self.weights[l].T
            else:
                g = g @ self.weights[0].T
        return grad_w, grad_b, g

    def input_gradient(self, x: np.ndarray) -> np.ndarray:
        """``dE_i/dx_i`` for each atom — the force chain-rule factor.

        Returns ``(n, c_in)``; exact for ReLU activations (a.e.).
        """
        _, cache = self.forward_cached(x)
        return self.input_gradient_cached(cache)

    def input_gradient_cached(self, cache: List[np.ndarray]) -> np.ndarray:
        """``dE/dx`` from an existing forward cache (no re-forward)."""
        n = cache[0].shape[0]
        g = np.ones((n, 1), dtype=self.dtype)
        last = self.n_layers - 1
        for l in range(last, -1, -1):
            if l != last:
                g = g * (cache[l + 1] > 0)
            g = g @ self.weights[l].T
        return g

    def force_param_gradients(
        self, cache: List[np.ndarray], v: np.ndarray
    ) -> List[np.ndarray]:
        """Gradient of ``S = sum_i grad_x E(x_i) . v_i`` w.r.t. parameters.

        This is the double-backprop pass of force training: the force loss
        is linear in the network's input gradient, so its parameter gradient
        is ``dS/dtheta`` for the adjoint direction ``v``.  ``S`` equals the
        Jacobian-vector product of the network along ``v``; for ReLU
        activations the second derivative vanishes almost everywhere, so the
        masks from the cached forward are constants and ``S``'s computation
        graph is the linear chain ``t_l = (t_{l-1} W_l) o m_l`` — which this
        method differentiates in reverse.  Bias gradients are exactly zero
        (the input gradient does not depend on biases a.e.).

        Returns a list aligned with :meth:`get_parameters`.
        """
        last = self.n_layers - 1
        masks = [
            (cache[l + 1] > 0) if l != last else None
            for l in range(self.n_layers)
        ]
        # JVP forward: t_l per layer (store pre-mask inputs t_{l-1}).
        t = np.asarray(v, dtype=self.dtype)
        t_inputs: List[np.ndarray] = []
        for l in range(self.n_layers):
            t_inputs.append(t)
            t = t @ self.weights[l]
            if masks[l] is not None:
                t = t * masks[l]
        # Reverse: r_l = dS/d(u_l) with u_l = t_{l-1} W_l; S = sum t_L.
        n = cache[0].shape[0]
        r = np.ones((n, 1), dtype=self.dtype)
        grads: List[np.ndarray] = [np.empty(0)] * (2 * self.n_layers)
        for l in range(last, -1, -1):
            if masks[l] is not None:
                r = r * masks[l]
            grads[2 * l] = t_inputs[l].T @ r
            grads[2 * l + 1] = np.zeros_like(self.biases[l])
            r = r @ self.weights[l].T
        return grads

    # ------------------------------------------------------------------
    # Parameter (de)serialisation for optimisers and snapshots
    # ------------------------------------------------------------------
    def get_parameters(self) -> List[np.ndarray]:
        """Flat list [W0, b0, W1, b1, ...] (views, not copies)."""
        out: List[np.ndarray] = []
        for w, b in zip(self.weights, self.biases):
            out.append(w)
            out.append(b)
        return out

    def set_parameters(self, params: Sequence[np.ndarray]) -> None:
        """Inverse of :meth:`get_parameters` (copies values in)."""
        if len(params) != 2 * self.n_layers:
            raise ValueError("parameter list length mismatch")
        for l in range(self.n_layers):
            self.weights[l][...] = params[2 * l]
            self.biases[l][...] = params[2 * l + 1]


class ElementNetworks:
    """One :class:`AtomicNetwork` per chemical element (TensorAlloy style).

    All subnetworks share the architecture; an atom's energy is produced by
    the subnetwork of its own species.
    """

    def __init__(
        self,
        channels: Sequence[int],
        rng: np.random.Generator,
        n_elements: int = N_ELEMENTS,
        dtype: np.dtype = np.float32,
    ) -> None:
        self.nets: Dict[int, AtomicNetwork] = {
            e: AtomicNetwork(channels, rng, dtype=dtype) for e in range(n_elements)
        }
        self.n_elements = n_elements
        self.channels = tuple(int(c) for c in channels)
        self.dtype = np.dtype(dtype)
        # Lazily-built per-element deterministic tiled-GEMM executors
        # (:class:`~repro.operators.tilegemm.TileGEMMKernel`).  They alias
        # the live weight arrays (set_parameters copies in place), so no
        # invalidation on training updates is needed.  The tile plan is
        # pinned to the canonical machine spec, so every inference call —
        # whatever spec it charges costs against — runs the exact same
        # accumulation order.
        self._fusers: Dict[int, object] = {}

    def _kernel_for(self, e: int):
        """The cached deterministic inference kernel for element ``e``."""
        kernel = self._fusers.get(e)
        if kernel is None:
            from ..operators.tilegemm import TileGEMMKernel

            net = self.nets[e]
            kernel = TileGEMMKernel(net.weights, net.biases, dtype=self.dtype)
            self._fusers[e] = kernel
        return kernel

    def forward(
        self, features: np.ndarray, species: np.ndarray, ledger=None
    ) -> np.ndarray:
        """Per-atom energies: each atom is routed to its element's network.

        Inference runs through the big-fusion operator, the deterministic
        tiled-GEMM kernel, so each atom's energy is bit-identical regardless
        of how many other atoms share the call.  The tile plan is pinned to
        the canonical SW26010-pro, so the bits cannot depend on the machine
        model being studied.

        Parameters
        ----------
        ledger:
            Optional :class:`~repro.sunway.costmodel.CostLedger` accumulating
            the modeled Sunway cost of every per-element launch (paper
            Sec. 3.5, Algorithm 1).
        """
        features = np.asarray(features, dtype=self.dtype)
        species = np.asarray(species)
        energies = np.zeros(features.shape[0], dtype=self.dtype)
        for e in self.nets:
            mask = species == e
            if np.any(mask):
                energies[mask] = self._kernel_for(e)(
                    features[mask], ledger=ledger
                )[:, 0]
        return energies

    def input_gradient(self, features: np.ndarray, species: np.ndarray) -> np.ndarray:
        """Per-atom ``dE/df`` routed per element."""
        features = np.asarray(features, dtype=self.dtype)
        species = np.asarray(species)
        grads = np.zeros_like(features)
        for e, net in self.nets.items():
            mask = species == e
            if np.any(mask):
                grads[mask] = net.input_gradient(features[mask])
        return grads

    @property
    def n_parameters(self) -> int:
        return sum(net.n_parameters for net in self.nets.values())
