"""From-scratch training loop for the NNP (replaces TensorFlow).

The trainer fits per-element reference energies by linear regression on
composition, standardises the descriptor features, and then minimises

    L = L_energy + force_weight * L_force

with Adam.  ``L_energy`` is the mean squared per-atom total-energy error.
``L_force`` (optional, ``force_weight > 0``) is the mean squared force-
component error; its parameter gradient needs double backpropagation —
the force is linear in the network's *input gradient*, whose parameter
derivative is computed exactly for ReLU networks by
:meth:`repro.nnp.network.AtomicNetwork.force_param_gradients`.  The paper's
force accuracy (R^2 = 0.88, clearly below its energy R^2 = 0.998) indicates
an energy-dominated objective; a small force weight reproduces that regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from .dataset import Structure
from .descriptors import (
    build_pair_list,
    structure_features,
    structure_forces,
    structure_forces_vjp,
)
from .model import NNPotential

__all__ = ["Adam", "TrainingHistory", "NNPTrainer"]

#: Adam's moment decay rates and denominator guard (Kingma & Ba defaults).
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
#: Structures per mini-batch.
BATCH_STRUCTURES = 32


class Adam:
    """Adam optimiser over a list of parameter arrays (Kingma & Ba 2015)."""

    def __init__(
        self,
        params: Sequence[np.ndarray],
        lr: float = 1e-3,
    ) -> None:
        self.params = list(params)
        self.lr = lr
        self.m = [np.zeros_like(p, dtype=np.float64) for p in self.params]
        self.v = [np.zeros_like(p, dtype=np.float64) for p in self.params]
        self.t = 0

    def step(self, grads: Sequence[np.ndarray]) -> None:
        """Apply one update in place on the registered parameter arrays."""
        if len(grads) != len(self.params):
            raise ValueError("gradient list length mismatch")
        self.t += 1
        b1c = 1.0 - ADAM_BETA1**self.t
        b2c = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(self.params, grads, self.m, self.v):
            g64 = np.asarray(g, dtype=np.float64)
            m *= ADAM_BETA1
            m += (1.0 - ADAM_BETA1) * g64
            v *= ADAM_BETA2
            v += (1.0 - ADAM_BETA2) * g64 * g64
            update = self.lr * (m / b1c) / (np.sqrt(v / b2c) + ADAM_EPS)
            p -= update.astype(p.dtype)


@dataclass
class TrainingHistory:
    """Loss curve and metadata recorded during training."""

    epoch_loss: List[float] = field(default_factory=list)
    best_loss: float = np.inf
    n_epochs: int = 0

    def record(self, loss: float) -> None:
        self.epoch_loss.append(loss)
        self.best_loss = min(self.best_loss, loss)
        self.n_epochs += 1


class NNPTrainer:
    """Fits an :class:`NNPotential` to labelled structures.

    Parameters
    ----------
    model:
        The potential to train (modified in place).
    structures:
        Training structures (energies in eV; forces optional for training).
    """

    def __init__(self, model: NNPotential, structures: Sequence[Structure]) -> None:
        if not structures:
            raise ValueError("empty training set")
        self.model = model
        self.structures = list(structures)
        self._prepare()

    def _prepare(self) -> None:
        """Precompute features, fit the standardiser and reference energies."""
        model = self.model
        feats_list: List[np.ndarray] = []
        species_list: List[np.ndarray] = []
        struct_index: List[np.ndarray] = []
        n_el = model.n_elements
        compositions = np.zeros((len(self.structures), n_el), dtype=np.float64)
        energies = np.zeros(len(self.structures), dtype=np.float64)
        self.pair_lists = []
        self.atom_slices = []
        start = 0
        for b, s in enumerate(self.structures):
            pairs = build_pair_list(s.positions, s.cell, model.rcut)
            self.pair_lists.append(pairs)
            self.atom_slices.append((start, start + s.n_atoms))
            start += s.n_atoms
            feats_list.append(
                structure_features(s.species, pairs, model.table, n_elements=n_el)
            )
            species_list.append(np.asarray(s.species, dtype=np.int64))
            struct_index.append(np.full(s.n_atoms, b, dtype=np.int64))
            for e in range(n_el):
                compositions[b, e] = np.sum(s.species == e)
            energies[b] = s.energy

        self.features = np.concatenate(feats_list, axis=0)
        self.species = np.concatenate(species_list, axis=0)
        self.struct_index = np.concatenate(struct_index, axis=0)
        self.n_atoms_per_struct = compositions.sum(axis=1)
        self.energies = energies

        # Per-element reference energies by least squares on composition.
        ref, *_ = np.linalg.lstsq(compositions, energies, rcond=None)
        residual = energies - compositions @ ref
        scale = float(np.std(residual / self.n_atoms_per_struct))
        scale = max(scale, 1e-6)

        mean = self.features.mean(axis=0)
        std = self.features.std(axis=0)
        std[std < 1e-8] = 1.0
        model.set_standardisation(mean, std, ref, scale)

        self.norm_features = model.normalise(self.features)
        self.residual_targets = residual  # total residual energy per structure

    # ------------------------------------------------------------------
    def train(
        self,
        rng: np.random.Generator,
        n_epochs: int = 200,
        lr: float = 1e-3,
        lr_decay: float = 1.0,
        force_weight: float = 0.0,
        verbose: bool = False,
    ) -> TrainingHistory:
        """Run Adam training; returns the loss history.

        The energy loss is the mean squared *per-atom* energy error in units
        of the model's energy scale.  With ``force_weight > 0`` a force MSE
        term (eV/A units, scaled by the weight) is added via exact double
        backpropagation.
        """
        model = self.model
        params: List[np.ndarray] = []
        for e in sorted(model.networks.nets):
            params.extend(model.networks.nets[e].get_parameters())
        opt = Adam(params, lr=lr)

        n_structs = len(self.structures)
        history = TrainingHistory()
        for epoch in range(n_epochs):
            order = rng.permutation(n_structs)
            epoch_loss = 0.0
            n_batches = 0
            for start in range(0, n_structs, BATCH_STRUCTURES):
                batch = order[start : start + BATCH_STRUCTURES]
                loss = self._batch_step(batch, opt, force_weight)
                epoch_loss += loss
                n_batches += 1
            opt.lr *= lr_decay
            history.record(epoch_loss / max(n_batches, 1))
            if verbose and (epoch % 10 == 0 or epoch == n_epochs - 1):
                print(f"epoch {epoch:4d}  loss {history.epoch_loss[-1]:.6f}")
        return history

    def _batch_step(
        self, batch: np.ndarray, opt: Adam, force_weight: float = 0.0
    ) -> float:
        """One Adam step on a batch of structure indices; returns the loss."""
        model = self.model
        scale = model.energy_scale
        mask_atoms = np.isin(self.struct_index, batch)
        feats = self.norm_features[mask_atoms]
        species = self.species[mask_atoms]
        sidx = self.struct_index[mask_atoms]

        # Map global structure ids to 0..B-1 slots.
        remap = {int(b): i for i, b in enumerate(batch)}
        slots = np.fromiter((remap[int(b)] for b in sidx), count=sidx.size, dtype=np.int64)
        B = len(batch)
        n_atoms = self.n_atoms_per_struct[batch]
        target = self.residual_targets[batch]

        # Forward through per-element networks with caches.
        atomic = np.zeros(feats.shape[0], dtype=np.float64)
        caches: Dict[int, tuple] = {}
        for e, net in model.networks.nets.items():
            m = species == e
            if np.any(m):
                out, cache = net.forward_cached(feats[m])
                atomic[m] = out.astype(np.float64)
                caches[e] = (m, cache)

        pred_residual = np.zeros(B, dtype=np.float64)
        np.add.at(pred_residual, slots, scale * atomic)
        err_per_atom = (pred_residual - target) / n_atoms
        loss = float(np.mean((err_per_atom / scale) ** 2))

        # dL/d(atomic_i) — chain through per-atom normalisation and scale.
        dL_dpred = 2.0 * err_per_atom / (n_atoms * B * scale**2)
        grad_atomic = dL_dpred[slots] * scale

        grads: List[np.ndarray] = []
        for e in sorted(model.networks.nets):
            net = model.networks.nets[e]
            if e in caches:
                m, cache = caches[e]
                gw, gb, _ = net.backward(grad_atomic[m], cache)
                for w, b in zip(gw, gb):
                    grads.append(w)
                    grads.append(b)
            else:
                for p in net.get_parameters():
                    grads.append(np.zeros_like(p))

        if force_weight > 0.0:
            force_loss, v_adjoint = self._force_adjoint(
                batch, species, slots, caches, feats.shape[0]
            )
            loss += force_weight * force_loss
            offset = 0
            for e in sorted(model.networks.nets):
                net = model.networks.nets[e]
                if e in caches:
                    m, cache = caches[e]
                    fg = net.force_param_gradients(
                        cache, force_weight * v_adjoint[m]
                    )
                    for idx, g in enumerate(fg):
                        grads[offset + idx] = grads[offset + idx] + g
                offset += 2 * net.n_layers

        opt.step(grads)
        return loss

    def _force_adjoint(self, batch, species, slots, caches, n_batch_atoms):
        """Force MSE over the batch and its adjoint direction dL_f/d(grad_x E).

        Returns ``(force_loss, v)`` with ``v`` of shape
        ``(n_batch_atoms, n_feat)`` such that the parameter gradient of the
        force loss is ``d/dtheta sum_i grad_x E(x_i) . v_i``.
        """
        model = self.model
        scale = model.energy_scale
        std = model.feature_std.astype(np.float64)

        # Input gradient of every batch atom from the cached forwards.
        g = np.zeros((n_batch_atoms, self.norm_features.shape[1]), dtype=np.float64)
        for e, (m, cache) in caches.items():
            net = model.networks.nets[e]
            g[m] = net.input_gradient_cached(cache).astype(np.float64)
        dE_dfeat = scale * g / std

        # Per-structure forces and adjoints.
        n_components = 0
        sq_err_total = 0.0
        v = np.zeros_like(g)
        # batch atoms are ordered by ascending global structure id
        batch_sorted = np.sort(batch)
        local_start = 0
        for b in batch_sorted:
            s = self.structures[int(b)]
            pairs = self.pair_lists[int(b)]
            n = s.n_atoms
            rows = slice(local_start, local_start + n)
            local_start += n
            f_pred = structure_forces(
                s.species, pairs, model.table, dE_dfeat[rows],
                n_elements=model.n_elements,
            )
            diff = f_pred - np.asarray(s.forces, dtype=np.float64)
            sq_err_total += float(np.sum(diff * diff))
            n_components += 3 * n
            # dL_f/dF for this structure, before the 1/n_components factor.
            residual = 2.0 * diff
            v_raw = structure_forces_vjp(
                s.species, pairs, model.table, residual,
                n_elements=model.n_elements,
            )
            v[rows] = v_raw * scale / std
        if n_components == 0:
            return 0.0, v
        v /= n_components
        return sq_err_total / n_components, v

    # ------------------------------------------------------------------
    def evaluate_energies(
        self, structures: Optional[Sequence[Structure]] = None
    ) -> Dict[str, np.ndarray]:
        """Predicted vs reference per-atom energies for a structure set."""
        structures = list(structures) if structures is not None else self.structures
        pred = np.array([self.model.structure_energy(s) for s in structures])
        ref = np.array([s.energy for s in structures])
        n = np.array([s.n_atoms for s in structures], dtype=np.float64)
        return {"predicted": pred / n, "reference": ref / n}

    def evaluate_forces(
        self, structures: Optional[Sequence[Structure]] = None
    ) -> Dict[str, np.ndarray]:
        """Predicted vs reference force components for a structure set."""
        structures = list(structures) if structures is not None else self.structures
        pred: List[np.ndarray] = []
        ref: List[np.ndarray] = []
        for s in structures:
            _, f = self.model.structure_energy_and_forces(s)
            pred.append(f.ravel())
            ref.append(np.asarray(s.forces).ravel())
        return {"predicted": np.concatenate(pred), "reference": np.concatenate(ref)}
