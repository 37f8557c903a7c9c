"""The neural network potential (NNP) used by the TensorKMC engines.

``NNPotential`` combines the tabulated descriptor (Eq. 6), a per-feature
standardiser, per-element reference energies, and the per-element atomistic
networks.  It implements :class:`repro.potentials.base.CountsPotential`, so
the KMC engines can use it interchangeably with the EAM baseline, and it
additionally offers the continuous off-lattice path used for training and
force validation (Fig. 7).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from ..potentials.base import CountsPotential
from ..potentials.tables import FeatureTable
from .dataset import Structure
from .descriptors import build_pair_list, structure_features, structure_forces
from .network import ElementNetworks

__all__ = ["NNPotential"]


class NNPotential(CountsPotential):
    """Neural network potential over exponential descriptors.

    Parameters
    ----------
    table:
        The descriptor table; its shell distances define the lattice shells
        this potential can evaluate.
    networks:
        Per-element atomistic networks whose input width must equal
        ``n_elements * table.n_dim``.
    rcut:
        Cutoff radius in Angstrom (for the continuous path).
    """

    #: All rigid-lattice inference runs through the deterministic
    #: tiled-GEMM kernel (:mod:`repro.operators.tilegemm`): reduction
    #: panels are fixed ``k_tile`` wide and summed in a fixed order, and
    #: row blocks are ``m_tile`` rows or, for a launch's last block, a
    #: multiple of 8.  A row's bits do not depend on how many 8-row groups
    #: share its call (measured, and pinned by
    #: ``tests/test_tilegemm.py::TestRowPaddingPremise``), so each atom's
    #: energy is bit-identical whether it is evaluated alone or inside any
    #: batch.  The engines therefore take
    #: the batched miss path for the NNP while the Fig. 8 cache-equivalence
    #: guarantee stays bitwise.
    batch_row_invariant = True

    def __init__(
        self,
        table: FeatureTable,
        networks: ElementNetworks,
        rcut: float,
    ) -> None:
        expected = networks.n_elements * table.n_dim
        if networks.channels[0] != expected:
            raise ValueError(
                f"network input width {networks.channels[0]} != "
                f"n_elements*n_dim = {expected}"
            )
        self.table = table
        self.networks = networks
        self.n_elements = networks.n_elements
        self.rcut = float(rcut)
        self.shell_distances = table.shell_distances
        n_feat = expected
        # Standardiser and energy references; identity until trained.
        self.set_standardisation(
            np.zeros(n_feat, dtype=np.float32),
            np.ones(n_feat, dtype=np.float32),
            np.zeros(self.n_elements, dtype=np.float64),
            1.0,
        )

    # ------------------------------------------------------------------
    # Standardisation plumbing (set by the trainer)
    # ------------------------------------------------------------------
    def set_standardisation(
        self,
        feature_mean: np.ndarray,
        feature_std: np.ndarray,
        reference_energies: np.ndarray,
        energy_scale: float,
    ) -> None:
        """Install the feature scaler and energy references fitted in training.

        Zero-variance features (constant over the training set — common for
        shells a species never reaches) are clamped to a unit standard
        deviation here, at install time: dividing by ``std == 0`` would turn
        every downstream energy into NaN.  The clamp is exact for such
        features because their centred value is always 0 anyway.
        """
        self.feature_mean = np.asarray(feature_mean, dtype=np.float32)
        std = np.asarray(feature_std, dtype=np.float32).copy()
        std[~(std > 0.0)] = 1.0  # also catches NaN stds
        self.feature_std = std
        self.reference_energies = np.asarray(reference_energies, dtype=np.float64)
        self.energy_scale = float(energy_scale)
        # Per-call overhead killers for the inference hot loop: the divide
        # becomes a cached multiply, and the per-type reference gather runs
        # against a padded table whose extra slot absorbs vacancy codes.
        self._inv_std = (
            np.float32(1.0) / self.feature_std
        ).astype(np.float32)
        self._ref_padded = np.concatenate(
            [self.reference_energies.astype(np.float64), [0.0]]
        )
        # New scaler == new energy function: bump the parameter epoch so
        # persistent row-energy caches drop values produced by the old one.
        self.params_epoch = getattr(self, "params_epoch", 0) + 1

    def normalise(self, features: np.ndarray) -> np.ndarray:
        """Standardise raw descriptor features (cached reciprocal scale)."""
        out = np.subtract(features, self.feature_mean, dtype=np.float32)
        out *= self._inv_std
        return out

    # ------------------------------------------------------------------
    # Rigid-lattice path (CountsPotential, used by the KMC engines)
    # ------------------------------------------------------------------
    def energies_from_counts(
        self, center_types: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        feats = self.table.features_from_counts(counts)
        return self._atom_energies(feats, center_types)

    def energies_from_counts_fused(
        self, center_types: np.ndarray, counts: np.ndarray, ledger=None
    ) -> np.ndarray:
        """:meth:`energies_from_counts` with big-fusion cost accounting.

        An optional :class:`~repro.sunway.costmodel.CostLedger` receives the
        modeled Sunway cost of the whole batched evaluation.  Both paths run
        the same deterministic tiled-GEMM kernel, so results are
        bit-identical to :meth:`energies_from_counts`.
        """
        feats = self.table.features_from_counts(counts)
        return self._atom_energies(feats, center_types, ledger=ledger)

    def _atom_energies(
        self, features: np.ndarray, species: np.ndarray, ledger=None
    ) -> np.ndarray:
        """Per-atom energies; vacancies get exactly 0.

        One shared path for scalar and batched callers: the deterministic
        tiled kernel makes each row a pure function of that row's features,
        and the reference-energy gather runs once against the padded table
        (vacancy codes hit the zero slot) instead of per direction.
        """
        species = np.asarray(species)
        is_atom = species < self.n_elements
        t = np.where(is_atom, species, 0)
        norm = self.normalise(features)
        net = self.networks.forward(norm, t, ledger=ledger).astype(np.float64)
        refs = self._ref_padded[np.where(is_atom, species, self.n_elements)]
        energies = refs + self.energy_scale * net
        return np.where(is_atom, energies, 0.0)

    # ------------------------------------------------------------------
    # Continuous off-lattice path (training / Fig. 7 validation)
    # ------------------------------------------------------------------
    def structure_energy(self, structure: Structure) -> float:
        """Total energy of an off-lattice periodic structure."""
        pairs = build_pair_list(structure.positions, structure.cell, self.rcut)
        feats = structure_features(
            structure.species, pairs, self.table, n_elements=self.n_elements
        )
        return float(np.sum(self._atom_energies(feats, structure.species)))

    def structure_energy_and_forces(
        self, structure: Structure
    ) -> Tuple[float, np.ndarray]:
        """Total energy and analytic forces for an off-lattice structure.

        Forces follow the chain rule through the descriptor Jacobian; the
        network input gradient is exact for ReLU activations (a.e.).
        """
        pairs = build_pair_list(structure.positions, structure.cell, self.rcut)
        feats = structure_features(
            structure.species, pairs, self.table, n_elements=self.n_elements
        )
        species = structure.species
        energy = float(np.sum(self._atom_energies(feats, species)))
        norm = self.normalise(feats)
        dE_dnorm = self.networks.input_gradient(norm, species).astype(np.float64)
        dE_dfeat = self.energy_scale * dE_dnorm / self.feature_std.astype(np.float64)
        forces = structure_forces(
            species, pairs, self.table, dE_dfeat, n_elements=self.n_elements
        )
        # F = -dE/dpos: structure_forces returns +dE/df * df/dpos contributions
        # signed as forces already (see its docstring), so no extra negation.
        return energy, forces

    # ------------------------------------------------------------------
    # Persistence
    # ------------------------------------------------------------------
    def save(self, path: str) -> None:
        """Serialise weights, scaler, and hyper-parameters to an ``.npz``."""
        payload = {
            "pq": self.table.pq,
            "shell_distances": self.shell_distances,
            "rcut": np.array([self.rcut]),
            "channels": np.array(self.networks.channels),
            "n_elements": np.array([self.networks.n_elements]),
            "feature_mean": self.feature_mean,
            "feature_std": self.feature_std,
            "reference_energies": self.reference_energies,
            "energy_scale": np.array([self.energy_scale]),
        }
        for e, net in self.networks.nets.items():
            for l, (w, b) in enumerate(zip(net.weights, net.biases)):
                payload[f"w_{e}_{l}"] = w
                payload[f"b_{e}_{l}"] = b
        np.savez(path, **payload)

    @classmethod
    def load(cls, path: str) -> "NNPotential":
        """Inverse of :meth:`save`."""
        data = np.load(path)
        table = FeatureTable(data["shell_distances"], pq=data["pq"])
        channels = tuple(int(c) for c in data["channels"])
        n_elements = int(data["n_elements"][0])
        networks = ElementNetworks(
            channels, np.random.default_rng(0), n_elements=n_elements
        )
        for e, net in networks.nets.items():
            for l in range(net.n_layers):
                net.weights[l][...] = data[f"w_{e}_{l}"]
                net.biases[l][...] = data[f"b_{e}_{l}"]
        model = cls(table, networks, rcut=float(data["rcut"][0]))
        model.set_standardisation(
            data["feature_mean"],
            data["feature_std"],
            data["reference_energies"],
            float(data["energy_scale"][0]),
        )
        return model
