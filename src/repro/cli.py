"""Command-line interface: ``python -m repro <command>``.

Five subcommands cover the daily workflow:

* ``run``      — serial TensorKMC simulation of an Fe-Cu alloy;
* ``parallel`` — the same workload on the synchronous sublattice driver,
  optionally checkpointing at cycle boundaries and recovering from an
  injected rank failure (``--kill-rank``);
* ``campaign`` — many independent replicas (seed sweep or temperature
  ladder) with every replica's stale rows fused into one shared potential
  call per round;
* ``resume``   — continue a serial or parallel checkpoint (auto-detected);
* ``train``    — fit an NNP to oracle-labelled structures and save it.

Every command prints a short machine-parseable summary ("key = value" lines)
so scripts can scrape results.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

import numpy as np

from .analysis import analyse_precipitation
from .constants import CU_CONCENTRATION, TEMPERATURE_RPV, VACANCY_CONCENTRATION
from .core import TensorKMCEngine, TripleEncoding
from .core.profiling import PHASES
from .io.snapshots import save_lattice
from .io.xyz import write_xyz
from .lattice import LatticeState
from .potentials import EAMPotential

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="TensorKMC reproduction: NNP-driven atomistic KMC",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="serial TensorKMC simulation")
    _common_alloy_args(run)
    run.add_argument("--steps", type=int, default=1000)
    run.add_argument("--snapshot", type=str, default=None,
                     help="write the final lattice to this .npz file")
    run.add_argument("--xyz", type=str, default=None,
                     help="write the final configuration to this .xyz file")
    run.add_argument("--potential", type=str, default=None,
                     help="path to a trained NNPotential .npz (default: EAM)")
    run.add_argument("--restart", type=str, default=None,
                     help="resume bit-exactly from a checkpoint .npz")
    run.add_argument("--checkpoint", type=str, default=None,
                     help="write a resumable checkpoint at the end")

    par = sub.add_parser("parallel", help="synchronous sublattice simulation")
    _common_alloy_args(par)
    par.set_defaults(box=16)
    par.add_argument("--ranks", type=int, default=2)
    par.add_argument("--cycles", type=int, default=16)
    par.add_argument("--t-stop", type=float, default=2e-10)
    par.add_argument("--potential", type=str, default=None,
                     help="path to a trained NNPotential .npz (default: EAM)")
    par.add_argument("--restart", type=str, default=None,
                     help="resume bit-exactly from a parallel checkpoint .npz")
    par.add_argument("--checkpoint", type=str, default=None,
                     help="checkpoint path (written at cycle boundaries)")
    par.add_argument("--checkpoint-every", type=int, default=4,
                     help="cycles between checkpoints (with --checkpoint)")
    par.add_argument("--kill-rank", type=int, default=None,
                     help="inject a rank failure (requires --checkpoint)")
    par.add_argument("--kill-cycle", type=int, default=None,
                     help="cycle at which --kill-rank dies (default 0)")

    camp = sub.add_parser(
        "campaign",
        help="cross-replica campaign with shared batched evaluation",
    )
    _common_alloy_args(camp)
    camp.add_argument("--replicas", type=int, default=4,
                      help="seed-sweep size: seeds --seed .. --seed+R-1 "
                           "(ignored when --seeds/--temperatures is given)")
    camp.add_argument("--seeds", type=int, nargs="+", default=None,
                      help="explicit seed list, one replica per seed")
    camp.add_argument("--temperatures", type=float, nargs="+", default=None,
                      help="temperature ladder, one replica per value "
                           "(all replicas use --seed)")
    camp.add_argument("--steps", type=int, default=200,
                      help="KMC event budget per replica")
    camp.add_argument("--max-in-flight", type=int, default=None,
                      help="concurrent replicas; completed ones are "
                           "hot-swapped for queued specs (default: all)")
    camp.add_argument("--potential", type=str, default=None,
                      help="path to a trained NNPotential .npz (default: EAM)")

    res = sub.add_parser(
        "resume", help="continue a serial or parallel checkpoint"
    )
    res.add_argument("path", help="checkpoint .npz (kind is auto-detected)")
    res.add_argument("--steps", type=int, default=1000,
                     help="serial checkpoints: KMC events to run")
    res.add_argument("--cycles", type=int, default=16,
                     help="parallel checkpoints: sublattice cycles to run")
    res.add_argument("--potential", type=str, default=None,
                     help="path to a trained NNPotential .npz (default: EAM)")
    res.add_argument("--checkpoint", type=str, default=None,
                     help="write a fresh checkpoint when done")

    train = sub.add_parser("train", help="train an NNP on oracle data")
    train.add_argument("--rcut", type=float, default=6.5)
    train.add_argument("--structures", type=int, default=120)
    train.add_argument("--train-fraction", type=float, default=0.8)
    train.add_argument("--epochs", type=int, default=80)
    train.add_argument("--force-epochs", type=int, default=0,
                       help="extra epochs with the double-backprop force loss")
    train.add_argument("--channels", type=int, nargs="+",
                       default=[64, 64, 64, 1])
    train.add_argument("--seed", type=int, default=0)
    train.add_argument("--output", type=str, required=True,
                       help="where to save the trained model (.npz)")
    return parser


def _common_alloy_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--box", type=int, default=12, help="cubic cells per axis")
    p.add_argument("--rcut", type=float, default=2.87)
    p.add_argument("--temperature", type=float, default=TEMPERATURE_RPV)
    p.add_argument("--cu", type=float, default=CU_CONCENTRATION)
    p.add_argument("--vacancies", type=float, default=None,
                   help="vacancy site fraction (default: paper value, min 1)")
    p.add_argument("--seed", type=int, default=0)


def _print_hot_path_summary(summary, events: int) -> None:
    """Per-phase timings and kernel counters shared by run/parallel output."""
    for name in PHASES:
        seconds = summary.get(f"{name}_seconds")
        if seconds is None:
            continue
        us = 1e6 * seconds / events if events else 0.0
        print(f"phase_{name}_us_per_event = {us:.3f}")
    for key in ("cache_misses", "invalidations", "rates_evaluated"):
        if key in summary:
            print(f"{key} = {int(summary[key])}")
    for key in ("mean_selection_depth", "mean_batch_size"):
        if key in summary:
            print(f"{key} = {summary[key]:.3f}")
    _print_row_cache_summary(summary)


def _print_row_cache_summary(summary) -> None:
    """Row-energy cache hit rate + resident size."""
    print(f"row_cache_hit_rate = {summary['row_cache_hit_rate']:.4f}")
    print(
        f"row_cache_resident_mb = "
        f"{summary['row_cache_bytes'] / (1024.0 * 1024.0):.3f}"
    )


def _make_lattice(args) -> LatticeState:
    lattice = LatticeState((args.box,) * 3)
    vac = args.vacancies if args.vacancies is not None else VACANCY_CONCENTRATION
    lattice.randomize_alloy(
        np.random.default_rng(args.seed), cu_fraction=args.cu,
        vacancy_fraction=vac,
    )
    return lattice


def _load_potential(args, tet: TripleEncoding):
    if getattr(args, "potential", None):
        from .nnp.model import NNPotential

        model = NNPotential.load(args.potential)
        if model.shell_distances.shape != tet.shell_distances.shape or not (
            np.allclose(model.shell_distances, tet.shell_distances)
        ):
            raise SystemExit(
                "error: the trained model's shells do not match --rcut"
            )
        return model
    return EAMPotential(tet.shell_distances)


def _cmd_run(args) -> int:
    if args.restart:
        from .io.checkpoint import load_checkpoint

        tet = _tet_from_archive(args.restart)
        potential = _load_potential(args, tet)
        engine = load_checkpoint(args.restart, potential, tet=tet)
        lattice = engine.lattice
    else:
        tet = TripleEncoding(rcut=args.rcut)
        lattice = _make_lattice(args)
        potential = _load_potential(args, tet)
        engine = TensorKMCEngine(
            lattice, potential, tet, temperature=args.temperature,
            rng=np.random.default_rng(args.seed + 1),
        )
    engine.run(n_steps=args.steps)
    stats = analyse_precipitation(lattice, engine.time)
    print(f"events = {engine.step_count}")
    print(f"time_s = {engine.time:.6e}")
    print(f"cache_hit_rate = {engine.cache.stats.hit_rate:.4f}")
    _print_hot_path_summary(engine.summary(), engine.step_count)
    print(f"isolated_cu = {stats.isolated}")
    print(f"max_cluster = {stats.max_size}")
    print(f"number_density_m3 = {stats.number_density:.4e}")
    if args.snapshot:
        save_lattice(args.snapshot, lattice, time=engine.time)
        print(f"snapshot = {args.snapshot}")
    if args.xyz:
        with open(args.xyz, "w") as fh:
            write_xyz(fh, lattice, time=engine.time)
        print(f"xyz = {args.xyz}")
    if args.checkpoint:
        from .io.checkpoint import save_checkpoint

        save_checkpoint(args.checkpoint, engine)
        print(f"checkpoint = {args.checkpoint}")
    return 0


def _tet_from_archive(path: str) -> TripleEncoding:
    """Rebuild the TET from the cutoff stored in a checkpoint archive."""
    with np.load(path, allow_pickle=False) as data:
        return TripleEncoding(rcut=float(data["rcut"][0]), a=float(data["a"][0]))


def _cmd_parallel(args) -> int:
    from .parallel import FaultEvent, FaultPlan, SublatticeKMC, run_resilient

    kill = args.kill_rank is not None
    if kill and not args.checkpoint:
        raise SystemExit("error: --kill-rank recovery requires --checkpoint")
    plan = None
    if kill:
        plan = FaultPlan(events=[
            FaultEvent("kill", cycle=args.kill_cycle or 0, rank=args.kill_rank)
        ])
    if args.restart:
        from .io.checkpoint import load_parallel_checkpoint

        tet = _tet_from_archive(args.restart)
        potential = _load_potential(args, tet)
        sim = load_parallel_checkpoint(
            args.restart, potential, tet=tet, fault_plan=plan,
        )
        tet = sim.tet
    else:
        tet = TripleEncoding(rcut=args.rcut)
        lattice = _make_lattice(args)
        potential = _load_potential(args, tet)
        sim = SublatticeKMC(
            lattice, potential, tet, n_ranks=args.ranks,
            temperature=args.temperature, t_stop=args.t_stop, seed=args.seed,
            fault_plan=plan,
        )
    before = sim.gather_global().species_counts().copy()
    recoveries = 0
    if args.checkpoint:
        sim, recoveries = run_resilient(
            sim, args.cycles, args.checkpoint, potential, tet=tet,
            checkpoint_every=args.checkpoint_every,
        )
    else:
        sim.run(args.cycles)
    conserved = bool(
        np.array_equal(sim.gather_global().species_counts(), before)
    )
    print(f"ranks = {sim.decomposition.n_ranks}")
    print(f"grid = {sim.decomposition.grid}")
    print(f"cycles = {len(sim.cycles)}")
    print(f"events = {sim.total_events}")
    print(f"time_s = {sim.time:.6e}")
    print(f"messages = {sim.world.stats.messages_sent}")
    print(f"bytes = {sim.world.stats.bytes_sent}")
    _print_hot_path_summary(sim.summary(), sim.total_events)
    if args.checkpoint:
        print(f"checkpoint = {args.checkpoint}")
        print(f"recoveries = {recoveries}")
    print(f"species_conserved = {conserved}")
    print(f"ghosts_consistent = {sim.check_ghost_consistency()}")
    return 0 if conserved else 1


def _cmd_campaign(args) -> int:
    from .campaign import (
        ReplicaCampaign,
        alloy_engine_factory,
        seed_sweep,
        temperature_ladder,
    )

    if args.seeds and args.temperatures:
        raise SystemExit("error: --seeds and --temperatures are exclusive")
    tet = TripleEncoding(rcut=args.rcut)
    potential = _load_potential(args, tet)
    if args.temperatures:
        specs = temperature_ladder(
            args.temperatures, n_steps=args.steps, seed=args.seed
        )
    else:
        seeds = (
            args.seeds if args.seeds
            else range(args.seed, args.seed + args.replicas)
        )
        specs = seed_sweep(
            seeds, n_steps=args.steps, temperature=args.temperature
        )
    vac = args.vacancies if args.vacancies is not None else VACANCY_CONCENTRATION
    factory = alloy_engine_factory(
        args.box, potential, tet, cu_fraction=args.cu, vacancy_fraction=vac,
    )
    campaign = ReplicaCampaign(specs, factory, max_in_flight=args.max_in_flight)
    results = campaign.run()
    agg = campaign.summary()
    print(f"replicas = {len(results)}")
    print(f"rounds = {agg['rounds']}")
    print(f"shared_batches = {agg['shared_batches']}")
    print(f"shared_rows = {agg['shared_rows']}")
    print(f"max_shared_batch = {agg['max_shared_batch']}")
    _print_row_cache_summary(agg)
    print(f"events = {sum(r.executed for r in results)}")
    for r in results:
        print(
            f"replica[{r.spec.name}] events={r.executed} "
            f"time_s={r.time:.6e} frozen={r.frozen} "
            f"digest={r.digest[:12]}"
        )
    return 0


def _cmd_resume(args) -> int:
    from .io.checkpoint import (
        checkpoint_kind,
        load_checkpoint,
        load_parallel_checkpoint,
        save_checkpoint,
        save_parallel_checkpoint,
    )

    tet = _tet_from_archive(args.path)
    potential = _load_potential(args, tet)
    kind = checkpoint_kind(args.path)
    print(f"kind = {kind}")
    if kind == "serial":
        engine = load_checkpoint(args.path, potential, tet=tet)
        engine.run(n_steps=args.steps)
        print(f"events = {engine.step_count}")
        print(f"time_s = {engine.time:.6e}")
        if args.checkpoint:
            save_checkpoint(args.checkpoint, engine)
            print(f"checkpoint = {args.checkpoint}")
    else:
        sim = load_parallel_checkpoint(args.path, potential, tet=tet)
        sim.run(args.cycles)
        print(f"cycles = {len(sim.cycles)}")
        print(f"events = {sim.total_events}")
        print(f"time_s = {sim.time:.6e}")
        print(f"ghosts_consistent = {sim.check_ghost_consistency()}")
        if args.checkpoint:
            save_parallel_checkpoint(args.checkpoint, sim)
            print(f"checkpoint = {args.checkpoint}")
    return 0


def _cmd_train(args) -> int:
    from .nnp import (
        ElementNetworks,
        NNPotential,
        NNPTrainer,
        generate_structures,
        parity_report,
        train_test_split,
    )
    from .potentials import FeatureTable

    tet = TripleEncoding(rcut=args.rcut)
    oracle = EAMPotential(tet.shell_distances)
    rng = np.random.default_rng(args.seed)
    structures = generate_structures(oracle, rng, n_structures=args.structures)
    n_train = max(int(args.train_fraction * len(structures)), 1)
    if n_train >= len(structures):
        n_train = len(structures) - 1
    train, test = train_test_split(structures, rng, n_train=n_train)

    table = FeatureTable(tet.shell_distances)
    networks = ElementNetworks(tuple(args.channels), rng)
    model = NNPotential(table, networks, rcut=args.rcut)
    trainer = NNPTrainer(model, train)
    trainer.train(rng, n_epochs=args.epochs, lr=2e-3, lr_decay=0.99)
    if args.force_epochs > 0:
        trainer.train(
            rng, n_epochs=args.force_epochs, lr=5e-4, force_weight=2.0
        )
    ev = trainer.evaluate_energies(test)
    energy = parity_report(ev["predicted"], ev["reference"])
    model.save(args.output)
    print(f"n_train = {len(train)}")
    print(f"n_test = {len(test)}")
    print(f"energy_mae_ev_per_atom = {energy['mae']:.6f}")
    print(f"energy_r2 = {energy['r2']:.6f}")
    print(f"model = {args.output}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """Entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "parallel":
        return _cmd_parallel(args)
    if args.command == "campaign":
        return _cmd_campaign(args)
    if args.command == "resume":
        return _cmd_resume(args)
    if args.command == "train":
        return _cmd_train(args)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
