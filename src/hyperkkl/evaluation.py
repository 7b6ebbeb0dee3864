"""Observer evaluation: run a variant over held-out trajectories and
score it with RMSE and SMAPE after a transient discard.

All variants drive the latent filter with the measured output, the
plain ``kkl.simulate_latent`` or the static ``kkl.simulate_latent_injected``
(eval tapes nothing); they differ in how the latent state is decoded and
whether the latent dynamics carry an input-conditioned drive:

    autonomous / curriculum: plain latent filter, fixed decoder
    static:  latent filter plus gated injection, fixed decoder
    dynamic: plain latent filter, window-conditioned decoder

What each variant reads from a checkpoint (``read_checkpoint`` with
``observer=True`` reads only these):

    every variant: the latent pair obs.A, obs.B and the decoder dec.*
    static:  bundle.spec and bundle.params: the injection network inj.*
    dynamic: bundle.spec and bundle.params: the hypernetwork's LSTM
             hyper.lstm.* and decoder head hyper.dec_head.*, whose
             readout slices U_l an observer read leaves in the file
             (bundle.readout)

The encoder T and the encoder head only feed the training residual. The
readouts are nearly all of a dynamic checkpoint, each decoder layer l
takes only its own slice U_l, and ``nets.lowrank_linear`` takes that one
IN_BLOCK chunk of input columns at a time. So ``run_observer`` on an observer
read opens the file once and lists the layers' U_l as chunk sources,
one per layer (``checkpoints.Readout.layers``): as layer l runs in each
decode block, its source reads U_l chunk by chunk into one buffer sized
for the largest layer's chunk. It refuses the file, naming it, if its
stamp is not the read's when it opens or after its last read. A bundle
that holds the U_l (training's, a full read's) decodes from its slices,
to the same bits.

A test set is one ``TrajectorySet``: ``run_observer`` estimates all its
runs into one run-major (count, N+1, n_x) array. The plain filter takes
the set's runs as one time-major block, each run's column bit for bit
its run filtered alone; the static filter, which calls the injection at
every step, steps each run alone as a count-1 block of one (1, n_z) row,
in the rollout static training tapes, and encodes the run's input
contexts one block of ``nets.ROW_BLOCK`` steps at a time as the filter
reaches them (``hypernet.make_step_injection``). The decode is run by
run and, within a run, in blocks of ROW_BLOCK steps: each block's rows
go through the decoder (and, for the dynamic variant, its live windows
through the LSTM, the gates and the decoder head) alone, so neither the
static filter's nor a decode's transients grow with the run length.
OpenBLAS results depend on a GEMM's row count, so the block rule is
part of the estimates' bits: a run's estimates are those of its steps
decoded ROW_BLOCK at a time from step 0, whatever the run's length or
the set it is in. Metrics discard the first 5% of each trajectory by
default and average per-trajectory values across the test set.

Memory model of a grid (``benchmark``, and ``plot``): the grid walks
regime by regime. Each regime's test set is built once, when its cells
start (``regime_test_sets``); each cell loads its checkpoint bundle when
it starts and drops it when it ends. So one test set and one
checkpoint's arrays are alive at a time, and the peak is the largest
bundle less its decoder-head readout, plus one IN_BLOCK chunk of one
layer's readout U_l, one test set, one run's latent states and one
``ROW_BLOCK`` block of a static filter's contexts or of a decode (its
windows dropped once the LSTM has read them), at any number of
variants, regimes, test runs or steps. The price is one checkpoint
read per cell, and a dynamic cell's re-read of the readout, from the
page cache, per decode block.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from .binfile import write_text
from .checkpoints import CheckpointBundle
from .config import REGIMES, TRANSIENT_FRACTION, defaults
from .data import Dataset, check_seed_range, generate_dataset, seed_ranges_overlap
from .dynamics import TrajectorySet, get_system
from .errors import ContractViolation, NumericError
from .hypernet import (
    encode_context,
    gate_values,
    head_layer_deltas,
    make_step_injection,
)
from .kkl import decode, simulate_latent, simulate_latent_injected
from .nets import ROW_BLOCK
from .signals import window_matrix

_DEFAULT = defaults("eval")  # each default is its config.SETTINGS row's


def _past_transient(x_seq, xhat_seq, frac: float):
    """Both aligned sequences as float arrays, the transient dropped."""
    x = np.asarray(x_seq, dtype=np.float64)
    xh = np.asarray(xhat_seq, dtype=np.float64)
    if x.shape != xh.shape:
        raise ContractViolation("sequences must be aligned")
    if not 0.0 <= frac < 1.0:
        raise ContractViolation("transient fraction must lie in [0, 1)")
    k0 = int(np.ceil(frac * len(x)))
    if k0 >= len(x):
        raise ContractViolation("transient discard leaves no samples")
    return x[k0:], xh[k0:]


def rmse(x_seq, xhat_seq, transient_frac: float = TRANSIENT_FRACTION) -> float:
    """Root mean squared Euclidean error after the transient discard."""
    x, xh = _past_transient(x_seq, xhat_seq, transient_frac)
    err = x - xh
    return float(np.sqrt(np.mean(np.sum(err.reshape(len(err), -1) ** 2, axis=1))))


def smape(x_seq, xhat_seq, transient_frac: float = TRANSIENT_FRACTION) -> float:
    """Symmetric mean absolute percentage error, bounded in [0, 200]."""
    x, xh = _past_transient(x_seq, xhat_seq, transient_frac)
    num = 2.0 * np.abs(x - xh)
    den = np.abs(x) + np.abs(xh) + 1e-8
    return float(100.0 * np.mean(num / den))


def run_observer(bundle: CheckpointBundle, runs: TrajectorySet) -> np.ndarray:
    """Estimated state sequences of a measured set, (count, N+1, n_x).

    The latent filter starts at z = 0 and is driven by the recorded
    outputs (and inputs, per variant). Each run is decoded in blocks
    [lo, lo + ROW_BLOCK) of steps (``_decode``). Estimates are causal:
    they depend only on samples up to each step, and a block's bits only
    on its own rows, so a run cut at a block boundary keeps the whole
    run's estimates there, bit for bit. A conditioned variant acts only
    on steps whose input window is nonzero: elsewhere the injection
    returns None and the decoder takes no delta, so those rows are the
    autonomous estimates, bit for bit. A bundle whose readout stayed in
    its file (``bundle.readout``) has the file opened once for the call
    and its decoder layers' rows listed once, one chunk source per layer
    (``checkpoints.Readout.layers``); each decode block reads each
    layer's rows, a chunk at a time, as the layer runs.
    """
    if runs.outputs.shape[2] != bundle.obs.n_y:
        raise ContractViolation("trajectory output width does not match observer")
    obs, dt = bundle.obs, runs.dt
    plain = None
    if bundle.variant != "static":
        plain = simulate_latent(obs, runs.outputs.swapaxes(0, 1), dt)
    xhat = np.empty(runs.states.shape)
    readout = bundle.readout
    with readout.layers() if readout else nullcontext() as u_rows:
        for i, (y, u) in enumerate(zip(runs.outputs, runs.inputs)):
            if plain is None:
                zs = np.empty((len(y), obs.n_z))
                for k, z in enumerate(simulate_latent_injected(
                        obs, y[:, None], dt,
                        make_step_injection(bundle.params, bundle.spec, u))):
                    zs[k] = z
            else:
                zs = plain[:, i]
            for lo in range(0, len(zs), ROW_BLOCK):
                rows = slice(lo, lo + ROW_BLOCK)
                xhat[i, rows] = _decode(
                    bundle, np.ascontiguousarray(zs[rows]), u, lo, u_rows)
            finite = np.all(np.isfinite(xhat[i]), axis=1)
            if not finite.all():
                raise NumericError(f"non-finite estimate in run {i} at step "
                                   f"{int(np.argmin(finite))}")
    return xhat


def _decode(bundle: CheckpointBundle, zs, u, lo: int,
            u_rows) -> np.ndarray:
    """The estimates of one block of a run's steps, lo .. lo + len(zs) - 1,
    from their latent states zs and the run's inputs u (the bundle's
    variant is one of ``checkpoints.VARIANTS``).

    Every row is first decoded plainly, as one block: the autonomous
    variant's decode of the same block, so rows of zero windows keep its
    bits. For the dynamic variant the block's live steps, those whose
    ``window_matrix`` window is nonzero, are decoded again with their
    weight deltas; their windows are gathered for this block only. The
    decoder layers' readouts U_l are the bundle's ψ slices when
    ``u_rows`` is None, else the list ``u_rows``, one chunk source per
    layer that reads its U_l from the bundle's file as the layer runs
    (``run_observer``).
    """
    maps = bundle.maps
    xhat = decode(maps, bundle.phi, zs)
    if bundle.variant == "dynamic":
        spec, psi = bundle.spec, bundle.params
        windows = window_matrix(u, spec.window, lo, lo + len(zs))
        gates = gate_values(windows, spec.tau)
        live = gates[:, 0] != 0.0
        if np.any(live):
            # only the decoder head is read
            context = encode_context(psi, spec, windows[live])
            del windows
            factors = head_layer_deltas(psi, spec.dec_head, context,
                                        gates[live], u_rows)
            xhat[live] = decode(maps, bundle.phi, zs[live],
                                weight_deltas=factors)
    return xhat


@dataclass(frozen=True)
class EvalCell:
    system: str
    variant: str
    regime: str
    rmse: float
    smape: float
    rmse_std: float
    n: int
    seed_lo: int
    seed_hi: int


@dataclass
class EvalReport:
    cells: list

    def to_csv(self, path) -> None:
        write_text(path, "system,variant,regime,rmse,smape,rmse_std,n,"
                   "seed_lo,seed_hi\n" + "".join(
                       f"{c.system},{c.variant},{c.regime},{c.rmse!r},"
                       f"{c.smape!r},{c.rmse_std!r},{c.n},{c.seed_lo},"
                       f"{c.seed_hi}\n" for c in self.cells))


def refuse_seed_overlap(bundle: CheckpointBundle, seed_range) -> None:
    """Refuse a test set whose seeds [lo, hi] meet the bundle's training
    seeds: a test on training trajectories scores nothing held out."""
    if seed_ranges_overlap(bundle.train_seed_range, seed_range):
        raise ContractViolation(
            f"test seeds {seed_range} overlap training seeds "
            f"{bundle.train_seed_range}"
        )


def evaluate_cell(
    bundle: CheckpointBundle,
    dataset: Dataset,
    transient_frac: float = TRANSIENT_FRACTION,
) -> EvalCell:
    """Average per-trajectory metrics of one (variant, regime) cell."""
    refuse_seed_overlap(bundle, dataset.seed_range)
    runs = dataset.trajectories
    xhat = run_observer(bundle, runs)
    rmses = [rmse(x, xh, transient_frac) for x, xh in zip(runs.states, xhat)]
    smapes = [smape(x, xh, transient_frac) for x, xh in zip(runs.states, xhat)]
    lo, hi = dataset.seed_range
    return EvalCell(
        system=dataset.system.name,
        variant=bundle.variant,
        regime=dataset.regime,
        rmse=float(np.mean(rmses)),
        smape=float(np.mean(smapes)),
        rmse_std=float(np.std(rmses)),
        n=len(rmses),
        seed_lo=lo,
        seed_hi=hi,
    )


def regime_seed_ranges(regimes, n_test: int, seed: int) -> list:
    """Each regime's test-set seed range [lo, hi], in regime order: the
    regimes take disjoint blocks of ``n_test`` seeds from ``seed`` on,
    which must all lie below 2^64 (``data.check_seed_range``)."""
    check_seed_range(seed, len(regimes) * n_test)
    return [(seed + i * n_test, seed + (i + 1) * n_test - 1)
            for i in range(len(regimes))]


def regime_test_sets(system_name: str, regimes, n_test: int, seed: int,
                     dt: float, horizon: float, sigma: float):
    """Yield each regime's test dataset of ``n_test`` runs, in regime
    order, on the seeds of ``regime_seed_ranges``; each is built when the
    previous one's cells are done."""
    system = get_system(system_name)
    for regime, (lo, _) in zip(regimes,
                               regime_seed_ranges(regimes, n_test, seed)):
        yield generate_dataset(system, regime, n_test, lo, dt, horizon,
                               sigma)


def benchmark(
    loaders: dict,
    system_name: str,
    regimes=REGIMES,
    n_test: int = _DEFAULT["n_test"],
    seed: int = _DEFAULT["test_seed"],
    dt: float = _DEFAULT["dt"],
    horizon: float = _DEFAULT["horizon"],
    sigma: float = _DEFAULT["sigma"],
    transient_frac: float = TRANSIENT_FRACTION,
) -> EvalReport:
    """The variants x regimes grid for one system.

    ``loaders`` maps variant name to a zero-argument callable that returns
    its checkpoint bundle. Each regime draws its own test dataset from a
    disjoint seed block (``regime_seed_ranges``); every cell of one regime
    shares that dataset, and cells are independent of each other. The
    report lists them regime-major, in ``loaders`` order within a regime.
    Each cell calls its loader and drops the bundle when it ends, so one
    test set and one bundle are alive at a time (the module docstring's
    memory model).
    """
    cells = []
    for dataset in regime_test_sets(system_name, regimes, n_test, seed, dt,
                                    horizon, sigma):
        for load in loaders.values():
            cells.append(evaluate_cell(load(), dataset, transient_frac))
        del dataset  # the next regime's set is drawn without this one
    return EvalReport(cells=cells)
