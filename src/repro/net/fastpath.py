"""Flow-level fidelity tier: symbol-count distributions instead of decoding.

The bit-exact network tier runs a real encoder, channel, and decoder for
every block of every packet — perfect fidelity, but a 1k-user city spends
almost all of its time inside decode kernels.  This module is the fast
tier of the fidelity hierarchy: *measure* the distribution of
"symbols needed to decode" per SNR off the bit-exact codec once
(:func:`calibrate_symbol_model`), then replay packets by sampling that
distribution (:class:`FlowLink`).  The MAC/event machinery — grants, the
shared medium, interference activity, mobility, handoff — is reused
unchanged; only the PHY under each grant is replaced by a draw.

Determinism discipline: a flow packet consumes exactly one value from its
private per-``(user, packet)`` stream (the requirement draw at ``open``),
so results are independent of grant interleaving and worker count, exactly
like the bit-exact tier.  Calibration itself is a pure function of its
arguments, so :func:`cached_symbol_model` keeps each model twice: in a
per-process memo, and as a content-addressed artifact under
``$XDG_CACHE_HOME/repro/calibration/`` (``~/.cache/repro/calibration/``
when that is unset) that a fresh interpreter loads instead of
recalibrating.  The artifact's name hashes the calibration arguments; its
body also records a digest of the ``repro`` package source, so any edit
to the package invalidates it.

Calibration runs in lock-step: each grid point's samples go through
:meth:`~repro.phy.session.CodecSession.run_many`, which steps every live
sample one block at a time and decodes all of a step's gate-open samples in
one call of the code's batch hook (one
:class:`~repro.core.decoder_vectorized.BatchDecoder` call for spinal codes).
Each sample keeps its own payload and noise stream, so every entry equals a
sequential ``session.run`` of that sample, for every code family.

Fidelity contract: the flow tier is *calibrated*, not exact — tests pin its
relative aggregate-goodput error against the bit-exact network on small
configs, and the calibration is re-run whenever codec behavior changes
(it is derived, not checked in): the source digest turns every package
edit into a recalibration, and deleting the cache directory is always
safe.
"""

from __future__ import annotations

import bisect
import contextlib
import dataclasses
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from repro.phy.families import make_codec_session
from repro.phy.session import CodecSession
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng, spawn_rngs

__all__ = [
    "FlowLink",
    "FlowTransmission",
    "SymbolCountModel",
    "calibrate_symbol_model",
    "cached_symbol_model",
]


@dataclass(frozen=True)
class SymbolCountModel:
    """Empirical symbols-to-decode distributions on an SNR grid.

    ``samples[g]`` holds, for grid point ``g``, one entry per calibration
    run: the symbols the codec needed to decode, or ``-1`` if the run
    exhausted its budget undecoded.  ``block_symbols`` is the measured mean
    block (scheduling quantum) size, so the flow tier occupies the medium
    in realistically sized grants.
    """

    family: str
    payload_bits: int
    max_symbols: int
    block_symbols: int
    snr_grid_db: tuple[float, ...]
    samples: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.snr_grid_db) != len(self.samples) or not self.samples:
            raise ValueError("need one non-empty sample row per grid SNR")
        if any(not row for row in self.samples):
            raise ValueError("every grid point needs at least one sample")
        if any(
            a >= b for a, b in zip(self.snr_grid_db, self.snr_grid_db[1:])
        ):
            raise ValueError("snr_grid_db must be strictly increasing")
        if self.block_symbols < 1:
            raise ValueError("block_symbols must be at least 1")

    def grid_index(self, snr_db: float) -> int:
        """Nearest calibrated grid point (ties → lower SNR)."""
        return int(np.argmin(np.abs(np.asarray(self.snr_grid_db) - float(snr_db))))

    def sample_requirement(self, snr_db: float, rng: np.random.Generator) -> int:
        """Draw a symbols-to-decode requirement for one packet at ``snr_db``.

        Between grid points the draw interpolates *stochastically*: the
        neighbor is chosen with probability proportional to SNR proximity,
        which halves the bias of nearest-point quantization without
        assuming any parametric SNR→symbols law.  Exactly two RNG values
        are consumed on every call, whatever the SNR, so per-packet streams
        stay independent of the operating point.

        A calibration failure sample maps to an unreachable requirement
        (``2 * max_symbols``): the flow packet then spends its whole budget
        and is aborted, mirroring what the exact tier did.  A NaN SNR has no
        place on the grid and raises :class:`ValueError`.
        """
        snr_db = float(snr_db)
        if snr_db != snr_db:
            raise ValueError("cannot draw a requirement at a NaN SNR")
        grid = self.snr_grid_db
        right = bisect.bisect_left(grid, snr_db)
        left = max(0, right - 1)
        right = min(right, len(grid) - 1)
        if right == left:
            weight = 0.0
        else:
            weight = (snr_db - grid[left]) / (grid[right] - grid[left])
        chosen = right if rng.random() < weight else left
        row = self.samples[chosen]
        drawn = row[int(rng.integers(len(row)))]
        return drawn if drawn > 0 else 2 * self.max_symbols

    def success_probability(self, snr_db: float) -> float:
        row = self.samples[self.grid_index(snr_db)]
        return sum(1 for value in row if value > 0) / len(row)


def _model_to_json(model: SymbolCountModel) -> dict:
    """The model's fields as JSON values; floats round-trip exactly."""
    return dataclasses.asdict(model)


def _model_from_json(fields: dict) -> SymbolCountModel:
    """Inverse of :func:`_model_to_json`; ``__post_init__`` validates it."""
    return SymbolCountModel(
        family=str(fields["family"]),
        payload_bits=int(fields["payload_bits"]),
        max_symbols=int(fields["max_symbols"]),
        block_symbols=int(fields["block_symbols"]),
        snr_grid_db=tuple(float(snr) for snr in fields["snr_grid_db"]),
        samples=tuple(tuple(int(value) for value in row) for row in fields["samples"]),
    )


class _FlowBlock:
    """The scheduling quantum of a flow transmission: a symbol count only."""

    __slots__ = ("n_symbols",)

    def __init__(self, n_symbols: int) -> None:
        self.n_symbols = n_symbols


class _FlowChannel:
    """Inert stand-in: flow links never touch an actual channel.

    The cell resets channels at construction and pins them to the clock at
    grant time; both are no-ops here.  CSI comes from the explicit ``csi``
    callable the network installs, never from this object.
    """

    def reset(self) -> None:
        return None

    def describe(self) -> str:
        return "Flow()"


class FlowTransmission:
    """Drop-in for :class:`~repro.phy.session.CodecTransmission` at flow level."""

    __slots__ = (
        "required_symbols",
        "block_symbols",
        "max_symbols",
        "symbols_sent",
        "symbols_delivered",
        "decoded",
    )

    def __init__(self, model: SymbolCountModel, snr_db: float, rng: np.random.Generator):
        self.required_symbols = model.sample_requirement(snr_db, rng)
        self.block_symbols = model.block_symbols
        self.max_symbols = model.max_symbols
        self.symbols_sent = 0
        self.symbols_delivered = 0
        self.decoded = False

    @property
    def exhausted(self) -> bool:
        return self.symbols_sent >= self.max_symbols

    def send_next_block(self):
        # Flow-level pacing: the whole packet is one grant, quantized up to
        # the measured codec block size and capped by the symbol budget.
        # Total medium occupancy matches block-by-block pacing; only the
        # interleaving coarsens — packets, not blocks, are the scheduling
        # quantum, which is what makes the tier a *flow* simulation.
        blocks = -(-self.required_symbols // self.block_symbols)  # ceil
        needed = min(self.max_symbols, blocks * self.block_symbols)
        grant = max(needed - self.symbols_sent, self.block_symbols)
        self.symbols_sent += grant
        return _FlowBlock(grant), None

    def deliver(self, block, received, attempt: bool | None = None) -> bool:
        self.symbols_delivered += block.n_symbols
        if self.symbols_delivered >= self.required_symbols:
            self.decoded = True
        return self.decoded


@dataclass(frozen=True)
class FlowLink:
    """A user's link in the flow tier (satisfies the cell's ``Link`` protocol)."""

    model: SymbolCountModel
    channel: object = field(default_factory=_FlowChannel)

    @property
    def payload_bits(self) -> int:
        return self.model.payload_bits

    @property
    def max_symbols(self) -> int:
        return self.model.max_symbols

    def open(
        self,
        payload: np.ndarray,
        rng: np.random.Generator,
        observe: Callable[[], float],
    ) -> FlowTransmission:
        """Open one packet: a single requirement draw at the observed SINR.

        Requirement and block pacing are fixed for the packet's lifetime.
        ``payload`` is never read (the network hands every flow packet the
        same empty one); it is in the signature because the cell's ``Link``
        protocol opens every link the same way.
        """
        return FlowTransmission(self.model, float(observe()), rng)


def calibrate_symbol_model(
    family: str,
    snr_grid_db: "tuple[float, ...] | list[float]",
    samples_per_point: int,
    seed: int,
    smoke: bool = True,
    max_symbols: int = 4096,
    adc_bits: int | None = None,
) -> SymbolCountModel:
    """Measure symbols-to-decode distributions off the bit-exact codec.

    For every grid SNR, runs ``samples_per_point`` independent sessions of
    the registered code ``family`` through its calibrated channel and
    records the symbols each needed (or a failure marker).  Also probes the
    codec's first few block sizes to set the flow tier's grant quantum.
    Pure function of its arguments — workers recalibrating independently
    get byte-identical models.

    Each grid point is measured in two lock-step
    :meth:`~repro.phy.session.CodecSession.run_many` batches, samples 0–7
    first.  The dead-point rule reads only those: if all 8 exhausted their
    budget, the rest of the row is filled with ``-1`` without running them;
    otherwise the remaining samples run as the second batch.  That is the
    order a one-sample-at-a-time loop would stop in, so the row is the same
    as running each sample alone and stopping after 8 straight failures.
    """
    grid = tuple(float(snr) for snr in snr_grid_db)
    if not grid:
        raise ValueError("need at least one grid SNR")
    if samples_per_point < 1:
        raise ValueError("samples_per_point must be at least 1")
    rows: list[tuple[int, ...]] = []
    block_sizes: list[int] = []
    payload_bits = None
    for gi, snr_db in enumerate(grid):
        session = make_codec_session(
            family,
            snr_db=snr_db,
            seed=0,
            smoke=smoke,
            max_symbols=max_symbols,
            termination="genie",
            adc_bits=adc_bits,
        )
        payload_bits = session.payload_bits
        # Dead-point early abort: a grid SNR whose first 8 runs all exhaust
        # the budget is below the code's operating floor; fill the rest as
        # failures instead of burning full budgets on them.
        row = _measure(session, seed, family, gi, range(min(8, samples_per_point)))
        if len(row) == 8 and all(value < 0 for value in row):
            row.extend([-1] * (samples_per_point - 8))
        else:
            row.extend(
                _measure(session, seed, family, gi, range(len(row), samples_per_point))
            )
        rows.append(tuple(row))
        # Probe the grant quantum: the sizes of the first few blocks.
        probe_rng = spawn_rng(seed, "fastpath-probe", family, gi)
        session.channel.reset()
        probe = session.open_transmission(
            random_message_bits(session.payload_bits, probe_rng), probe_rng
        )
        for _ in range(8):
            if probe.exhausted:
                break
            block, _ = probe.send_next_block()
            block_sizes.append(int(block.n_symbols))
    return SymbolCountModel(
        family=family,
        payload_bits=int(payload_bits),
        max_symbols=int(max_symbols),
        block_symbols=max(1, round(sum(block_sizes) / len(block_sizes))),
        snr_grid_db=grid,
        samples=tuple(rows),
    )


def _measure(
    session: CodecSession, seed: int, family: str, gi: int, samples: range
) -> list[int]:
    """Symbols-to-decode of calibration ``samples`` at grid point ``gi``.

    One lock-step :meth:`~repro.phy.session.CodecSession.run_many` batch;
    sample ``s`` draws its payload and noise from its own stream, so each
    entry (``-1`` for an exhausted run) equals a sequential ``run`` of it.
    """
    rngs = list(spawn_rngs(seed, [("fastpath-cal", family, gi, s) for s in samples]))
    payloads = [random_message_bits(session.payload_bits, rng) for rng in rngs]
    return [
        int(outcome.symbols_sent) if outcome.success else -1
        for outcome in session.run_many(payloads, rngs)
    ]


_MODEL_CACHE: dict[tuple, SymbolCountModel] = {}


def cached_symbol_model(
    family: str,
    snr_grid_db: "tuple[float, ...] | list[float]",
    samples_per_point: int,
    seed: int,
    smoke: bool = True,
    max_symbols: int = 4096,
    adc_bits: int | None = None,
) -> SymbolCountModel:
    """:func:`calibrate_symbol_model`, memoized per process and on disk (it is pure).

    A fresh process loads the calibration artifact for these arguments
    (see the module docstring) and calibrates only when there is none.  An
    artifact that does not parse, was written for another key or by other
    package source, or holds an invalid model is never used: one
    ``repro: recalibrating flow model: <reason>`` line goes to stderr and
    the recalibrated model overwrites it.  The cache is best effort: when
    the directory cannot be written the model lives in this process only.
    """
    key = (
        family,
        tuple(float(snr) for snr in snr_grid_db),
        int(samples_per_point),
        int(seed),
        bool(smoke),
        int(max_symbols),
        None if adc_bits is None else int(adc_bits),
    )
    model = _MODEL_CACHE.get(key)
    if model is None:
        model = _MODEL_CACHE[key] = _load_or_calibrate(key)
    return model


def _load_or_calibrate(key: tuple) -> SymbolCountModel:
    family, grid, samples_per_point, seed, smoke, max_symbols, adc_bits = key
    named_key = {
        "family": family,
        "snr_grid_db": grid,
        "samples_per_point": samples_per_point,
        "seed": seed,
        "smoke": smoke,
        "max_symbols": max_symbols,
        "adc_bits": adc_bits,
    }
    canonical_key = json.dumps(named_key, sort_keys=True)
    source = _source_digest()
    directory = _calibration_dir()
    path = None
    if directory is not None:
        name = hashlib.blake2b(canonical_key.encode(), digest_size=16).hexdigest()
        path = directory / f"{name}.json"
        model, reason = _read_artifact(path, canonical_key, source)
        if model is not None:
            return model
        if reason:
            print(f"repro: recalibrating flow model: {reason}", file=sys.stderr)
    model = calibrate_symbol_model(*key)
    if path is not None:
        body = {"key": named_key, "source": source, "model": _model_to_json(model)}
        _write_artifact(path, json.dumps(body, sort_keys=True))
    return model


def _calibration_dir() -> Path | None:
    """Where calibration artifacts live, or ``None`` with no home to put them in."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):  # unset, empty or relative: the XDG default
        home = os.path.expanduser("~")
        if not os.path.isabs(home):
            return None
        base = os.path.join(home, ".cache")
    return Path(base) / "repro" / "calibration"


@functools.cache
def _source_digest() -> str:
    """blake2b over every ``.py`` file of the ``repro`` package: path, then bytes."""
    root = Path(__file__).resolve().parents[1]
    digest = hashlib.blake2b(digest_size=16)
    for path in sorted(root.rglob("*.py")):
        for part in (path.relative_to(root).as_posix().encode(), path.read_bytes()):
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


def _read_artifact(
    path: Path, canonical_key: str, source: str
) -> tuple[SymbolCountModel | None, str]:
    """The model stored at ``path``, or why it cannot be used (``""``: no file)."""
    try:
        text = path.read_bytes()
    except OSError:  # missing or unreadable: calibrate without a word
        return None, ""
    try:
        body = json.loads(text)
    except ValueError as exc:
        return None, f"{path} does not parse ({exc})"
    if not isinstance(body, dict):
        return None, f"{path} does not parse (not a JSON object)"
    if json.dumps(body.get("key"), sort_keys=True) != canonical_key:
        return None, f"{path} holds another calibration key"
    if body.get("source") != source:
        return None, f"{path} was calibrated by other repro source"
    try:
        return _model_from_json(body["model"]), ""
    except (KeyError, TypeError, ValueError) as exc:
        return None, f"{path} holds an invalid model ({exc})"


def _write_artifact(path: Path, text: str) -> None:
    """Publish ``text`` at ``path`` atomically; an ``OSError`` skips the write.

    Concurrent writers of one key write identical bytes, so whichever
    ``os.replace`` lands last leaves the same file.
    """
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        handle, temp = tempfile.mkstemp(dir=path.parent, prefix=".", suffix=".tmp")
    except OSError:
        return
    try:
        with os.fdopen(handle, "w", encoding="utf-8") as stream:
            stream.write(text)
        os.replace(temp, path)
    except OSError:
        with contextlib.suppress(OSError):
            os.unlink(temp)
