"""Shared Monte-Carlo machinery for spinal-code rate measurements.

Every experiment that measures "rate achieved by the practical decoder at
operating point X" builds its receiver from :class:`SpinalRunConfig` and
runs each trial through :func:`run_one_spinal_trial`, so symbol budgets and
termination handling are consistent across figures.  Trials fan out through
the registry engine (:func:`repro.experiments.registry.run_experiment`),
which derives every trial's generator from ``(seed, labels...)`` alone, so
any worker count returns the same measurement.

The symbol budget per trial is chosen adaptively from the channel capacity
at the operating point (a trial is allowed several times the number of
symbols an ideal code would need) so that low-SNR points neither truncate
trials prematurely nor waste time transmitting far past the decoding point.

Two search strategies find a trial's stopping point (``search``):

* ``"sequential"`` — :meth:`CodecSession.run
  <repro.phy.session.CodecSession.run>`, the on-line receiver that attempts
  a decode after every subpass.
* ``"bisect"`` — :func:`_run_bisect`: transmit lazily, gallop then
  binary-search the smallest symbol prefix after which the termination
  rule passes.  It touches far fewer decode attempts at low SNR; the
  monotonicity it assumes (more symbols never hurt) is checked empirically
  in the test suite, and any non-monotonicity is resolved conservatively
  (towards more symbols) by a final sequential refinement step.

Every receiver decodes with
:class:`~repro.core.decoder_vectorized.VectorizedBubbleDecoder`, which
reuses beam state across a trial's decode attempts; a trial's
``candidates`` are its decoder work in tree nodes (the unit is defined in
that module).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from repro.channels.awgn import AWGNChannel
from repro.channels.base import Channel
from repro.channels.bsc import BSCChannel
from repro.channels.quantize import AdcQuantizer
from repro.core.crc import Crc
from repro.core.decoder_vectorized import VectorizedBubbleDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder, SubpassBlock
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.core.puncturing import (
    NoPuncturing,
    PuncturingSchedule,
    StridedPuncturing,
    SymbolBySymbol,
    TailFirstPuncturing,
)
from repro.experiments.registry import Experiment, default_aggregate, register
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.phy.session import CodecResult, CodecSession, terminates
from repro.phy.spinal import SpinalCode, spinal_status
from repro.theory.capacity import awgn_capacity_db, bsc_capacity
from repro.utils.bitops import random_message_bits
from repro.utils.results import mean, std_error
from repro.utils.units import check_snr_db

__all__ = [
    "SpinalRunConfig",
    "make_puncturing",
    "spinal_fixed",
    "spinal_config_from_params",
    "awgn_config_from_params",
    "bsc_config_from_params",
    "run_one_spinal_trial",
    "awgn_trial",
    "bsc_trial",
    "awgn_seed_labels",
    "bsc_seed_labels",
    "rate_cell_aggregate",
    "SPINAL_SMOKE",
    "RATE_EXPERIMENT",
    "BSC_EXPERIMENT",
]

#: Budget multiplier: a trial may use this many times the symbols an ideal
#: capacity-achieving code would need before it is declared a failure.
_BUDGET_FACTOR = 8.0
#: Lower bound on the per-trial budget, in passes over the spine.
_MIN_BUDGET_PASSES = 4
#: Hard ceiling on the per-trial budget (protects the lowest SNR points).
_MAX_BUDGET_SYMBOLS = 32768
#: Recognised ``search`` strategies (see the module docstring).
_SEARCHES = ("sequential", "bisect")
#: Config termination rules and the :class:`CodecSession` rule each maps to.
_TERMINATIONS = {"genie": "genie", "crc": "self"}


def make_puncturing(name: str, **kwargs) -> PuncturingSchedule:
    """Build a puncturing schedule from its experiment-config name."""
    schedules = {
        "none": NoPuncturing,
        "symbol": SymbolBySymbol,
        "strided": StridedPuncturing,
        "tail-first": TailFirstPuncturing,
    }
    try:
        cls = schedules[name]
    except KeyError:
        raise ValueError(
            f"unknown puncturing schedule {name!r}; expected one of {sorted(schedules)}"
        ) from None
    return cls(**kwargs)


@dataclass(frozen=True)
class SpinalRunConfig:
    """One spinal-code operating configuration for Monte-Carlo measurement.

    The defaults reproduce the paper's Figure 2 configuration: 24-bit
    messages, ``k = 8``, ``c = 10``, beam width ``B = 16``, 14-bit ADC,
    genie termination, with decode attempts after every symbol.
    """

    payload_bits: int = 24
    params: SpinalParams = field(default_factory=lambda: SpinalParams(k=8, c=10))
    beam_width: int = 16
    adc_bits: int | None = 14
    puncturing: str = "tail-first"
    crc: Crc | None = None
    tail_segments: int = 0
    termination: str = "genie"
    search: str = "bisect"
    seed: int = 20111114
    max_symbols: int | None = None
    count_overhead: bool = False

    def __post_init__(self) -> None:
        if self.payload_bits < 1:
            raise ValueError(f"payload_bits must be at least 1, got {self.payload_bits}")
        if self.beam_width < 1:
            raise ValueError(f"beam_width must be at least 1, got {self.beam_width}")
        if self.adc_bits is not None:
            AdcQuantizer(bits=self.adc_bits, full_scale=1.0)  # the ADC's bound on its depth
        make_puncturing(self.puncturing)  # raises on an unknown schedule name
        if self.termination not in _TERMINATIONS:
            raise ValueError(
                f"unknown termination rule {self.termination!r}; "
                f"expected one of {sorted(_TERMINATIONS)}"
            )
        if self.search not in _SEARCHES:
            raise ValueError(
                f"unknown search strategy {self.search!r}; expected one of {_SEARCHES}"
            )

    def with_(self, **changes) -> "SpinalRunConfig":
        """Copy with fields replaced (sweep convenience)."""
        return replace(self, **changes)

    # -- builders -----------------------------------------------------------
    def build_framer(self) -> Framer:
        return Framer(
            payload_bits=self.payload_bits,
            k=self.params.k,
            crc=self.crc,
            tail_segments=self.tail_segments,
        )

    def build_encoder(self) -> SpinalEncoder:
        return SpinalEncoder(self.params, puncturing=make_puncturing(self.puncturing))

    def decoder_factory(self):
        return partial(VectorizedBubbleDecoder, beam_width=self.beam_width)

    def build_session(
        self, channel: Channel, max_symbols: int | None = None
    ) -> CodecSession:
        """Assemble the complete rateless session for one channel.

        The single place session wiring happens, shared by the Monte-Carlo
        trial runner and the relay-topology builder so the two cannot
        drift.  ``max_symbols`` defaults to the config's value (or 4096 if
        unset — callers wanting the adaptive budget pass
        :meth:`symbol_budget` explicitly).  ``"crc"`` termination is the
        session's ``"self"`` rule.  With ``count_overhead`` only the payload
        bits are credited, otherwise the whole frame is (the paper's
        Figure-2 convention).
        """
        if max_symbols is None:
            max_symbols = self.max_symbols if self.max_symbols is not None else 4096
        framer = self.build_framer()
        return CodecSession(
            SpinalCode(self.build_encoder(), self.decoder_factory(), framer),
            channel,
            termination=_TERMINATIONS[self.termination],
            max_symbols=max_symbols,
            credited_bits=framer.payload_bits if self.count_overhead else framer.framed_bits,
        )

    def symbol_budget(self, ideal_rate: float) -> int:
        """Adaptive per-trial symbol budget given an ideal achievable rate."""
        if self.max_symbols is not None:
            return self.max_symbols
        framer = self.build_framer()
        floor_budget = _MIN_BUDGET_PASSES * framer.n_segments
        if ideal_rate <= 0:
            return _MAX_BUDGET_SYMBOLS
        budget = int(math.ceil(_BUDGET_FACTOR * framer.framed_bits / ideal_rate))
        return max(floor_budget, min(budget, _MAX_BUDGET_SYMBOLS))


def _run_bisect(
    session: CodecSession, payload: np.ndarray, rng: np.random.Generator
) -> CodecResult:
    """One trial of a spinal session under the ``"bisect"`` search.

    Subpasses are transmitted lazily and recorded; decode attempts run on
    truncated prefixes of the recording.  A galloping phase doubles the
    prefix from about one pass until a decode succeeds (or the budget runs
    out), a binary search then finds the first succeeding subpass boundary,
    and a sequential refinement step guards against non-monotone flukes.
    Blocks and noise draws come in the same order as in
    :meth:`CodecSession.run`, so up to the stopping point both searches see
    identical channel output.
    """
    code: SpinalCode = session.code
    encoder, framer = code.encoder, code.framer
    max_symbols = session.max_symbols
    min_symbols = code.min_symbols_to_attempt()
    payload = np.asarray(payload, dtype=np.uint8)
    framed = framer.frame(payload)
    session.channel.reset()
    stream = encoder.symbol_stream(framed)
    decoder = code.decoder_factory(encoder)
    blocks: list[SubpassBlock] = []
    received: list[np.ndarray] = []
    boundaries: list[int] = []
    attempts = work = 0
    last = None

    def ensure_symbols(target: int) -> None:
        """Transmit further subpasses until ``target`` symbols are on record."""
        while not boundaries or boundaries[-1] < min(target, max_symbols):
            block = next(stream)
            received.append(session.channel.transmit(block.values, rng))
            blocks.append(block)
            boundaries.append((boundaries[-1] if boundaries else 0) + block.n_symbols)

    def attempt(index: int, force: bool = False) -> bool:
        nonlocal attempts, work, last
        if not force and boundaries[index] < min_symbols:
            return False
        observations = ReceivedObservations(framer.n_segments).truncated(
            boundaries[index], blocks, received
        )
        last = spinal_status(framer, decoder.decode(framer.framed_bits, observations))
        attempts += 1
        work += last.work
        return terminates(session.termination, last, framed)

    def result(symbols_sent: int, success: bool) -> CodecResult:
        decoded = last.payload
        return CodecResult(
            success=success,
            payload_correct=bool(np.array_equal(decoded, payload)),
            symbols_sent=symbols_sent,
            credited_bits=session.credited_bits,
            decode_attempts=attempts,
            work=work,
            decoded_payload=decoded,
        )

    # Galloping phase: keeps the expensive many-observation decode attempts
    # confined to a factor of two around the true stopping point.
    target = framer.n_segments
    last_failure = -1
    while True:
        ensure_symbols(target)
        index = len(boundaries) - 1
        if attempt(index):
            first_success = index
            break
        last_failure = index
        if boundaries[-1] >= max_symbols:
            if last is None:
                attempt(index, force=True)
            return result(boundaries[-1], success=False)
        target = min(2 * boundaries[-1], max_symbols)

    # Binary search between the last known failure and the first success.
    lo, hi = last_failure + 1, first_success
    while lo < hi:
        mid = (lo + hi) // 2
        if attempt(mid):
            hi = mid
        else:
            lo = mid + 1
    # Guard against non-monotone flukes: the reported boundary must decode.
    if not attempt(lo):
        while lo < first_success and not attempt(lo):
            lo += 1
        attempt(lo)
    return result(boundaries[lo], success=True)


def _run_trial(
    config: SpinalRunConfig,
    session: CodecSession,
    payload: np.ndarray,
    rng: np.random.Generator,
) -> CodecResult:
    """One trial under the config's ``search`` strategy."""
    if config.search == "bisect":
        return _run_bisect(session, payload, rng)
    return session.run(payload, rng)


# -- registry bindings --------------------------------------------------------
#
# JSON-native parameter mappings in and out, so every spinal-rate experiment
# is a registry spec.  Each trial draws from ``spawn_rng(seed, "trial",
# label, trial)``, where ``label`` is the cell's SNR or crossover
# probability, so cells at the same operating point share their streams.

#: Fixed parameters shared by every spinal-rate experiment spec.  ``decoder``
#: is an inert label: every receiver decodes with the vectorized engine, but
#: the key stays in the spec so its hash and store file names do not move.
_SPINAL_FIXED = {
    "payload_bits": 24,
    "k": 8,
    "c": 10,
    "beam_width": 16,
    "adc_bits": 14,
    "puncturing": "tail-first",
    "constellation": "linear",
    "decoder": "incremental",
    "bit_mode": False,
    "search": "bisect",
    "max_symbols": None,
}


def spinal_fixed(**updates) -> dict:
    """The paper's Figure-2 spinal configuration as spec fixed parameters."""
    fixed = dict(_SPINAL_FIXED)
    fixed.update(updates)
    return fixed


def spinal_config_from_params(params) -> SpinalRunConfig:
    """Build a :class:`SpinalRunConfig` from a JSON-native parameter mapping."""
    spinal = SpinalParams(
        k=int(params["k"]),
        c=int(params.get("c", 10)),
        bit_mode=bool(params.get("bit_mode", False)),
        constellation=str(params.get("constellation", "linear")),
    )
    adc_bits = params.get("adc_bits", 14)
    max_symbols = params.get("max_symbols")
    return SpinalRunConfig(
        payload_bits=int(params["payload_bits"]),
        params=spinal,
        beam_width=int(params["beam_width"]),
        adc_bits=None if adc_bits is None else int(adc_bits),
        puncturing=str(params.get("puncturing", "tail-first")),
        search=str(params.get("search", "bisect")),
        max_symbols=None if max_symbols is None else int(max_symbols),
        seed=int(params.get("seed", 20111114)),
    )


def awgn_config_from_params(params) -> SpinalRunConfig:
    """:func:`spinal_config_from_params` for an AWGN cell; also checks its SNR."""
    check_snr_db("snr_db", float(params["snr_db"]))
    return spinal_config_from_params(params)


def bsc_config_from_params(params) -> SpinalRunConfig:
    """:func:`spinal_config_from_params` for a BSC cell; also checks its ``p``."""
    BSCChannel(float(params["p"]))  # the channel's own bound on its crossover probability
    return spinal_config_from_params(params)


def run_one_spinal_trial(
    config: SpinalRunConfig, channel: Channel, max_symbols: int, rng
) -> dict:
    """One rateless transmission, as JSON-native metrics (kernel primitive)."""
    session = config.build_session(channel, max_symbols)
    payload = random_message_bits(config.payload_bits, rng)
    result = _run_trial(config, session, payload, rng)
    return {
        "rate": result.rate,
        "symbols": result.symbols_sent,
        "ok": result.payload_correct,
        "candidates": result.work,
    }


def awgn_trial(params, rng) -> dict:
    """Registry kernel: one spinal trial over AWGN at ``params['snr_db']``."""
    config = awgn_config_from_params(params)
    snr_db = float(params["snr_db"])
    channel = AWGNChannel(
        snr_db=snr_db,
        signal_power=config.params.average_power,
        adc_bits=config.adc_bits,
    )
    capacity = awgn_capacity_db(snr_db)
    metrics = run_one_spinal_trial(config, channel, config.symbol_budget(capacity), rng)
    metrics["capacity"] = capacity
    return metrics


def bsc_trial(params, rng) -> dict:
    """Registry kernel: one bit-mode spinal trial over a BSC at ``params['p']``."""
    config = bsc_config_from_params(params)
    p = float(params["p"])
    capacity = bsc_capacity(p)
    metrics = run_one_spinal_trial(
        config, BSCChannel(p), config.symbol_budget(capacity), rng
    )
    metrics["capacity"] = capacity
    return metrics


def awgn_seed_labels(params, trial) -> tuple:
    """Per-trial stream labels of an AWGN rate cell: ``("trial", snr_db, trial)``."""
    return ("trial", float(params["snr_db"]), trial)


def bsc_seed_labels(params, trial) -> tuple:
    """Per-trial stream labels of a BSC rate cell: ``("trial", p, trial)``."""
    return ("trial", float(params["p"]), trial)


def rate_cell_aggregate(params, trials) -> dict:
    """Per-cell aggregate for rate kernels: mean/stderr plus capacity fraction."""
    out = default_aggregate(params, trials)
    rates = [float(t["rate"]) for t in trials]
    out["rate"] = mean(rates)
    out["rate_stderr"] = std_error(rates)
    capacity = out.get("capacity")
    if isinstance(capacity, (int, float)) and capacity > 0:
        out["fraction_of_capacity"] = out["rate"] / capacity
    return out


SPINAL_SMOKE = {
    "payload_bits": 16,
    "k": 4,
    "c": 6,
    "beam_width": 8,
    "n_trials": 2,
}

RATE_EXPERIMENT = register(
    Experiment(
        name="rate",
        description="Spinal achieved rate vs AWGN SNR (the core Monte-Carlo measurement)",
        spec=SweepSpec(
            axes=(Axis("snr_db", (0.0, 5.0, 10.0, 15.0, 20.0, 25.0), "float"),),
            fixed=spinal_fixed(),
        ),
        run_point=awgn_trial,
        cell_config=awgn_config_from_params,
        columns=(
            Column("SNR(dB)", "snr_db"),
            Column("capacity", "capacity"),
            Column("rate (b/sym)", "rate"),
            Column("stderr", "rate_stderr"),
        ),
        n_trials=30,
        aggregate=rate_cell_aggregate,
        seed_labels=awgn_seed_labels,
        smoke={**SPINAL_SMOKE, "snr_db": (10.0,)},
        plot=PlotSpec(x="snr_db", y="rate", x_label="SNR (dB)", y_label="bits/symbol"),
    )
)

BSC_EXPERIMENT = register(
    Experiment(
        name="bsc",
        description="Bit-mode spinal achieved rate vs BSC crossover probability",
        spec=SweepSpec(
            axes=(Axis("p", (0.01, 0.02, 0.05, 0.1, 0.2), "float"),),
            fixed=spinal_fixed(bit_mode=True),
        ),
        run_point=bsc_trial,
        cell_config=bsc_config_from_params,
        columns=(
            Column("p", "p"),
            Column("capacity", "capacity"),
            Column("rate (b/bit)", "rate"),
            Column("stderr", "rate_stderr"),
        ),
        n_trials=30,
        aggregate=rate_cell_aggregate,
        seed_labels=bsc_seed_labels,
        smoke={"payload_bits": 12, "k": 3, "beam_width": 8, "n_trials": 2, "p": (0.05,)},
        plot=PlotSpec(
            x="p", y="rate", x_label="crossover probability", y_label="bits/channel bit"
        ),
    )
)
