"""The network-level status quo: threshold rate adaptation per cell user.

Section 1 of the paper describes today's wireless stacks as a menu of fixed
PHY rates plus a reactive policy choosing among them from observed channel
quality.  :mod:`repro.baselines.rate_adaptation` prices that policy on a
single link; this module lifts it into the multi-user cell so the paper's
"rateless removes the rate-adaptation loop" claim can be tested where it is
actually made — at the *network* level, against aggregate goodput and
fairness.

Each adaptive user transmits its head-of-line packet as a **fixed-rate
spinal frame** (:class:`~repro.baselines.fixed_rate_spinal.FixedRateSpinalSystem`
operation): the policy observes the user's CSI, selects a pass count from a
calibrated menu, and the sender transmits exactly that many passes.  The
receiver decodes once, after the final pass.  A failed frame is simply
retransmitted (fresh noise, possibly a re-selected rate) until the packet's
symbol budget cannot fit another attempt, at which point the packet is
aborted — mirroring the abort semantics of the rateless sessions so the two
modes are compared on equal terms.

The menu itself is spinal (``k / n_passes`` bits per symbol), not LDPC, so
the comparison isolates *ratelessness*: both modes run the same code family
over the same channels with the same budgets; only the stopping rule —
per-symbol feedback versus a pre-committed rate decision — differs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.baselines.fixed_rate_spinal import FixedRateSpinalSystem
from repro.baselines.rate_adaptation import RateAdaptationPolicy, RateOption
from repro.channels.base import Channel
from repro.core.decoder_bubble import BubbleDecoder
from repro.core.encoder import ReceivedObservations, SpinalEncoder
from repro.core.params import SpinalParams
from repro.phy.fixed_rate import FixedRateSpinalCode
from repro.phy.protocol import RatelessCode

__all__ = [
    "SpinalRateOption",
    "CodecRateOption",
    "spinal_rate_options",
    "calibrate_spinal_rate_policy",
    "AdaptiveFrameTransmission",
    "AdaptiveCodecTransmission",
    "AdaptiveCodecLink",
    "AdaptiveSpinalLink",
]


@dataclass(frozen=True)
class SpinalRateOption:
    """One fixed-rate spinal menu entry: always transmit ``n_passes`` passes."""

    n_passes: int
    nominal_rate: float

    def __post_init__(self) -> None:
        if self.n_passes < 1:
            raise ValueError(f"n_passes must be at least 1, got {self.n_passes}")


def spinal_rate_options(k: int, pass_choices: Sequence[int]) -> tuple[SpinalRateOption, ...]:
    """The ``k / n_passes`` bits-per-symbol menu for the given pass counts."""
    if not pass_choices:
        raise ValueError("pass_choices must not be empty")
    return tuple(
        SpinalRateOption(n_passes=int(p), nominal_rate=k / int(p))
        for p in sorted(set(int(p) for p in pass_choices))
    )


def calibrate_spinal_rate_policy(
    payload_bits: int,
    params: SpinalParams,
    beam_width: int,
    adc_bits: int | None,
    pass_choices: Sequence[int],
    snr_grid_db: Sequence[float],
    n_frames: int,
    target_frame_error_rate: float,
    rng: np.random.Generator,
) -> RateAdaptationPolicy:
    """Measure per-option SNR thresholds, exactly as the LDPC adapter does.

    The threshold of an option is the lowest grid SNR at which its measured
    frame error rate is at or below the target; options that never reach
    the target get an infinite threshold (selected only as the robust
    fallback).  The calibration is the operator's offline planning step, so
    it draws from its own ``rng`` — separate from the cell's traffic.
    """
    if not 0.0 < target_frame_error_rate < 1.0:
        raise ValueError(
            f"target FER must be in (0, 1), got {target_frame_error_rate}"
        )
    grid = sorted(float(s) for s in snr_grid_db)
    if not grid:
        raise ValueError("snr_grid_db must not be empty")
    options = spinal_rate_options(params.k, pass_choices)
    thresholds: dict[SpinalRateOption, float] = {}
    for option in options:
        system = FixedRateSpinalSystem(
            message_bits=payload_bits,
            n_passes=option.n_passes,
            params=params,
            beam_width=beam_width,
            adc_bits=adc_bits,
        )
        threshold = float("inf")
        for snr_db in grid:
            result = system.measure(snr_db, n_frames, rng)
            if result.frame_error_rate <= target_frame_error_rate:
                threshold = snr_db
                break
        thresholds[option] = threshold
    return RateAdaptationPolicy(configs=options, thresholds=thresholds)


@dataclass(frozen=True)
class _PassBlock:
    """One transmitted pass: the cell's scheduling quantum for adaptive users."""

    pass_index: int
    n_symbols: int


class AdaptiveFrameTransmission:
    """One packet's fixed-rate transmission under threshold adaptation.

    Implements the same pausable interface as
    :class:`~repro.core.rateless.PacketTransmission` (``send_next_block`` /
    ``deliver`` / ``decoded`` / ``exhausted``), so the cell simulator
    multiplexes adaptive and rateless users identically.  Each *attempt*
    re-observes the channel through ``observe`` (evaluated at selection
    time, so staleness is whatever the CSI callable encodes) and commits to
    a pass count before any symbol is sent — the pre-commitment the paper
    argues rateless codes remove.
    """

    def __init__(
        self,
        payload: np.ndarray,
        rng: np.random.Generator,
        channel: Channel,
        encoder: SpinalEncoder,
        decoder: BubbleDecoder,
        policy: RateAdaptationPolicy,
        observe: Callable[[], float],
        max_symbols: int,
    ) -> None:
        if max_symbols <= 0:
            raise ValueError(f"max_symbols must be positive, got {max_symbols}")
        self.payload = np.asarray(payload, dtype=np.uint8)
        self.rng = rng
        self.channel = channel
        self.encoder = encoder
        self.decoder = decoder
        self.policy = policy
        self.observe = observe
        self.max_symbols = int(max_symbols)
        self.n_segments = encoder.params.n_segments(self.payload.size)
        self.symbols_sent = 0
        self.symbols_delivered = 0
        self.decoded = False
        self.attempts = 0
        #: The menu entries selected, one per attempt (diagnostics).
        self.selected: list = []
        self._exhausted = False
        self._active = False
        self._begin_attempt()

    # ------------------------------------------------------------------
    def _frame_symbols(self, option) -> int:
        return option.n_passes * self.n_segments

    def _begin_attempt(self) -> None:
        """Select a rate from fresh CSI and set up the next frame, if it fits."""
        option = self.policy.select(float(self.observe()))
        if self.symbols_sent + self._frame_symbols(option) > self.max_symbols:
            self._exhausted = True
            return
        self.attempts += 1
        self.selected.append(option)
        self._option = option
        self._passes = self.encoder.encode_passes(self.payload, option.n_passes)
        self._observations = ReceivedObservations(self.n_segments)
        self._next_pass = 0
        self._active = True

    @property
    def exhausted(self) -> bool:
        """Whether the budget cannot fit another attempt (packet abort)."""
        return self._exhausted

    # ------------------------------------------------------------------
    def send_next_block(self) -> tuple[_PassBlock, np.ndarray]:
        """Transmit the frame's next pass through the user's channel."""
        if not self._active:
            raise RuntimeError("no active frame attempt to send from")
        pass_index = self._next_pass
        received = self.channel.transmit(self._passes[pass_index], self.rng)
        self._next_pass += 1
        self.symbols_sent += self.n_segments
        return _PassBlock(pass_index=pass_index, n_symbols=self.n_segments), received

    def deliver(self, block: _PassBlock, received_values: np.ndarray) -> bool:
        """Feed one received pass to the receiver; decode after the last."""
        if self.decoded:
            return True
        for position in range(self.n_segments):
            self._observations.add(position, block.pass_index, received_values[position])
        self.symbols_delivered += block.n_symbols
        if block.pass_index + 1 < self._option.n_passes:
            return False
        # Final pass of the attempt: the fixed-rate receiver decodes once.
        decoded_bits = self.decoder.decode(
            self.payload.size, self._observations
        ).message_bits
        self._active = False
        if bool(np.array_equal(decoded_bits, self.payload)):
            self.decoded = True
            self._decoded_payload = decoded_bits
            return True
        self._begin_attempt()  # retransmit (or mark exhausted)
        return False

    def decoded_payload(self) -> np.ndarray:
        if not self.decoded:
            raise ValueError("the packet has not decoded")
        return self._decoded_payload


@dataclass(frozen=True)
class CodecRateOption:
    """A rate-menu entry backed by a fixed-rate :class:`~repro.phy.protocol.RatelessCode`.

    The protocol-level generalisation of :class:`SpinalRateOption`: any code
    whose :class:`~repro.phy.protocol.CodeInfo` declares ``symbols_per_frame``
    (a fixed-rate code) can populate a
    :class:`~repro.baselines.rate_adaptation.RateAdaptationPolicy` menu and
    be driven by :class:`AdaptiveCodecTransmission` — the adaptation loop no
    longer knows what code family it is scheduling.
    """

    code: RatelessCode

    def __post_init__(self) -> None:
        info = self.code.info
        if info.symbols_per_frame is None or not info.rate_menu:
            raise ValueError(
                f"CodecRateOption needs a fixed-rate code; {info.family!r} declares "
                "no symbols_per_frame/rate_menu"
            )

    @property
    def nominal_rate(self) -> float:
        return self.code.info.rate_menu[0]


class AdaptiveCodecTransmission:
    """One packet's fixed-rate ARQ transmission, driven through the codec protocol.

    The code-agnostic successor of :class:`AdaptiveFrameTransmission`: each
    attempt re-observes the channel, asks the policy for a menu option, and
    streams that option's *code* (``new_encoder`` / ``new_decoder``) for
    exactly one frame — the decoder signals the frame boundary by returning
    an attempted :class:`~repro.phy.protocol.DecodeStatus`.  A failed frame
    triggers re-selection and retransmission; a frame that no longer fits
    the symbol budget aborts the packet.  For a spinal menu this is
    bit-identical to the legacy implementation (pinned in
    ``tests/test_api_migration.py``).
    """

    def __init__(
        self,
        payload: np.ndarray,
        rng: np.random.Generator,
        channel: Channel,
        policy: RateAdaptationPolicy,
        code_for_option: Callable[[RateOption], RatelessCode],
        observe: Callable[[], float],
        max_symbols: int,
    ) -> None:
        if max_symbols <= 0:
            raise ValueError(f"max_symbols must be positive, got {max_symbols}")
        self.payload = np.asarray(payload, dtype=np.uint8)
        self.rng = rng
        self.channel = channel
        self.policy = policy
        self.code_for_option = code_for_option
        self.observe = observe
        self.max_symbols = int(max_symbols)
        self.symbols_sent = 0
        self.symbols_delivered = 0
        self.decoded = False
        self.attempts = 0
        #: The menu entries selected, one per attempt (diagnostics).
        self.selected: list = []
        self._decoded_payload: np.ndarray | None = None
        self._exhausted = False
        self._active = False
        self._begin_attempt()

    # ------------------------------------------------------------------
    def _begin_attempt(self) -> None:
        """Select a rate from fresh CSI and set up the next frame, if it fits."""
        option = self.policy.select(float(self.observe()))
        code = self.code_for_option(option)
        if self.symbols_sent + code.info.symbols_per_frame > self.max_symbols:
            self._exhausted = True
            return
        self.attempts += 1
        self.selected.append(option)
        self._source = code.new_encoder(self.payload)
        self._decoder = code.new_decoder()
        self._active = True

    @property
    def exhausted(self) -> bool:
        """Whether the budget cannot fit another attempt (packet abort)."""
        return self._exhausted

    # ------------------------------------------------------------------
    def send_next_block(self):
        """Transmit the frame's next block through the user's channel."""
        if not self._active:
            raise RuntimeError("no active frame attempt to send from")
        block = self._source.next_block()
        received = self.channel.transmit(block.values, self.rng)
        self.symbols_sent += block.n_symbols
        return block, received

    def deliver(self, block, received_values: np.ndarray) -> bool:
        """Feed one received block to the receiver; decode at the frame boundary."""
        if self.decoded:
            return True
        status = self._decoder.absorb(block, received_values, attempt=True)
        self.symbols_delivered += block.n_symbols
        if not status.attempted:
            return False  # mid-frame: the fixed-rate receiver waits
        self._active = False
        if status.payload is not None and bool(
            np.array_equal(status.payload, self.payload)
        ):
            self.decoded = True
            self._decoded_payload = status.payload
            return True
        self._begin_attempt()  # retransmit (or mark exhausted)
        return False

    def decoded_payload(self) -> np.ndarray:
        if not self.decoded:
            raise ValueError("the packet has not decoded")
        return self._decoded_payload


class AdaptiveCodecLink:
    """Cell link running threshold adaptation over any fixed-rate code menu.

    The policy's options must be :class:`CodecRateOption` instances (or
    anything mapping to a fixed-rate code via ``option.code``); every packet
    opens one :class:`AdaptiveCodecTransmission`.
    """

    def __init__(
        self,
        policy: RateAdaptationPolicy,
        channel: Channel,
        max_symbols: int = 4096,
    ) -> None:
        self.policy = policy
        self.channel = channel
        self.max_symbols = int(max_symbols)
        payload_sizes = {o.code.info.payload_bits for o in policy.configs}
        if len(payload_sizes) != 1:
            raise ValueError(
                f"menu codes disagree on payload size: {sorted(payload_sizes)}"
            )
        self.payload_bits = payload_sizes.pop()

    def open(
        self,
        payload: np.ndarray,
        rng: np.random.Generator,
        observe: Callable[[], float],
    ) -> AdaptiveCodecTransmission:
        return AdaptiveCodecTransmission(
            payload=payload,
            rng=rng,
            channel=self.channel,
            policy=self.policy,
            code_for_option=lambda option: option.code,
            observe=observe,
            max_symbols=self.max_symbols,
        )


class AdaptiveSpinalLink:
    """Per-user factory for adaptive transmissions (the cell's link object).

    Mirrors the role :class:`~repro.mac.cell.RatelessLink` plays for
    rateless users: owns the user's channel, budget and PHY configuration,
    and opens one transmission per packet.  Since the ``repro.phy``
    redesign each menu entry is backed by a
    :class:`~repro.phy.fixed_rate.FixedRateSpinalCode` and packets run
    through the code-agnostic :class:`AdaptiveCodecTransmission` —
    bit-identically to the legacy :class:`AdaptiveFrameTransmission` path.
    """

    def __init__(
        self,
        policy: RateAdaptationPolicy,
        channel: Channel,
        payload_bits: int,
        params: SpinalParams | None = None,
        beam_width: int = 16,
        max_symbols: int = 4096,
    ) -> None:
        self.policy = policy
        self.channel = channel
        self.payload_bits = int(payload_bits)
        self.params = params if params is not None else SpinalParams(k=8, c=10)
        self.params.n_segments(self.payload_bits)  # validates divisibility
        self.beam_width = int(beam_width)
        self.max_symbols = int(max_symbols)
        #: Legacy compatibility attributes: transmissions now go through the
        #: per-option codes below, not this shared encoder/decoder pair.
        self.encoder = SpinalEncoder(self.params)
        self.decoder = BubbleDecoder(self.encoder, beam_width=self.beam_width)
        #: One fixed-rate code per menu entry (built lazily so policies may
        #: carry options the traffic never selects).
        self._codes: dict = {}

    def _code_for_option(self, option: SpinalRateOption) -> FixedRateSpinalCode:
        code = self._codes.get(option)
        if code is None:
            code = FixedRateSpinalCode(
                self.payload_bits,
                n_passes=option.n_passes,
                params=self.params,
                beam_width=self.beam_width,
            )
            self._codes[option] = code
        return code

    def open(
        self,
        payload: np.ndarray,
        rng: np.random.Generator,
        observe: Callable[[], float],
    ) -> AdaptiveCodecTransmission:
        return AdaptiveCodecTransmission(
            payload=payload,
            rng=rng,
            channel=self.channel,
            policy=self.policy,
            code_for_option=self._code_for_option,
            observe=observe,
            max_symbols=self.max_symbols,
        )
