"""The network-level status quo: threshold rate adaptation per cell user.

Section 1 of the paper describes today's wireless stacks as a menu of fixed
PHY rates plus a reactive policy choosing among them from observed channel
quality.  :mod:`repro.baselines.rate_adaptation` holds that policy and its
calibration loop; this module lifts them into the multi-user cell so the
paper's "rateless removes the rate-adaptation loop" claim can be tested
where it is actually made — at the *network* level, against aggregate
goodput and fairness.

Each adaptive user transmits its head-of-line packet as a **fixed-rate
spinal frame** (:class:`~repro.phy.fixed_rate.FixedRateSpinalCode`): the
policy observes the user's CSI, selects a pass count from a calibrated
menu, and the sender transmits exactly that many passes.  The receiver
decodes once, after the final pass.  A failed frame is simply
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

from repro.baselines.rate_adaptation import (
    RateAdaptationPolicy,
    RateOption,
    calibrate_thresholds,
)
from repro.channels.base import Channel
from repro.core.params import SpinalParams
from repro.phy.fixed_rate import FixedRateSpinalCode, measure_error_rates
from repro.phy.protocol import RatelessCode

__all__ = [
    "SpinalRateOption",
    "spinal_rate_options",
    "calibrate_spinal_rate_policy",
    "AdaptiveCodecTransmission",
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
    """Calibrate the ``k / n_passes`` menu with :func:`calibrate_thresholds`.

    An option's frame error rate is :func:`~repro.phy.fixed_rate.measure_error_rates`
    of its :class:`~repro.phy.fixed_rate.FixedRateSpinalCode` over
    ``n_frames`` frames.  The calibration is the operator's offline planning
    step, so it draws from its own ``rng`` — separate from the cell's
    traffic.
    """
    options = spinal_rate_options(params.k, pass_choices)
    codes = {
        option: FixedRateSpinalCode(
            payload_bits, n_passes=option.n_passes, params=params, beam_width=beam_width
        )
        for option in options
    }

    def fer(option: SpinalRateOption, snr_db: float) -> float:
        return measure_error_rates(codes[option], snr_db, n_frames, rng, adc_bits)[0]

    return calibrate_thresholds(options, fer, snr_grid_db, target_frame_error_rate)


class AdaptiveCodecTransmission:
    """One packet's fixed-rate ARQ transmission, driven through the codec protocol.

    Implements the pausable interface of
    :class:`~repro.phy.session.CodecTransmission` (``send_next_block`` /
    ``deliver`` / ``decoded`` / ``exhausted``), so the cell simulator
    multiplexes adaptive and rateless users identically.  Each attempt
    re-observes the channel through ``observe``, asks the policy for a menu
    option, and streams that option's *code* (``new_encoder`` /
    ``new_decoder``) for exactly one frame — the decoder signals the frame
    boundary by returning an attempted
    :class:`~repro.phy.protocol.DecodeStatus`.  The rate is committed before
    any symbol is sent, the pre-commitment the paper argues rateless codes
    remove.  A failed frame triggers re-selection and retransmission; a
    frame that no longer fits the symbol budget aborts the packet.
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


class AdaptiveSpinalLink:
    """Per-user factory for adaptive transmissions (the cell's link object).

    Mirrors the role :class:`~repro.mac.cell.RatelessLink` plays for
    rateless users: owns the user's channel, budget and PHY configuration,
    and opens one transmission per packet.  Each menu entry is backed by a
    :class:`~repro.phy.fixed_rate.FixedRateSpinalCode`, and packets run
    through the code-agnostic :class:`AdaptiveCodecTransmission`.
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
