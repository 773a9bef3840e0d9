"""repro — a complete reproduction of "Rateless Spinal Codes" (HotNets 2011).

The package implements the paper's primary contribution (the spinal code:
hash-based rateless encoder, ML decoder, and practical bubble decoder) plus
every substrate its evaluation depends on: AWGN/BSC/fading channel models,
constellation mappings, an 802.11n-style LDPC code with belief-propagation
decoding (the fixed-rate baseline of Figure 2), Shannon and finite-blocklength
bounds, and the experiment harness that regenerates the paper's figure.

Quickstart::

    import numpy as np
    from repro import (
        AWGNChannel, CodecSession, Framer, IncrementalBubbleDecoder,
        SpinalCode, SpinalEncoder, SpinalParams,
    )

    params = SpinalParams(k=8, c=10)
    code = SpinalCode(
        SpinalEncoder(params),
        lambda enc: IncrementalBubbleDecoder(enc, beam_width=16),
        Framer(payload_bits=24, k=params.k),
    )
    session = CodecSession(code, AWGNChannel(snr_db=10.0, adc_bits=14))
    rng = np.random.default_rng(0)
    payload = rng.integers(0, 2, size=24, dtype=np.uint8)
    trial = session.run(payload, rng)
    print(trial.rate, trial.payload_correct)

Any other registered code family runs through the same loop (and the same
transports, relays and cells) via ``repro.phy``::

    from repro import make_codec_session

    lt = make_codec_session("lt", snr_db=10.0)
    trial = lt.run(rng.integers(0, 2, size=lt.payload_bits, dtype=np.uint8), rng)

See DESIGN.md for the complete system inventory and EXPERIMENTS.md for the
paper-versus-measured comparison of every figure.
"""

from repro.channels import (
    AWGNChannel,
    BECChannel,
    BSCChannel,
    RayleighBlockFadingChannel,
    TimeVaryingAWGNChannel,
)
from repro.core import (
    BatchDecoder,
    BubbleDecoder,
    IncrementalBubbleDecoder,
    VectorizedBubbleDecoder,
    CRC8,
    CRC16_CCITT,
    CRC32,
    Framer,
    LinearConstellation,
    MLDecoder,
    NoPuncturing,
    OffsetLinearConstellation,
    SpinalEncoder,
    SpinalParams,
    StridedPuncturing,
    TruncatedGaussianConstellation,
)
from repro.netcode import (
    MulticastTreeConfig,
    TwoWayConfig,
    broadcast_transmission,
    run_multicast_tree,
    run_two_way_af_exchange,
    run_two_way_exchange,
)
from repro.phy import (
    CODE_FAMILY_NAMES,
    CodeInfo,
    CodecResult,
    CodecSession,
    CodecTransmission,
    DecodeStatus,
    FixedRateSpinalCode,
    LTCode,
    LdpcIrCode,
    RatelessCode,
    RepetitionCode,
    SpinalCode,
    channel_for_code,
    make_code,
    make_codec_session,
)

__version__ = "1.0.0"

__all__ = [
    "SpinalParams",
    "SpinalEncoder",
    "BubbleDecoder",
    "IncrementalBubbleDecoder",
    "VectorizedBubbleDecoder",
    "BatchDecoder",
    "MLDecoder",
    "Framer",
    "CRC8",
    "CRC16_CCITT",
    "CRC32",
    "NoPuncturing",
    "StridedPuncturing",
    "LinearConstellation",
    "OffsetLinearConstellation",
    "TruncatedGaussianConstellation",
    "AWGNChannel",
    "TimeVaryingAWGNChannel",
    "BSCChannel",
    "BECChannel",
    "RayleighBlockFadingChannel",
    "CODE_FAMILY_NAMES",
    "CodeInfo",
    "CodecResult",
    "CodecSession",
    "CodecTransmission",
    "DecodeStatus",
    "FixedRateSpinalCode",
    "LTCode",
    "LdpcIrCode",
    "RatelessCode",
    "RepetitionCode",
    "SpinalCode",
    "channel_for_code",
    "make_code",
    "make_codec_session",
    "MulticastTreeConfig",
    "TwoWayConfig",
    "broadcast_transmission",
    "run_multicast_tree",
    "run_two_way_af_exchange",
    "run_two_way_exchange",
    "__version__",
]
