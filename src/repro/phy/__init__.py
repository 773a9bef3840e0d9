"""Code-agnostic PHY session API: one protocol, every rateless code family.

The paper's protocol — stream coded symbols until the receiver's ACK stops
the sender — is not specific to spinal codes.  This package defines the
:class:`~repro.phy.protocol.RatelessCode` protocol (encoder stream +
incremental decoder + metadata) and a single session loop
(:class:`~repro.phy.session.CodecSession` /
:class:`~repro.phy.session.CodecTransmission`) that the link transport,
relay topology and MAC cell all drive, so *any* code family runs in *any*
scenario:

* :mod:`repro.phy.protocol` — the protocol itself (``CodeInfo``,
  ``DecodeStatus``, ``SymbolSource``, ``IncrementalDecoder``,
  ``RatelessCode``);
* :mod:`repro.phy.session` — the code-agnostic session loop with the PR-1
  decode gate, per-packet budgets and pause/resume;
* :mod:`repro.phy.spinal` — the paper's code (bit-identical adapter over
  the existing encoder and any bubble decoder engine);
* :mod:`repro.phy.fountain` — LT fountain codes with a per-symbol CRC
  erasure layer and an incremental peeling decoder;
* :mod:`repro.phy.ldpc_ir` — incremental-redundancy LDPC: the hybrid-ARQ
  puncturing schedule as a rateless symbol stream with LLR combining;
* :mod:`repro.phy.fixed_rate` — fixed-rate spinal frames under ARQ (the
  "status quo" member of the matrix, and the adaptive menu's backing code);
* :mod:`repro.phy.repetition` — BPSK repetition with soft combining (the
  floor any code should beat);
* :mod:`repro.phy.families` — the code-family registry powering the
  conformance suite and the ``code-family-matrix`` experiment.
"""

from repro.phy.protocol import (
    CodeBlock,
    CodeInfo,
    DecodeStatus,
    IncrementalDecoder,
    RatelessCode,
    SymbolSource,
)
from repro.phy.session import CodecResult, CodecSession, CodecTransmission
from repro.phy.spinal import SpinalCode
from repro.phy.fountain import LTCode
from repro.phy.ldpc_ir import LdpcIrCode
from repro.phy.fixed_rate import FixedRateSpinalCode
from repro.phy.repetition import RepetitionCode
from repro.phy.families import (
    CODE_FAMILY_NAMES,
    CodeFamily,
    channel_for_code,
    code_family,
    make_code,
    make_codec_session,
    register_code_family,
)

__all__ = [
    "CODE_FAMILY_NAMES",
    "CodeBlock",
    "CodeFamily",
    "CodeInfo",
    "CodecResult",
    "CodecSession",
    "CodecTransmission",
    "DecodeStatus",
    "FixedRateSpinalCode",
    "IncrementalDecoder",
    "LTCode",
    "LdpcIrCode",
    "RatelessCode",
    "RepetitionCode",
    "SpinalCode",
    "SymbolSource",
    "channel_for_code",
    "code_family",
    "make_code",
    "make_codec_session",
    "register_code_family",
]
