"""Conformance suite: every registered code family through one shared battery.

The point of the ``repro.phy`` protocol is that the session loop, transport,
relay and cell treat all code families identically — so the families must
actually honour the contract.  Each test here is parametrized over the full
registry; registering a new family automatically subjects it to the battery.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.decoder_vectorized import VectorizedBubbleDecoder
from repro.core.encoder import SpinalEncoder
from repro.core.framing import Framer
from repro.core.params import SpinalParams
from repro.core.puncturing import (
    NoPuncturing,
    StridedPuncturing,
    SymbolBySymbol,
    TailFirstPuncturing,
)
from repro.experiments.code_family_matrix import code_family_matrix_point
from repro.phy.families import (
    CODE_FAMILY_NAMES,
    channel_for_code,
    code_family,
    make_code,
    make_codec_session,
)
from repro.phy.protocol import RatelessCode
from repro.phy.session import CodecSession
from repro.phy.spinal import SpinalCode
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

SNR_DB = 10.0
SEED = 20111114


def _session(name: str, max_symbols: int = 4096) -> CodecSession:
    return make_codec_session(
        name, snr_db=SNR_DB, seed=SEED, smoke=True, max_symbols=max_symbols
    )


def _payload(session: CodecSession, label: str) -> np.ndarray:
    return random_message_bits(
        session.payload_bits, spawn_rng(SEED, "codec-payload", label)
    )


class TestRegistry:
    def test_names_cover_the_registry(self):
        assert set(CODE_FAMILY_NAMES) == {
            "spinal",
            "lt",
            "ldpc-ir",
            "fixed-spinal",
            "repetition",
        }
        for name in CODE_FAMILY_NAMES:
            assert code_family(name).name == name

    def test_unknown_family_raises(self):
        with pytest.raises(KeyError, match="unknown code family"):
            code_family("turbo")

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_codes_satisfy_the_protocol(self, name):
        code = make_code(name, seed=SEED, snr_db=SNR_DB, smoke=True)
        assert isinstance(code, RatelessCode)
        info = code.info
        assert info.family == name
        assert info.payload_bits > 0
        assert info.domain in ("symbol", "bit")
        assert code.min_symbols_to_attempt() >= 1

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_channel_matches_the_code_domain(self, name):
        code = make_code(name, seed=SEED, snr_db=SNR_DB, smoke=True)
        channel = channel_for_code(code, SNR_DB)
        assert channel.domain == code.info.domain


class TestSessionBattery:
    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_decodes_correctly_at_healthy_snr(self, name):
        session = _session(name)
        result = session.run(_payload(session, name), spawn_rng(SEED, "run", name))
        assert result.success
        assert result.payload_correct
        assert 0 < result.symbols_sent <= session.max_symbols
        assert result.decode_attempts >= 1
        assert result.rate > 0

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_no_attempt_before_the_symbol_gate(self, name):
        session = _session(name)
        tx = session.open_transmission(
            _payload(session, name), spawn_rng(SEED, "gate", name)
        )
        gate = session.code.min_symbols_to_attempt()
        while tx.symbols_delivered + 1 < gate and not tx.decoded:
            block, received = tx.send_next_block()
            if tx.symbols_delivered + block.n_symbols >= gate:
                break  # this delivery would open the gate
            tx.deliver(block, received)
            assert tx.decode_attempts == 0

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_absorb_order_invariance(self, name):
        session = _session(name)
        code = session.code
        if not code.info.order_invariant:
            pytest.skip(f"{name} declares order-dependent decoding")
        tx = session.open_transmission(
            _payload(session, name), spawn_rng(SEED, "order", name)
        )
        blocks: list = []
        while True:
            block, received = tx.send_next_block()
            blocks.append((block, received))
            if tx.deliver(block, received) or tx.exhausted:
                break
        assert tx.decoded, "battery needs a decodable trace; raise the SNR"

        def final_estimate(order):
            decoder = code.new_decoder()
            for block, received in order:
                decoder.absorb(block, received, attempt=False)
            return decoder.decode_now().estimate

        in_order = final_estimate(blocks)
        shuffled = list(blocks)
        spawn_rng(SEED, "order-shuffle", name).shuffle(shuffled)
        assert in_order is not None
        assert np.array_equal(in_order, final_estimate(shuffled))
        assert np.array_equal(in_order, final_estimate(list(reversed(blocks))))

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_pause_resume_matches_back_to_back(self, name):
        """Interleaving two packets changes nothing about either (pause/resume)."""
        session = _session(name)
        payloads = [_payload(session, f"{name}-a"), _payload(session, f"{name}-b")]

        def rngs():
            return [spawn_rng(SEED, "interleave", name, i) for i in range(2)]

        solo = []
        for payload, rng in zip(payloads, rngs()):
            tx = session.open_transmission(payload, rng)
            while not tx.decoded and not tx.exhausted:
                block, received = tx.send_next_block()
                tx.deliver(block, received)
            solo.append((tx.symbols_sent, tx.decoded))

        txs = [
            session.open_transmission(payload, rng)
            for payload, rng in zip(payloads, rngs())
        ]
        while any(not tx.decoded and not tx.exhausted for tx in txs):
            for tx in txs:  # round-robin, one block each: pause/resume per block
                if not tx.decoded and not tx.exhausted:
                    block, received = tx.send_next_block()
                    tx.deliver(block, received)
        interleaved = [(tx.symbols_sent, tx.decoded) for tx in txs]
        assert interleaved == solo

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_zero_symbol_best_effort(self, name):
        """A fresh decoder's forced decode must not crash (zero-symbol edge)."""
        code = make_code(name, seed=SEED, snr_db=SNR_DB, smoke=True)
        status = code.new_decoder().decode_now()
        assert status.attempted
        # The estimate may be anything (or absent), but the fields must agree.
        assert (status.estimate is None) == (status.payload is None)

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_budget_exhaustion_is_contained(self, name):
        """A starved session fails cleanly: no crash, budget respected."""
        session = make_codec_session(
            name, snr_db=-15.0, seed=SEED, smoke=True, max_symbols=2
        )
        result = session.run(
            _payload(session, name), spawn_rng(SEED, "starve", name)
        )
        assert not result.success
        # The sender may overshoot a tiny budget by at most one block.
        largest_block = max(
            session.code.new_encoder(_payload(session, name)).next_block().n_symbols, 1
        )
        assert result.symbols_sent <= session.max_symbols + largest_block
        assert result.decode_attempts >= 1  # the best-effort decode ran

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_terminated_transmission_releases_its_decoder(self, name):
        """A decoded packet drops its decoder and keeps behaving the same.

        Transports hold every packet's transmission until the hop ends, so
        a decoded one must not pin its decoder's caches; ``deliver`` still
        reports success without touching any count, ``best_effort_decode``
        stays a no-op and ``decoded_payload`` still returns the estimate.
        """
        session = _session(name)
        payload = _payload(session, f"release-{name}")
        tx = session.open_transmission(payload, spawn_rng(SEED, "release", name))
        while not tx.decoded:
            assert tx.decoder is not None
            block, received = tx.send_next_block()
            tx.deliver(block, received)
        assert tx.decoder is None
        def state():
            return (tx.decode_attempts, tx.work, tx.symbols_delivered, tx.last_status)

        before = state()
        decoded = tx.decoded_payload()
        assert np.array_equal(decoded, payload)
        block, received = tx.send_next_block()
        assert tx.deliver(block, received) is True
        assert tx.deliver(block, received, attempt=True) is True
        tx.best_effort_decode()
        assert tx.record_status(tx.last_status) is True
        assert state() == before
        assert np.array_equal(tx.decoded_payload(), decoded)

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_failed_transmission_keeps_its_decoder(self, name):
        """Only success releases the decoder: an exhausted packet still
        needs it for the transport's one best-effort decode."""
        session = make_codec_session(
            name, snr_db=-25.0, seed=SEED, smoke=True, max_symbols=8
        )
        tx = session.open_transmission(
            _payload(session, f"keep-{name}"), spawn_rng(SEED, "keep", name)
        )
        while not tx.exhausted:
            block, received = tx.send_next_block()
            tx.deliver(block, received, attempt=False)
        assert not tx.decoded and tx.decoder is not None
        tx.best_effort_decode()
        assert tx.decode_attempts == 1

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_seed_determinism(self, name):
        session = _session(name)
        payload = _payload(session, name)
        results = [
            session.run(payload, spawn_rng(SEED, "det", name)) for _ in range(2)
        ]
        a, b = results
        assert a.symbols_sent == b.symbols_sent
        assert a.decode_attempts == b.decode_attempts
        assert a.work == b.work
        assert a.success == b.success
        if a.decoded_payload is None:
            assert b.decoded_payload is None
        else:
            assert np.array_equal(a.decoded_payload, b.decoded_payload)


class TestMatrixKernel:
    """The experiment kernel is deterministic — what worker-invariance needs."""

    @pytest.mark.parametrize("scenario", ("single-hop", "relay-3", "cell-8"))
    def test_kernel_is_deterministic(self, scenario):
        params = {
            "code": "spinal",
            "scenario": scenario,
            "snr_db": 8.0,
            "seed": SEED,
            "scale": "smoke",
            "packets": 2,
            "cell_packets_per_user": 1,
            "cell_snr_spread_db": 6.0,
            "budget_factor": 8.0,
        }
        first = code_family_matrix_point(params, spawn_rng(SEED, "kernel", 0))
        second = code_family_matrix_point(params, spawn_rng(SEED, "kernel", 1))
        assert first == second
        assert first["goodput"] > 0

    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_every_family_completes_every_scenario(self, name):
        for scenario in ("single-hop", "relay-3", "cell-8"):
            params = {
                "code": name,
                "scenario": scenario,
                "snr_db": 8.0,
                "seed": SEED,
                "scale": "smoke",
                "packets": 2,
                "cell_packets_per_user": 1,
                "cell_snr_spread_db": 6.0,
                "budget_factor": 8.0,
            }
            metrics = code_family_matrix_point(params, spawn_rng(SEED, "all", name))
            assert metrics["n_packets"] > 0
            assert 0.0 <= metrics["delivered_fraction"] <= 1.0
            assert metrics["symbols_sent"] > 0


class TestSessionSeamEdgeCases:
    """PR-7 bugfix sweep: zero-symbol deliveries and exhausted accounting."""

    def _spinal(self, snr_db=SNR_DB, max_symbols=4096):
        return make_codec_session(
            "spinal", snr_db=snr_db, seed=SEED, smoke=True, max_symbols=max_symbols
        )

    def _empty_block(self):
        from repro.core.encoder import SubpassBlock

        return SubpassBlock(
            subpass_index=0,
            positions=np.array([], dtype=np.int64),
            pass_indices=np.array([], dtype=np.int64),
            values=np.array([], dtype=np.complex128),
        )

    def test_empty_block_never_triggers_an_attempt(self):
        """A zero-symbol delivery must not count a decode attempt — before
        the gate (nothing to decode) nor after it (the observations did not
        change, so an attempt would double-count work)."""
        session = self._spinal()
        tx = session.open_transmission(
            _payload(session, "empty-block"), spawn_rng(SEED, "empty-block")
        )
        nothing = np.array([], dtype=np.complex128)
        assert not tx.deliver(self._empty_block(), nothing)
        assert tx.decode_attempts == 0
        assert tx.symbols_delivered == 0
        # Open the gate without decoding, then deliver another empty block.
        while not tx.attempt_ready:
            block, received = tx.send_next_block()
            tx.deliver(block, received, attempt=False)
        assert tx.deliver(self._empty_block(), nothing) == tx.decoded
        assert tx.decode_attempts == 0
        # A real block past the open gate does attempt.
        block, received = tx.send_next_block()
        tx.deliver(block, received)
        assert tx.decode_attempts == 1

    def test_attempt_ready_tracks_the_gate(self):
        session = self._spinal()
        tx = session.open_transmission(
            _payload(session, "gate-prop"), spawn_rng(SEED, "gate-prop")
        )
        gate = session.code.min_symbols_to_attempt()
        while tx.symbols_delivered < gate:
            assert tx.attempt_ready == (tx.symbols_delivered >= gate)
            block, received = tx.send_next_block()
            tx.deliver(block, received, attempt=False)
        assert tx.attempt_ready

    def test_best_effort_after_exhaustion_is_idempotent(self):
        """Repeated best-effort decodes never double-count attempts/work."""
        session = self._spinal(snr_db=-25.0, max_symbols=8)
        tx = session.open_transmission(
            _payload(session, "exhaust"), spawn_rng(SEED, "exhaust")
        )
        while not tx.decoded and not tx.exhausted:
            block, received = tx.send_next_block()
            tx.deliver(block, received)
        assert tx.exhausted and not tx.decoded
        tx.best_effort_decode()
        attempts, work = tx.decode_attempts, tx.work
        assert attempts >= 1
        tx.best_effort_decode()
        tx.best_effort_decode()
        assert (tx.decode_attempts, tx.work) == (attempts, work)
        tx.decoded_payload()  # must not raise after a best-effort

    def test_best_effort_records_exactly_one_attempt_when_none_made(self):
        """An exhausted absorb-only transmission gets exactly one forced
        attempt, however many times the caller asks."""
        session = self._spinal(snr_db=-25.0, max_symbols=8)
        tx = session.open_transmission(
            _payload(session, "exhaust-absorb"), spawn_rng(SEED, "exhaust-absorb")
        )
        while not tx.exhausted:
            block, received = tx.send_next_block()
            tx.deliver(block, received, attempt=False)
        assert tx.decode_attempts == 0
        tx.best_effort_decode()
        assert tx.decode_attempts == 1
        work = tx.work
        tx.best_effort_decode()
        assert (tx.decode_attempts, tx.work) == (1, work)

    def test_record_status_after_decode_never_recounts(self):
        session = self._spinal()
        tx = session.open_transmission(
            _payload(session, "recount"), spawn_rng(SEED, "recount")
        )
        while not tx.decoded and not tx.exhausted:
            block, received = tx.send_next_block()
            tx.deliver(block, received)
        assert tx.decoded, "battery needs a decodable trace; raise the SNR"
        attempts, work = tx.decode_attempts, tx.work
        assert tx.record_status(tx.last_status)
        assert (tx.decode_attempts, tx.work) == (attempts, work)


def _outcome(result):
    """Everything ``run_many`` promises to share with ``run`` (not work)."""
    decoded = result.decoded_payload
    return (
        result.symbols_sent,
        result.success,
        result.decode_attempts,
        result.payload_correct,
        None if decoded is None else decoded.tolist(),
    )


class TestRunMany:
    """``CodecSession.run_many`` is ``run`` in lock-step, item for item."""

    def _items(self, session, label, n=6):
        rngs = [spawn_rng(SEED, "run-many", label, i) for i in range(n)]
        return [random_message_bits(session.payload_bits, r) for r in rngs], rngs

    @pytest.mark.parametrize("snr_db", [-8.0, 2.0, 12.0])
    @pytest.mark.parametrize("adc_bits", [None, 3])
    @pytest.mark.parametrize("name", CODE_FAMILY_NAMES)
    def test_each_result_equals_its_own_run(self, name, adc_bits, snr_db):
        session = make_codec_session(
            name, snr_db=snr_db, seed=SEED, smoke=True, max_symbols=128,
            adc_bits=adc_bits,
        )
        label = (name, adc_bits, snr_db)
        payloads, rngs = self._items(session, label)
        alone = [session.run(p, r) for p, r in zip(payloads, rngs)]
        payloads, rngs = self._items(session, label)
        together = session.run_many(payloads, rngs)
        assert [_outcome(r) for r in together] == [_outcome(r) for r in alone]

    def test_exhausted_sessions_take_the_best_effort_step(self):
        session = make_codec_session(
            "spinal", snr_db=-25.0, seed=SEED, smoke=True, max_symbols=16
        )
        payloads, rngs = self._items(session, "exhausted")
        results = session.run_many(payloads, rngs)
        assert not any(r.success for r in results)
        assert all(r.symbols_sent >= 16 and r.decode_attempts >= 1 for r in results)
        assert all(r.decoded_payload is not None for r in results)

    def test_unregistered_spinal_engine_decodes_one_by_one(self):
        """A decoder the batch decoder cannot stand in for keeps its work."""

        class Custom(VectorizedBubbleDecoder):
            pass

        base = make_code("spinal", seed=SEED, smoke=True)
        code = SpinalCode(
            base.encoder, lambda enc: Custom(enc, beam_width=8), base.framer
        )
        session = CodecSession(code, channel_for_code(code, 4.0), max_symbols=128)
        payloads, rngs = self._items(session, "custom")
        alone = [session.run(p, r) for p, r in zip(payloads, rngs)]
        payloads, rngs = self._items(session, "custom")
        together = session.run_many(payloads, rngs)
        assert [(_outcome(r), r.work) for r in together] == [
            (_outcome(r), r.work) for r in alone
        ]

    def test_empty_and_mismatched_inputs(self):
        session = _session("spinal")
        assert session.run_many([], []) == []
        payloads, rngs = self._items(session, "mismatch", n=2)
        with pytest.raises(ValueError):
            session.run_many(payloads, rngs[:1])


#: Schedules the windowed sender must follow, with the symbol mode each runs
#: in: tail-first sends one position per subpass; the others send several
#: per subpass, and stride 8 over 6 or 3 positions without the last one has
#: empty subpasses to skip.
_SOURCE_SCHEDULES = {
    "tail-first": (TailFirstPuncturing, False),
    "none": (NoPuncturing, False),
    "symbol-by-symbol": (SymbolBySymbol, False),
    "strided-with-last": (lambda: StridedPuncturing(stride=4), False),
    "strided-without-last": (
        lambda: StridedPuncturing(stride=8, always_include_last=False),
        False,
    ),
    "tail-first-bits": (TailFirstPuncturing, True),
    "strided-bits": (lambda: StridedPuncturing(stride=4), True),
}


@pytest.mark.parametrize("schedule", list(_SOURCE_SCHEDULES))
@pytest.mark.parametrize("k", [4, 8])
def test_spinal_source_blocks_equal_the_encoder_symbol_stream(k, schedule):
    """The windowed sender emits ``symbol_stream``'s blocks byte for byte."""
    make_schedule, bit_mode = _SOURCE_SCHEDULES[schedule]
    params = SpinalParams(k=k, c=6, seed=SEED, bit_mode=bit_mode)
    encoder = SpinalEncoder(params, puncturing=make_schedule())
    framer = Framer(payload_bits=24, k=k)
    code = SpinalCode(encoder, lambda enc: VectorizedBubbleDecoder(enc, beam_width=4), framer)
    payload = random_message_bits(24, spawn_rng(SEED, "window", k))
    source = code.new_encoder(payload)
    stream = encoder.symbol_stream(framer.frame(payload))
    for _ in range(3 * 8 + 5):  # past three whole pre-encoding windows
        got, want = source.next_block(), next(stream)
        assert got.subpass_index == want.subpass_index
        assert np.array_equal(got.positions, want.positions)
        assert np.array_equal(got.pass_indices, want.pass_indices)
        assert got.values.dtype == want.values.dtype
        assert got.values.tobytes() == want.values.tobytes()
