"""The three benchmark workloads, driven only through the library's public API.

Each workload is a closed loop of back-to-back *jobs*.  A job is one call of
the workload's top-level entry point with its own seed, derived from the run
seed by :func:`job_seed` (a hash owned by the benchmark, so a library change
to its own seed derivation cannot change the inputs).  A workload provides:

* ``setup(seed)`` — everything built before the first timed call: the
  calibrated flow model for city-flow, and job 0's objects for every
  workload.  ``setup_s`` measures this (plus ``import repro``) in a fresh
  interpreter;
* ``prepare(state, index)`` — the untimed construction of one job's objects;
* ``call(job)`` — the timed public call;
* ``account(job, output)`` — the job's packet outcomes and its deterministic
  work counters (a pure function of the job seed);
* ``oracle(state, job, output)`` — the sampled correctness check against an
  oracle the library already has; returns one line per mismatch.

See ``README.md`` in this directory for why each workload exists and which
layers it loads or bypasses.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field

import numpy as np

import repro.link as link
from repro.net import CellNetwork, NetworkConfig, default_symbol_model
from repro.serve import SoakConfig, SoakEngine
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

__all__ = ["WORKLOADS", "JobRecord", "job_seed"]


def job_seed(seed: int, workload: str, index: int) -> int:
    """The 63-bit seed of job ``index`` of a run seeded with ``seed``."""
    digest = hashlib.blake2b(f"perfbench:{workload}:{seed}:{index}".encode(), digest_size=8)
    return int.from_bytes(digest.digest(), "little") & ((1 << 63) - 1)


@dataclass
class JobRecord:
    """What one job did: packet outcomes plus work counters that repeat exactly."""

    index: int
    symbols: int
    attempted: int
    ok: int
    work: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    seconds: float = 0.0  # the timed call, filled in by the runner


def _payload(rng: np.random.Generator, n_bits: int) -> np.ndarray:
    return rng.integers(0, 2, size=n_bits, dtype=np.uint8)


class RelayFig2:
    """Figure-2 spinal code over a 3-hop decode-and-forward relay chain."""

    name = "relay-fig2"
    hop_snrs_db = (0.0, 8.0, 15.0)
    packets_per_job = 4
    window = 4
    ack_delay = 16
    trace_jobs = 10
    oracle_stride = 1

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "first": self.prepare({"seed": seed}, 0)}

    def prepare(self, state: dict, index: int) -> dict:
        seed = job_seed(state["seed"], self.name, index)
        sessions = link.build_codec_relay_sessions("spinal", self.hop_snrs_db, seed=seed, smoke=False)
        rng = np.random.default_rng(seed)
        payloads = [_payload(rng, sessions[0].payload_bits) for _ in range(self.packets_per_job)]
        config = link.TransportConfig(
            protocol="selective-repeat", window=self.window, ack_delay=self.ack_delay, seed=seed
        )
        return {"index": index, "sessions": sessions, "payloads": payloads, "config": config}

    def call(self, job: dict):
        # Looked up on the module at call time, so the traced run's wrapper
        # is the one called.
        return link.simulate_relay_transport(job["sessions"], job["payloads"], job["config"])

    def account(self, job: dict, result) -> JobRecord:
        last = result.hops[-1]
        ok = 0
        for position, orig in enumerate(last.orig_indices):
            decoded = last.decoded_payloads[position]
            if (
                last.delivered[position]
                and decoded is not None
                and np.array_equal(decoded, job["payloads"][int(orig)])
            ):
                ok += 1
        return JobRecord(
            index=job["index"],
            symbols=result.total_symbols_sent,
            attempted=self.packets_per_job,
            ok=ok,
            work={
                "symbols": result.total_symbols_sent,
                "hop_symbols": [hop.total_symbols_sent for hop in result.hops],
                "delivered": result.n_delivered,
                "makespan": result.makespan,
                "acks_sent": sum(hop.acks_sent for hop in result.hops),
            },
        )

    def oracle(self, state: dict, job: dict, result) -> list[str]:
        # The oracle is the payload list itself; account() already compared
        # every delivered packet against it.
        return []


class ServeSoak:
    """The batched serve reactor at the bench_serve_soak full shape, 1024 sessions."""

    name = "serve-soak"
    packets_per_job = 1024
    oracle_samples = 8
    trace_jobs = 1
    oracle_stride = 1

    def config(self, seed: int) -> SoakConfig:
        return SoakConfig(
            n_sessions=self.packets_per_job,
            max_in_flight=128,
            snr_db=2.0,
            seed=seed,
            payload_bits=24,
            k=4,
            c=6,
            beam_width=8,
            max_symbols=512,
        )

    def setup(self, seed: int) -> dict:
        return {"seed": seed, "first": self.prepare({"seed": seed}, 0)}

    def prepare(self, state: dict, index: int) -> dict:
        config = self.config(job_seed(state["seed"], self.name, index))
        start = time.perf_counter()
        engine = SoakEngine(config)
        return {"index": index, "engine": engine, "build_s": time.perf_counter() - start}

    def call(self, job: dict):
        return job["engine"].run()

    def account(self, job: dict, result) -> JobRecord:
        deliveries = result.deliveries
        return JobRecord(
            index=job["index"],
            symbols=result.total_symbols,
            attempted=len(deliveries),
            ok=sum(1 for d in deliveries if d.success and d.payload_correct),
            work={
                "symbols": result.total_symbols,
                "decode_attempts": sum(d.decode_attempts for d in deliveries),
                "candidates": sum(d.work for d in deliveries),
                "ticks": result.makespan,
                "flushes": result.n_flushes,
                "decode_batches": result.n_decode_batches,
                "batched_sessions": result.batched_sessions,
                "max_batch": result.max_batch_sessions,
            },
        )

    def oracle(self, state: dict, job: dict, result) -> list[str]:
        """Sampled sessions must equal a solo ``CodecSession.run``.

        Payload and noise streams follow the ``run_sequential_baseline``
        convention, so the solo run is that baseline restricted to the
        sampled sessions.
        """
        engine = job["engine"]
        config = engine.config
        by_session = {d.session: d for d in result.deliveries}
        picks = np.random.default_rng(config.seed).choice(
            config.n_sessions, size=self.oracle_samples, replace=False
        )
        mismatches = []
        for i in sorted(int(p) for p in picks):
            payload = random_message_bits(
                config.payload_bits, spawn_rng(config.seed, "serve", "payload", i)
            )
            solo = engine.sessions[i].run(payload, spawn_rng(config.seed, "serve", "packet", i))
            d = by_session[i]
            served = (d.symbols_sent, d.decode_attempts, d.success, d.payload_correct)
            alone = (solo.symbols_sent, solo.decode_attempts, solo.success, solo.payload_correct)
            if served != alone:
                mismatches.append(f"job {job['index']} session {i}: served {served} != solo {alone}")
        return mismatches


class CityFlow:
    """9-cell, 1000-user walking city on the calibrated flow tier."""

    name = "city-flow"
    n_users = 1000
    packets_per_user = 2
    packets_per_job = n_users * packets_per_user
    trace_jobs = 2
    # A rerun costs a whole job, so only every tenth job is re-run.
    oracle_stride = 10

    def config(self, seed: int) -> NetworkConfig:
        return NetworkConfig(
            n_cells=9,
            n_users=self.n_users,
            packets_per_user=self.packets_per_user,
            scheduler="round-robin",
            code="spinal",
            tier="flow",
            seed=seed,
            max_symbols=512,
            cell_radius=150.0,
            reference_snr_db=18.0,
            epoch_symbols=128,
            mobility_step=60.0,
            calibration_samples=32,
        )

    def setup(self, seed: int) -> dict:
        start = time.perf_counter()
        model = default_symbol_model(self.config(seed))
        state = {"seed": seed, "model": model, "calibrate_s": time.perf_counter() - start}
        state["first"] = self.prepare(state, 0)
        return state

    def prepare(self, state: dict, index: int) -> dict:
        config = self.config(job_seed(state["seed"], self.name, index))
        return {"index": index, "config": config, "model": state["model"]}

    def call(self, job: dict):
        network = CellNetwork(job["config"], model=job["model"])
        result = network.run()
        return result, network.epoch, network.clock.n_processed

    def account(self, job: dict, output) -> JobRecord:
        result, epochs, events = output
        offered = self.packets_per_job
        summary = result.summary()
        symbols = sum(p.symbols_sent for p in result.packets)
        errors = []
        if summary["n_packets"] != offered:
            errors.append(
                f"job {job['index']}: {summary['n_packets']} packets accounted, {offered} offered"
            )
        return JobRecord(
            index=job["index"],
            symbols=symbols,
            attempted=offered,
            ok=0 if errors else summary["n_delivered"],
            work={
                "symbols": symbols,
                "delivered": summary["n_delivered"],
                "handoffs": result.n_handoffs,
                "deferred_handoffs": result.n_deferred_handoffs,
                "epochs": epochs,
                "events": events,
                "makespan": result.makespan,
            },
            errors=errors,
        )

    def oracle(self, state: dict, job: dict, output) -> list[str]:
        """A second run of the same job must give a byte-identical summary."""
        first = json.dumps(output[0].summary(), sort_keys=True)
        again = json.dumps(self.call(job)[0].summary(), sort_keys=True)
        if first != again:
            return [f"job {job['index']}: rerun summary differs"]
        return []


WORKLOADS = {w.name: w for w in (RelayFig2(), ServeSoak(), CityFlow())}
