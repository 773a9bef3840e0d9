"""Experiment E17: rateless vs threshold rate adaptation, at the cell level.

This is the paper's headline claim measured where it is made.  Two cells
carry identical traffic over identical per-user channels under the same MAC
scheduler; only the PHY stopping rule differs:

* ``rateless`` — every user runs the spinal rateless session (stop at the
  first decodable prefix, no rate selection anywhere);
* ``adaptive`` — every user runs the status quo: threshold rate adaptation
  (:func:`repro.mac.adaptive.calibrate_spinal_rate_policy`, the
  :mod:`repro.baselines.rate_adaptation` policy over a *fixed-rate spinal*
  menu), pre-committing to a pass count per frame and retransmitting whole
  frames on failure.

The swept axis is the cell's SNR *spread*: with every user at the center
SNR a well-calibrated adapter is merely quantised; as the spread grows the
single menu must serve users it was never matched to, and the rateless
cell's advantage widens.  The test suite asserts the rateless aggregate
goodput is at least the adaptive one at every spread point (at smoke
scale), which is the claim's falsifiable form.

Both modes share the menu's code family (spinal), channels, budgets, MAC
and traffic, so the measured gap isolates *ratelessness* itself.
"""

from __future__ import annotations

from repro.experiments.cell_scaling import (
    build_cell_channel,
    build_rateless_cell_users,
    cell_config_from_params,
    cell_metrics,
)
from repro.experiments.registry import Experiment, register
from repro.experiments.runner import spinal_fixed
from repro.experiments.spec import Axis, Column, PlotSpec, SweepSpec
from repro.mac.adaptive import AdaptiveSpinalLink, calibrate_spinal_rate_policy
from repro.mac.cell import CellUser, simulate_cell
from repro.mac.schedulers import make_scheduler
from repro.utils.bitops import random_message_bits
from repro.utils.rng import spawn_rng

__all__ = ["cell_mode_point", "CELL_MODE_EXPERIMENT"]

#: Per-process memo of calibrated policies.  Calibration is the dominant
#: cost of an adaptive cell yet depends on none of the swept axes, so every
#: adaptive cell of a sweep would otherwise redo identical Monte-Carlo work
#: (the rng is rebuilt from the seed per call, so the memo is byte-exact).
_POLICY_CACHE: dict[tuple, object] = {}


def _calibrated_policy(config, params):
    key = (
        config.payload_bits,
        config.params,
        config.beam_width,
        config.adc_bits,
        tuple(int(p) for p in params["pass_choices"]),
        tuple(float(s) for s in params["calib_snr_grid_db"]),
        int(params["calib_frames"]),
        float(params["target_fer"]),
        int(params["seed"]),
    )
    policy = _POLICY_CACHE.get(key)
    if policy is None:
        policy = calibrate_spinal_rate_policy(
            payload_bits=config.payload_bits,
            params=config.params,
            beam_width=config.beam_width,
            adc_bits=config.adc_bits,
            pass_choices=key[4],
            snr_grid_db=key[5],
            n_frames=key[6],
            target_frame_error_rate=key[7],
            rng=spawn_rng(key[8], "cell-calibration"),
        )
        _POLICY_CACHE[key] = policy
    return policy


def _build_adaptive_users(config, params, snrs_db) -> list[CellUser]:
    """Adaptive users: one shared calibrated policy, per-user channels/CSI."""
    seed = int(params["seed"])
    packets_per_user = int(params["packets_per_user"])
    policy = _calibrated_policy(config, params)
    users = []
    for user, snr_db in enumerate(snrs_db):
        channel = build_cell_channel(
            str(params["channel"]), float(snr_db), config.adc_bits, user, len(snrs_db)
        )
        link = AdaptiveSpinalLink(
            policy=policy,
            channel=channel,
            payload_bits=config.payload_bits,
            params=config.params,
            beam_width=config.beam_width,
            max_symbols=int(params["max_symbols"]),
        )
        payloads = [
            random_message_bits(
                config.payload_bits, spawn_rng(seed, "cell-payload", user, i)
            )
            for i in range(packets_per_user)
        ]
        users.append(CellUser(link, payloads))
    return users


def cell_mode_point(params, rng) -> dict:
    """Registry kernel: one (mode, snr_spread) cell simulation.

    The traffic (payload streams, per-packet noise streams, MAC order) is
    identical across the two modes — same seed derivations — so each spread
    point is a paired comparison.
    """
    config, snrs = cell_config_from_params(params)
    mode = str(params["mode"])
    if mode == "rateless":
        users = build_rateless_cell_users(config, params, snrs)
    elif mode == "adaptive":
        users = _build_adaptive_users(config, params, snrs)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'rateless' or 'adaptive'")
    result = simulate_cell(
        users, make_scheduler(str(params["scheduler"])), seed=int(params["seed"])
    )
    return cell_metrics(result)


CELL_MODE_EXPERIMENT = register(
    Experiment(
        name="cell-rateless-vs-adaptive",
        description="E17: cell-level rateless vs threshold rate adaptation across SNR spread",
        spec=SweepSpec(
            axes=(
                Axis("mode", ("rateless", "adaptive"), "str"),
                Axis("snr_spread_db", (0.0, 6.0, 12.0, 18.0), "float"),
            ),
            fixed={
                **spinal_fixed(search="sequential", max_symbols=4096),
                "n_users": 4,
                "scheduler": "round-robin",
                "snr_center_db": 12.0,
                "packets_per_user": 4,
                "channel": "awgn",
                "pass_choices": (1, 2, 3, 4, 6, 8),
                "calib_snr_grid_db": (0.0, 2.0, 4.0, 6.0, 8.0, 10.0, 12.0, 14.0,
                                      16.0, 18.0, 20.0, 22.0, 24.0),
                "calib_frames": 8,
                "target_fer": 0.1,
            },
        ),
        run_point=cell_mode_point,
        cell_config=cell_config_from_params,
        columns=(
            Column("mode", "mode"),
            Column("SNR spread (dB)", "snr_spread_db"),
            Column("goodput (b/sym-t)", "goodput"),
            Column("fairness", "fairness"),
            Column("delivered", "delivered_fraction"),
            Column("mean latency", "mean_latency"),
            Column("symbols", "total_symbols"),
        ),
        n_trials=1,
        max_trials=1,  # the simulation derives every stream from the base seed
        smoke={
            "mode": ("rateless", "adaptive"),
            "snr_spread_db": (0.0, 8.0),
            "n_users": 2,
            "packets_per_user": 2,
            "max_symbols": 512,
            "pass_choices": (1, 2, 4, 8),
            "calib_snr_grid_db": (0.0, 4.0, 8.0, 12.0, 16.0, 20.0),
            "calib_frames": 3,
            "payload_bits": 16,
            "k": 4,
            "c": 6,
            "beam_width": 8,
        },
        plot=PlotSpec(
            x="snr_spread_db",
            y="goodput",
            series="mode",
            x_label="SNR spread across users (dB)",
            y_label="aggregate goodput",
        ),
    )
)
