"""Declarative sweep specifications for the experiment registry.

An experiment's parameter space is described *declaratively*: a tuple of
typed :class:`Axis` objects (the swept dimensions, in report order) plus a
mapping of fixed parameters.  The :class:`SweepSpec` expands that grid into
cells, assigns each cell a stable string key, and canonicalises the whole
specification into a JSON document whose content hash keys the persisted
results store — two invocations with the same spec resolve to the same
hash and therefore the same cached cells, regardless of worker count.

Everything in a spec must be JSON-native (int/float/str/bool/None, plus
lists/tuples of those) so that specs hash stably and round-trip through the
results store.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

__all__ = [
    "Axis",
    "SweepSpec",
    "Column",
    "PlotSpec",
    "spec_hash",
    "canonical_json",
]

#: Version of the spec/run-record layout; bumped on incompatible changes so
#: stale store files are never silently reinterpreted.
SPEC_SCHEMA_VERSION = 1

_KINDS = ("int", "float", "str", "bool")


def _check_jsonable(value: object, context: str) -> object:
    """Normalise ``value`` to a JSON-native type, rejecting anything else."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, (list, tuple)):
        return [_check_jsonable(v, context) for v in value]
    raise TypeError(f"{context}: value {value!r} is not JSON-native")


@dataclass(frozen=True)
class Axis:
    """One typed swept dimension of an experiment.

    ``kind`` drives both value coercion (so ``10`` and ``10.0`` hash the
    same on a float axis) and CLI parsing of ``--set name=v1,v2`` overrides.
    ``optional=True`` admits ``None`` as a value (spelled ``none`` on the
    command line), e.g. an ADC depth axis where ``None`` means "no
    quantiser".
    """

    name: str
    values: tuple
    kind: str = "float"
    optional: bool = False

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"axis {self.name!r}: unknown kind {self.kind!r}")
        if not self.values:
            raise ValueError(f"axis {self.name!r} has no values")
        object.__setattr__(self, "values", tuple(self.coerce(v) for v in self.values))

    def coerce(self, value: object):
        """Normalise one value to the axis type (``None`` if optional)."""
        if value is None:
            if not self.optional:
                raise ValueError(f"axis {self.name!r} does not admit None")
            return None
        if self.kind == "int":
            return int(value)
        if self.kind == "float":
            number = float(value)
            if math.isnan(number):
                raise ValueError(f"axis {self.name!r}: NaN is not a value")
            return number
        if self.kind == "bool":
            if isinstance(value, str):
                return value.lower() in ("1", "true", "yes")
            return bool(value)
        return str(value)

    def parse(self, token: str):
        """Parse one CLI token into an axis value."""
        if self.optional and token.lower() in ("none", "null"):
            return None
        return self.coerce(token)

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "optional": self.optional,
            "values": list(self.values),
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Axis":
        return cls(
            name=data["name"],
            values=tuple(data["values"]),
            kind=data["kind"],
            optional=data.get("optional", False),
        )


def format_key_value(value: object) -> str:
    """Canonical spelling of one axis value inside a cell key."""
    if isinstance(value, str):
        return value
    return json.dumps(value)


@dataclass(frozen=True)
class SweepSpec:
    """A declarative parameter grid: typed axes plus fixed parameters.

    ``axes`` order is the report order (first axis varies slowest, exactly
    like nested for-loops in the pre-registry experiment modules).  The
    names ``seed`` and ``n_trials`` are reserved for the engine, which
    injects the resolved seed into every kernel's parameter mapping.
    """

    axes: tuple[Axis, ...] = ()
    fixed: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        object.__setattr__(self, "axes", tuple(self.axes))
        object.__setattr__(self, "fixed", dict(self.fixed))
        names = [axis.name for axis in self.axes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise ValueError(f"duplicate axes: {sorted(duplicates)}")
        overlap = set(names) & set(self.fixed)
        if overlap:
            raise ValueError(f"names are both axis and fixed: {sorted(overlap)}")
        for reserved in ("seed", "n_trials"):
            if reserved in names or reserved in self.fixed:
                raise ValueError(f"{reserved!r} is reserved for the engine")
        for key, value in self.fixed.items():
            _check_jsonable(value, f"fixed parameter {key!r}")

    # -- introspection -------------------------------------------------------
    @property
    def axis_names(self) -> tuple[str, ...]:
        return tuple(axis.name for axis in self.axes)

    @property
    def known_names(self) -> tuple[str, ...]:
        return self.axis_names + tuple(self.fixed)

    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(name)

    # -- grid expansion ------------------------------------------------------
    def cells(self) -> list[tuple[str, dict]]:
        """Expand the grid to ``(cell_key, params)`` pairs in report order.

        ``params`` merges the fixed parameters with this cell's axis values;
        ``cell_key`` is a stable human-readable identifier built from the
        axis values only (fixed parameters live in the spec, not the key).
        """
        expanded = []
        value_lists = [axis.values for axis in self.axes]
        for combo in itertools.product(*value_lists):
            axis_params = dict(zip(self.axis_names, combo))
            key = self.cell_key(axis_params)
            expanded.append((key, {**self.fixed, **axis_params}))
        return expanded

    def cell_key(self, axis_params: Mapping[str, object]) -> str:
        """Stable key for one cell, e.g. ``"schedule=none,snr_db=10.0"``."""
        if not self.axes:
            return "all"
        return ",".join(
            f"{axis.name}={format_key_value(axis_params[axis.name])}"
            for axis in self.axes
        )

    # -- overrides -----------------------------------------------------------
    def with_values(self, overrides: Mapping[str, object]) -> "SweepSpec":
        """Replace axis values and/or fixed parameters, by name.

        Axis overrides accept a single value or a sequence of values (each
        coerced to the axis type); fixed overrides replace the stored value,
        and a NaN among them is refused as it is on a float axis.  Unknown
        names raise with the list of valid ones.
        """
        axes = list(self.axes)
        fixed = dict(self.fixed)
        axis_index = {axis.name: i for i, axis in enumerate(axes)}
        for name, value in overrides.items():
            if name in axis_index:
                values = value if isinstance(value, (list, tuple)) else (value,)
                i = axis_index[name]
                axes[i] = Axis(
                    name=name,
                    values=tuple(values),
                    kind=axes[i].kind,
                    optional=axes[i].optional,
                )
            elif name in fixed:
                fixed[name] = _check_jsonable(value, f"fixed parameter {name!r}")
                scalars = value if isinstance(value, (list, tuple)) else (value,)
                if any(isinstance(v, float) and math.isnan(v) for v in scalars):
                    raise ValueError(f"fixed parameter {name!r}: NaN is not a value")
            else:
                raise KeyError(
                    f"unknown parameter {name!r}; expected one of {sorted(self.known_names)}"
                )
        return SweepSpec(axes=tuple(axes), fixed=fixed)

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "axes": [axis.to_dict() for axis in self.axes],
            "fixed": {k: _check_jsonable(v, k) for k, v in sorted(self.fixed.items())},
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "SweepSpec":
        return cls(
            axes=tuple(Axis.from_dict(a) for a in data["axes"]),
            fixed=dict(data["fixed"]),
        )


@dataclass(frozen=True)
class Column:
    """One column of an experiment's report table.

    ``source`` names either an aggregate metric or a (fixed or axis)
    parameter; the renderer looks the value up in that order.
    ``none_text`` is what a ``None`` value renders as (e.g. ``"inf"`` for
    an ADC-depth column where ``None`` means "no quantiser").
    """

    header: str
    source: str
    none_text: str = ""


@dataclass(frozen=True)
class PlotSpec:
    """Declarative ASCII-plot description: y metric over one numeric axis.

    ``series`` optionally names a second axis; each of its values becomes
    one labelled curve.
    """

    x: str
    y: str
    series: str | None = None
    x_label: str | None = None
    y_label: str | None = None


def canonical_json(document: object) -> str:
    """Serialise a JSON document deterministically (sorted keys, no spaces)."""
    return json.dumps(document, sort_keys=True, separators=(",", ":"))


def spec_hash(
    experiment: str, spec: SweepSpec, n_trials: int, seed: int
) -> str:
    """Content hash identifying one fully-resolved experiment specification.

    Everything that can change the persisted numbers participates: the
    experiment name, the schema version, every axis (name, kind, values),
    every fixed parameter, the per-cell trial count, and the base seed.
    """
    document = {
        "schema_version": SPEC_SCHEMA_VERSION,
        "experiment": experiment,
        "spec": spec.to_dict(),
        "n_trials": int(n_trials),
        "seed": int(seed),
    }
    digest = hashlib.blake2b(canonical_json(document).encode(), digest_size=16)
    return digest.hexdigest()
