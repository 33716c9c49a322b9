"""Sweep definitions and deterministic parameter-set generation.

Four sweep types are provided: Cartesian product sweeps over per-parameter
value lists, filtered Cartesian sweeps that keep only sets satisfying a
predicate, set sweeps over explicitly enumerated parameter sets, and random
sweeps that sample each parameter independently.

A parameter set is an ordered ``dict`` mapping parameter names to values.
Values are integers, finite 64-bit reals, or text; names follow the
identifier grammar ``[A-Za-z_][A-Za-z0-9_]*`` and may not be ``sim_id``
(reserved for the simulation ID).

Reproducibility of random sweeps: samples are drawn from a Mersenne Twister
(MT19937) stream seeded with the sweep seed, via ``random.Random``. Only the
generator's raw uniform doubles are consumed; each distribution applies its
own fixed transform (documented on the distribution class), so a given seed
replays the same values across runs and releases. Draw order: sets are
generated one at a time, and within a set parameters are sampled in
declaration order. Uniform, LogUniform, IntegerUniform and Choice consume
one uniform per sample; Normal consumes two (Box-Muller). LogUniform and
Normal go through libm (exp/log/sqrt/cos), so their bit-level identity
across *platforms* depends on the C math library; all other distributions
are exact everywhere.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence, Union

from . import filters
from .errors import EmptySweepError

__all__ = [
    "ParamValue",
    "ParameterSet",
    "check_parameter_name",
    "check_parameter_value",
    "validate_parameter_set",
    "values_equal",
    "linspace",
    "Uniform",
    "LogUniform",
    "Normal",
    "IntegerUniform",
    "Choice",
    "Distribution",
    "CartesianSweep",
    "FilteredCartesianSweep",
    "SetSweep",
    "RandomSweep",
    "Sweep",
]

ParamValue = Union[int, float, str]
ParameterSet = dict[str, ParamValue]

RESERVED_NAME = "sim_id"
_IDENTIFIER_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def check_parameter_name(name: str) -> str:
    if not isinstance(name, str) or not _IDENTIFIER_RE.match(name):
        raise ValueError(f"invalid parameter name {name!r}: must match [A-Za-z_][A-Za-z0-9_]*")
    if name == RESERVED_NAME:
        raise ValueError(f"parameter name {RESERVED_NAME!r} is reserved for the simulation ID")
    return name


def check_parameter_value(value: object, *, where: str = "parameter value") -> ParamValue:
    """Validate one value: integer, finite real, or text. Booleans are rejected."""
    if isinstance(value, bool):
        raise ValueError(f"{where}: booleans are not parameter values")
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"{where}: real values must be finite, got {value!r}")
        return value
    if isinstance(value, (int, str)):
        return value
    raise ValueError(f"{where}: unsupported value type {type(value).__name__}")


def validate_parameter_set(params: Mapping[str, object]) -> ParameterSet:
    """Return a validated copy of a parameter set, preserving name order."""
    out: ParameterSet = {}
    for name, value in params.items():
        check_parameter_name(name)
        out[name] = check_parameter_value(value, where=f"parameter {name!r}")
    return out


def values_equal(a: ParamValue, b: ParamValue) -> bool:
    """Kind-aware equality: an integer never equals a real (2 != 2.0)."""
    if type(a) is not type(b):
        return False
    return a == b


def linspace(start: float, stop: float, count: int) -> list[float]:
    """`count` evenly spaced reals from `start` to `stop` inclusive.

    Element i is start + i*(stop-start)/(count-1); the last element is
    forced to `stop` exactly. Requires start < stop and count >= 2.
    """
    if not isinstance(count, int) or isinstance(count, bool) or count < 2:
        raise ValueError(f"linspace count must be an integer >= 2, got {count!r}")
    start = float(start)
    stop = float(stop)
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError("linspace endpoints must be finite")
    if start >= stop:
        raise ValueError(f"linspace requires start < stop, got {start} >= {stop}")
    step = (stop - start) / (count - 1)
    values = [start + i * step for i in range(count)]
    values[-1] = stop
    return values


# ---------------------------------------------------------------------------
# distributions for random sweeps


@dataclass(frozen=True)
class Uniform:
    """Uniform real on [low, high). Transform: low + (high-low)*u, clamped below high."""

    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("Uniform bounds must be finite")
        if not self.low < self.high:
            raise ValueError(f"Uniform requires low < high, got {self.low} >= {self.high}")

    def sample(self, rng: random.Random) -> float:
        value = self.low + (self.high - self.low) * rng.random()
        if value >= self.high:
            value = math.nextafter(self.high, self.low)
        return value


@dataclass(frozen=True)
class LogUniform:
    """Log-uniform real on [low, high), low > 0.

    Transform: exp(log(low) + (log(high)-log(low))*u), clamped into [low, high).
    """

    low: float
    high: float

    def __post_init__(self):
        object.__setattr__(self, "low", float(self.low))
        object.__setattr__(self, "high", float(self.high))
        if not (math.isfinite(self.low) and math.isfinite(self.high)):
            raise ValueError("LogUniform bounds must be finite")
        if self.low <= 0:
            raise ValueError(f"LogUniform requires low > 0, got {self.low}")
        if not self.low < self.high:
            raise ValueError(f"LogUniform requires low < high, got {self.low} >= {self.high}")

    def sample(self, rng: random.Random) -> float:
        log_low = math.log(self.low)
        log_high = math.log(self.high)
        value = math.exp(log_low + (log_high - log_low) * rng.random())
        if value < self.low:
            value = self.low
        if value >= self.high:
            value = math.nextafter(self.high, self.low)
        return value


@dataclass(frozen=True)
class Normal:
    """Normal real with the given mean and standard deviation.

    Transform (Box-Muller, cosine branch, two uniforms per sample):
    mean + stddev * sqrt(-2*ln(1-u1)) * cos(2*pi*u2).
    """

    mean: float
    stddev: float

    def __post_init__(self):
        object.__setattr__(self, "mean", float(self.mean))
        object.__setattr__(self, "stddev", float(self.stddev))
        if not (math.isfinite(self.mean) and math.isfinite(self.stddev)):
            raise ValueError("Normal parameters must be finite")
        if self.stddev <= 0:
            raise ValueError(f"Normal requires stddev > 0, got {self.stddev}")

    def sample(self, rng: random.Random) -> float:
        u1 = rng.random()
        u2 = rng.random()
        radius = math.sqrt(-2.0 * math.log(1.0 - u1))
        return self.mean + self.stddev * radius * math.cos(2.0 * math.pi * u2)


@dataclass(frozen=True)
class IntegerUniform:
    """Uniform integer on [low, high], both ends inclusive.

    Transform: low + floor(u * (high - low + 1)), clamped to high.
    """

    low: int
    high: int

    def __post_init__(self):
        for bound in (self.low, self.high):
            if not isinstance(bound, int) or isinstance(bound, bool):
                raise ValueError(f"IntegerUniform bounds must be integers, got {bound!r}")
        if self.low > self.high:
            raise ValueError(f"IntegerUniform requires low <= high, got {self.low} > {self.high}")

    def sample(self, rng: random.Random) -> int:
        span = self.high - self.low + 1
        k = int(rng.random() * span)
        if k >= span:
            k = span - 1
        return self.low + k


@dataclass(frozen=True)
class Choice:
    """Uniform pick from a fixed list of values. Transform: options[floor(u * len)]."""

    options: tuple[ParamValue, ...]

    def __init__(self, options: Sequence[ParamValue]):
        opts = tuple(options)
        if not opts:
            raise ValueError("Choice requires at least one option")
        for v in opts:
            check_parameter_value(v, where="Choice option")
        object.__setattr__(self, "options", opts)

    def sample(self, rng: random.Random) -> ParamValue:
        k = int(rng.random() * len(self.options))
        if k >= len(self.options):
            k = len(self.options) - 1
        return self.options[k]


Distribution = Union[Uniform, LogUniform, Normal, IntegerUniform, Choice]


# ---------------------------------------------------------------------------
# sweep types


class CartesianSweep:
    """All combinations of per-parameter value lists.

    Enumeration is row-major over declaration order: the last declared
    parameter varies fastest. Each generated set's name order equals the
    declaration order. A value list may not repeat a value (compared by
    kind, so 1 and 1.0 may both appear): every generated set is distinct.
    """

    kind = "cartesian"

    def __init__(self, parameters: Mapping[str, Sequence[ParamValue]]):
        if not parameters:
            raise ValueError("a sweep needs at least one parameter")
        validated: dict[str, tuple[ParamValue, ...]] = {}
        for name, values in parameters.items():
            check_parameter_name(name)
            values = tuple(values)
            if not values:
                raise ValueError(f"parameter {name!r} has an empty value list")
            seen: set[tuple[type, ParamValue]] = set()
            for v in values:
                check_parameter_value(v, where=f"parameter {name!r}")
                # by kind, as values_equal compares: 1 and 1.0 are distinct values
                if (type(v), v) in seen:
                    raise ValueError(f"parameter {name!r} lists {v!r} more than once")
                seen.add((type(v), v))
            validated[name] = values
        self.parameters = validated

    def __repr__(self):
        return f"{type(self).__name__}({self.parameters!r})"

    def length(self) -> int:
        return math.prod(len(v) for v in self.parameters.values())

    def iter_sets(self) -> Iterator[ParameterSet]:
        """The sets one at a time, in generation order; nothing is held."""
        names = list(self.parameters)
        for combo in itertools.product(*self.parameters.values()):
            yield dict(zip(names, combo))

    def generate(self) -> list[ParameterSet]:
        return list(self.iter_sets())


class FilteredCartesianSweep(CartesianSweep):
    """Cartesian sweep restricted to sets satisfying a filter expression.

    The filter may be given as source text or a pre-parsed AST; every free
    variable must be a declared parameter. Enumeration order is preserved.
    Only the surviving sets are held in memory.
    """

    kind = "filtered-cartesian"

    def __init__(
        self,
        parameters: Mapping[str, Sequence[ParamValue]],
        filter: str | filters.FilterExpr,
    ):
        super().__init__(parameters)
        self.filter = filters.parse(filter) if isinstance(filter, str) else filter
        unknown = filters.free_variables(self.filter) - set(self.parameters)
        if unknown:
            names = ", ".join(sorted(unknown))
            raise ValueError(f"filter references undeclared parameters: {names}")

    def _survivors(self) -> Iterator[ParameterSet]:
        # each grid point is tested as it is made, so rejected sets are never held
        return (params for params in super().iter_sets() if filters.evaluate(self.filter, params))

    def length(self) -> int:
        return sum(1 for _ in self._survivors())

    def iter_sets(self) -> Iterator[ParameterSet]:
        """The surviving sets one at a time; raises EmptySweepError at the end
        if the filter kept none."""
        kept = 0
        for params in self._survivors():
            kept += 1
            yield params
        if not kept:
            raise EmptySweepError(
                f"filter rejected all {super().length()} parameter sets; nothing to run"
            )

    def generate(self) -> list[ParameterSet]:
        """The surviving sets; raises EmptySweepError if the filter kept none."""
        return list(self.iter_sets())


class SetSweep:
    """Exactly the parameter sets given by the user, in the given order.

    All sets must share one name sequence so a single template serves
    every simulation.
    """

    kind = "set"

    def __init__(self, sets: Sequence[Mapping[str, ParamValue]]):
        sets = list(sets)
        if not sets:
            raise ValueError("a set sweep needs at least one parameter set")
        for i, s in enumerate(sets):
            if not isinstance(s, Mapping):
                raise ValueError(f"set {i} must be an object of name: value pairs")
        validated = [validate_parameter_set(s) for s in sets]
        names = list(validated[0])
        if not names:
            raise ValueError("a sweep needs at least one parameter")
        for i, s in enumerate(validated[1:], start=1):
            if list(s) != names:
                raise ValueError(
                    f"set {i} has names {list(s)}, expected {names}: "
                    "all sets must share one name sequence"
                )
        self.sets = validated
        self.parameter_names = tuple(names)

    def __repr__(self):
        return f"SetSweep({self.sets!r})"

    def length(self) -> int:
        return len(self.sets)

    def iter_sets(self) -> Iterator[ParameterSet]:
        return (dict(s) for s in self.sets)

    def generate(self) -> list[ParameterSet]:
        return list(self.iter_sets())


class RandomSweep:
    """`count` sets with each parameter sampled independently from its distribution.

    Output is fully determined by `seed` (see the module docstring for the
    exact stream contract).
    """

    kind = "random"

    def __init__(
        self,
        count: int,
        distributions: Mapping[str, Distribution],
        seed: int,
    ):
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise ValueError(f"count must be a positive integer, got {count!r}")
        if not distributions:
            raise ValueError("a sweep needs at least one parameter")
        if not isinstance(seed, int) or isinstance(seed, bool) or not 0 <= seed < 2**64:
            raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed!r}")
        validated: dict[str, Distribution] = {}
        for name, dist in distributions.items():
            check_parameter_name(name)
            if not isinstance(dist, (Uniform, LogUniform, Normal, IntegerUniform, Choice)):
                raise ValueError(f"parameter {name!r}: not a distribution: {dist!r}")
            validated[name] = dist
        self.count = count
        self.distributions = validated
        self.seed = seed

    def __repr__(self):
        return f"RandomSweep(count={self.count}, distributions={self.distributions!r}, seed={self.seed})"

    def length(self) -> int:
        return self.count

    def iter_sets(self) -> Iterator[ParameterSet]:
        rng = random.Random(self.seed)
        for _ in range(self.count):
            yield {name: dist.sample(rng) for name, dist in self.distributions.items()}

    def generate(self) -> list[ParameterSet]:
        return list(self.iter_sets())


Sweep = Union[CartesianSweep, FilteredCartesianSweep, SetSweep, RandomSweep]
