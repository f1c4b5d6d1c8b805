"""First-class completion-model specs: serializable, fingerprintable P.

The paper evaluates everything at a single fast-group probability ``P``,
and historically every layer of this library took a bare ``p: float``.
A :class:`CompletionSpec` replaces that scalar with a declarative,
hashable description of the completion signal that every engine — the
scalar simulator, the vectorized batch engine, the exact analytical
engine, fault campaigns, the bench harness and the CLIs — consumes
through one contract:

* ``bernoulli(p)`` — the paper's i.i.d. model.  Byte-identical to the
  legacy scalar-``p`` path everywhere: same simulated cycles, same
  cache keys (:meth:`CompletionSpec.key_fragment` renders the exact
  legacy ``p={p!r}`` journal fragment), same ``BENCH_core.json``
  values.
* ``per-unit({class_or_unit: p})`` — heterogeneous SD/LD mixes: each
  telescopic unit draws with its own probability, keyed by unit name
  (``TM1``), resource class (``mul``) or the ``*`` default.
* ``markov(p_fast, stickiness)`` — temporally correlated signals: each
  unit's successive executions form a two-state Markov chain whose
  stationary fast probability is exactly ``p_fast``; ``stickiness``
  interpolates between i.i.d. (``0``) and a frozen first draw
  (``-> 1``).  Exact analysis of correlated specs is refused with a
  structured :class:`~repro.errors.ExactAnalysisError`
  (``reason="correlated"``) instead of silently returning the wrong
  stationary answer.

Specs parse from a compact text grammar (the CLI ``--completion``
flag)::

    bernoulli:0.7
    per-unit:mul=0.9,add=0.5,*=0.7
    markov:0.7,0.5

and round-trip through :meth:`CompletionSpec.to_dict` /
:func:`spec_from_dict` for serialization.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from collections.abc import Mapping
from typing import TYPE_CHECKING

from ..errors import ExactAnalysisError, SimulationError
from .completion import (
    BernoulliCompletion,
    CompletionModel,
    MarkovCompletion,
    PerUnitCompletion,
    resolve_unit_probability,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..binding.binder import BoundDataflowGraph
    from .units import ArithmeticUnit


def _check_probability(p: float, what: str = "P") -> float:
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise SimulationError(f"{what} must be in [0, 1], got {p}")
    return p


class CompletionSpec:
    """Base of the declarative completion-model descriptions.

    Concrete specs are frozen dataclasses — hashable, picklable (safe
    to ship to process pools) and equality-comparable by value.
    """

    #: grammar tag (``bernoulli`` / ``per-unit`` / ``markov``)
    kind: str = ""

    #: whether successive draws are statistically dependent — correlated
    #: specs have no per-execution marginal the exact engine could use
    correlated: bool = False

    # -- engine contract -------------------------------------------------
    def model(self) -> CompletionModel:
        """A fresh :class:`CompletionModel` realizing this spec."""
        raise NotImplementedError

    def probability_for(self, unit: "ArithmeticUnit") -> float:
        """Marginal fast probability of one execution on ``unit``.

        Only defined for i.i.d. specs; correlated specs raise a
        structured :class:`~repro.errors.ExactAnalysisError` so exact
        engines refuse rather than silently answer with the stationary
        distribution.
        """
        raise NotImplementedError

    def op_probabilities(
        self, bound: "BoundDataflowGraph", ops
    ) -> dict[str, float]:
        """Per-op marginal fast probabilities for the exact engines."""
        return {
            op: self.probability_for(bound.unit_of(op)) for op in ops
        }

    # -- identity --------------------------------------------------------
    def encode(self) -> str:
        """The canonical ``kind:args`` text form (CLI grammar)."""
        raise NotImplementedError

    def key_fragment(self) -> str:
        """Journal/run-key fragment naming this spec.

        Plain Bernoulli renders the exact legacy ``p={p!r}`` fragment,
        so journals and checkpoints written before specs existed
        resume without a cold start; every other spec renders
        ``completion={encode()}``.
        """
        return f"completion={self.encode()}"

    def to_dict(self) -> dict:
        """JSON-serializable description (see :func:`spec_from_dict`)."""
        raise NotImplementedError

    def fingerprint(self) -> str:
        """Stable content digest of the spec."""
        text = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(text.encode()).hexdigest()

    def describe(self) -> str:
        """Human-oriented one-liner for report headers."""
        return self.encode()


@dataclass(frozen=True)
class BernoulliSpec(CompletionSpec):
    """i.i.d. Bernoulli(p) — the paper's model, the default everywhere."""

    p: float = 0.7

    kind = "bernoulli"
    correlated = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", _check_probability(self.p))

    def model(self) -> CompletionModel:
        return BernoulliCompletion(self.p)

    def probability_for(self, unit) -> float:
        return self.p

    def encode(self) -> str:
        return f"bernoulli:{self.p!r}"

    def key_fragment(self) -> str:
        # the exact legacy fragment: existing journals and caches keyed
        # on a bare float stay warm across the spec refactor
        return f"p={self.p!r}"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "p": self.p}

    def describe(self) -> str:
        return f"P={self.p}"


@dataclass(frozen=True)
class PerUnitSpec(CompletionSpec):
    """Heterogeneous i.i.d. mix: each unit draws with its own ``p``.

    ``probabilities`` maps a unit name (``TM1``), a resource-class value
    (``mul``) or the ``*`` default to a fast probability; lookup tries
    the keys in that order.  Stored as a sorted tuple of pairs so the
    spec is hashable and its encoding canonical.
    """

    probabilities: tuple[tuple[str, float], ...] = ()

    kind = "per-unit"
    correlated = False

    def __init__(
        self, probabilities: "Mapping[str, float] | tuple" = ()
    ) -> None:
        if isinstance(probabilities, Mapping):
            items = probabilities.items()
        else:
            items = tuple(probabilities)
        table = tuple(
            sorted(
                (str(key), _check_probability(value, f"P[{key}]"))
                for key, value in items
            )
        )
        if not table:
            raise SimulationError(
                "per-unit completion spec needs at least one "
                "unit-class probability"
            )
        object.__setattr__(self, "probabilities", table)

    def table(self) -> dict[str, float]:
        return dict(self.probabilities)

    def model(self) -> CompletionModel:
        return PerUnitCompletion(probabilities=self.table())

    def probability_for(self, unit) -> float:
        return resolve_unit_probability(self.table(), unit)

    def encode(self) -> str:
        args = ",".join(
            f"{key}={value!r}" for key, value in self.probabilities
        )
        return f"per-unit:{args}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "probabilities": {k: v for k, v in self.probabilities},
        }


@dataclass(frozen=True)
class MarkovSpec(CompletionSpec):
    """Temporally correlated completion: a per-unit two-state chain.

    Each unit's successive executions form a Markov chain over
    {fast, slow}: the first draw is fast with probability ``p_fast``
    and every later draw is fast with probability

    * ``p_fast + stickiness * (1 - p_fast)`` after a fast execution,
    * ``(1 - stickiness) * p_fast`` after a slow one.

    The stationary fast probability is exactly ``p_fast`` for any
    ``stickiness`` in ``[0, 1)``, so sweeps stay comparable to the
    Bernoulli model; ``stickiness=0`` degenerates to i.i.d. draws (but
    the spec still *declares* correlation, so exact engines refuse it —
    declaring intent, not measuring it, keeps the contract simple).
    """

    p_fast: float = 0.7
    stickiness: float = 0.5

    kind = "markov"
    correlated = True

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "p_fast", _check_probability(self.p_fast, "p_fast")
        )
        stickiness = float(self.stickiness)
        if not 0.0 <= stickiness < 1.0:
            raise SimulationError(
                f"stickiness must be in [0, 1), got {stickiness}"
            )
        object.__setattr__(self, "stickiness", stickiness)

    def model(self) -> CompletionModel:
        return MarkovCompletion(
            p_fast=self.p_fast, stickiness=self.stickiness
        )

    def probability_for(self, unit) -> float:
        raise ExactAnalysisError(
            f"completion spec {self.encode()!r} is temporally "
            f"correlated; exact per-execution marginals do not exist — "
            f"use the Monte-Carlo engines",
            reason="correlated",
        )

    def encode(self) -> str:
        return f"markov:{self.p_fast!r},{self.stickiness!r}"

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "p_fast": self.p_fast,
            "stickiness": self.stickiness,
        }


# -- parsing and coercion ------------------------------------------------


def _parse_float(text: str, what: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise SimulationError(
            f"{what} must be a number, got {text!r}"
        ) from None


def parse_completion_spec(text: str) -> CompletionSpec:
    """Parse the ``--completion`` grammar into a spec.

    Accepted forms: ``bernoulli:P``, ``per-unit:K=P[,K=P...]`` (``K`` a
    unit name, resource class or ``*``), ``markov:P_FAST,STICKINESS``
    and — as a convenience — a bare float, read as ``bernoulli:P``.
    """
    text = text.strip()
    kind, sep, args = text.partition(":")
    if not sep:
        return BernoulliSpec(p=_parse_float(text, "completion probability"))
    kind = kind.strip().lower()
    args = args.strip()
    if kind == "bernoulli":
        return BernoulliSpec(p=_parse_float(args, "bernoulli probability"))
    if kind in ("per-unit", "per_unit"):
        table: dict[str, float] = {}
        for item in args.split(","):
            item = item.strip()
            if not item:
                continue
            key, eq, value = item.partition("=")
            if not eq:
                raise SimulationError(
                    f"per-unit entries are KEY=P, got {item!r}"
                )
            table[key.strip()] = _parse_float(
                value.strip(), f"per-unit probability for {key.strip()!r}"
            )
        return PerUnitSpec(table)
    if kind == "markov":
        parts = [part.strip() for part in args.split(",") if part.strip()]
        if len(parts) != 2:
            raise SimulationError(
                f"markov spec is markov:P_FAST,STICKINESS, got {text!r}"
            )
        return MarkovSpec(
            p_fast=_parse_float(parts[0], "markov p_fast"),
            stickiness=_parse_float(parts[1], "markov stickiness"),
        )
    raise SimulationError(
        f"unknown completion spec kind {kind!r}; choose bernoulli, "
        f"per-unit or markov"
    )


def as_completion_spec(
    value: "CompletionSpec | float | int | str",
) -> CompletionSpec:
    """Coerce the legacy ``p`` argument surface into a spec.

    Floats (the historical API) become :class:`BernoulliSpec`; strings
    go through :func:`parse_completion_spec`; specs pass through.
    """
    if isinstance(value, CompletionSpec):
        return value
    if isinstance(value, bool):  # bool is an int; reject it explicitly
        raise SimulationError(
            f"cannot interpret {value!r} as a completion spec"
        )
    if isinstance(value, (int, float)):
        return BernoulliSpec(p=float(value))
    if isinstance(value, str):
        return parse_completion_spec(value)
    raise SimulationError(
        f"cannot interpret {value!r} as a completion spec; pass a "
        f"probability, a spec string or a CompletionSpec"
    )


def spec_from_dict(data: Mapping) -> CompletionSpec:
    """Rebuild a spec from :meth:`CompletionSpec.to_dict` output."""
    kind = data.get("kind")
    if kind == "bernoulli":
        return BernoulliSpec(p=float(data["p"]))
    if kind == "per-unit":
        return PerUnitSpec(dict(data["probabilities"]))
    if kind == "markov":
        return MarkovSpec(
            p_fast=float(data["p_fast"]),
            stickiness=float(data["stickiness"]),
        )
    raise SimulationError(f"unknown completion spec kind {kind!r}")


__all__ = [
    "BernoulliSpec",
    "CompletionSpec",
    "MarkovSpec",
    "PerUnitSpec",
    "as_completion_spec",
    "parse_completion_spec",
    "spec_from_dict",
]
