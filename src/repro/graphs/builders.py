"""Versioned graph-builder registry: the trust anchor for warm manifests.

A warm sweep wants to resolve its store cell keys *without building any
graph*: the keys only need the graph fingerprint, and a previous run's
sweep-journal manifest already recorded spec→fingerprint for every cell.
Trusting that record is only sound while "same builder description ⇒ same
instance" still holds, which is what this registry versions:

* every graph family in :mod:`repro.graphs` registers a ``(family,
  builder_version)`` pair next to its construction code;
* an experiment's case builder declares — via :func:`with_case_spec` — how a
  sweep point maps to builder parameters, yielding a canonical *builder
  spec* ``{"family", "version", "params", "case_revision"}``;
* the sweep journal stores that spec alongside the resulting fingerprint,
  and :func:`repro.store.orchestrator.resolve_sweep_plans` trusts a manifest
  entry only when the spec it recomputes today matches the recorded one
  bit for bit.

Bump a family's registered version whenever the construction algorithm
changes the instance it emits for the same parameters; bump an experiment's
``case_revision`` when its source-selection or parameter-derivation logic
changes.  Either bump makes every previously recorded spec mismatch, so the
warm path falls back to really building the graph — a stale manifest can
slow a run down, never corrupt it.  ``REPRO_VERIFY_MANIFEST=1`` adds a
paranoia mode that rebuilds anyway and cross-checks the fingerprint.
"""

from __future__ import annotations

from typing import Any, Callable, Dict

__all__ = [
    "builder_spec",
    "builder_version",
    "register_builder",
    "registered_builders",
    "with_case_spec",
]

_REGISTRY: Dict[str, int] = {}


def register_builder(family: str, version: int) -> None:
    """Register (or re-register, idempotently) one graph family's version.

    Re-registering the same family with a *different* version raises — two
    modules disagreeing about a family's version would make manifest trust
    depend on import order.
    """
    version = int(version)
    if version < 1:
        raise ValueError(f"builder version must be >= 1, got {version}")
    existing = _REGISTRY.get(family)
    if existing is not None and existing != version:
        raise ValueError(
            f"builder family {family!r} already registered with version "
            f"{existing}, cannot re-register as {version}"
        )
    _REGISTRY[family] = version


def builder_version(family: str) -> int:
    """The registered version of one family (``KeyError`` if unregistered)."""
    try:
        return _REGISTRY[family]
    except KeyError:
        raise KeyError(f"graph builder family {family!r} is not registered") from None


def registered_builders() -> Dict[str, int]:
    """A snapshot of every registered ``family -> version`` pair."""
    return dict(_REGISTRY)


def builder_spec(
    family: str, params: Dict[str, Any], *, case_revision: int = 1
) -> Dict[str, Any]:
    """The canonical, JSON-round-trippable spec of one parameterized build.

    This dict is what sweep manifests persist and what a warm start compares
    against; keep ``params`` to plain ints/floats/strings/bools so equality
    survives a JSON round trip.
    """
    return {
        "family": str(family),
        "version": builder_version(family),
        "params": {str(k): params[k] for k in sorted(params)},
        "case_revision": int(case_revision),
    }


def with_case_spec(
    family: str,
    params_fn: Callable[[int, int], Dict[str, Any]],
    *,
    case_revision: int = 1,
) -> Callable:
    """Decorator attaching a ``case_spec(size, seed)`` hook to a case builder.

    ``params_fn(size_parameter, case_seed)`` must derive exactly the builder
    parameters the decorated function passes to the family's constructor
    (including the seed, for random families — deterministic families simply
    ignore it), plus any caller-chosen case parameter that the recorded graph
    depends on without reaching the constructor (``repro simulate`` adds its
    ``source`` vertex).  The attached hook lets
    :func:`repro.store.orchestrator.resolve_sweep_plans` describe the build
    without performing it.  Function attributes pickle by reference, so
    decorated builders remain usable with the process-parallel scheduler.
    """

    def decorate(fn: Callable) -> Callable:
        def case_spec(size_parameter: int, case_seed: int) -> Dict[str, Any]:
            return builder_spec(
                family,
                params_fn(int(size_parameter), int(case_seed)),
                case_revision=case_revision,
            )

        fn.case_spec = case_spec
        return fn

    return decorate
