"""Pluggable anonymizer registry.

Every anonymization algorithm of the reproduction — the paper's two
heuristics and the three Zhang & Zhang baselines — registers itself here
under its canonical short name (``"rem"``, ``"rem-ins"``, ``"gades"``,
``"gaded-rand"``, ``"gaded-max"``) with a :func:`register_anonymizer`
decorator applied at class-definition time.  Everything that needs an
algorithm by name (the CLI, the experiment runner, the service facade,
batch workers) resolves it through the registry instead of a hardcoded
if/elif chain, so adding a new method is one decorated class anywhere in
the import graph::

    from repro.api import register_anonymizer

    @register_anonymizer("noop", accepts=("theta",))
    class NoopAnonymizer:
        def __init__(self, theta=0.5): ...
        def anonymize(self, graph, typing=None, observer=None): ...

The registry deliberately wraps constructors instead of replacing them:
a registered class is returned unchanged and stays directly usable.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterator, Optional, Tuple

from repro.errors import ConfigurationError

#: Execution/tuning parameters that are silently dropped when an algorithm
#: does not take them (they steer *how* a search runs, never what privacy
#: guarantee it targets), so one request or sweep specification can span
#: algorithms with different knobs.  Privacy-semantic parameters — most
#: importantly ``length_threshold``, ``theta``, and ``strict`` — are never
#: dropped silently.
_TUNING_PARAMS = frozenset({
    "lookahead",
    "insertion_candidate_cap",
    "max_combinations",
    "prune_candidates",
    "swap_sample_size",
    "seed",
    "scan_workers",
    "max_steps",
    "scale_tier",
    "scale_budget_bytes",
})


@dataclass(frozen=True)
class AnonymizerSpec:
    """One registered algorithm: its factory plus construction metadata.

    Attributes
    ----------
    name:
        Registry key (the algorithm's canonical short name).
    factory:
        Callable producing an anonymizer instance; usually the class itself.
    description:
        One-line human-readable description (defaults to the factory's
        docstring headline).
    accepts:
        Keyword parameters the factory understands.  :meth:`create` only
        forwards these; see the module docstring for how the rest are
        handled.
    """

    name: str
    factory: Callable[..., Any]
    description: str = ""
    accepts: Tuple[str, ...] = ()

    def create(self, **params: Any) -> Any:
        """Instantiate the algorithm from a uniform parameter mapping.

        ``None`` values are treated as "use the factory default".  A
        ``length_threshold`` other than 1 raises for algorithms that only
        address single-edge linkage; unknown non-tuning parameters raise.
        """
        kwargs: Dict[str, Any] = {}
        for key, value in params.items():
            if value is None:
                continue
            if key in self.accepts:
                kwargs[key] = value
            elif key == "length_threshold":
                if value != 1:
                    raise ConfigurationError(
                        f"{self.name} only supports L = 1 (requested L={value})")
            elif key not in _TUNING_PARAMS:
                raise ConfigurationError(
                    f"anonymizer {self.name!r} does not accept parameter {key!r}")
        return self.factory(**kwargs)


class AnonymizerRegistry:
    """Name → :class:`AnonymizerSpec` mapping with decorator registration."""

    def __init__(self) -> None:
        self._specs: Dict[str, AnonymizerSpec] = {}
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # registration
    # ------------------------------------------------------------------
    def register(self, name: str, factory: Optional[Callable[..., Any]] = None, *,
                 description: str = "", accepts: Tuple[str, ...] = (),
                 replace: bool = False) -> Callable[..., Any]:
        """Register ``factory`` under ``name``; usable as a decorator.

        Returns the factory unchanged, so decorated classes keep working
        as plain constructors.  Registering an already-taken name raises
        :class:`ConfigurationError` unless ``replace=True``.
        """
        if not name or not isinstance(name, str):
            raise ConfigurationError(f"anonymizer name must be a non-empty string, got {name!r}")

        def wrap(obj: Callable[..., Any]) -> Callable[..., Any]:
            doc = (getattr(obj, "__doc__", None) or "").strip()
            spec = AnonymizerSpec(
                name=name,
                factory=obj,
                description=description or (doc.splitlines()[0] if doc else ""),
                accepts=tuple(accepts),
            )
            with self._lock:
                if name in self._specs and not replace:
                    raise ConfigurationError(
                        f"anonymizer {name!r} is already registered "
                        f"(by {self._specs[name].factory!r}); pass replace=True to override")
                self._specs[name] = spec
            return obj

        if factory is not None:
            return wrap(factory)
        return wrap

    def unregister(self, name: str) -> None:
        """Remove a registration (no-op when the name is unknown)."""
        with self._lock:
            self._specs.pop(name, None)

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def get(self, name: str) -> AnonymizerSpec:
        """The spec registered under ``name``; raises with the known names."""
        try:
            return self._specs[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown algorithm {name!r}; registered: {self.names()}") from None

    def create(self, name: str, **params: Any) -> Any:
        """Instantiate the algorithm registered under ``name``."""
        return self.get(name).create(**params)

    def names(self) -> Tuple[str, ...]:
        """Sorted names of every registered algorithm."""
        return tuple(sorted(self._specs))

    def __contains__(self, name: object) -> bool:
        return name in self._specs

    def __iter__(self) -> Iterator[AnonymizerSpec]:
        return iter([self._specs[name] for name in self.names()])

    def __len__(self) -> int:
        return len(self._specs)


#: The process-wide registry that the built-in algorithms register into.
_DEFAULT_REGISTRY = AnonymizerRegistry()


def default_registry() -> AnonymizerRegistry:
    """The registry used when no explicit registry is passed to the facade."""
    return _DEFAULT_REGISTRY


def register_anonymizer(name: str, factory: Optional[Callable[..., Any]] = None, *,
                        description: str = "", accepts: Tuple[str, ...] = (),
                        replace: bool = False) -> Callable[..., Any]:
    """Register an algorithm in the default registry (decorator form)."""
    return _DEFAULT_REGISTRY.register(
        name, factory, description=description, accepts=accepts, replace=replace)


def available_algorithms() -> Tuple[str, ...]:
    """Names of every algorithm registered in the default registry."""
    _ensure_builtins()
    return _DEFAULT_REGISTRY.names()


def create_anonymizer(name: str, **params: Any) -> Any:
    """Instantiate ``name`` from the default registry with ``params``."""
    _ensure_builtins()
    return _DEFAULT_REGISTRY.create(name, **params)


def _ensure_builtins() -> None:
    """Import the modules whose classes self-register the built-in algorithms.

    Importing :mod:`repro` already does this; the guard only matters for
    callers that import :mod:`repro.api.registry` in isolation (e.g. a
    freshly spawned batch worker).
    """
    import repro.baselines  # noqa: F401  (registers the GADED/GADES classes)
    import repro.core       # noqa: F401  (registers rem and rem-ins)
