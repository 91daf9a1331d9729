"""Construction rule shared by the Zhang & Zhang baselines.

GADES, GADED-Rand and GADED-Max run on
:class:`~repro.core.anonymizer.BaseAnonymizer`'s checkpointed greedy loop
and implement only its step.  What they share beyond that loop is how
they are built: they address single-edge linkage only (L = 1) and take
only the knobs they register, so a direct construction refuses the same
parameters, with the same messages, as
:meth:`~repro.api.registry.AnonymizerSpec.create`.
"""

from __future__ import annotations

from dataclasses import fields, replace
from typing import Any, Dict, Optional, Tuple

from repro.api.registry import register_anonymizer
from repro.core.anonymizer import AnonymizerConfig, BaseAnonymizer
from repro.errors import ConfigurationError

_DEFAULT_CONFIG = AnonymizerConfig()


class SingleEdgeBaseline(BaseAnonymizer):
    """A :class:`BaseAnonymizer` restricted to L = 1 and its registered knobs.

    Built from a config or keyword overrides like the paper's heuristics.
    A ``length_threshold`` other than 1, or a knob outside ``accepts`` set
    away from its :class:`AnonymizerConfig` default, raises
    :class:`ConfigurationError`.  An accepted knob left ``None`` takes the
    algorithm's entry in ``defaults``.
    """

    #: Registry name, set by :func:`register_baseline`.
    name: str = ""
    #: The knobs the algorithm takes (its registry ``accepts``).
    accepts: Tuple[str, ...] = ()
    #: Defaults of knobs whose :class:`AnonymizerConfig` default is ``None``.
    defaults: Dict[str, Any] = {}

    def __init__(self, config: Optional[AnonymizerConfig] = None,
                 **overrides) -> None:
        super().__init__(config, **overrides)
        config = self._config
        if config.length_threshold != 1:
            raise ConfigurationError(
                f"{self.name} only supports L = 1 "
                f"(requested L={config.length_threshold})")
        for knob in fields(config):
            if knob.name not in self.accepts + ("length_threshold",) and \
                    getattr(config, knob.name) != getattr(_DEFAULT_CONFIG,
                                                          knob.name):
                raise ConfigurationError(
                    f"anonymizer {self.name!r} does not accept parameter "
                    f"{knob.name!r}")
        self._config = replace(config, **{
            key: value for key, value in self.defaults.items()
            if getattr(config, key) is None})


def register_baseline(name: str, *, description: str,
                      accepts: Tuple[str, ...],
                      defaults: Optional[Dict[str, Any]] = None):
    """Register a :class:`SingleEdgeBaseline` subclass under ``name``.

    The class takes ``name``, ``accepts`` and ``defaults`` as its
    construction rule, and the registry the same ``accepts``.
    """
    def wrap(cls):
        cls.name = name
        cls.accepts = tuple(accepts)
        cls.defaults = dict(defaults or {})
        return register_anonymizer(name, cls, description=description,
                                   accepts=accepts)
    return wrap
