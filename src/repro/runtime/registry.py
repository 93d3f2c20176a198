"""String-keyed plugin registry for monitors.

Historically :class:`~repro.runtime.spec.MonitorSpec` dispatched on an
``if``/``elif`` chain and duplicated the label formatting alongside it;
adding a policy meant editing core files in two places.  Both the
builder and the label now come from one :class:`MonitorKind` entry in
:data:`monitor_registry`, and third-party code (see
``examples/custom_monitor.py``) registers new kinds at import time:

    from repro.runtime.registry import MonitorKind, monitor_registry

    monitor_registry.register("additive", MonitorKind(
        kind="additive",
        build=lambda kernel, param, extra: AdditiveDecreaseMonitor(...),
        label=lambda param, extra: f"ADDITIVE(s={param:g})",
    ))
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Generic, Iterator, Optional, Tuple, TypeVar

__all__ = [
    "Registry",
    "MonitorKind",
    "monitor_registry",
    "acts_only_on_miss",
]

T = TypeVar("T")


class Registry(Generic[T]):
    """A minimal string-keyed plugin registry.

    Registration is explicit and collision-safe: re-registering a key
    raises unless ``override=True`` is passed (tests and notebooks
    legitimately re-register while iterating on a policy).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._entries: Dict[str, T] = {}

    def register(self, key: str, entry: T, *, override: bool = False) -> T:
        """Add *entry* under *key*; returns the entry for chaining."""
        if not key or not isinstance(key, str):
            raise ValueError(f"{self.name} registry key must be a non-empty string, got {key!r}")
        if key in self._entries and not override:
            raise ValueError(
                f"{self.name} kind {key!r} is already registered; "
                f"pass override=True to replace it"
            )
        self._entries[key] = entry
        return entry

    def unregister(self, key: str) -> None:
        """Remove *key* (missing keys raise, like :meth:`get`)."""
        if key not in self._entries:
            raise KeyError(self._unknown_message(key))
        del self._entries[key]

    def get(self, key: str) -> T:
        """Look *key* up; unknown keys raise with the registered kinds listed."""
        try:
            return self._entries[key]
        except KeyError:
            raise ValueError(self._unknown_message(key)) from None

    def _unknown_message(self, key: str) -> str:
        known = ", ".join(sorted(self._entries)) or "<none>"
        return f"unknown {self.name} kind {key!r}; registered kinds: {known}"

    def keys(self) -> Tuple[str, ...]:
        return tuple(sorted(self._entries))

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(self.keys())

    def __len__(self) -> int:
        return len(self._entries)


def _default_validate(param: float) -> None:
    """The paper's parameter domain: recovery speed/aggressiveness in (0, 1]."""
    if not 0.0 < param <= 1.0:
        raise ValueError(f"monitor parameter must be in (0, 1], got {param}")


@dataclass(frozen=True)
class MonitorKind:
    """One registered monitor policy.

    Attributes
    ----------
    kind:
        Registry key, e.g. ``"simple"``.
    build:
        ``(kernel, param, extra) -> Monitor`` factory.  ``extra`` arrives
        already defaulted (``default_extra`` substituted when the spec
        leaves it ``None``).
    label:
        ``(param, extra) -> str`` display label, e.g. ``SIMPLE(s=0.6)``.
    default_extra:
        Value substituted for a ``None`` ``extra`` (step factor, floor...).
    validate:
        ``(param) -> None`` raising :class:`ValueError` on a bad
        parameter; ``None`` skips validation (the ``"none"`` baseline
        takes no parameter).
    """

    kind: str
    build: Callable[[object, float, Optional[float]], object]
    label: Callable[[float, Optional[float]], str]
    default_extra: Optional[float] = None
    validate: Optional[Callable[[float], None]] = field(default=_default_validate)


#: Monitor policies addressable from a :class:`~repro.runtime.spec.MonitorSpec`.
monitor_registry: Registry[MonitorKind] = Registry("monitor")


def _register_builtin_monitors() -> None:
    from repro.core.monitor import AdaptiveMonitor, NullMonitor, SimpleMonitor
    from repro.core.policies import ClampedAdaptiveMonitor, SteppedRestoreMonitor

    monitor_registry.register(
        "simple",
        MonitorKind(
            kind="simple",
            build=lambda kernel, param, extra: SimpleMonitor(kernel, s=param),
            label=lambda param, extra: f"SIMPLE(s={param:g})",
        ),
    )
    monitor_registry.register(
        "adaptive",
        MonitorKind(
            kind="adaptive",
            build=lambda kernel, param, extra: AdaptiveMonitor(kernel, a=param),
            label=lambda param, extra: f"ADAPTIVE(a={param:g})",
        ),
    )
    monitor_registry.register(
        "stepped",
        MonitorKind(
            kind="stepped",
            build=lambda kernel, param, extra: SteppedRestoreMonitor(
                kernel, s=param, step_factor=extra
            ),
            label=lambda param, extra: f"STEPPED(s={param:g},x{extra:g})",
            default_extra=2.0,
        ),
    )
    monitor_registry.register(
        "clamped",
        MonitorKind(
            kind="clamped",
            build=lambda kernel, param, extra: ClampedAdaptiveMonitor(
                kernel, a=param, floor=extra
            ),
            label=lambda param, extra: f"CLAMPED(a={param:g},>={extra:g})",
            default_extra=0.2,
        ),
    )
    monitor_registry.register(
        "none",
        MonitorKind(
            kind="none",
            build=lambda kernel, param, extra: NullMonitor(kernel),
            label=lambda param, extra: "NONE",
            validate=None,
        ),
    )


_register_builtin_monitors()
#: The five entries registered above, by key.
_BUILTIN_MONITORS: Dict[str, MonitorKind] = {
    key: monitor_registry.get(key) for key in monitor_registry
}


def acts_only_on_miss(kind: str) -> bool:
    """Whether *kind* keeps the quiet-run guarantee of :mod:`repro.core.monitor`.

    True for the five built-in kinds, recognised by entry object: a
    third-party kind, or a built-in key re-registered with
    ``override=True``, may act without a miss, so its runs are never
    shared (:func:`repro.runtime.executor.run_spec`).
    """
    return monitor_registry.get(kind) is _BUILTIN_MONITORS.get(kind)
