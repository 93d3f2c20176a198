"""Tests for the plugin registries (repro.runtime.registry)."""

import pytest

from repro.core.monitor import Monitor, SimpleMonitor
from repro.runtime.registry import (
    MonitorKind,
    Registry,
    monitor_registry,
)
from repro.runtime.spec import MonitorSpec
from repro.sim.kernel import MC2Kernel
from repro.workload.generator import GeneratorParams, generate_taskset


class TestRegistry:
    def test_register_and_get(self):
        reg = Registry("demo")
        reg.register("a", 1)
        assert reg.get("a") == 1
        assert "a" in reg
        assert reg.keys() == ("a",)
        assert len(reg) == 1

    def test_duplicate_registration_rejected(self):
        reg = Registry("demo")
        reg.register("a", 1)
        with pytest.raises(ValueError, match="already registered"):
            reg.register("a", 2)
        assert reg.get("a") == 1

    def test_override_replaces(self):
        reg = Registry("demo")
        reg.register("a", 1)
        reg.register("a", 2, override=True)
        assert reg.get("a") == 2

    def test_unknown_key_lists_registered_kinds(self):
        reg = Registry("demo")
        reg.register("alpha", 1)
        reg.register("beta", 2)
        with pytest.raises(ValueError, match=r"alpha, beta"):
            reg.get("gamma")

    def test_empty_registry_message(self):
        reg = Registry("demo")
        with pytest.raises(ValueError, match="<none>"):
            reg.get("anything")

    def test_bad_key_rejected(self):
        reg = Registry("demo")
        with pytest.raises(ValueError):
            reg.register("", 1)

    def test_unregister(self):
        reg = Registry("demo")
        reg.register("a", 1)
        reg.unregister("a")
        assert "a" not in reg
        with pytest.raises(KeyError):
            reg.unregister("a")

    def test_iteration_sorted(self):
        reg = Registry("demo")
        reg.register("b", 2)
        reg.register("a", 1)
        assert list(reg) == ["a", "b"]


class TestBuiltinRegistrations:
    def test_builtin_monitor_kinds_present(self):
        for kind in ("simple", "adaptive", "stepped", "clamped", "none"):
            assert kind in monitor_registry

    def test_unknown_monitor_kind_error_is_dynamic(self):
        with pytest.raises(ValueError) as exc:
            MonitorSpec("bogus")
        msg = str(exc.value)
        for kind in monitor_registry.keys():
            assert kind in msg


class _EchoMonitor(SimpleMonitor):
    """Stand-in third-party policy (behaviourally SIMPLE)."""


class TestThirdPartyMonitorKind:
    """A registered kind is a first-class citizen of MonitorSpec."""

    @pytest.fixture()
    def registered(self):
        monitor_registry.register(
            "echo",
            MonitorKind(
                kind="echo",
                build=lambda kernel, param, extra: _EchoMonitor(kernel, s=param),
                label=lambda param, extra: f"ECHO(s={param:g})",
            ),
            override=True,
        )
        yield
        monitor_registry.unregister("echo")

    def test_registered_kind_builds_and_labels(self, registered):
        spec = MonitorSpec("echo", 0.5)
        assert spec.label == "ECHO(s=0.5)"
        kernel = MC2Kernel(generate_taskset(3, GeneratorParams(m=2)))
        monitor = spec.build(kernel)
        assert isinstance(monitor, Monitor)
        assert isinstance(monitor, _EchoMonitor)

    def test_validation_still_applies(self, registered):
        with pytest.raises(ValueError, match=r"\(0, 1\]"):
            MonitorSpec("echo", 1.5)
