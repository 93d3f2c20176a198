"""Property test: the soa backend is trace-equivalent to the reference
kernel, and every reference dispatch matches the per-level policies, on
hypothesis-drawn scenarios.

Complements the fixed randomized sweep in
``tests/sim/test_backend_equivalence.py``: hypothesis explores the
scenario space adaptively and shrinks any divergence to a minimal
counterexample (a specific ``DiffScenario`` one can replay through
``compare_backends`` directly).
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.diffcheck import DiffScenario, compare_backends


@st.composite
def diff_scenarios(draw):
    behavior = draw(
        st.sampled_from(["SHORT", "LONG", "DOUBLE", "constant", "overrun"])
    )
    overloady = behavior != "constant"
    monitor = draw(
        st.sampled_from(["simple", "adaptive"])
        if overloady
        else st.sampled_from(["null", "simple", "adaptive"])
    )
    use_virtual_time = True if monitor != "null" else draw(st.booleans())
    return DiffScenario(
        seed=draw(st.integers(min_value=1, max_value=10_000)),
        m=draw(st.sampled_from([2, 4])),
        util_range=draw(st.sampled_from([(0.05, 0.2), (0.1, 0.4), (0.2, 0.5)])),
        behavior=behavior,
        monitor=monitor,
        monitor_arg=draw(st.sampled_from([0.25, 0.5, 0.75])),
        horizon=1.0,
        use_virtual_time=use_virtual_time,
        record_intervals=draw(st.booleans()),
        monitor_latency=draw(st.sampled_from([0.0, 0.001])),
        zero_every=draw(st.sampled_from([0, 3, 5])),
        level_d_tasks=draw(st.sampled_from([0, 2])),
    )


@given(diff_scenarios())
@settings(max_examples=25, deadline=None)
def test_backends_trace_equivalent(sc):
    result = compare_backends(sc)
    assert result.equal, (
        f"backends diverged on [{', '.join(result.mismatched)}]: {sc.label()}"
    )
