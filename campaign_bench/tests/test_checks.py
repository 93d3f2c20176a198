"""The faults-sharded cell list and the result check on a small campaign."""

import dataclasses

import batch


def test_only_queued_outages_change_in_the_fault_campaign():
    from repro.faults.campaign import CampaignConfig, build_campaign
    from repro.faults.spec import MonitorOutage

    w = batch.PLAN["workloads"]["faults-sharded"]
    base = batch.batch_seed(batch.DEFAULT_SEED, 0)
    own = build_campaign(CampaignConfig(seed=base, cells=w["faulted_cells_per_batch"],
                                        tasksets=w["tasksets_per_batch"], horizon=w["horizon"]))
    cells = batch.faults_cells(base)
    assert [c.run for c in cells] == [c.run for c in own]
    changed = 0
    for mine, theirs in zip(cells, own):
        assert len(mine.plan.faults) == len(theirs.plan.faults)
        for f, g in zip(mine.plan.faults, theirs.plan.faults):
            if isinstance(g, MonitorOutage) and g.mode == "queue":
                assert f == dataclasses.replace(g, mode="drop")
                changed += 1
            else:
                assert f == g
    assert changed > 0


def test_a_doctored_result_fails_its_cell(tmp_path):
    from repro.faults.campaign import CampaignConfig, build_campaign

    cells = build_campaign(CampaignConfig(seed=3, cells=3, tasksets=1, horizon=2.0))
    executor = batch.ShardedExecutor(tmp_path, trace=False)
    executor.workers = 1
    executor.start()
    try:
        out = executor.run(cells)
    finally:
        executor.stop()
    assert batch.failed_cells("faults-sharded", 1, 0, cells, out) == ([], [])

    out.stats[1] = dict(out.stats[1], events=out.stats[1]["events"] + 1)
    failed, reasons = batch.failed_cells("faults-sharded", 1, 0, cells, out)
    assert failed == [1]
    assert reasons == ["merged artifact disagrees with results: 1 cell(s), first at 1"]
