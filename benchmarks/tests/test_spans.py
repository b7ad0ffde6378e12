import pytest

import metrics
from spans import HOOKS, Hooks, Tracer, highest_percentile, self_times


def test_self_time_of_nested_spans():
    # parent [0, 10] > child [1, 4] > grandchild [2, 3]
    starts, ends, parents = [0.0, 1.0, 2.0], [10.0, 4.0, 3.0], [-1, 0, 1]
    assert self_times(starts, ends, parents) == pytest.approx([7.0, 2.0, 1.0])


def test_self_time_of_sibling_spans():
    starts, ends, parents = [0.0, 1.0, 5.0], [10.0, 3.0, 8.0], [-1, 0, 0]
    assert self_times(starts, ends, parents) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_merges_overlap_and_clips_to_parent():
    # children [1, 4] and [3, 6] overlap; [9, 12] runs past the parent's end
    starts, ends, parents = [0.0, 1.0, 3.0, 9.0], [10.0, 4.0, 6.0, 12.0], [-1, 0, 0, 0]
    assert self_times(starts, ends, parents)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_tracer_records_parents_and_failures():
    tracer = Tracer()
    tracer.begin_run("stage#0")

    def inner():
        raise ValueError("boom")

    def outer():
        with pytest.raises(ValueError):
            tracer.call("inner", inner)
        return 7

    assert tracer.call("outer", outer) == 7
    assert list(tracer.parent) == [-1, 0]
    assert list(tracer.ok) == [1, 0]
    summary = tracer.summary([0])
    assert summary["outer"]["self"][0] <= summary["outer"]["dur"][0]


@pytest.mark.parametrize("n, expected", [
    (19, None), (20, 50.0), (100, 90.0), (200, 95.0), (999, 95.0),
    (1000, 99.0), (3600, 99.0), (10000, 99.9), (100000, 99.99),
])
def test_highest_percentile_keeps_ten_samples_beyond(n, expected):
    assert highest_percentile(n) == expected


def test_hooks_wrap_every_binding_and_restore():
    import aquapos.camera
    import aquapos.estimators

    original = aquapos.camera.solve_pnp_planar
    hooks = Hooks(Tracer())
    assert hooks.install() == []
    assert aquapos.camera.solve_pnp_planar is not original
    assert aquapos.estimators.solve_pnp_planar is aquapos.camera.solve_pnp_planar
    hooks.remove()
    assert aquapos.camera.solve_pnp_planar is original
    assert aquapos.estimators.solve_pnp_planar is original


def test_missing_hook_target_reads_as_missing_not_zero():
    spec = [("camera.pnp", "aquapos.camera", "solve_pnp_planar_gone", "call")]
    spec += [h for h in HOOKS if h[0] != "camera.pnp"]
    hooks = Hooks(Tracer())
    try:
        assert hooks.install(spec) == ["camera.pnp"]
    finally:
        hooks.remove()
    m = metrics.layer_metrics({}, {}, hooks, 1)
    pnp = {k: v for k, v in m.items() if k.startswith("camera.pnp.")}
    assert pnp and all(v is None for v in pnp.values())
    assert m["attitude.feed.calls"] == 0.0
