"""Tests of the benchmark's own pieces.

    python3 -m pytest -q perfbench
"""

import json
import math
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from unruhsim import analytic, channels, cli, entanglement, state, sweep  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # root [0, 100] > a [10, 60] > b [20, 30]; root > c [70, 90]
    parent = [-1, 0, 1, 0]
    start = [0, 10, 20, 70]
    end = [100, 60, 30, 90]
    assert spans.self_times(parent, start, end).tolist() == [30, 40, 10, 20]


def test_traced_calls_record_nested_spans_and_self_time():
    tracer = spans.Tracer(run_id=7)
    with tracer:
        sweep.esd_threshold(channels.ChannelSpec(kind="bit_trit_flip",
                                                 coupling="multilocal"),
                            math.pi / 4, p_tol=1e-2)
    recorded = list(tracer.spans())
    names = [s[0] for s in recorded]
    assert names[0] == "sweep.esd_threshold" and recorded[0][3] == -1
    assert all(s[4] == 7 for s in recorded)
    assert all(s[3] < i for i, s in enumerate(recorded))  # parents come first
    # validate_density is called through both the state and the channels
    # namespaces; both must record.
    assert names.count("state.validate_density") == 2 * names.count("channels.evolve")
    summary = tracer.summary()
    duration = recorded[0][2] - recorded[0][1]
    assert sum(summary["self_ns"].values()) == pytest.approx(duration)
    assert summary["esd_evals"] == names.count("channels.evolve")
    assert summary["distinct_specs"] == summary["esd_evals"]
    assert summary["eigvalsh_matrices"] == names.count("numpy.linalg.eigvalsh")


def _bindings():
    """Every function-valued name and dict entry the tracer may rebind."""
    out = {}
    tables = [(name, vars(mod)) for name, mod in sys.modules.items()
              if name == "unruhsim" or name.startswith("unruhsim.")]
    tables.append(("numpy.linalg", vars(np.linalg)))
    for name, table in tables:
        for key, value in table.items():
            out[(name, key)] = value
            if type(value) is dict and key != "__builtins__":
                for k, v in value.items():
                    out[(name, key, k)] = v
    return out


def test_wrappers_are_restored_after_a_traced_run():
    before = _bindings()
    originals = (state.validate_density, np.linalg.eigvalsh,
                 analytic._LAMBDAS["phase_flip"])
    with spans.Tracer() as tracer:
        assert channels.validate_density is not originals[0]
        assert channels.validate_density is state.validate_density
        assert np.linalg.eigvalsh is not originals[1]
        assert analytic._LAMBDAS["phase_flip"] is not originals[2]
        cli.main(workloads.WARMUP_ARGV)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    assert tracer.absent == []


def test_a_missing_target_is_reported_absent():
    targets = spans.TARGETS + (("channels", "no_such_function", "channels.gone"),
                               ("no_such_module", "f", "gone.f"))
    with spans.Tracer(targets=targets) as tracer:
        entanglement.negativity(state.unruh_state(0.1))
    assert tracer.absent == ["channels.no_such_function", "no_such_module.f"]
    assert tracer.summary()["calls"]["entanglement.negativity"] == 1


@pytest.mark.parametrize("n,expected", [
    (1, None), (19, None), (20, 50), (99, 50), (100, 90), (999, 90), (1000, 99),
])
def test_reportable_percentile_keeps_ten_samples_beyond(n, expected):
    assert run.reportable_percentile(n) == expected


def test_quantile_interpolates_between_ranks():
    assert run.quantile([4.0, 1.0, 3.0, 2.0], 0.5) == 2.5
    assert run.quantile([1.0, 2.0, 3.0, 4.0, 5.0], 0.9) == pytest.approx(4.6)
    assert run.quantile([7.0], 0.9) == 7.0


def test_end_to_end_times_are_scaled_cpu_time_and_raw_times_are_reported():
    passes = [{"call_cpu_s": [c, c], "call_wall_s": [2 * c, 2 * c],
               "call_scale": [0.5, 0.5], "points": 10, "peak_rss_kb": 2048}
              for c in (1.0, 2.0, 4.0)]
    metrics, detail = run.end_to_end(passes, [(0.3, 2.0), (0.1, 2.0), (0.2, 2.0)])
    assert metrics["pass_s"] == {"value": 2.0, "unit": "s"}
    assert metrics["points_per_s"]["value"] == 5.0
    assert metrics["call_ms_p50"]["value"] == 1000.0
    assert metrics["setup_s"]["value"] == 0.4
    assert metrics["peak_rss_mb"]["value"] == 2.0
    assert detail["cpu_s"] == 4.0 and detail["wall_s"] == 8.0
    assert detail["call_cpu_ms_p50"] == 2000.0


def test_host_speed_scale_is_one_at_the_reference_speed():
    ref = hostspeed.REF_S
    assert hostspeed.scale([ref]) == 1.0
    assert hostspeed.scale([ref, 2 * ref], [2 * ref, 9 * ref]) == 0.5
    with spans.Tracer() as tracer:
        hostspeed.sample(0.0)
    assert not any(tracer.summary()["calls"].values())


def test_sampler_keeps_the_runs_inside_a_call_window():
    with hostspeed.Sampler() as sampler:
        time.sleep(0.3)
    assert sampler.runs and not sampler._thread.is_alive()
    sampler.runs = [(1.0, 0.1), (2.0, 0.2), (3.0, 0.3)]
    assert sampler.during(1.5, 3.0) == [0.2, 0.3]
    assert sampler.during(3.5, 4.0) == []


def test_esd_r_values_are_seeded_and_in_range():
    take = lambda seed: [r for _, r in zip(range(20), workloads.esd_r_values(seed))]
    first = take(3)
    assert first == take(3) and first != take(4)
    assert first[0] == "pi/4"
    assert all(0.0 <= float(r) <= math.pi / 4 for r in first[1:])


@pytest.mark.parametrize("kind,coupling,r,text,ok", [
    ("bit-trit-flip", "multilocal", "pi/4", "0.530130522873", True),
    ("bit-trit-flip", "multilocal", "pi/4", "0.5302", False),
    ("bit-trit-flip", "multilocal", "pi/4", "none", False),
    ("phase-flip", "global", "pi/4", "none", True),
    ("phase-flip", "global", "pi/4", "0.5", False),
    ("bit-trit-flip", "global", "0.5", "0.5", False),  # past the crossing
    ("bit-trit-flip", "global", "0.5", "0.1", False),  # still entangled
    ("bit-trit-flip", "global", "0.5", "none", False),
    ("phase-flip", "multilocal", "0.5", "none", True),
])
def test_esd_check_accepts_only_true_answers(kind, coupling, r, text, ok):
    problem = workloads.check_esd_search(kind, coupling, r, text, cli.main)
    assert (problem is None) == ok, problem


def test_esd_check_accepts_the_threshold_the_cli_prints():
    code, out, _ = workloads.call_main(
        cli.main, ["esd", "--channel", "bit-trit-flip", "--coupling", "global",
                   "--r", "0.5"])
    assert code == 0
    assert workloads.check_esd_search("bit-trit-flip", "global", "0.5",
                                      out.strip(), cli.main) is None


def test_benchmark_json_matches_the_metrics_the_runner_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]] \
        == run.per_layer_metrics()
