"""repro.tune: alpha-beta fitting, knob search, validation plumbing."""

import dataclasses
import json
import math

import numpy as np
import pytest

from repro.comm import SchedKnobs
from repro.comm.sched import pack_buckets
from repro.engine.run import RunConfig
from repro.engine.trainer_real import RealTrainer
from repro.models.config import GNMT8
from repro.tune import (
    SMOKE_SIZES_BYTES,
    Candidate,
    ProbeSample,
    SearchSpace,
    TunedProfile,
    calibrate_overhead,
    default_candidate,
    fit_alpha_beta,
    link_fit_from_samples,
    predict_candidate,
    probe_link,
    rank_candidates,
)
from repro.tune.search import MeasuredWorkload, TableLoad


def synthetic_samples(world, beta, bandwidth, sizes, noise=0.0, seed=0):
    """Exact ring-AllReduce times for known alpha-beta, plus optional noise."""
    rng = np.random.default_rng(seed)
    steps = 2 * (world - 1)
    out = []
    for s in sizes:
        t = steps * (s / (world * bandwidth) + beta)
        out.append(ProbeSample(s, t * (1.0 + noise * rng.standard_normal())))
    return out


SIZES = (16_384, 65_536, 262_144, 1_048_576, 4_194_304)


class TestFit:
    def test_known_alpha_beta_recovered_exactly(self):
        fit = link_fit_from_samples(
            "shm", 4, synthetic_samples(4, 40e-6, 2.5e9, SIZES)
        )
        assert fit.latency_s == pytest.approx(40e-6, rel=1e-9)
        assert fit.bandwidth_Bps == pytest.approx(2.5e9, rel=1e-9)
        assert fit.residual < 1e-9

    @pytest.mark.parametrize("world", [2, 3, 8])
    def test_recovery_within_5pct_under_noise(self, world):
        samples = synthetic_samples(
            world, 25e-6, 1.8e9, SIZES, noise=0.01, seed=3
        )
        fit = link_fit_from_samples("shm", world, samples)
        assert fit.latency_s == pytest.approx(25e-6, rel=0.05)
        assert fit.bandwidth_Bps == pytest.approx(1.8e9, rel=0.05)

    def test_predict_allreduce_roundtrip(self):
        fit = link_fit_from_samples(
            "shm", 4, synthetic_samples(4, 40e-6, 2.5e9, SIZES)
        )
        s = 524_288
        expected = 2 * 3 * (s / (4 * 2.5e9) + 40e-6)
        assert fit.predict_allreduce_s(s) == pytest.approx(expected, rel=1e-9)

    def test_needs_two_distinct_sizes(self):
        with pytest.raises(ValueError, match="distinct"):
            fit_alpha_beta([ProbeSample(4096, 1e-3), ProbeSample(4096, 2e-3)])

    def test_rejects_non_finite_and_non_positive(self):
        with pytest.raises(ValueError):
            fit_alpha_beta([ProbeSample(4096, float("nan")),
                            ProbeSample(65536, 1e-3)])
        with pytest.raises(ValueError):
            fit_alpha_beta([ProbeSample(4096, -1e-3),
                            ProbeSample(65536, 1e-3)])

    def test_rejects_non_positive_slope(self):
        # Bigger message measured *faster*: no valid bandwidth exists.
        with pytest.raises(ValueError, match="degenerate"):
            fit_alpha_beta([ProbeSample(4096, 2e-3), ProbeSample(65536, 1e-3)])

    def test_negative_intercept_clamped(self):
        a, b = fit_alpha_beta(
            [ProbeSample(65_536, 1e-4), ProbeSample(1_048_576, 2e-3)]
        )
        assert a >= 0 and b > 0

    def test_probe_link_thread_backend(self):
        fit = probe_link(
            2, backend="thread", sizes_bytes=SMOKE_SIZES_BYTES, iters=3
        )
        assert fit.transport == "thread"
        assert fit.bandwidth_Bps > 0 and fit.latency_s >= 0
        assert math.isfinite(fit.residual)
        assert len(fit.samples) == 3

    def test_probe_needs_two_ranks(self):
        with pytest.raises(ValueError, match="world_size"):
            probe_link(1, backend="thread")


def make_profile(world=4, beta=40e-6, bandwidth=2.5e9, **kw):
    fit = link_fit_from_samples(
        "shm", world, synthetic_samples(world, beta, bandwidth, SIZES)
    )
    return TunedProfile(
        world_size=world, backend="process", links={"shm": fit}, **kw
    )


#: A profile as written while ``SchedKnobs`` had twelve fields: per-lane
#: ``hier_*`` switches and the since-removed pipeline fields.
TWELVE_FIELD_PROFILE_JSON = """{
  "backend": "process",
  "knobs": {
    "bucket_elems": 65536,
    "chunk_elems": 1024,
    "delayed_min_rows": 7,
    "hier_dense": null,
    "hier_hot": null,
    "hier_sparse": null,
    "hot_fraction": 0.01,
    "max_chunks": 8,
    "microbatches": 1,
    "pipeline_stages": 1,
    "repartition_interval": 0,
    "schedule": "data_parallel"
  },
  "links": {
    "shm": {
      "bandwidth_Bps": 2500000000.0,
      "latency_s": 3.999999999999996e-05,
      "residual": 5.877217851236728e-16,
      "samples": [
        {"nbytes": 16384, "seconds": 0.0002498304},
        {"nbytes": 4194304, "seconds": 0.0027565824}
      ],
      "transport": "shm",
      "world_size": 4
    }
  },
  "meta": {},
  "strategy": "embrace",
  "version": 1,
  "world_size": 4
}"""

class TestTunedProfile:
    def test_json_roundtrip(self):
        p = make_profile(
            knobs=SchedKnobs(bucket_elems=1024), strategy="embrace",
            meta={"host": "ci"},
        )
        p2 = TunedProfile.from_json(p.to_json())
        assert p2 == p

    def test_earlier_release_json(self):
        """A profile written when a second wire could be chosen: the
        top-level ``transport`` key loads as ``"shm"`` and is refused
        as ``"queue"``, like a link labelled ``"queue"``."""
        p = make_profile(knobs=SchedKnobs(bucket_elems=1024), strategy="embrace")
        d = json.loads(p.to_json())
        assert "transport" not in d
        d["transport"] = "shm"
        assert TunedProfile.from_json(json.dumps(d)) == p
        d["transport"] = "queue"
        with pytest.raises(ValueError, match="transport"):
            TunedProfile.from_json(json.dumps(d))
        d["transport"] = None
        d["links"]["queue"] = dict(d["links"]["shm"], transport="queue")
        with pytest.raises(ValueError, match="transport"):
            TunedProfile.from_json(json.dumps(d))

    def test_save_load(self, tmp_path):
        p = make_profile()
        path = str(tmp_path / "profile.json")
        p.save(path)
        assert TunedProfile.load(path) == p

    def test_rejects_invalid_json(self):
        with pytest.raises(ValueError, match="JSON"):
            TunedProfile.from_json("{not json")

    def test_rejects_wrong_version(self):
        d = json.loads(make_profile().to_json())
        d["version"] = 99
        with pytest.raises(ValueError, match="version"):
            TunedProfile.from_json(json.dumps(d))

    def test_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="missing"):
            TunedProfile.from_json(json.dumps({"version": 1}))

    @pytest.mark.parametrize("field,value", [
        ("latency_s", float("nan")),
        ("latency_s", -1e-6),
        ("bandwidth_Bps", 0.0),
        ("bandwidth_Bps", float("inf")),
    ])
    def test_rejects_bad_link_numbers(self, field, value):
        d = json.loads(make_profile().to_json())
        d["links"]["shm"][field] = value
        with pytest.raises(ValueError):
            TunedProfile.from_json(json.dumps(d))

    def test_rejects_malformed_knobs(self):
        d = json.loads(make_profile().to_json())
        d["knobs"] = {"bucket_elems": -5}
        with pytest.raises(ValueError):
            TunedProfile.from_json(json.dumps(d))
        d["knobs"] = {"no_such_knob": 1}
        with pytest.raises(ValueError, match="unknown"):
            TunedProfile.from_json(json.dumps(d))

    def test_needs_a_link(self):
        with pytest.raises(ValueError, match="link"):
            TunedProfile(world_size=4, backend="process", links={})

    def test_link_selection(self):
        p = make_profile()
        assert p.link().transport == "shm"  # the only link
        two = dataclasses.replace(
            p, links={"intra": p.links["shm"], "inter": p.links["shm"]}
        )
        with pytest.raises(ValueError, match="links"):
            two.link()

    def test_to_cluster_and_cost_model(self):
        p = make_profile(world=4, beta=40e-6, bandwidth=2.5e9)
        cluster = p.to_cluster()
        assert cluster.world_size == 4
        assert cluster.latency() == pytest.approx(40e-6)
        cost = p.cost_model()
        # Calibrated model must invert the fit: pricing an allreduce
        # with the fitted constants reproduces the probe timing model.
        s = 1_048_576
        assert cost.allreduce(s).seconds == pytest.approx(
            p.link().predict_allreduce_s(s), rel=1e-9
        )


class TestSchedKnobs:
    def test_defaults_match_historical_constants(self):
        from repro.comm.sched import DEFAULT_BUCKET_ELEMS

        k = SchedKnobs()
        assert k.bucket_elems == DEFAULT_BUCKET_ELEMS == 65536
        assert [f.name for f in dataclasses.fields(k)] == [
            "bucket_elems", "hot_fraction", "repartition_interval",
            "hierarchical",
        ]

    @pytest.mark.parametrize("kw", [
        {"bucket_elems": -1},
        {"bucket_elems": 2.5},
        {"hot_fraction": 1.5},
        {"repartition_interval": -1},
        {"bucket_elems": 0},
        {"repartition_interval": 2.5},
    ])
    def test_validation(self, kw):
        with pytest.raises(ValueError):
            SchedKnobs(**kw)

    def test_dict_roundtrip(self):
        k = SchedKnobs(bucket_elems=1024, repartition_interval=7)
        assert SchedKnobs.from_dict(k.to_dict()) == k
        with pytest.raises(ValueError, match="unknown"):
            SchedKnobs.from_dict({"bogus": 1})

    def test_saved_dense_switch_default_is_dropped(self):
        # Knob dicts and profiles saved before the dense wire was removed
        # carry its never-switching threshold; they still load.
        saved = dict(SchedKnobs(bucket_elems=1024).to_dict(), dense_switch_density=1.0)
        assert SchedKnobs.from_dict(saved) == SchedKnobs(bucket_elems=1024)
        d = json.loads(make_profile(knobs=SchedKnobs(bucket_elems=1024)).to_json())
        d["knobs"]["dense_switch_density"] = 1.0
        assert TunedProfile.from_json(json.dumps(d)).knobs == SchedKnobs(
            bucket_elems=1024
        )

    @pytest.mark.parametrize("chunking", [
        {"chunk_elems": 65536, "max_chunks": 8},
        {"chunk_elems": 262144, "max_chunks": 4},  # BENCH_tune.json's profile
        {"chunk_elems": -5},
        {"max_chunks": 0},
    ])
    def test_saved_chunk_knobs_are_dropped(self, chunking):
        """Dicts saved while dense buckets were chunked load with the
        chunk sizing dropped, whatever its value: each bucket is now one
        AllReduce."""
        saved = dict(SchedKnobs(bucket_elems=1024).to_dict(), **chunking)
        assert SchedKnobs.from_dict(saved) == SchedKnobs(bucket_elems=1024)
        with pytest.raises(TypeError):
            SchedKnobs(**chunking)

    @pytest.mark.parametrize("value", [0, 7, 10**9])
    def test_saved_delayed_fold_is_dropped(self, value):
        """Dicts saved while a small delayed part could fold into the
        prior exchange load with the fold dropped, whatever its value:
        folding never changed the bits."""
        saved = dict(SchedKnobs(bucket_elems=1024).to_dict(), delayed_min_rows=value)
        assert SchedKnobs.from_dict(saved) == SchedKnobs(bucket_elems=1024)
        with pytest.raises(TypeError):
            SchedKnobs(delayed_min_rows=value)

    @pytest.mark.parametrize("value", [0.25, 0.0])
    def test_saved_dense_switch_threshold_is_refused(self, value):
        saved = dict(SchedKnobs().to_dict(), dense_switch_density=value)
        with pytest.raises(ValueError, match="dense switch was removed"):
            SchedKnobs.from_dict(saved)
        with pytest.raises(ValueError, match="dense switch was removed"):
            RealTrainer(GNMT8.tiny(), knobs=saved)

    def test_profile_saved_with_twelve_knob_fields_round_trips(self):
        """A profile written while knobs carried per-lane ``hier_*``
        switches and the pipeline fields loads to the same knobs, less
        the dropped chunk and fold fields."""
        loaded = TunedProfile.from_json(TWELVE_FIELD_PROFILE_JSON)
        assert loaded.knobs == SchedKnobs(hot_fraction=0.01)
        assert loaded.strategy == "embrace"
        assert loaded.links["shm"].bandwidth_Bps == 2.5e9
        assert TunedProfile.from_json(loaded.to_json()) == loaded

    @pytest.mark.parametrize("saved", [
        {"schedule": "gpipe", "pipeline_stages": 2, "microbatches": 2},
        {"schedule": "data_parallel", "pipeline_stages": 2},
        {"microbatches": 4},
    ])
    def test_saved_pipeline_schedule_is_refused(self, saved):
        with pytest.raises(ValueError, match="pipeline schedules were removed"):
            SchedKnobs.from_dict(dict(SchedKnobs().to_dict(), **saved))

    def test_real_trainer_rejects_pipeline_schedules(self):
        saved = dict(
            SchedKnobs().to_dict(),
            schedule="1f1b", pipeline_stages=2, microbatches=2,
        )
        with pytest.raises(ValueError, match="pipeline schedules were removed"):
            RealTrainer(GNMT8.tiny(), world_size=2, knobs=saved)

    @pytest.mark.parametrize("lanes, hierarchical", [
        ((None, None, None), True),
        ((True, None, True), True),
        ((True, True, True), True),
        ((False, False, False), False),
    ])
    def test_saved_agreeing_hier_lanes_load(self, lanes, hierarchical):
        saved = dict(
            SchedKnobs(bucket_elems=1024).to_dict(),
            **dict(zip(("hier_dense", "hier_sparse", "hier_hot"), lanes)),
        )
        del saved["hierarchical"]
        assert SchedKnobs.from_dict(saved) == SchedKnobs(
            bucket_elems=1024, hierarchical=hierarchical
        )

    @pytest.mark.parametrize("lanes", [
        {"hier_dense": True, "hier_sparse": False, "hier_hot": True},
        {"hier_dense": None, "hier_sparse": False, "hier_hot": None},
        {"hier_sparse": False},
    ])
    def test_saved_per_lane_hier_mix_is_refused(self, lanes):
        with pytest.raises(ValueError, match="per-lane"):
            SchedKnobs.from_dict(lanes)

    def test_trainer_rejects_bad_knobs_type(self):
        with pytest.raises(TypeError):
            RealTrainer(GNMT8.tiny(), knobs="fast please")


class TestSearchSpace:
    def test_grid_is_deterministic_product(self):
        space = SearchSpace(bucket_elems=(1024, 4096), repartition_interval=(7,))
        cands = space.candidates()
        assert [c.knobs.bucket_elems for c in cands] == [1024, 4096]
        assert {c.knobs.repartition_interval for c in cands} == {7}
        assert cands == space.candidates()

    def test_axes_are_what_the_trainer_runs(self):
        """Five axes, one per executed setting: no pipeline dimension."""
        assert [f.name for f in dataclasses.fields(SearchSpace)] == [
            "bucket_elems", "hot_fraction", "repartition_interval", "hier",
            "strategy",
        ]
        assert [f.name for f in dataclasses.fields(Candidate)] == [
            "knobs", "strategy",
        ]

    def test_smoke_grid_small(self):
        assert len(SearchSpace.smoke().candidates()) <= 4
        assert len(SearchSpace().candidates()) == 2

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            SearchSpace(bucket_elems=())

    def test_invalid_knob_value_rejected_at_expansion(self):
        with pytest.raises(ValueError):
            SearchSpace(bucket_elems=(0,)).candidates()


def make_workload(world=4):
    return MeasuredWorkload(
        world_size=world,
        fwd_bwd_s=5e-3,
        optimizer_s=1e-3,
        dense_param_sizes=((0.0, 40_000), (1.0, 120_000), (2.0, 50_000)),
        tables=(
            TableLoad(
                name="embedding", prior_bytes=80_000.0, delayed_bytes=40_000.0,
                coalesced_bytes=120_000.0, dense_bytes=4_000_000.0,
                delayed_rows=100.0, ids_bytes=2_400.0, lookup_bytes=150_000.0,
            ),
        ),
        measured_step_s=9e-3,
        measured_stall_frac=0.5,
    )


class TestSearch:
    def test_bucket_packing(self):
        # Backward-completion order, minimum priority, cap respected.
        sizes = [(0.0, 10), (1.0, 20), (2.0, 30)]
        assert pack_buckets(sizes, 32) == [
            (2.0, 30, [(2, 0, 30)]),
            (0.0, 30, [(1, 0, 20), (0, 20, 30)]),
        ]
        # A tensor larger than the cap gets a bucket of its own.
        assert pack_buckets([(0.0, 100), (1.0, 5)], 32) == [
            (1.0, 5, [(1, 0, 5)]),
            (0.0, 100, [(0, 0, 100)]),
        ]
        assert pack_buckets([], 32) == []

    @pytest.mark.parametrize("strategy", ["embrace", "allgather", "allreduce"])
    def test_predict_candidate_sane(self, strategy):
        pred = predict_candidate(
            make_profile(), make_workload(),
            Candidate(strategy=strategy), n_steps=3,
        )
        assert pred.step_time_s > 0
        assert 0.0 <= pred.stall_frac < 1.0
        assert pred.makespan_s == pytest.approx(pred.step_time_s * 3)

    @pytest.mark.parametrize("bucket_elems", [32_768, 65_536, 262_144])
    def test_one_dense_task_per_bucket(self, monkeypatch, bucket_elems):
        """The twin prices one dense AllReduce per ``pack_buckets``
        bucket per step, as the trainer issues them."""
        import repro.tune.search as search

        graphs, execute = [], search.execute

        def capture(graph):
            graphs.append(graph)
            return execute(graph)

        monkeypatch.setattr(search, "execute", capture)
        w = make_workload()
        n_steps = 3
        predict_candidate(
            make_profile(), w,
            Candidate(knobs=SchedKnobs(bucket_elems=bucket_elems)),
            n_steps=n_steps,
        )
        (graph,) = graphs
        buckets = pack_buckets(w.dense_param_sizes, bucket_elems)
        for i in range(n_steps):
            dense = sorted(
                name for name in graph.tasks if name.startswith(f"dense:{i}:")
            )
            assert dense == sorted(f"dense:{i}:b{b}" for b in range(len(buckets)))
            for b, (prio, total, _) in enumerate(buckets):
                assert graph[f"dense:{i}:b{b}"].priority == prio

    def test_allgather_priced_flat_under_either_wire(self):
        """The AllGather baseline's sparse exchange runs flat on real
        ranks whatever ``hierarchical`` says, so a two-level profile
        prices it the same both ways; EmbRace's exchanges do move with
        the switch.  (No dense parameters: the dense lane is two-level
        under every strategy.)"""
        fit = link_fit_from_samples(
            "intra", 2, synthetic_samples(2, 5e-6, 20e9, SIZES)
        )
        slow = link_fit_from_samples(
            "inter", 2, synthetic_samples(2, 40e-6, 1.25e9, SIZES)
        )
        profile = TunedProfile(
            world_size=4, backend="thread",
            links={"intra": fit, "inter": slow},
            meta={"two_level": True, "num_nodes": 2, "gpus_per_node": 2},
        )
        assert profile.cost_model().cluster.multi_node
        w = dataclasses.replace(
            make_workload(), dense_param_sizes=(), node_dedup=0.5
        )

        def step(strategy, hierarchical):
            cand = Candidate(
                knobs=SchedKnobs(hierarchical=hierarchical), strategy=strategy
            )
            return predict_candidate(profile, w, cand, n_steps=3).step_time_s

        assert step("allgather", True) == step("allgather", False)
        assert step("embrace", True) != step("embrace", False)

    def test_more_steps_amortize_warmup(self):
        p, w = make_profile(), make_workload()
        short = predict_candidate(p, w, default_candidate(), n_steps=2)
        long = predict_candidate(p, w, default_candidate(), n_steps=6)
        assert long.step_time_s <= short.step_time_s * 1.05

    def test_same_width_tables_price_as_one_group(self):
        """Eight equal-width tables pay one latency per exchange, as the
        trainer's table group does; unknown widths stay per table."""
        from dataclasses import replace

        p, w = make_profile(), make_workload()
        (table,) = w.tables
        eighth = replace(
            table,
            **{
                f: getattr(table, f) / 8
                for f in ("prior_bytes", "delayed_bytes", "coalesced_bytes",
                          "dense_bytes", "delayed_rows", "ids_bytes", "lookup_bytes")
            },
        )

        def split(dim):
            tables = tuple(replace(eighth, name=f"t{i}", dim=dim) for i in range(8))
            return predict_candidate(
                p, replace(w, tables=tables), default_candidate(), n_steps=3
            )

        one = predict_candidate(p, w, default_candidate(), n_steps=3)
        assert split(dim=16).step_time_s == pytest.approx(one.step_time_s)
        assert split(dim=0).step_time_s > one.step_time_s

    def test_rank_candidates_deterministic_and_complete(self):
        p, w = make_profile(), make_workload()
        space = SearchSpace(
            bucket_elems=(4_096, 65_536), hot_fraction=(0.0, 0.05),
        )
        r1 = rank_candidates(p, w, space, rungs=(2, 3), seed=0)
        r2 = rank_candidates(p, w, space, rungs=(2, 3), seed=123)
        assert len(r1) == len(space.candidates())
        assert [x.candidate for x in r1] == [x.candidate for x in r2]
        assert all(
            r1[i].stall_frac <= r1[i + 1].stall_frac
            or r1[i].n_steps != r1[i + 1].n_steps
            for i in range(len(r1) - 2)
        )

    def test_calibrate_overhead_clamps_and_fills(self):
        p, w = make_profile(), make_workload()
        cal = calibrate_overhead(p, w, n_steps=3)
        assert cal.step_overhead_s >= 0.0
        slow = dataclasses.replace(w, measured_step_s=1.0)
        assert calibrate_overhead(p, slow, n_steps=3).step_overhead_s > 0.9


class TestKnobPlumbing:
    def test_trainer_knob_resolution_order(self):
        cfg = GNMT8.tiny()
        profile = make_profile().with_choice(SchedKnobs(bucket_elems=2048))
        t = RealTrainer(cfg, knobs=profile.knobs)
        assert t.knobs.bucket_elems == 2048
        t = RealTrainer(cfg, knobs={"bucket_elems": 4096})
        assert t.knobs == SchedKnobs(bucket_elems=4096)  # dict form
        assert RealTrainer(cfg).knobs == SchedKnobs()

    def test_runconfig_carries_knobs(self):
        cfg = RunConfig(model=GNMT8.tiny(), mode="real",
                        knobs=SchedKnobs(bucket_elems=128))
        assert cfg.knobs.bucket_elems == 128


class TestKnobBitIdentity:
    def test_losses_identical_across_knobs(self):
        """Knobs move bytes between buckets — never the arithmetic at
        world 2, where a two-operand
        sum commutes.  Any knob setting must train bit-identically to
        the defaults at a fixed seed."""
        cfg = GNMT8.tiny()

        def train(knobs):
            return RealTrainer(
                cfg, strategy="embrace", world_size=2, steps=3, seed=5,
                knobs=knobs,
            ).train()

        base = train(None)
        weird = train(SchedKnobs(bucket_elems=8_192))
        assert weird.losses == base.losses
        for key in base.state:
            np.testing.assert_array_equal(weird.state[key], base.state[key])


@pytest.mark.slow
class TestPipeline:
    def test_autotune_thread_smoke(self):
        from repro.tune import autotune

        report = autotune(
            GNMT8.tiny(), world_size=2, backend="thread",
            steps=3, seed=3, space=SearchSpace.smoke(),
            probe_sizes=SMOKE_SIZES_BYTES, probe_iters=3,
            rungs=(2,), top_k=1,
        )
        assert report.losses_identical
        assert report.winner.measured_stall_frac <= (
            report.default.measured_stall_frac + 1e-12
        )
        assert report.validated[0].candidate == default_candidate()
        # The emitted profile is a working input for every consumer.
        tuned = TunedProfile.from_json(report.tuned_profile.to_json())
        RealTrainer(GNMT8.tiny(), knobs=tuned.knobs)
        tuned.cost_model()

    def test_cli_tune_smoke(self, capsys):
        from repro.cli import main

        assert main(["tune", "--smoke"]) == 0
        out = capsys.readouterr().out
        assert "fitted alpha-beta links" in out
        assert "winner" in out
