"""ElasticTrainer end-to-end: kill a rank mid-run, finish with zero loss."""

import pytest

from repro.data import SyntheticSpec
from repro.elastic import (
    ElasticRunResult,
    FailureEvent,
    FailurePlan,
    ReplicaLedger,
    elastic_train_worker,
    run_elastic,
)
from repro.mpi import RankDied, run_spmd
from repro.shuffle import LocalShuffle, PartialLocalShuffle
from repro.train.experiments import make_experiment_data
from repro.train.trainer import TrainConfig, train_worker


def make_setup(samples=240, classes=4, features=16, seed=0, epochs=4, norm=None):
    spec = SyntheticSpec(samples, classes, n_features=features, seed=seed)
    train_ds, labels, val_X, val_y = make_experiment_data(spec)
    config = TrainConfig(
        model="mlp", in_shape=(features,), num_classes=classes,
        epochs=epochs, batch_size=8, base_lr=0.05,
        partition="class_sorted", seed=seed, norm=norm,
    )
    return config, train_ds, labels, val_X, val_y


class TestFailurePlan:
    def test_parse(self):
        plan = FailurePlan.parse("1@2,3@5:mid_exchange")
        assert plan.doomed() == (1, 3)
        assert plan.events[1] == FailureEvent(3, 5, "mid_exchange")

    def test_parse_empty(self):
        assert not FailurePlan.parse("")

    def test_duplicate_rank_rejected(self):
        with pytest.raises(ValueError):
            FailurePlan([FailureEvent(1, 2), FailureEvent(1, 3)])

    def test_bad_point_rejected(self):
        with pytest.raises(ValueError):
            FailureEvent(0, 0, "whenever")

    def test_check_raises_only_at_its_point(self):
        plan = FailurePlan.parse("2@1:mid_exchange")
        plan.check(2, 1, "begin")
        plan.check(1, 1, "mid_exchange")
        plan.check(2, 0, "mid_exchange")
        with pytest.raises(RankDied):
            plan.check(2, 1, "mid_exchange")


class TestElasticRun:
    def test_run_completes_after_failure(self):
        config, train_ds, labels, val_X, val_y = make_setup()
        result = run_elastic(
            config=config, workers=4, q=0.3, failures="1@2",
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        assert isinstance(result, ElasticRunResult)
        assert result.dead_ranks == (1,)
        assert len(result.history.records) == config.epochs
        assert result.history.stats["final_workers"] == 3
        assert len(result.recoveries) == 1
        rec = result.recoveries[0]
        assert rec["epoch"] == 2 and rec["dead_ranks"] == [1]
        assert rec["lost_gids"] > 0
        assert 0.0 <= result.final_accuracy <= 1.0

    @pytest.mark.parametrize("point", ["begin", "mid_exchange", "end"])
    def test_all_injection_points_recover(self, point):
        config, train_ds, labels, val_X, val_y = make_setup(epochs=3)
        result = run_elastic(
            config=config, workers=3, q=0.25, failures=f"2@1:{point}",
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        assert result.dead_ranks == (2,)
        assert len(result.history.records) == config.epochs
        assert result.history.stats["final_workers"] == 2

    def test_zero_sample_loss_across_survivors(self):
        config, train_ds, labels, val_X, val_y = make_setup()
        plan = FailurePlan.parse("1@2:mid_exchange")

        def worker(comm):
            strategy = PartialLocalShuffle(0.3, ledger=ReplicaLedger())
            history = elastic_train_worker(
                comm, config, strategy, train_ds, labels, val_X, val_y,
                failure_plan=plan,
            )
            return history, sorted(strategy.storage.hot_gids())

        out = run_spmd(worker, 4, copy_on_send=False, deadline_s=300)
        survivors = [r for r in out if not isinstance(r, RankDied)]
        assert len(survivors) == 3
        held = sorted(g for _, gids in survivors for g in gids)
        # Every training sample exactly once across survivors: zero loss.
        assert held == list(range(len(train_ds)))

    def test_accuracy_within_noise_of_clean_run(self):
        config, train_ds, labels, val_X, val_y = make_setup(
            samples=320, epochs=5
        )
        kwargs = dict(
            config=config, workers=4, q=0.3,
            train_dataset=train_ds, labels=labels, val_X=val_X, val_y=val_y,
        )
        failed = run_elastic(failures="1@2", **kwargs)
        clean = run_elastic(failures="", **kwargs)
        assert clean.dead_ranks == ()
        delta = abs(failed.final_accuracy - clean.final_accuracy)
        assert delta <= 0.2, (
            f"accuracy after failure diverged: {failed.final_accuracy:.3f} "
            f"vs clean {clean.final_accuracy:.3f}"
        )

    def test_non_elastic_strategy_rejected(self):
        config, train_ds, labels, val_X, val_y = make_setup(epochs=1)

        def worker(comm):
            with pytest.raises(TypeError, match="abort_epoch"):
                elastic_train_worker(
                    comm, config, LocalShuffle(), train_ds, labels,
                    val_X, val_y,
                )
            return True

        assert run_spmd(worker, 1)[0] is True


class TestElasticMatchesPlain:
    """Without failures the elastic trainer *is* the plain trainer: both run
    the trainer's one epoch core, so records and phase accounting agree."""

    WORKERS = 3

    def _run(self, trainer, tracing=False):
        config, train_ds, labels, val_X, val_y = make_setup(
            epochs=3, norm="batch"
        )

        def worker(comm):
            strategy = PartialLocalShuffle(0.3, ledger=ReplicaLedger())
            return trainer(
                comm, config, strategy, train_ds, labels, val_X, val_y,
            )

        return run_spmd(
            worker, self.WORKERS, copy_on_send=False, tracing=tracing,
            deadline_s=300,
        )

    @staticmethod
    def _records(history):
        return [
            (r.epoch, r.train_loss, r.val_accuracy, r.lr, r.samples_seen)
            for r in history.records
        ]

    def test_failure_free_elastic_run_equals_plain_run(self):
        plain = self._run(train_worker)
        elastic = self._run(elastic_train_worker)
        assert len(plain[0].records) == 3
        assert self._records(elastic[0]) == self._records(plain[0])
        assert elastic[0].stats["recoveries"] == []

    def test_phase_accounting_identical(self):
        """Each epoch's ge_wu span count (steps plus the BN-stat sync) and
        its count of collectives nested in ge_wu (the straggler waits)
        agree between the two trainers."""

        def per_epoch(tracer, events):
            epochs = [
                ev for ev in tracer.events
                if ev.cat == "train" and ev.name == "epoch"
            ]
            return [
                sum(1 for ev in events if ep.ts <= ev.ts <= ep.end)
                for ep in epochs
            ]

        def ge_wu_spans(tracer):
            return [
                ev for ev in tracer.events
                if ev.cat == "phase" and ev.name == "ge_wu"
            ]

        def colls_in_ge_wu(tracer):
            phases = ge_wu_spans(tracer)
            return [
                ev for ev in tracer.events
                if ev.cat == "comm.coll"
                and any(ph.ts <= ev.ts and ev.end <= ph.end for ph in phases)
            ]

        plain = self._run(train_worker, tracing=True)
        elastic = self._run(elastic_train_worker, tracing=True)
        for rank in range(self.WORKERS):
            p_tr, e_tr = plain.tracers[rank], elastic.tracers[rank]
            counts = per_epoch(p_tr, ge_wu_spans(p_tr))
            assert len(counts) == 3 and min(counts) > 1
            assert per_epoch(e_tr, ge_wu_spans(e_tr)) == counts
            colls = per_epoch(p_tr, colls_in_ge_wu(p_tr))
            assert min(colls) > 0
            assert per_epoch(e_tr, colls_in_ge_wu(e_tr)) == colls
