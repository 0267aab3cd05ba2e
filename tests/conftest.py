import pytest


@pytest.fixture(scope="session")
def ray_session():
    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=4,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    from reconcile_pkp_beacon_journals_w_openalex_affiliation_metadata_ray.context import tune_data_context
    tune_data_context(ctx)
    yield ray
    ray.shutdown()


@pytest.fixture()
def executions(monkeypatch):
    """Counts Ray Data executions: every plan the streaming executor
    starts in this process appends its output operator to the returned
    list. Clear the list between the phases a test measures."""
    from ray.data._internal.execution.streaming_executor import StreamingExecutor

    started = []
    execute = StreamingExecutor.execute

    def counting_execute(self, dag, *args, **kwargs):
        started.append(dag.name)
        return execute(self, dag, *args, **kwargs)

    monkeypatch.setattr(StreamingExecutor, "execute", counting_execute)
    return started
