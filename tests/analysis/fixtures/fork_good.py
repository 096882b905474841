"""DPL008 clean fixture: only plain data and seed material cross the boundary."""

from concurrent.futures import ProcessPoolExecutor

from repro.core.engine.pool import WorkerPool


class PathSourceSpec:
    path: str
    locations: tuple
    window: int


def ship_spec(path, locations, window):
    return PathSourceSpec(path, locations=locations, window=window)


def submit_job(pool, spec, jobs, seeds):
    # Pre-derived SeedSequence material is the sanctioned payload.
    return pool.submit(run_chunk, spec, jobs, seeds)


def make_pool(spec, fault_marker):
    return ProcessPoolExecutor(max_workers=2, initargs=(spec, fault_marker))


def run_on_pool(spec, jobs, fault_marker):
    with WorkerPool(2, setup=open_worker, setup_args=(spec,), fault_marker=fault_marker) as pool:
        return list(pool.as_completed(run_chunk, [(spec, job, None) for job in jobs]))


def open_worker(spec):
    return spec


def run_chunk(spec, jobs, seeds):
    return jobs
