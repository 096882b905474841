"""DPL008 flagged fixture: fork/pickle-hostile objects cross the boundary."""

from concurrent.futures import ProcessPoolExecutor

from repro.core.engine.pool import WorkerPool


class LeakySourceSpec:
    path: str
    shard_rng: object  # a live RNG declared as a spec field


def ship_spec(path, rng, log_file):
    # A live generator and an open file captured into the spec payload.
    return LeakySourceSpec(path, rng=rng, sink=log_file)


def submit_job(pool, job, state_lock):
    # A lock rides along in the worker submission.
    return pool.submit(run_job, job, state_lock)


def make_pool(shared_mmap):
    # An mmap handle shipped through the pool initializer.
    return ProcessPoolExecutor(max_workers=2, initargs=(shared_mmap,))


def worker_pool_with_mmap(corpus_mmap):
    # An mmap handle shipped to every worker through the pool's setup.
    return WorkerPool(2, setup=open_worker, setup_args=(corpus_mmap,))


def run_on_pool(pool, jobs, job_file):
    # An open file riding along in the jobs handed to the pool.
    return pool.as_completed(run_job, [(job, job_file) for job in jobs])


def open_worker(mapped):
    return mapped


def run_job(job, lock):
    return job
