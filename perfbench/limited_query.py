"""Second driver for a query run under a time limit.

    python3 perfbench/limited_query.py <gcs_address> <query> <tables_dir> <out_dir> <warm_corpus>

Attaches to the benchmark's Ray session and warms up its own worker (a
driver is a new Ray job and gets a worker of its own) with the same small
read-and-extract execution as the benchmark's warm-up. It prints ``ready``,
then runs the query, writes its result to ``out_dir`` and prints the
query's seconds. The benchmark kills this process at the limit; Ray then
ends every task and actor the process started, so a hung query cannot hold
the session's CPUs.
"""

import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [HERE, os.path.dirname(HERE)]


def main(gcs: str, name: str, tables: str, out: str, warm: str) -> None:
    import ray

    ray.init(address=gcs, logging_level="ERROR", log_to_driver=False)
    import ray.data as rd
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    import __ray_entry__ as entry
    from entity_extractor_ray.stages.extract import extract_records
    from workloads import _consume

    rd.read_parquet(warm).map_batches(extract_records, batch_format="pyarrow").materialize()
    fn = entry.queries()[name]
    print("ready", flush=True)
    t0 = time.perf_counter()
    _consume(fn(tables), out)
    print(f"{time.perf_counter() - t0:.6f}", flush=True)


if __name__ == "__main__":
    main(*sys.argv[1:6])
