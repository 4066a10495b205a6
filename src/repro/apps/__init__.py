"""Production-system integrations (§9): page server and FASTER KV.

The page server replays a rate-driven log stream and answers
GetPage@LSN; the §9.1 compute and log servers are not modelled (the
clients' GetPage@LSN requests stand in for compute-server misses).
YCSB keys are uniform, as in §9.2's read benchmark.

Plus two §10/§11 page-serving experiments that extend them, imported
by module: :mod:`~repro.apps.dpu_cache`, :mod:`~repro.apps.
compressed_storage`.
"""

from .faster import RECORD, FasterKv
from .kv_service import (
    KvCluster,
    build_kv_cluster,
    kv_offload_callbacks,
    run_kv_experiment,
)
from .pageserver import (
    PAGE_BYTES,
    PAGE_HEADER,
    PageServerCluster,
    build_pageserver_cluster,
    make_page,
    pageserver_callbacks,
    parse_page_header,
    run_pageserver_experiment,
)
from .ycsb import WORKLOAD_MIXES, YcsbWorkload

__all__ = [
    "FasterKv",
    "KvCluster",
    "PAGE_BYTES",
    "PAGE_HEADER",
    "PageServerCluster",
    "RECORD",
    "WORKLOAD_MIXES",
    "YcsbWorkload",
    "build_kv_cluster",
    "build_pageserver_cluster",
    "kv_offload_callbacks",
    "make_page",
    "pageserver_callbacks",
    "parse_page_header",
    "run_kv_experiment",
    "run_pageserver_experiment",
]
