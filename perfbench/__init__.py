"""CC-Fuzz benchmark: three named workloads with end-to-end and per-layer metrics.

Run it from the repository root with ``python3 perfbench/run.py --workload
<name> --seed <n> --seconds <s> --trace <0|1>``; ``perfbench/README.md``
explains the workloads, the metrics and how they relate.
"""
