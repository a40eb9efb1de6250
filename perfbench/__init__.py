"""End-to-end host-time benchmark of the repro, split by layer.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload and prints one JSON result line; see
``perfbench/README.md`` for the workloads, the metrics and how to read
a traced run.
"""
