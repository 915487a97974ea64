"""The repository benchmark: three workloads, one correctness gate.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>``; ``perfbench/README.md`` explains the workloads and
metrics.
"""
