"""Repository benchmark: host wall-clock of paper-figure sweeps.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` is the one command; see ``perfbench/README.md``.
"""
