"""Records→verdict benchmark: four workloads from emulation to verdict.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds
<s> --trace <0|1>`` from the repository root; see ``README.md`` in
this directory for what each workload stresses and bypasses.
"""
