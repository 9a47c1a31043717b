"""Set-up time of one workload, measured in a fresh interpreter.

Takes the CPU time of ``import sgfact`` plus one build of each of the
workload's semigroups through the public constructors (``affine_semigroup``,
``tame.block_monoid``), and prints it scaled to the nominal speed of
``speed.py`` by timing the reference kernel right after.  ``speed`` imports
numpy, so it is imported only once the clock has stopped.  Run by ``run.py``
several times per benchmark run.
"""

import sys
import time

import workloads


def main() -> int:
    workload = sys.argv[1]
    gens = workloads.setup_semigroups(workload)
    start = time.thread_time()
    import sgfact
    from sgfact import tame

    for text in gens:
        sgfact.affine_semigroup(workloads.parse_generators(text))
    if workload == "full-tame":
        for moduli in workloads.BLOCK_GROUPS.values():
            tame.block_monoid(moduli)
    cpu = time.thread_time() - start
    import speed

    print(speed.scale(cpu))
    return 0


if __name__ == "__main__":
    sys.exit(main())
