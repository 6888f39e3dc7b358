"""Executed bytecodes per simulated cycle on the benchmark's point workloads.

Bytecodes count work, not time, and repeat exactly for one interpreter
and hash seed, so two trees' counts compare on any host, however noisy
its clock.  The count covers opcode events inside ``sim.run`` only, on
each workload's ``--smoke`` window at seed 1, input 0.

Usage::

    PYTHONHASHSEED=0 python3 .github/count_bytecodes.py TREE [WORKLOAD ...]

``TREE`` is a checkout of this repository (its ``src`` and ``bench`` are
imported); the workloads default to the four single-point ones.  Compare
counts taken on one interpreter only.  Prints one line per workload:
name, total opcodes, opcodes per simulated cycle.
"""

import os
import sys

POINT_WORKLOADS = ("server-wb", "server-rca", "read-gcc", "burst-skip")


def main(argv):
    if not argv:
        sys.exit(__doc__)
    tree = argv[0]
    sys.path[:0] = [os.path.join(tree, "src"), os.path.join(tree, "bench")]
    import specs

    count = 0

    def on_opcode(frame, event, arg):
        nonlocal count
        if event == "opcode":
            count += 1
        return on_opcode

    def on_call(frame, event, arg):
        frame.f_trace_opcodes = True
        return on_opcode

    for name in argv[1:] or POINT_WORKLOADS:
        point = specs.workload(name, smoke=True)
        sim, _ = specs.setup(point, 1)
        count = 0
        sys.settrace(on_call)
        specs.run(sim, point)
        sys.settrace(None)
        print(f"{name} {count} {count / point.total_cycles:.1f} per cycle")


if __name__ == "__main__":
    main(sys.argv[1:])
