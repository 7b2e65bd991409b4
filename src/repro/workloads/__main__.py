"""Command-line access to the workload kernels.

Usage::

    python -m repro.workloads list
    python -m repro.workloads run compress [--scale 2] [--limit 100000]
    python -m repro.workloads disasm go
"""

from __future__ import annotations

import argparse
import sys

from ..experiments.__main__ import _positive
from ..isa import Interpreter, disassemble
from . import WORKLOADS, get_workload


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workloads",
        description="List, run, or disassemble the SPEC95-like kernels.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list", help="list every registered kernel")
    run = sub.add_parser("run", help="execute a kernel functionally")
    run.add_argument("name")
    run.add_argument("--scale", type=_positive(int), default=1)
    run.add_argument("--limit", type=_positive(int), default=None)
    dis = sub.add_parser("disasm", help="print a kernel's assembly")
    dis.add_argument("name")
    dis.add_argument("--scale", type=_positive(int), default=1)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        width = max(len(name) for name in WORKLOADS)
        for name, workload in WORKLOADS.items():
            print(f"{name.ljust(width)}  [{workload.category}]  "
                  f"{workload.description}")
        return 0
    workload = get_workload(args.name)
    program = workload.build(args.scale)
    if args.command == "disasm":
        print(disassemble(program), end="")
        return 0
    interp = Interpreter(program)
    result = interp.run(limit=args.limit)
    print(f"{args.name} (scale {args.scale}): "
          f"{result.instructions:,} instructions, "
          f"{result.loads:,} loads, {result.stores:,} stores, "
          f"halted={result.halted}")
    print(f"text {program.text_bytes:,}B, "
          f"global {program.global_bytes:,}B, "
          f"heap {program.heap_bytes:,}B")
    return 0


if __name__ == "__main__":
    sys.exit(main())
