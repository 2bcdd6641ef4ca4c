"""Run the bernmix CLI with the span tracer installed.

    python3 perfbench/traced_cli.py TRACE.npz <bernmix cli arguments...>

Same exit code as ``python -m bernmix.cli``; the spans of the command
are written to TRACE.npz when it returns.
"""

import sys

import bernmix.cli
from spans import Tracer


def main():
    path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    try:
        code = bernmix.cli.main(argv)
    finally:
        tracer.uninstall()
        tracer.save(path)
    return code


if __name__ == "__main__":
    sys.exit(main())
