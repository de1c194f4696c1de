"""Run ``worldhook serve`` with spans recorded at each layer boundary.

Usage: python traced_serve.py --spans OUT.jsonl -- serve [serve flags...]

The spans are kept in memory and written to OUT.jsonl, one request per line,
once ``serve`` returns on SIGINT.
"""

from __future__ import annotations

import argparse
import sys

import spans


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True, help="where to write the span dump")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- worldhook arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    from worldhook import cli

    tracer = spans.Tracer()
    spans.install_gateway(tracer)
    code = cli.main(argv)
    tracer.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
