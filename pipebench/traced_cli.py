"""Traced child: ``python -m pipebench.traced_cli --stage S --out F -- ARGS``.

Installs the tracing wrappers, runs ``hyperkkl.cli.main(ARGS)`` exactly as
the untraced child would, then writes the stage's spans and counts to F
and exits with the CLI's exit code.
"""

from __future__ import annotations

import argparse
import sys

from pipebench.trace import Tracer


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "--" not in argv:
        raise SystemExit("usage: traced_cli --stage S --out FILE -- CLI_ARGS")
    split = argv.index("--")
    parser = argparse.ArgumentParser(prog="pipebench.traced_cli")
    parser.add_argument("--stage", required=True)
    parser.add_argument("--out", required=True)
    opts = parser.parse_args(argv[:split])

    tracer = Tracer(opts.stage)
    tracer.install()
    try:
        return sys.modules["hyperkkl.cli"].main(argv[split + 1:])
    finally:
        tracer.remove()
        tracer.dump(opts.out)


if __name__ == "__main__":
    sys.exit(main())
