"""One benchmark child process: run a `diracsoliton` CLI command.

    python3 child.py --stamp FILE [--trace FILE [--alloc]] [--setup-only] -- CLI ARGS

Writes time.monotonic() to the stamp file once the interpreter has
started, numpy, scipy and the package are imported and the config is
loaded; that clock is shared by all processes on the host, so the parent
subtracts its own launch time.  With --trace the layer wrappers (and,
with --alloc, tracemalloc) are installed after the stamp and the spans
are written to the trace file when the CLI returns.
"""

import sys
import time

import diracsoliton.cli as cli


def main() -> int:
    argv = sys.argv[1:]
    split = argv.index("--")
    own, cli_args = argv[:split], argv[split + 1:]
    stamp = own[own.index("--stamp") + 1]
    trace_file = own[own.index("--trace") + 1] if "--trace" in own else None

    cli.load_config(cli_args[cli_args.index("--config") + 1])
    setup_done = time.monotonic()
    with open(stamp, "w") as f:
        f.write(repr(setup_done))
    if "--setup-only" in own:
        return 0
    if trace_file is None:
        return cli.main(cli_args)

    import tracemalloc
    from pathlib import Path

    import spans

    tracer = spans.Tracer(alloc="--alloc" in own)
    spans.install(tracer)
    if tracer.alloc:
        tracemalloc.start()
    try:
        return cli.main(cli_args)
    finally:
        tracemalloc.stop()
        tracer.dump(Path(trace_file))


if __name__ == "__main__":
    sys.exit(main())
