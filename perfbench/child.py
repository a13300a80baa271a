"""One experiment in a fresh interpreter: the benchmark's child process.

    python3 child.py --src SRC --config CFG --out OUT --result RESULT
                     [--setup-only] [--trace]

Set-up is interpreter start, `import mourre_lab` and `cli.load_config`;
the child stamps CLOCK_MONOTONIC when it is ready, so the parent can
subtract its own stamp taken just before the spawn.  The wall time is
`cli.run`, from config loaded to reports written.  The result file also
holds the BLAS thread count read back from the library itself and, with
--trace, the layer spans.
"""

import argparse
import json
import sys
import time


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, args.src)
    import mourre_lab
    from mourre_lab import cli

    config = cli.load_config(args.config, out_dir=args.out)
    t_ready = time.monotonic()

    import blas

    result = {"t_ready": t_ready, "package": mourre_lab.__file__, **blas.info()}
    if not args.setup_only:
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        result["exit"] = cli.run(config)
        result["wall_s"] = time.perf_counter() - t0
        if tracer is not None:
            result["spans"] = tracer.spans
    with open(args.result, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
