"""Run one robustmech CLI command in a fresh interpreter, as a user would.

    python3 bench/cli_launcher.py --meta META.json [--spans SPANS.csv.gz] -- <cli args>
    python3 bench/cli_launcher.py --import-only

The report goes to standard output exactly as ``robustmech`` prints it.  The
launcher times the cold ``import robustmech.cli``, installs the span wrappers
when ``--spans`` is given, calls ``robustmech.cli.main(argv)`` and writes its
own measurements (import time, peak RSS, cache statistics) to META.json.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter


def main(argv: list[str]) -> int:
    t0 = perf_counter()
    import robustmech.cli

    import_s = perf_counter() - t0
    if argv == ["--import-only"]:
        print(json.dumps({"setup_s": import_s}))
        return 0
    split = argv.index("--")
    opts = dict(zip(argv[:split:2], argv[1:split:2]))
    cli_args = argv[split + 1:]

    tracer = None
    if "--spans" in opts:
        import spans

        tracer = spans.Tracer()
        tracer.install()
        span = tracer.open("cli.run")
    try:
        code = robustmech.cli.main(cli_args)
    finally:
        if tracer is not None:
            tracer.close(span)
            tracer.uninstall()
    sys.stdout.flush()

    from robustmech.distributions import max_posted_revenue

    cache = max_posted_revenue.cache_info()
    meta = {
        "code": code,
        "import_s": import_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "cache_hits": cache.hits,
        "cache_misses": cache.misses,
    }
    if tracer is not None:
        tracer.dump(opts["--spans"])
    with open(opts["--meta"], "w") as fh:
        json.dump(meta, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
