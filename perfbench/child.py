"""One fresh process of the benchmark: a CLI command run, or a set-up probe.

    python3 perfbench/child.py run [--trace SPANS.json] -- <fednam CLI args>
    python3 perfbench/child.py setup --config CONFIG [--model MODEL]

`run` calls `fednam.cli.main`; with `--trace` it wraps fednam's layers first
and writes their spans when the command returns. `setup` does only the work
a command does before its main work: import, config resolution, dataset load
and, for explain, model load.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

START = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def run(argv: list[str], trace: str | None) -> int:
    import fednam.cli

    import_s = time.perf_counter() - START
    if trace is None:
        return fednam.cli.main(argv)
    import tracing

    missing = tracing.install()
    try:
        return fednam.cli.main(argv)
    finally:
        tracing.write(trace, import_s, missing)


def setup(config_path: str, model_path: str | None) -> int:
    import fednam.cli

    config = fednam.cli.load_config(config_path)
    fednam.cli._load_run_dataset(config)  # the loader the commands themselves call
    if model_path is not None:
        fednam.cli.load_model(model_path)
    return 0


def main() -> int:
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--trace")
    p_run.add_argument("cli_args", nargs=argparse.REMAINDER)
    p_setup = sub.add_parser("setup")
    p_setup.add_argument("--config", required=True)
    p_setup.add_argument("--model")
    args = parser.parse_args()
    if args.mode == "run":
        cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] else args.cli_args
        return run(cli_args, args.trace)
    return setup(args.config, args.model)


if __name__ == "__main__":
    sys.exit(main())
