"""One traced `refflow run`: wrap the layers, run the CLI, write the spans.

    python3 perfbench/traced_child.py SPANS.json run CONFIG.json [refflow run options]

refflow must be importable (the benchmark puts the checkout's `src` on
PYTHONPATH). Exits with the CLI's own exit code.
"""

import sys

import spans


def main(argv):
    out_path, cli_args = argv[0], argv[1:]
    tracer = spans.Tracer()
    modules = spans.install(tracer)
    try:
        return modules["cli"].main(cli_args)
    finally:
        tracer.dump(out_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
