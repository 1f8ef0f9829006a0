"""Run the radialift CLI with the benchmark's layer wrappers installed.

    python3 bench/launch.py SPANS_OUT radialift-arguments...

Used by the traced cold-start run in place of `python -m radialift`; the
spans of the process are written to SPANS_OUT as it exits.
"""

import sys

import tracing


def main():
    spans_out, argv = sys.argv[1], sys.argv[2:]
    import radialift.cli
    tracer = tracing.Tracer()
    tracer.install()
    try:
        return radialift.cli.main(argv)
    finally:
        tracer.dump(spans_out)


if __name__ == "__main__":
    sys.exit(main())
