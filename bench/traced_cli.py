"""Run one `adaffect` command with layer spans recorded (traced runs only).

    python bench/traced_cli.py SPANS.json <adaffect arguments...>

Installs the layer hooks from spans.py on the imported CLI modules, runs
`adaffect.cli.main`, and writes the spans to SPANS.json on exit. Needs the
program's `src/` on PYTHONPATH.
"""

import sys

import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    from adaffect import cli

    tracer = spans.Tracer()
    spans.install_layer_hooks(tracer)
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse exits for --version and usage errors
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        tracer.dump(out_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
