"""Child process of the benchmark: do one piece of work, with the yardstick
timed in this same process before and after it, and print the yardstick
samples to stderr.

    python perfbench/child.py cli <retinasim arguments>    # like `retinasim ...`
    python perfbench/child.py prepare <JSON list of RunConfig dicts>

The exit code is the CLI's (0 for ``prepare``).  The last stderr line is a
JSON list of yardstick seconds; the parent subtracts their sum from the
call's wall time and uses them to scale it.
"""

import json
import sys

YARDSTICK_SAMPLES = 2  # before the work, and again after it


def main() -> int:
    from yardstick import Yardstick  # imports NumPy, which retinasim needs too

    yardstick = Yardstick()
    samples = [yardstick() for _ in range(YARDSTICK_SAMPLES)]
    mode, args = sys.argv[1], sys.argv[2:]
    if mode == "cli":
        from retinasim.cli import main as retinasim_main

        code = retinasim_main(args)
    else:
        from retinasim import RunConfig, prepare

        for doc in json.loads(args[0]):
            prepare(RunConfig.from_dict(doc))
        code = 0
    samples += [yardstick() for _ in range(YARDSTICK_SAMPLES)]
    sys.stdout.flush()
    print(json.dumps(samples), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
