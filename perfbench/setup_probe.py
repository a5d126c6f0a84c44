"""Build everything a cfmimo run needs before block 0, then report when done.

    python3 perfbench/setup_probe.py CONFIG

Makes the public calls ``run_experiment`` makes before its first block:
``import cfmimo``, config parse, topology, mobility trace, path-loss
provider and pilots. Prints one JSON line holding the CLOCK_MONOTONIC time
at which block 0 could start (the parent reads the same clock, so it can
time from process start) and the time of each step.
"""

import json
import sys
import time


def main(path: str) -> None:
    t = [time.clock_gettime(time.CLOCK_MONOTONIC)]
    steps = {}

    def lap(step):
        t.append(time.clock_gettime(time.CLOCK_MONOTONIC))
        steps[step] = t[-1] - t[-2]

    from cfmimo import harness

    import scenario

    lap("import_s")
    cfg = harness.load_config(path)
    lap("config_s")
    scenario.build(cfg, lap)
    print(json.dumps({"ready": t[-1], **steps}))


if __name__ == "__main__":
    main(sys.argv[1])
