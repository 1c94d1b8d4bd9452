"""Run one command and bound its peak memory.

    python tests/peak_rss.py MAX_MB -- COMMAND [ARG ...]

runs COMMAND, waits for it by `os.wait4`, which gives the command's own
peak resident set size (`ru_maxrss`, in kB on Linux), and prints `peak X
MB: COMMAND` to stderr.  It exits with the command's exit code when that is
not 0, and with 1 when the peak is above MAX_MB.
"""

import argparse
import os
import subprocess
import sys


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("max_mb", type=float, help="the largest peak allowed, in MB")
    parser.add_argument("command", nargs="+", help="the command to run, after --")
    args = parser.parse_args(argv)
    child = subprocess.Popen(args.command)
    _, status, usage = os.wait4(child.pid, 0)
    code = child.returncode = os.waitstatus_to_exitcode(status)
    name = " ".join(args.command)
    if code:
        print(f"exited {code}: {name}", file=sys.stderr)
        return code
    peak_mb = usage.ru_maxrss / 1024
    print(f"peak {peak_mb:.1f} MB: {name}", file=sys.stderr)
    if peak_mb > args.max_mb:
        print(f"peak above {args.max_mb:g} MB: {name}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
