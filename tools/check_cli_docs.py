#!/usr/bin/env python3
"""Fails when inflog_cli's flags and docs/tuning.md's flag headings differ.

Runs the built inflog_cli with no arguments, reads every `[--flag...]`
entry of the usage line it prints, and compares that set with the flags
named in backticks in the `## ` headings of docs/tuning.md (e.g.
## `--threads=N`). A flag without a heading, or a heading naming a flag
the CLI does not take, is an error.

Usage:  tools/check_cli_docs.py PATH/TO/inflog_cli [PATH/TO/tuning.md]
Exit:   0 when both sets match, 1 otherwise (each mismatch is printed).
"""

import re
import subprocess
import sys
from pathlib import Path


def main() -> int:
    cli = sys.argv[1]
    doc = Path(sys.argv[2] if len(sys.argv) > 2 else "docs/tuning.md")
    stderr = subprocess.run([cli], capture_output=True, text=True).stderr
    usage = [line for line in stderr.splitlines() if line.startswith("usage:")]
    if not usage:
        print(f"{cli} printed no usage line", file=sys.stderr)
        return 1
    flags = set(re.findall(r"\[(--[a-z0-9-]+)", usage[0]))
    headings = [line for line in doc.read_text().splitlines()
                if line.startswith("## ")]
    documented = set(re.findall(r"`(--[a-z0-9-]+)", "\n".join(headings)))
    errors = [f"{f}: no heading in {doc}" for f in sorted(flags - documented)]
    errors += [f"{f}: documented in {doc} but not a flag of {cli}"
               for f in sorted(documented - flags)]
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"{len(flags)} CLI flag(s), each with a heading in {doc}")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
