#!/usr/bin/env python3
"""Fails when inflog_cli's flags and docs/tuning.md's flag headings differ.

Runs the built inflog_cli with no arguments, reads every `[--flag...]`
entry of the usage line it prints, and compares that set with the flags
named in backticks in the `## ` headings of docs/tuning.md (e.g.
## `--threads=N`). A flag without a heading, or a heading naming a flag
the CLI does not take, is an error. The `--optimize=all|none|dce,...`
entry also lists the optimizer's pass tokens: each one must be named in
backticks in the body of the `--optimize` section.

Usage:  tools/check_cli_docs.py PATH/TO/inflog_cli [PATH/TO/tuning.md]
Exit:   0 when both sets match and every token is documented, 1 otherwise
        (each mismatch is printed).
"""

import re
import subprocess
import sys
from pathlib import Path


def section(lines, flag):
    """The lines of the `## ` section whose heading names `flag`."""
    out = None
    for line in lines:
        if line.startswith("## "):
            if out is not None:
                break
            if f"`{flag}" in line:
                out = []
        elif out is not None:
            out.append(line)
    return out or []


def main() -> int:
    cli = sys.argv[1]
    doc = Path(sys.argv[2] if len(sys.argv) > 2 else "docs/tuning.md")
    stderr = subprocess.run([cli], capture_output=True, text=True).stderr
    usage = [line for line in stderr.splitlines() if line.startswith("usage:")]
    if not usage:
        print(f"{cli} printed no usage line", file=sys.stderr)
        return 1
    flags = set(re.findall(r"\[(--[a-z0-9-]+)", usage[0]))
    lines = doc.read_text().splitlines()
    headings = [line for line in lines if line.startswith("## ")]
    documented = set(re.findall(r"`(--[a-z0-9-]+)", "\n".join(headings)))
    errors = [f"{f}: no heading in {doc}" for f in sorted(flags - documented)]
    errors += [f"{f}: documented in {doc} but not a flag of {cli}"
               for f in sorted(documented - flags)]
    tokens = re.search(r"\[--optimize=([a-z,|]+)\]", usage[0])
    if tokens is None:
        errors.append("usage line lists no --optimize tokens")
        tokens = []
    else:
        tokens = sorted(set(re.split(r"[,|]", tokens.group(1))))
    named = set(re.findall(r"`([a-z]+)`", "\n".join(section(lines,
                                                             "--optimize"))))
    errors += [f"--optimize token {t}: not named in the --optimize section "
               f"of {doc}" for t in tokens if t not in named]
    for e in errors:
        print(e, file=sys.stderr)
    if not errors:
        print(f"{len(flags)} CLI flag(s), each with a heading in {doc}, "
              f"and {len(tokens)} --optimize token(s), each documented")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
