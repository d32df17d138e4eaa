#!/usr/bin/env python3
"""Compare two TIMELINE_<spec>.json documents series by series.

    python3 bench/baselines/timeline_diff.py OLD NEW [--drop REGEX ...]

Prints the series only in OLD, the series only in NEW, the series whose
kind or points differ, and any other top-level field that differs. Series
whose name fully matches a --drop regex are removed from both documents
first (repeat --drop, or use one alternation). Exits 0 only when the two
documents are JSON-equal after the drop, 1 when they differ, 2 on bad
input.
"""

import argparse
import json
import re
import sys


def load(path):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        print(f"timeline_diff: {path}: {e}", file=sys.stderr)
        sys.exit(2)
    if not isinstance(doc, dict) or not isinstance(doc.get("series"), list):
        print(f"timeline_diff: {path}: no \"series\" list", file=sys.stderr)
        sys.exit(2)
    return doc


def split(doc, drops):
    """(series by name, the other top-level fields, names dropped)."""
    series, dropped = {}, []
    for s in doc["series"]:
        if any(d.fullmatch(s["name"]) for d in drops):
            dropped.append(s["name"])
        else:
            series[s["name"]] = s
    rest = {k: v for k, v in doc.items() if k != "series"}
    return series, rest, dropped


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("old")
    ap.add_argument("new")
    ap.add_argument("--drop", action="append", default=[], metavar="REGEX",
                    help="drop series whose name fully matches REGEX")
    args = ap.parse_args()
    drops = [re.compile(d) for d in args.drop]

    old, old_rest, old_dropped = split(load(args.old), drops)
    new, new_rest, new_dropped = split(load(args.new), drops)

    print(f"{len(old)} series in OLD, {len(new)} in NEW after the drop")
    for label, names in (("dropped from OLD", old_dropped),
                         ("dropped from NEW", new_dropped)):
        if names:
            print(f"{label}: {', '.join(names)}")

    only_old = sorted(old.keys() - new.keys())
    only_new = sorted(new.keys() - old.keys())
    changed = sorted(n for n in old.keys() & new.keys() if old[n] != new[n])
    fields = sorted(k for k in old_rest.keys() | new_rest.keys()
                    if old_rest.get(k) != new_rest.get(k))
    # Series order is part of the document; equal sets in a different order
    # still differ.
    order_differs = not (only_old or only_new) and list(old) != list(new)

    for label, names in (("only in OLD", only_old), ("only in NEW", only_new),
                         ("points differ", changed),
                         ("other fields differ", fields)):
        for n in names:
            print(f"{label}: {n}")
    if order_differs:
        print("series order differs")

    same = not (only_old or only_new or changed or fields or order_differs)
    print("JSON-equal after the drop" if same else "DIFFERENT")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
