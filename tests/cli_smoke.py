"""One pass through every command of ``shopstruct.cli`` on synth n=300 seed 0.

Run as a script, it calls ``shopstruct.cli.main`` on each argv of
``commands(out)`` in turn, writing into the directory ``out``, and fails on
the first that does not exit 0::

    python -I -S -X dev -W error tests/cli_smoke.py OUT

Under ``-S`` no site-packages are on the path, and the script then fails
if any module outside the standard library was imported.  Under
``-W error`` a warning raised in a call fails the run; one raised while an
object is collected is only printed, so the caller reads stderr too.
``test_smokes.py`` runs the script so, and fails on a warning on stderr; it
also runs the same list in process and checks that it names every
subcommand of the parser.
"""

from __future__ import annotations

import os
import sys


def commands(out: str) -> list[list[str]]:
    """Each argv of the pass, in order, writing into the directory ``out``."""
    rules, brands, non_brands = f"{out}/rules.jsonl", f"{out}/brands.txt", f"{out}/non_brands.txt"
    catalogue = ["--rules", rules, "--brands", brands, "--non-brands", non_brands]
    return [
        ["synth", "--n", "300", "--seed", "0", "--rules-out", rules,
         "--brands-out", brands, "--non-brands-out", non_brands],
        ["build", *catalogue, "--out", f"{out}/account.json"],
        ["verify", "--account", f"{out}/account.json", "--rules", rules],
        ["simulate", "--account", f"{out}/account.json", "--query", "bu be ci", "--json"],
        ["update", "add-rule", "--account", f"{out}/account.json", "--keyword", "bo ka bobe",
         "--cpc-micros", "120000", "--items", "item-new", "--out", f"{out}/grown.json"],
        ["update", "rm-rule", "--account", f"{out}/grown.json", "--keyword", "bo ka bobe",
         "--out", f"{out}/trimmed.json"],
        ["update", "rm-item", "--account", f"{out}/grown.json", "--item", "item-0167",
         "--rules", rules, "--out", f"{out}/retired.json"],
        ["reduce-stats", *catalogue, "--json"],
        ["bounds", "--sites"],
    ]


if __name__ == "__main__":
    # -I leaves the script's own directory off the path, so find src from here.
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))
    from shopstruct.cli import main

    for argv in commands(sys.argv[1]):
        assert main(argv) == 0, argv
    if sys.flags.no_site:
        outside = {m.partition(".")[0] for m in sys.modules} - set(sys.stdlib_module_names)
        assert outside <= {"__main__", "shopstruct"}, sorted(outside)
