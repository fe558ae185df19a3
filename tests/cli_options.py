"""The options of each `aqplearn` subcommand, read from the CLI's parser.

Run as a script, it prints the number of subcommands, each one's option
count and the total:

    PYTHONPATH=src python tests/cli_options.py
"""

import argparse

from aqplearn import cli


def subcommand_options() -> dict[str, list[str]]:
    """Each subcommand's --options besides --help, in the order it declares them."""
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [opt for a in p._actions if not isinstance(a, argparse._HelpAction)
                   for opt in a.option_strings]
            for name, p in sub.choices.items()}


if __name__ == "__main__":
    counts = {name: len(opts) for name, opts in subcommand_options().items()}
    print(f"CLI: {len(counts)} subcommands; options "
          + ", ".join(f"{name} {n}" for name, n in counts.items())
          + f"; total {sum(counts.values())}")
