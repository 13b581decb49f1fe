"""The command-line surface: every option of every subcommand, unchanged.

``cli_surface.json`` records, for the top-level parser and each parser on
the way to a subcommand leaf, each option's strings, dest, default, type,
whether it is required, its choices and help, the subcommands with their
help, the mutually exclusive groups, and the parser's own defaults (without
the dispatch entries ``func``, ``command`` and ``csv``).  A refactor of
``cli.py`` that changes any of it fails here.  To re-record after a
deliberate change to the options (and say so in CHANGES.md):

    PYTHONPATH=src python tests/test_cli_surface.py
"""

import argparse
import json
import os

from beadiag import cli

from test_lazy_imports import _leaves

FIXTURE = os.path.join(os.path.dirname(__file__), "cli_surface.json")

_DISPATCH = {"func", "command", "csv"}


def _option(action):
    out = {
        "action": type(action).__name__,
        "option_strings": action.option_strings,
        "dest": action.dest,
        "default": action.default,
        "type": None if action.type is None else action.type.__name__,
        "required": action.required,
        "choices": None if action.choices is None else list(action.choices),
        "help": action.help,
        "nargs": action.nargs,
        "const": action.const,
        "metavar": action.metavar,
    }
    if isinstance(action, argparse._SubParsersAction):
        out["commands"] = [[a.dest, a.help] for a in action._choices_actions]
    return out


def _parser(parser):
    return {
        "prog": parser.prog,
        "description": parser.description,
        "defaults": {k: v for k, v in sorted(parser._defaults.items()) if k not in _DISPATCH},
        "options": [_option(a) for a in parser._actions],
        "exclusive": [{"required": g.required,
                       "options": [a.option_strings for a in g._group_actions]}
                      for g in parser._mutually_exclusive_groups],
    }


def _child(parser, name):
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return sub.choices[name]


def surface():
    """{path: parser record} for the root and every parser on the way to a leaf."""
    if "BEADIAG_CACHE_DIR" in os.environ:
        raise RuntimeError("unset BEADIAG_CACHE_DIR: it sets the --cache-dir default")
    root = cli.build_parser()
    out = {"": _parser(root)}
    for leaf in _leaves(root):
        parser = root
        for depth, name in enumerate(leaf, 1):
            parser = _child(parser, name)
            out[" ".join(leaf[:depth])] = _parser(parser)
    return out


def test_every_option_of_every_subcommand_is_unchanged(monkeypatch):
    monkeypatch.delenv("BEADIAG_CACHE_DIR", raising=False)
    with open(FIXTURE) as fh:
        recorded = json.load(fh)
    assert json.loads(json.dumps(surface())) == recorded


def record():
    with open(FIXTURE, "w") as fh:
        json.dump(surface(), fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    record()
