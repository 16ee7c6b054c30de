"""README's command line and config reference agree with the parser."""

import argparse
import re
from pathlib import Path

from fewts.cli import build_parser
from fewts.config import CONFIG_KEYS

README = (Path(__file__).parent.parent / "README.md").read_text()


def _section(heading: str) -> str:
    start = README.index(heading)
    end = README.find("\n#", start + len(heading))
    return README[start:end if end >= 0 else None]


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return sub.choices


def test_command_line_block_names_every_subcommand():
    block = _section("## Command line").split("```sh\n", 1)[1].split("```", 1)[0]
    named = {line.split()[1] for line in block.splitlines() if line.startswith("fewts ")}
    assert named == set(_subparsers())


def test_flag_table_matches_each_subcommand():
    rows = re.findall(r"^\| `([\w-]+)` \| (.*) \|$", _section("## Command line"), re.M)
    documented = {cmd: set(re.findall(r"`(--[\w-]+)`", flags)) for cmd, flags in rows}
    declared = {
        cmd: {opt for action in p._actions for opt in action.option_strings} - {"-h", "--help"}
        for cmd, p in _subparsers().items()
    }
    assert documented == declared


def test_config_reference_names_every_config_key():
    reference = _section("### Config file reference")
    top = reference.split("Top level:", 1)[1].split("\n\n", 2)[1]
    keys = set(re.findall(r"^\| `(\w+)` \|", top, re.M))
    sections = set(re.findall(r"^`(\w+)` section", reference, re.M))
    assert sections == {"arch", "meta", "finetune", "dtw"}
    assert keys | sections == CONFIG_KEYS
