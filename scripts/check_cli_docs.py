#!/usr/bin/env python3
"""Cross-checks the CLI <-> docs contract: every flag the `whoiscrf`
binary's per-command --help tables emit must be mentioned (as `--flag`)
somewhere in README.md or docs/*.md — a flag nobody documented is a flag
nobody will find. Run from anywhere:

    python3 scripts/check_cli_docs.py [repo_root]            # source mode
    python3 scripts/check_cli_docs.py --binary PATH [root]   # binary mode

Source mode parses src/cli/help.cc (the single source of truth the binary
prints), so the lint CI job can run it without building. Binary mode runs
`PATH <command> --help` for every command and parses the live output; it
is wired into CTest as `cli_docs_check`, so the two modes cross-check each
other: help.cc drift fails lint, and a flag added to the binary without a
help entry never reaches either mode — which is exactly why RunCommand
routes --help through CommandHelp() rather than a second table.

The check is one-directional on purpose: docs may mention flags in prose
that discuss removed or hypothetical options, but every *real* flag must
be documented.

Both modes also check the code against help.cc: every flag a
src/cli/cmd_*.cc file reads must be listed in the help table of the
command it implements (or among the global flags). The binary rejects any
flag that is not in the command's table before it runs the command, so a
flag read but not listed could never be passed.
"""
import pathlib
import re
import subprocess
import sys

# A flag line in a help table: two spaces, the flag, optional metavar.
HELP_FLAG = re.compile(r"^\s{2}(--[A-Za-z0-9-]+)", re.MULTILINE)
# Commands registered in help.cc:  add("gen", kGenHelp);
# (names may be hyphenated, e.g. "shard-router")
HELP_ADD = re.compile(r'add\("([a-z][a-z-]*)",\s*(k\w+Help)\)')
# A raw-string help table:  constexpr const char* kGenHelp = R"HELP(...)HELP";
HELP_TABLE = re.compile(r'(k\w+)\s*=\s*R"HELP\((.*?)\)HELP"', re.DOTALL)
# run.cc's dispatch:  if (command == "gen") return CmdGen(flags);
DISPATCH = re.compile(r'command == "([a-z][a-z-]*)"\) return (Cmd\w+)\(')
CMD_DEF = re.compile(r"^int (Cmd\w+)\(util::FlagParser& flags\)", re.MULTILINE)
# Calls that read a flag by literal name in a cmd_*.cc file. Besides the
# FlagParser accessors this lists cmd_scale_run.cc's smoke_default helper,
# which forwards its name to them.
FLAG_READ = re.compile(
    r'\b(?:GetString|GetInt|GetDouble|GetBool|Has|smoke_default)'
    r'\(\s*"([a-z][a-z0-9-]*)"'
)


def flags_from_source(root: pathlib.Path) -> dict:
    source = (root / "src" / "cli" / "help.cc").read_text()
    commands = [command for command, _ in HELP_ADD.findall(source)]
    if not commands:
        raise RuntimeError("no add(\"<cmd>\", k...Help) lines in help.cc")
    # Source mode cannot easily split per command, and does not need to:
    # the contract is flag -> documented, so attribute every flag found in
    # any help table (including kGlobalFlags) to the file as a whole.
    return {"help.cc": sorted(set(HELP_FLAG.findall(source)))}


def flags_from_binary(binary: str, root: pathlib.Path) -> dict:
    source = (root / "src" / "cli" / "help.cc").read_text()
    commands = [command for command, _ in HELP_ADD.findall(source)]
    out: dict = {}
    for command in commands:
        proc = subprocess.run(
            [binary, command, "--help"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        if proc.returncode != 0:
            raise RuntimeError(
                f"`{binary} {command} --help` exited {proc.returncode}: "
                f"{proc.stderr.strip()}"
            )
        flags = sorted(set(HELP_FLAG.findall(proc.stdout)))
        if not flags:
            raise RuntimeError(
                f"`{binary} {command} --help` printed no flag table"
            )
        out[command] = flags
    return out


def unlisted_consumed_flags(root: pathlib.Path) -> list:
    """(file, flag) pairs a cmd_*.cc reads but its help table omits."""
    cli = root / "src" / "cli"
    help_src = (cli / "help.cc").read_text()
    tables = dict(HELP_TABLE.findall(help_src))
    global_flags = set(HELP_FLAG.findall(tables["kGlobalFlags"]))
    command_table = dict(HELP_ADD.findall(help_src))
    command_of = {
        fn: cmd for cmd, fn in DISPATCH.findall((cli / "run.cc").read_text())
    }
    out: list = []
    for path in sorted(cli.glob("cmd_*.cc")):
        source = path.read_text()
        listed = set(global_flags)
        for fn in CMD_DEF.findall(source):
            listed.update(
                HELP_FLAG.findall(tables[command_table[command_of[fn]]])
            )
        for name in sorted(set(FLAG_READ.findall(source))):
            if "--" + name not in listed:
                out.append((path.name, "--" + name))
    return out


def documented_flags(root: pathlib.Path) -> set:
    mentioned: set = set()
    paths = [root / "README.md"]
    paths.extend(sorted((root / "docs").glob("*.md")))
    for path in paths:
        mentioned.update(
            re.findall(r"--[A-Za-z0-9-]+", path.read_text())
        )
    return mentioned


def main(argv: list) -> int:
    args = argv[1:]
    binary = None
    if "--binary" in args:
        i = args.index("--binary")
        binary = args[i + 1]
        del args[i : i + 2]
    root = pathlib.Path(args[0] if args else ".").resolve()

    if binary is not None:
        per_command = flags_from_binary(binary, root)
    else:
        per_command = flags_from_source(root)
    documented = documented_flags(root)

    missing: list = []
    total = 0
    for command, flags in sorted(per_command.items()):
        total += len(flags)
        for flag in flags:
            if flag not in documented:
                missing.append((command, flag))

    unlisted = unlisted_consumed_flags(root)
    if unlisted:
        print(
            "CLI flags read by a command but missing from its help table "
            "in src/cli/help.cc:",
            file=sys.stderr,
        )
        for path, flag in unlisted:
            print(f"  [{path}] {flag}", file=sys.stderr)
    if missing:
        print(
            "CLI flags emitted by --help but mentioned nowhere in "
            "README.md or docs/*.md:",
            file=sys.stderr,
        )
        for command, flag in missing:
            print(f"  [{command}] {flag}", file=sys.stderr)
    if missing or unlisted:
        return 1
    mode = "binary" if binary is not None else "source"
    print(
        f"ok: {total} help-table flags across {len(per_command)} "
        f"{'commands' if binary else 'file(s)'} all documented "
        f"({mode} mode)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
