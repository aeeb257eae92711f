"""The CLI's contractual bytes, frozen: each command's exit code and the
SHA-256 of its stdout.

JSON and CSV reports are a contract (17 significant digits, identical
bytes for identical invocations), so a refactor that keeps every number
must keep every digest here.  The battery runs ``verify`` on each catalog
entry in JSON and in CSV, ``verify all``, ``list`` in JSON and in text,
one ``eval``, one ``sweep`` and the two reconstructions that take the
offset-form and the oscillatory routes, all in-process through ``cli.run``.

Regenerate the table only for a change that is meant to move printed
numbers, and list the commands whose digests moved in CHANGES.md:
``PYTHONPATH=src python tests/test_cli_bytes.py`` prints it, and with
``--diff`` prints only the commands whose exit code or digest differs
from it, old -> new.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys

import pytest

from paramint.cli import run

_IDS = ("gauss", "ex1", "ex2", "ex3_beta", "ex3_alpha", "ex4")

COMMANDS = [
    *(f"verify {i} --format {fmt}" for i in _IDS for fmt in ("json", "csv")),
    "verify all --format json",
    "list --format json",
    "list --format text",
    "eval ex2 --alpha 2 --format json",
    "sweep ex2 --from 1.5 --to 5 --steps 8 --format csv",
    "reconstruct ex4 --alpha 1 --format json",
    "reconstruct ex3_alpha --alpha 0.5 --format json",
]


def _record(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run(command.split())
    return code, hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


FROZEN = {
    'verify gauss --format json': (0, '7aa5bb7ed0528669b7f843fb0605b8caf8613a88bd234b461f9bf4f5b4c50226'),
    'verify gauss --format csv': (0, '5bd62d9480d8d1e5f23a2bf7ad315d7445a10c6396de9bf740442b04a25f84d1'),
    'verify ex1 --format json': (0, '6719ffc9e0d874f7d96285d6225e8ebaadf84f4e645ce3a6585defd04a2d2d57'),
    'verify ex1 --format csv': (0, '2a8442816dec707a94a6089215c1501d104c520bd41ebf3c2567bca7cfffed68'),
    'verify ex2 --format json': (0, 'aa1f39f8d6779ce51c81cc24e2a053a6b19ab7c3fe25f33920c22a9ea875c1bf'),
    'verify ex2 --format csv': (0, '8fdbff8f95f6e014846c4d5a97a33483f25eb0e55f069169719a440aa83e4218'),
    'verify ex3_beta --format json': (0, 'e968fdec4f182364c863198bfab57602fc6aa3e10cdefdd288557a18b9d2abeb'),
    'verify ex3_beta --format csv': (0, 'cccf2b8fb570c64559e558a3b9534f3af33bb34dc6d80cbaeeba4dcbd5fb87c8'),
    'verify ex3_alpha --format json': (0, 'bbab9d77b48d14608233461e6cdfa709afb1a831746d2b7095983b94a1f16fa6'),
    'verify ex3_alpha --format csv': (0, 'f4683f9b0bf74a682e4179aabae818bf4da3dc35eda6338f63eff1073b6888a3'),
    'verify ex4 --format json': (0, 'b92367e0f9887748f881e023734e46d9e989dd8ef43afad4fc102a24a42dc000'),
    'verify ex4 --format csv': (0, '459ff5baed20b51cd16ac27eef57c86ad2366b42dcd2633c5204a471313eea02'),
    'verify all --format json': (0, '53965d9d54f523ca939edafd73e98a790de7b91e087813488d14471cdc3bb20e'),
    'list --format json': (0, '90ca1044611bce0f49a53c54a592571db30864f1932272fdcf5444fcc3f9cab9'),
    'list --format text': (0, '59fd54332f71614699f0f14e606cbd7e1e65592cba01099c44bb1171dbeef613'),
    'eval ex2 --alpha 2 --format json': (0, '6bc578e5903c11a97cb5e4c0a927dec33e55dc6833c4e0af4e19577d1b96d57c'),
    'sweep ex2 --from 1.5 --to 5 --steps 8 --format csv': (0, '1079333949c81a593112a9fcced21c7da46e365e0e253b4d404be7b372e98df9'),
    'reconstruct ex4 --alpha 1 --format json': (0, '4ab9e598bf90ce78194881d1542df79cc55d05767b52c043c980f5cbec0b211d'),
    'reconstruct ex3_alpha --alpha 0.5 --format json': (0, '1e13889e729a42a41b4b1aab0e5536958097e8b6f13617255c449d304df7cf72'),
}


def test_the_battery_is_the_frozen_one():
    assert list(FROZEN) == COMMANDS


@pytest.mark.parametrize("command", COMMANDS)
def test_command_bytes_are_frozen(command):
    assert _record(command) == FROZEN[command]


def print_diff() -> None:
    """Print each command whose record differs from FROZEN, old -> new
    (None for a command only one side has)."""
    for command in dict.fromkeys([*FROZEN, *COMMANDS]):
        old = FROZEN.get(command)
        new = _record(command) if command in COMMANDS else None
        if old != new:
            print(command)
            print(f"  old {old!r}")
            print(f"  new {new!r}")


if __name__ == "__main__":
    if sys.argv[1:] == ["--diff"]:
        print_diff()
    else:
        print("FROZEN = {")
        for command in COMMANDS:
            print(f"    {command!r}: {_record(command)!r},")
        print("}")
