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
    'verify gauss --format json': (0, 'b65236b1cf2306ef70e963a63d6ac711319ce3f7424eeda72591db038197ac9b'),
    'verify gauss --format csv': (0, '6d392d1c2ff2a1239dbda4207641beaf40e9bd528cfd9a10e439fe6ca689afcd'),
    'verify ex1 --format json': (0, 'f19dde382c4c0e2979453019b9a3a4a2e58a5fa6758baf92016e96330a9b3705'),
    'verify ex1 --format csv': (0, '1aa6b0306de925d4a6e67d7560674400517730909b53b0f20c14d14fe5cfb468'),
    'verify ex2 --format json': (0, 'a5457f40150091e6f1a456b7373ee7e4762e24d9bcc58a6d3ff168b155c08d79'),
    'verify ex2 --format csv': (0, '32f11d94f3f320dcc6c77fb7a5b1ed2fa550e7d582eac089a4a483ce7244bd12'),
    'verify ex3_beta --format json': (0, '32c9220b56bd09bcacd720fa9d98a3e2669837d096d5c621b7a6c2a8716e8434'),
    'verify ex3_beta --format csv': (0, 'bda7f68874d32a2f436dd9637fef654aafc0de446e3b1be1f46dacd118c73023'),
    'verify ex3_alpha --format json': (0, 'bbab9d77b48d14608233461e6cdfa709afb1a831746d2b7095983b94a1f16fa6'),
    'verify ex3_alpha --format csv': (0, 'f4683f9b0bf74a682e4179aabae818bf4da3dc35eda6338f63eff1073b6888a3'),
    'verify ex4 --format json': (0, '391d097bfddad794fedf280ce9934a2690fc9d510dc872ff137b944d45a8ed11'),
    'verify ex4 --format csv': (0, 'fc9833f65d9a53b2fcdde8b5d5f4a1c7a6eb8eb388b103d929e18e5c010c4955'),
    'verify all --format json': (0, '22b77e2d603ca935df870f758ad4c6c6a12243038f80f6d2f4cbaeaa5e52d3ae'),
    'list --format json': (0, '90ca1044611bce0f49a53c54a592571db30864f1932272fdcf5444fcc3f9cab9'),
    'list --format text': (0, '59fd54332f71614699f0f14e606cbd7e1e65592cba01099c44bb1171dbeef613'),
    'eval ex2 --alpha 2 --format json': (0, '6a5db87bc69da309095ac6949dca5404075e92d9d7e9f1119743bfa25d4f62af'),
    'sweep ex2 --from 1.5 --to 5 --steps 8 --format csv': (0, '1e8713099a283882e0ca23a6ea64cefe3984f6d067c2e84273790ca82dffe663'),
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
