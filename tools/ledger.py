"""Size ledger of the ``aamr`` package: three numbers, one line each.

* ``src lines``: the lines of every ``.py`` file under ``src/``;
* ``exported names``: the public attributes of the ``aamr`` package (no
  leading underscore), less the submodules its imports bind;
* ``settable options``: every knob a caller can set, read from the source
  with ``ast``: each defaulted parameter of every function and method,
  private ones included (``self`` and required parameters do not count);
  each field with a default in a ``@dataclass`` class; each environment
  variable read through ``os.environ`` or ``os.getenv``; and each optional
  CLI flag, read from the parser ``aamr.cli._build_parser()`` builds rather
  than from the source, so flags added in a loop count too: every optional
  action of every subcommand, ``-h`` excluded.

Takes no arguments and imports ``aamr`` from the ``src/`` directory next to
this script, so a copy run in another checkout counts that tree:

    python3 tools/ledger.py
"""

import argparse
import ast
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.dont_write_bytecode = True

import aamr  # noqa: E402
from aamr import cli  # noqa: E402


def _is_dataclass(node: ast.ClassDef) -> bool:
    for dec in node.decorator_list:
        target = dec.func if isinstance(dec, ast.Call) else dec
        name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
        if name == "dataclass":
            return True
    return False


def _env_reads(node) -> int:
    """1 for ``os.environ[...]``, ``os.environ.get(...)`` or ``os.getenv(...)``."""
    if isinstance(node, ast.Subscript):
        target = node.value
    elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        if node.func.attr == "getenv":
            return 1
        target = node.func.value if node.func.attr == "get" else None
    else:
        return 0
    return int(isinstance(target, ast.Attribute) and target.attr == "environ")


def _options(tree: ast.AST) -> int:
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            count += len(args.defaults) + sum(d is not None for d in args.kw_defaults)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            count += sum(isinstance(s, ast.AnnAssign) and s.value is not None
                         for s in node.body)
        else:
            count += _env_reads(node)
    return count


def _flags() -> int:
    parser = cli._build_parser()
    subcommands = next(action for action in parser._actions
                       if isinstance(action, argparse._SubParsersAction))
    return sum(bool(action.option_strings) and not isinstance(action, argparse._HelpAction)
               for sub in subcommands.choices.values() for action in sub._actions)


def main() -> int:
    files = sorted(SRC.rglob("*.py"))
    texts = [path.read_text(encoding="utf-8") for path in files]
    names = [name for name in dir(aamr) if not name.startswith("_")
             and not isinstance(getattr(aamr, name), types.ModuleType)]
    print(f"src lines: {sum(len(text.splitlines()) for text in texts)}")
    print(f"exported names: {len(names)}")
    options = sum(_options(ast.parse(text)) for text in texts) + _flags()
    print(f"settable options: {options}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
