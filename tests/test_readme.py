"""The README's examples, run as written: the library quick start and the config file."""

import ast
import re
from pathlib import Path

from zenosim import LINDBLAD_AGREEMENT_TOL, parse_config
from zenosim.cli import main

README = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")


def fenced(language: str, heading: str) -> str:
    """The first ``language`` block in the README section under ``## heading``."""
    section = re.search(rf"^## {re.escape(heading)}\n(.*?)(?=^## |\Z)", README, re.M | re.S)
    assert section, f"README has no section {heading!r}"
    block = re.search(rf"^```{language}\n(.*?)^```$", section.group(1), re.M | re.S)
    assert block, f"README section {heading!r} has no {language} block"
    return block.group(1)


def test_library_quick_start():
    namespace, values = {}, []
    for statement in ast.parse(fenced("python", "Library quick start")).body:
        if isinstance(statement, ast.Expr):  # a line whose comment states its value
            values.append(eval(compile(ast.Expression(statement.value), "README", "eval"), namespace))
        else:
            exec(compile(ast.Module([statement], []), "README", "exec"), namespace)
    closed_form, oracle, p2_final = values
    assert closed_form == 0.375
    assert abs(oracle - closed_form) <= 1e-9
    assert abs(p2_final - 0.375) <= LINDBLAD_AGREEMENT_TOL


def test_config_file_example(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_text(fenced("ini", "Command line"), encoding="utf-8")
    cfg = parse_config(path)
    assert cfg.n_list == (1, 2, 4, 8, 16, 32)
    assert cfg.out_path == "table.csv"
    assert main(["validate", "--config", str(path)]) == 0
    assert capsys.readouterr().out == f"{path}: OK\n"
