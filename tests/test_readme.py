"""The README's quick start runs, and its reference lists match the code."""

import re
from pathlib import Path

from mlgibbs import cli, diag_suites

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _section(title):
    start = README.index(f"\n## {title}\n")
    end = README.find("\n## ", start + 1)
    return README[start:end]


def test_quick_start_python_block_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", README, re.S)
    exec(compile(block, "README.md", "exec"), {})
    mean, evals = capsys.readouterr().out.split()
    assert float(mean) > 0.0
    assert int(evals) > 0


def test_config_table_lists_every_top_level_field():
    rows = re.findall(r"^\| `(\w+)` \|", _section("Configuration"), re.M)
    assert sorted(rows) == sorted(cli._TOP_FIELDS)


def test_config_table_read_by_column_matches_the_cli():
    rows = re.findall(r"^\| `(\w+)` \|[^|]*\|[^|]*\|([^|]*)\|", _section("Configuration"), re.M)
    read_by = {field: tuple(re.findall(r"`(\w+)`", cell)) or cell.strip() for field, cell in rows}
    assert read_by == {field: cli._READ_BY.get(field, "all") for field in cli._TOP_FIELDS}


def test_diag_suite_list_matches_the_registry():
    listed = re.search(r"Suites:\s*(.*?)\.\n", _section("Command line"), re.S).group(1)
    assert sorted(re.findall(r"`(\w+)`", listed)) == sorted(diag_suites.SUITES)


def test_exit_code_list_matches_the_cli():
    sentence = re.search(r"Exit codes:(.*?)\.\n", _section("Command line"), re.S).group(1)
    listed = [int(code) for code in re.findall(r"`(\d+)`", sentence)]
    codes = [value for name, value in vars(cli).items() if name.startswith("EXIT_")]
    assert listed == sorted(codes)


def test_layout_lists_every_module():
    (block,) = re.findall(r"```\n(src/mlgibbs/\n.*?)```", _section("Layout"), re.S)
    listed = re.findall(r"^  (\w+\.py) ", block, re.M)
    package = Path(__file__).resolve().parents[1] / "src" / "mlgibbs"
    modules = [p.name for p in package.glob("*.py") if p.name != "__init__.py"]
    assert sorted(listed) == sorted(modules)
