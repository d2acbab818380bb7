"""Run every CLI case of ``tests/cli_cases.json`` through the installed
``dilatest`` entry point and check what each row records.

Usage: ``python tools/cli_cases.py`` (no arguments). It prints one line per
row, then the failures of each row that does not hold, and exits 1 if any
row fails. ``tests/test_cli_cases.py`` runs the same rows in process
through ``cli.main``.

A row holds ``name``, ``command`` and ``config`` (an object, or the path of
a shipped ``configs/*.json`` from the repository root), the expected
``exit``, either the ``verdict`` its ``verdict:`` line on stderr reads or a
``message`` that stderr contains, optionally ``artifact_has``, a string the
JSON artifact contains, and ``why``, what the case shows. The checks follow
from the fields:

- every run checks its exit code and that stderr has no ``Traceback``;
- a verdict row reruns its artifact's config echo, and a ``dilate`` verdict
  row also reruns with ``--threads 2``; each rerun writes the same bytes.
"""

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CASES = ROOT / "tests" / "cli_cases.json"


def rows():
    """The table's rows, in file order."""
    return json.loads(CASES.read_text(encoding="utf-8"))


def check_row(row, call, workdir):
    """The failures of one row, each a line that names it; [] when it holds.

    ``call(argv)`` runs ``dilatest`` with ``argv`` and gives its exit code
    and stderr. The row's configs and artifacts go under ``workdir``.
    """
    name, command, config = row["name"], row["command"], row["config"]
    workdir = Path(workdir)
    if isinstance(config, str):
        path = ROOT / config
    else:
        path = workdir / f"{name}.json"
        path.write_text(json.dumps(config), encoding="utf-8")
    failures = []

    def run(label, config_path, *extra):
        out = workdir / f"{name}.{label}.json"
        code, err = call([command, "--config", str(config_path), "--out", str(out), *extra])
        wrong = []
        if code != row["exit"]:
            wrong.append(f"exit {code}, expected {row['exit']}")
        if "Traceback" in err:
            wrong.append("a traceback on stderr")
        if "verdict" in row and f"verdict: {row['verdict']}" not in err.splitlines():
            wrong.append(f"no line 'verdict: {row['verdict']}' on stderr")
        if "message" in row and row["message"] not in err:
            wrong.append(f"stderr lacks {row['message']!r}")
        if wrong:
            failures.append(f"{name} ({label}): {'; '.join(wrong)}; stderr was\n{err.rstrip()}")
        return out.read_bytes() if out.exists() else None

    artifact = run("out", path)
    if "artifact_has" in row and row["artifact_has"].encode() not in (artifact or b""):
        failures.append(f"{name}: the artifact lacks {row['artifact_has']!r}")
    if "verdict" in row and artifact is None:
        failures.append(f"{name}: no artifact")
    if "verdict" not in row or failures:
        return failures
    echo = workdir / f"{name}.echo-config.json"
    echo.write_text(json.dumps(json.loads(artifact)["config"]), encoding="utf-8")
    reruns = [("echo", echo, ())]
    if command == "dilate":  # the per-lambda pool must not change a byte
        reruns.append(("threads", path, ("--threads", "2")))
    for label, config_path, extra in reruns:
        if run(label, config_path, *extra) != artifact:
            failures.append(f"{name} ({label}): the artifact differs from the first run's")
    return failures


def _installed(argv):
    """Run the installed entry point: (exit code, stderr)."""
    done = subprocess.run(["dilatest", *argv], capture_output=True, text=True, check=False)
    return done.returncode, done.stderr


def main():
    table, failures = rows(), {}
    with tempfile.TemporaryDirectory() as workdir:
        for row in table:
            started = time.monotonic()
            failures[row["name"]] = check_row(row, _installed, workdir)
            print(f"{'FAIL' if failures[row['name']] else 'ok'}  {row['name']}  "
                  f"({time.monotonic() - started:.1f} s)", flush=True)
    failed = [name for name, lines in failures.items() if lines]
    for name in failed:
        print("\n".join(failures[name]))
    print(f"{len(table) - len(failed)} of {len(table)} rows hold; "
          f"failing: {', '.join(failed) or 'none'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
