"""Run every file subcommand of the CLI on every corpus system, and
`diffmod spencer` on its tables.

    python3 scripts/cli_sweep.py OUTDIR

Runs the CLI from the root of this checkout for the 13 commands below on
each `.dms` file of `src/diffmod/corpus`, for the 2 runs of ASSUMED
(`torsion` and `parametrize` on `oneform_area_lie` in the case c = 0)
and for the 18 `spencer` invocations of SPENCER (the Killing, conformal
and contact tables, the n = 5 diagram and the three inputs of
SPENCER_REFUSED it must refuse): 215 runs, one at a time under
PYTHONHASHSEED=0 (the script starts itself again with it if it is not
set).  The first run of each subcommand and the SPENCER_REFUSED runs
start `python -m diffmod.cli`, so the module entry point, argparse's
exits and the error messages cross a real process boundary; the other
202 call `diffmod.cli.main` in this process, standard output and
standard error captured and SystemExit caught.

Each run leaves three files in OUTDIR/<case>/, where the case is the
corpus file's stem or `spencer`: `<command>.stdout` (standard output
without its `elapsed_ms` line), `<command>.stderr` and `<command>.exit`
(the exit status).  Nothing else in them depends on the clock or on
where the checkout lives, so

    diff -r PARENT_OUTDIR CHANGE_OUTDIR

shows every output a change altered.

One line per run goes to standard output.  The exit status is 1 when a
run printed a Python traceback or exited with a status other than 0
(success), 1 (error, e.g. not parametrizable) or 2 (case split
required), else 0.
"""

from __future__ import annotations

import contextlib
import io
import os
import subprocess
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = Path("src", "diffmod", "corpus")     # relative: the path is printed
COMMANDS = {
    "complete": ["complete"],
    "cc": ["cc"],
    "sequence": ["sequence"],
    "adjoint": ["adjoint"],
    "rank": ["rank"],
    "duality": ["duality"],
    "torsion": ["torsion"],
    "ext-i0": ["ext", "--i", "0"],
    "ext-i1": ["ext", "--i", "1"],
    "ext-i2": ["ext", "--i", "2"],
    "ext-i3": ["ext", "--i", "3"],
    "ext-i1-split": ["ext", "--i", "1", "--split"],
    "parametrize": ["parametrize"],
}
ASSUMED = {
    "oneform_area_lie": {
        "torsion-c0": ["torsion", "--assume", "c=0"],
        "parametrize-c0": ["parametrize", "--assume", "c=0"],
    },
}
SPENCER = {
    **{f"killing-n{n}": ["--family", "killing", "--n", str(n)]
       for n in range(2, 9)},
    **{f"conformal-n{n}": ["--family", "conformal", "--n", str(n)]
       for n in range(3, 8)},
    **{f"contact-n{n}": ["--family", "contact", "--n", str(n)]
       for n in (3, 5)},
    "diagram": ["--diagram"],
    "killing-n1": ["--family", "killing", "--n", "1"],
    "contact-n4": ["--family", "contact", "--n", "4"],
    "killing-no-n": ["--family", "killing"],
}
SPENCER_REFUSED = ("killing-n1", "contact-n4", "killing-no-n")
EXIT_CODES = (0, 1, 2)


def run_process(args, env):
    """(exit status, stdout, stderr) of `python -m diffmod.cli args`."""
    run = subprocess.run([sys.executable, "-m", "diffmod.cli", *args],
                         cwd=ROOT, env=env, capture_output=True, text=True)
    return run.returncode, run.stdout, run.stderr


def run_in_process(args):
    """(exit status, stdout, stderr) of diffmod.cli.main(args) in this
    process, with an uncaught exception printed as the interpreter would
    print it and given status 1."""
    from diffmod import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(args)
        except SystemExit as exc:   # argparse's exits
            code = exc.code
        except Exception:   # the sweep goes on, and flags the run
            traceback.print_exc()
            code = 1
    return code or 0, out.getvalue(), err.getvalue()


def main(argv):
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    out = Path(argv[0]).resolve()
    env = dict(os.environ, PYTHONHASHSEED="0",
               PYTHONPATH=str(ROOT / "src"))
    if os.environ.get("PYTHONHASHSEED") != "0":
        return subprocess.run([sys.executable, __file__, str(out)],
                              env=env).returncode
    sys.path.insert(0, str(ROOT / "src"))
    os.chdir(ROOT)
    jobs = [(dms.stem, name, [*args, str(CORPUS / dms.name)])
            for dms in sorted((ROOT / CORPUS).glob("*.dms"))
            for name, args in COMMANDS.items()]
    jobs += [(stem, name, [*args, str(CORPUS / f"{stem}.dms")])
             for stem, runs in ASSUMED.items() for name, args in runs.items()]
    jobs += [("spencer", name, ["spencer", *args])
             for name, args in SPENCER.items()]
    runs, bad, seen = 0, [], set()
    t_all = time.perf_counter()
    for stem, name, args in jobs:
        case = out / stem
        case.mkdir(parents=True, exist_ok=True)
        process = (args[0] not in seen
                   or (stem == "spencer" and name in SPENCER_REFUSED))
        seen.add(args[0])
        t0 = time.perf_counter()
        code, stdout, stderr = (run_process(args, env) if process
                                else run_in_process(args))
        seconds = time.perf_counter() - t0
        runs += 1
        stdout = "".join(line for line in stdout.splitlines(True)
                         if not line.lstrip().startswith('"elapsed_ms":'))
        (case / f"{name}.stdout").write_text(stdout)
        (case / f"{name}.stderr").write_text(stderr)
        (case / f"{name}.exit").write_text(f"{code}\n")
        flag = "  process" if process else ""
        if "Traceback" in stderr or code not in EXIT_CODES:
            bad.append(f"{stem} {name}")
            flag += "  BAD"
        print(f"{stem:24} {name:14} exit {code}  "
              f"{seconds:6.2f} s{flag}", flush=True)
    print(f"{runs} runs in "
          f"{time.perf_counter() - t_all:.1f} s; "
          f"{len(bad)} with a traceback or an unexpected exit status")
    for run in bad:
        print(f"  {run}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
