"""Self-test of the benchmark; takes about a minute.

    python3 perfbench/selftest.py

* a tiny-seed run of every workload, untraced and traced, must pass its
  known-answer gate and print exactly the metrics, with their units,
  that BENCHMARK.json lists;
* ``verify_both_jobs2`` must produce the same structured report as
  ``verify_both`` at the same seed;
* flipping one expected verdict must make the gate fail, for a verify
  workload and for ``extract_translate``;
* outside a source checkout the benchmark must fail without a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEED = 7
TINY = ["--seed", str(SEED), "--seconds", "0.2", "--replicas", "1"]


def run(*args: str, cwd: Path = ROOT) -> tuple[int, list[str], str]:
    done = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return done.returncode, done.stdout.splitlines(), done.stderr


def info(lines: list[str], key: str) -> str:
    return next(line.split(": ", 1)[1] for line in lines if line.startswith(key + ": "))


def check(condition: bool, message: str) -> None:
    if not condition:
        raise SystemExit(f"selftest FAILED: {message}")
    print(f"ok: {message}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    reports = {}
    for workload in (w["name"] for w in spec["workloads"]):
        for traced in (0, 1):
            code, lines, err = run("--workload", workload, "--trace", str(traced), *TINY)
            check(code == 0, f"{workload} trace={traced} exits 0 {err[-500:]}")
            result = json.loads(lines[-1])
            check(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
                  f"{workload} trace={traced} passes its known-answer gate")
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(got == wanted[traced],
                  f"{workload} trace={traced} prints the BENCHMARK.json metrics and units")
            reports[workload, traced] = info(lines, "report_sha256")
        check(reports[workload, 0] == reports[workload, 1],
              f"{workload}: traced and untraced report hashes agree")
    check(reports["verify_both", 0] == reports["verify_both_jobs2", 0],
          "two workers give the serial structured report")

    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=work))
    try:
        expected = json.loads((HERE / "expected.json").read_text())
        for workload, formula, flipped in (("verify_both", "EF.1", "seeded_error"),
                                           ("extract_translate", "AI.1", "true")):
            expected_copy = json.loads(json.dumps(expected))
            expected_copy["verdicts"][formula] = flipped
            path = scratch / f"flipped-{workload}.json"
            path.write_text(json.dumps(expected_copy))
            code, lines, _ = run("--workload", workload, "--trace", "0",
                                 "--expected", str(path), *TINY)
            result = json.loads(lines[-1])
            check(code != 0 and not result["correct"] and result["failed"] > 0,
                  f"{workload}: flipping {formula} to {flipped} fails the gate")

        bare = scratch / "bare"
        bare.mkdir()
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run("--workload", "verify_both", "--trace", "0", *TINY, cwd=bare)
        check(code != 0 and not any(line.startswith("{") for line in lines),
              "without the sources the benchmark fails and prints no result")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print("selftest passed")


if __name__ == "__main__":
    main()
