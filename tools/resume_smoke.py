#!/usr/bin/env python3
"""Resume smoke test: SIGKILL a campaign mid-flight, resume, diff output.

The checkpoint subsystem's promise is that a campaign killed at an
arbitrary instant — not at a tidy boundary — resumes to output
byte-identical to a never-interrupted run.  Unit tests cover the store
and the supervisor in-process; this tool is the end-to-end version CI
runs against the real CLI:

1. run the campaign cleanly, capturing stdout (the reference);
2. start the same command with ``--cache-dir DIR`` as a detached
   child, wait until its store holds at least one completed record,
   then SIGKILL the whole process group;
3. rerun the same command with the same ``--cache-dir DIR`` to
   completion;
4. fail unless the resumed stdout, less the store's one ``cache DIR:``
   summary line, is byte-identical to the reference, and unless a
   campaign that was killed replays at least one run from the store.
   The replayed count (the summary line's hits) is printed against the
   number of runs checkpointed at the kill.

Usage::

    PYTHONPATH=src python tools/resume_smoke.py
    PYTHONPATH=src python tools/resume_smoke.py --seeds 1 2 --measure-ms 40
    PYTHONPATH=src python tools/resume_smoke.py --workers 2
"""

from __future__ import annotations

import argparse
import os
import pathlib
import re
import signal
import subprocess
import sys
import tempfile
import time


def _campaign_cmd(args, store: pathlib.Path | None) -> list[str]:
    cmd = [
        sys.executable, "-m", "repro", "fig2",
        "--seeds", *[str(s) for s in args.seeds],
        "--measure-ms", str(args.measure_ms),
        "--workers", str(args.workers),
    ]
    if store is not None:
        cmd += ["--cache-dir", str(store)]
    return cmd


def _checkpointed_results(directory: pathlib.Path) -> int:
    """Completed-result lines across all shards (header lines excluded)."""
    count = 0
    for shard in directory.glob("shard-*.jsonl"):
        try:
            lines = shard.read_text().splitlines()
        except OSError:
            continue
        count += sum(1 for line in lines if '"status":"ok"' in line)
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2])
    parser.add_argument("--measure-ms", type=int, default=40)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument(
        "--kill-after", type=int, default=1, metavar="N",
        help="SIGKILL the campaign once N results are checkpointed "
             "(default 1)",
    )
    parser.add_argument(
        "--poll-timeout", type=float, default=600.0,
        help="seconds to wait for the kill threshold / the runs",
    )
    args = parser.parse_args(argv)
    env = dict(os.environ)
    repo = pathlib.Path(__file__).resolve().parent.parent
    env["PYTHONPATH"] = str(repo / "src")

    print("[1/3] reference: uninterrupted campaign", flush=True)
    clean = subprocess.run(
        _campaign_cmd(args, store=None), env=env,
        capture_output=True, text=True, timeout=args.poll_timeout,
    )
    if clean.returncode != 0:
        print(clean.stderr, file=sys.stderr)
        print("FAIL: reference campaign did not run", file=sys.stderr)
        return 1

    with tempfile.TemporaryDirectory(prefix="resume-smoke-") as tmp:
        ckpt = pathlib.Path(tmp) / "ckpt"

        print(f"[2/3] interrupt: SIGKILL after {args.kill_after} "
              "checkpointed run(s)", flush=True)
        victim = subprocess.Popen(
            _campaign_cmd(args, store=ckpt), env=env,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            start_new_session=True,  # so the kill takes the whole group
        )
        deadline = time.monotonic() + args.poll_timeout
        interrupted = False
        while time.monotonic() < deadline:
            if victim.poll() is not None:
                break  # finished before we could kill it — still a test
            if _checkpointed_results(ckpt) >= args.kill_after:
                os.killpg(victim.pid, signal.SIGKILL)
                victim.wait(timeout=30)
                interrupted = True
                break
            time.sleep(0.1)
        else:
            os.killpg(victim.pid, signal.SIGKILL)
            print("FAIL: campaign produced no checkpoint in time",
                  file=sys.stderr)
            return 1
        done_at_kill = _checkpointed_results(ckpt)
        print(f"      killed={'yes' if interrupted else 'no (finished first)'}"
              f" checkpointed={done_at_kill}", flush=True)

        print("[3/3] resume: same command, same directory", flush=True)
        resumed = subprocess.run(
            _campaign_cmd(args, store=ckpt), env=env,
            capture_output=True, text=True, timeout=args.poll_timeout,
        )
        if resumed.returncode != 0:
            print(resumed.stderr, file=sys.stderr)
            print("FAIL: resumed campaign did not finish", file=sys.stderr)
            return 1
        summary = re.compile(
            rf"^cache {re.escape(str(ckpt))}: (\d+) hit\(s\), .*\n",
            re.MULTILINE,
        )
        hits = summary.findall(resumed.stdout)
        if len(hits) != 1:
            print(resumed.stdout, file=sys.stderr)
            print(f"FAIL: expected one 'cache {ckpt}:' summary line, "
                  f"found {len(hits)}", file=sys.stderr)
            return 1
        replayed = int(hits[0])
        resumed_stdout = summary.sub("", resumed.stdout)
        print(f"      replayed={replayed} of checkpointed={done_at_kill}",
              flush=True)
        if interrupted and replayed == 0:
            print("FAIL: the rerun of the killed campaign replayed no run "
                  "from the store", file=sys.stderr)
            return 1

    if resumed_stdout != clean.stdout:
        print("FAIL: resumed output differs from the uninterrupted run",
              file=sys.stderr)
        for name, text in (("clean", clean.stdout),
                           ("resumed", resumed_stdout)):
            print(f"--- {name} ---\n{text}", file=sys.stderr)
        return 1
    print("OK: resumed campaign output is byte-identical to the "
          "uninterrupted run")
    return 0


if __name__ == "__main__":
    sys.exit(main())
