"""Whole-session benchmark of the dbgchat CLI through stand-ins.

    python3 perfbench/run.py --workload triage --seed 1 --seconds 36 --trace 0

Runs real ``dbgchat`` sessions, one process per session, one session at a
time (a closed loop with one client).  gdb is replaced by ``gdb_standin.py``,
first on PATH, and the model provider by ``provider.py``, a loopback server
that ``dbgchat``'s own HTTP client talks to.  The benchmark writes one stdin
line, waits for the next ``(dbgchat) `` prompt, then writes the next.

With ``--trace 0`` it prints the end-to-end metrics, measured from outside
the program: stdout arrival times, the stand-ins' records and the session
process's resource usage.  With ``--trace 1`` every round runs each session
twice, once through ``traced.py`` (spans around each module's public
functions) and once as usual, and it prints per-layer metrics and the
tracing overhead.  The last stdout line is one JSON object.

Every timing is scaled to the reference machine's speed by a fixed probe
timed between the steps (``speed.py``), because a shared virtual machine
changes speed from one stretch to the next.
"""

from __future__ import annotations

import argparse
import json
import os
import selectors
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import checks  # noqa: E402
import gen  # noqa: E402
import layers  # noqa: E402
import speed  # noqa: E402

PROMPT = b"(dbgchat) "
SETUPS = 7                 # set-ups per run; setup_s is their median
SESSION_TIMEOUT = 30.0     # seconds one session may take before it is killed
LAUNCH = "import sys\nfrom dbgchat.cli import main\nsys.exit(main())"
API_KEY = "perfbench-dummy-key"


# --------------------------------------------------------------------------
# Set-up: inputs, the gdb stand-in on PATH, the provider stand-in
# --------------------------------------------------------------------------

class Provider:
    """The provider stand-in process and its control channel."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "provider.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        hello = json.loads(self.proc.stdout.readline() or "{}")
        if "port" not in hello:
            self.close()
            raise RuntimeError("provider stand-in did not start")
        self.base_url = f"http://127.0.0.1:{hello['port']}/v1"

    def call(self, msg: dict) -> dict:
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def close(self) -> None:
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write('{"op": "quit"}\n')
                self.proc.stdin.close()
                self.proc.wait(timeout=5)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def install_gdb(out: str) -> str:
    """An executable named gdb that runs the stand-in; returns its dir."""
    bin_dir = os.path.join(out, "bin")
    os.makedirs(bin_dir, exist_ok=True)
    path = os.path.join(bin_dir, "gdb")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"#!{sys.executable} -SE\n"
                 f"import sys\nsys.path.insert(0, {HERE!r})\n"
                 "from gdb_standin import main\n"
                 "sys.exit(main(sys.argv[1:]))\n")
    os.chmod(path, 0o755)
    return bin_dir


def setup(workload: str, seed: int, out: str):
    """Generate the inputs and start the provider; returns (plans, provider, bin)."""
    if os.path.isdir(out):
        shutil.rmtree(out)
    plans = gen.generate(workload, seed, out)
    bin_dir = install_gdb(out)
    os.makedirs(os.path.join(out, "home"), exist_ok=True)
    return plans, Provider(), bin_dir


def session_env(out: str, bin_dir: str) -> dict:
    return {
        "PATH": bin_dir + os.pathsep + os.environ.get("PATH", "/usr/bin:/bin"),
        "HOME": os.path.join(out, "home"),
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONIOENCODING": "utf-8",
        "LC_ALL": "C",
        "OPENAI_API_KEY": API_KEY,
    }


# --------------------------------------------------------------------------
# One session
# --------------------------------------------------------------------------

class Pipes:
    """Reads a child's stdout and stderr, timing each stdout chunk."""

    def __init__(self, proc: subprocess.Popen):
        self.sel = selectors.DefaultSelector()
        self.out = bytearray()
        self.err = bytearray()
        self.first_newline_at: float | None = None
        for stream, buf in ((proc.stdout, self.out), (proc.stderr, self.err)):
            os.set_blocking(stream.fileno(), False)
            self.sel.register(stream, selectors.EVENT_READ, buf)

    def pump(self, deadline: float) -> bool:
        """Read what is ready; False at EOF on both pipes or past deadline."""
        if not self.sel.get_map():
            return False
        remaining = deadline - time.perf_counter()
        if remaining <= 0:
            return False
        for key, _ in self.sel.select(timeout=remaining):
            chunk = os.read(key.fd, 65536)
            now = time.perf_counter()
            if not chunk:
                self.sel.unregister(key.fileobj)
                continue
            key.data.extend(chunk)
            if key.data is self.out and self.first_newline_at is None \
                    and b"\n" in chunk:
                self.first_newline_at = now
        return True

    def until_prompt(self, start: int, deadline: float) -> tuple[int, float]:
        """Wait until stdout ends in a prompt; (end offset, arrival time)."""
        while not (len(self.out) >= start + len(PROMPT)
                   and self.out.endswith(PROMPT)):
            if not self.pump(deadline):
                raise TimeoutError("no prompt before the deadline or EOF")
        return len(self.out), time.perf_counter()

    def drain(self, deadline: float) -> None:
        while self.pump(deadline):
            pass

    def close(self) -> None:
        for key in list(self.sel.get_map().values()):
            self.sel.unregister(key.fileobj)
        self.sel.close()


def peak_rss_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def reap(proc: subprocess.Popen, deadline: float):
    """Wait for the child with wait4; (exit code, rusage).  Kills on deadline."""
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            proc.returncode = os.waitstatus_to_exitcode(status)
            return proc.returncode, usage
        if time.perf_counter() > deadline:
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            return None, usage
        time.sleep(0.002)


def run_session(plan: dict, provider: Provider, env: dict, cwd: str,
                traced: bool = False, spans_path: str = "",
                gauge: speed.Gauge | None = None) -> dict:
    """Run one session to its end and return what was observed.

    With a gauge, the machine's speed is probed before the session starts
    and after each prompt, while the session waits for its next line.
    """
    probe = gauge.probe if gauge is not None else (lambda: None)
    completions = [c for s in plan["steps"] for c in s.get("completions", ())]
    provider.call({"op": "load", "completions": completions,
                   "reorder": bool(plan.get("reorder"))})
    log = plan["desc"]["log"]
    if os.path.exists(log):
        os.remove(log)
    head = ([sys.executable, os.path.join(HERE, "traced.py")] if traced
            else [sys.executable, "-c", LAUNCH])
    argv = head + ["--base-url", provider.base_url, "--root", plan["root"],
                   plan["target"]]
    if plan["argv"]:
        argv += ["--", *plan["argv"]]
    if traced:
        env = dict(env, PERFBENCH_SPANS=spans_path)

    result = {"turns": [], "error": "", "stdout": "", "stderr": "",
              "exit_code": None}
    probe()
    started = time.perf_counter()
    deadline = started + SESSION_TIMEOUT
    proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, env=env, cwd=cwd)
    pipes = Pipes(proc)
    usage = None
    try:
        offset, _ = pipes.until_prompt(0, deadline)
        probe()
        result["launch_ms"] = (pipes.first_newline_at - started) * 1000
        result["started"] = started
        result["stop_report_at"] = pipes.first_newline_at
        result["launch_text"] = pipes.out[:offset - len(PROMPT)].decode()
        for step in plan["steps"]:
            written = time.perf_counter()
            os.write(proc.stdin.fileno(), (step["line"] + "\n").encode())
            end, prompted = pipes.until_prompt(offset, deadline)
            result["turns"].append({
                "text": pipes.out[offset:end - len(PROMPT)].decode(),
                "written": written, "prompted": prompted,
                "turn_ms": (prompted - written) * 1000})
            offset = end
            probe()
        result["peak_rss_kb"] = peak_rss_kb(proc.pid)
        os.write(proc.stdin.fileno(), b"quit\n")
        proc.stdin.close()
        pipes.drain(deadline)
        result["exit_code"], usage = reap(proc, deadline)
        result["ended"] = time.perf_counter()
    except (TimeoutError, OSError) as exc:
        result["error"] = f"session {plan['name']}: {exc}"
    finally:
        if proc.returncode is None:
            proc.kill()
            _, _, usage = os.wait4(proc.pid, 0)
            proc.returncode = -9
        pipes.close()
        for stream in (proc.stdin, proc.stdout, proc.stderr):
            if not stream.closed:
                stream.close()
    result["stdout"] = pipes.out.decode(errors="replace")
    result["stderr"] = pipes.err.decode(errors="replace")
    result["requests"] = provider.call({"op": "take"})["requests"]
    try:
        with open(log, encoding="utf-8") as fh:
            result["standin"] = json.load(fh)
    except (OSError, ValueError):
        result["standin"] = {"console": [], "commands": 0, "bytes_out": 0,
                             "cpu_s": 0.0}
        result["error"] = result["error"] or "the gdb stand-in left no record"
    if usage is not None:
        result["cpu_ms"] = (usage.ru_utime + usage.ru_stime
                            - result["standin"]["cpu_s"]) * 1000
    return result


def timings(plan: dict, result: dict) -> dict:
    """One session's timings and operation counts.

    Each timing is (ms, t0, t1): t0 and t1 bound the interval measured, so
    that the timing can be scaled by the probes taken around it.
    """
    records = result["requests"]
    first, turns, rounds = [], [], []
    index = 0
    chat_turns = tool_calls = assigned = 0
    reached = set(result["standin"]["console"])
    for step, turn in zip(plan["steps"], result["turns"]):
        if "completions" not in step:
            continue
        chat_turns += 1
        turns.append((turn["turn_ms"], turn["written"], turn["prompted"]))
        n = len(step["completions"])
        if index + n <= len(records):
            arrived = records[index]["arrived"]
            first.append(((arrived - turn["written"]) * 1000,
                          turn["written"], arrived))
            for j in range(index + 1, index + n):
                t0, t1 = records[j - 1]["ended"], records[j]["arrived"]
                rounds.append(((t1 - t0) * 1000, t0, t1))
        index += n
        for completion in step["completions"]:
            for item in completion:
                if "tool" not in item:
                    continue
                tool_calls += 1
                if item["tool"] == "debug" and \
                        item["args"]["command"] in gen.ASSIGNMENTS and \
                        item["args"]["command"] in reached:
                    assigned += 1
    launch = result.get("launch_ms")
    cpu = result.get("cpu_ms")
    return {
        "launch_ms": [] if launch is None else [
            (launch, result["started"], result["stop_report_at"])],
        "first_request_ms": first,
        "turn_ms": turns,
        "tool_round_ms": rounds,
        "cpu_ms": [] if cpu is None or "ended" not in result else [
            (cpu, result["started"], result["ended"])],
        "peak_rss_mb": result.get("peak_rss_kb", 0) / 1024,
        "request_kb": sum(r["bytes"] for r in records) / 1000,
        "mi_commands": result["standin"]["commands"],
        "mi_kb": result["standin"]["bytes_out"] / 1000,
        "attempted": 1 + chat_turns + tool_calls,
        # An assignment that reached the debugger broke the read-only promise.
        "failed": assigned,
    }


# --------------------------------------------------------------------------
# A run
# --------------------------------------------------------------------------

def end_to_end(samples: list[dict], setups: list, gauge: speed.Gauge) -> dict:
    """Timings are medians over the run, each timing scaled by its probes.

    Every run holds whole rounds, so each run pools the same mix of steps.
    """
    def mean(key):
        return sum(s[key] for s in samples) / len(samples) if samples else 0.0

    def timing(key):
        return gauge.scaled_median(layers.pooled(samples, key))

    return {
        "setup_s": (gauge.scaled_median(setups) / 1000, "s"),
        "launch_ms": (timing("launch_ms"), "ms"),
        "first_request_ms": (timing("first_request_ms"), "ms"),
        "turn_ms": (timing("turn_ms"), "ms"),
        "tool_round_ms": (timing("tool_round_ms"), "ms"),
        "cpu_ms_per_session": (timing("cpu_ms"), "ms"),
        "peak_rss_mb": (layers.median(s["peak_rss_mb"] for s in samples),
                        "MB"),
        # Exact: every run holds whole rounds, so these means repeat.
        "request_kb_per_session": (mean("request_kb"), "kB"),
        "mi_commands_per_session": (mean("mi_commands"), "count"),
        "mi_kb_per_session": (mean("mi_kb"), "kB"),
    }


class RunAborted(Exception):
    pass


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(gen.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "dbgchat", "cli.py")):
        print("perfbench: src/dbgchat is missing; run from a dbgchat checkout",
              file=sys.stderr)
        return 2
    out = os.path.join(HERE, "out", ns.workload)

    gauge = speed.Gauge()
    setups = []  # (ms, t0, t1), scaled like every other timing
    provider = None
    for _ in range(SETUPS):
        if provider is not None:
            provider.close()
        gauge.probe()
        t0 = time.perf_counter()
        plans, provider, bin_dir = setup(ns.workload, ns.seed, out)
        t1 = time.perf_counter()
        setups.append(((t1 - t0) * 1000, t0, t1))
    gauge.probe()
    env = session_env(out, bin_dir)
    spans_path = os.path.join(out, "logs", "spans.json")

    problems: list[str] = []
    samples: list[dict] = []
    traced_samples: list[dict] = []
    untraced_samples: list[dict] = []
    attempted = failed = 0

    def session(plan, traced=False):
        result = run_session(plan, provider, env, out, traced, spans_path,
                             gauge)
        if result["error"]:
            # A hung or broken session ends the run, which must end in time.
            raise RunAborted(result["error"])
        problems.extend(f"{plan['name']}: {p}"
                        for p in checks.check_session(plan, result))
        sample = timings(plan, result)
        if traced:
            try:
                with open(spans_path, encoding="utf-8") as fh:
                    sample["layers"] = layers.session_metrics(json.load(fh), result)
            except (OSError, ValueError):
                problems.append(f"{plan['name']}: traced session left no spans")
                sample["layers"] = {}
            sample["window"] = (result["started"], result["ended"])
        return sample

    rounds = 0
    try:
        session(plans[0])  # warm-up: caches and lazily written files
        started = time.perf_counter()
        while rounds == 0 or time.perf_counter() - started < ns.seconds:
            for plan in plans:
                if ns.trace:
                    order = (True, False) if rounds % 2 == 0 else (False, True)
                    for traced in order:
                        s = session(plan, traced)
                        (traced_samples if traced else untraced_samples).append(s)
                        attempted += s["attempted"]
                        failed += s["failed"]
                else:
                    s = session(plan)
                    samples.append(s)
                    attempted += s["attempted"]
                    failed += s["failed"]
            rounds += 1
    except RunAborted as exc:
        problems.append(f"run aborted: {exc}")
        attempted += 1  # the launch of the broken session
        failed += 1
    finally:
        provider.close()
    gauge.probe()  # closes the window of the last session

    if ns.trace:
        metrics = layers.run_metrics(traced_samples, untraced_samples, gauge)
    else:
        metrics = end_to_end(samples, setups, gauge)
    sessions = len(samples) + len(traced_samples) + len(untraced_samples)
    print(f"workload {ns.workload}: seed {ns.seed}, {rounds} rounds, "
          f"{sessions} sessions, {attempted} operations, {failed} failed")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:12.4f} {unit}")
    for problem in problems[:20]:
        print(f"  CHECK FAILED {problem}")
    print(json.dumps({
        "correct": not problems, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
