"""Starting, timing and stopping the program's processes."""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))

#: seconds a process gets to answer its start-up handshake or to exit
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0


def program_env() -> Dict[str, str]:
    env = dict(os.environ)
    src = os.path.abspath("src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("REPRO_FAULTS", None)
    return env


def stop(proc: subprocess.Popen) -> None:
    """Terminate ``proc`` if it still runs and wait for it."""
    if proc.poll() is None:
        proc.terminate()
        try:
            proc.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    for stream in (proc.stdin, proc.stdout):
        if stream is not None:
            stream.close()


class SolveChild:
    """A ``solve_child.py`` process answering cells over a pipe."""

    def __init__(self, trace_path: Optional[str] = None) -> None:
        cmd = [sys.executable, "-u", os.path.join(BENCH_DIR, "solve_child.py")]
        if trace_path:
            cmd += ["--trace", trace_path]
        self.proc = subprocess.Popen(
            cmd, stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=program_env(), text=True,
        )
        try:
            hello = self._read()
            if not hello.get("ready"):
                raise RuntimeError(f"solve child did not start: {hello}")
        except BaseException:
            stop(self.proc)
            raise
        #: CPU seconds the child used to start and import the program
        self.setup_s = float(hello["cpu_s"])

    def _read(self) -> Dict:
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError(f"solve child exited with code {self.proc.wait()}")
        return json.loads(line)

    def solve(self, path: str, k: int) -> Dict:
        self.proc.stdin.write(json.dumps({"path": path, "k": k}) + "\n")
        self.proc.stdin.flush()
        return self._read()

    def finish(self) -> float:
        """Ask the child to exit; return its peak RSS in MB."""
        try:
            self.proc.stdin.write(json.dumps({"op": "exit"}) + "\n")
            self.proc.stdin.flush()
            peak = float(self._read()["peak_rss_mb"])
            self.proc.wait(timeout=STOP_TIMEOUT)
            return peak
        finally:
            stop(self.proc)


class Daemon:
    """A ``repro serve`` daemon on a state directory, optionally traced."""

    def __init__(self, state_dir: str, trace_path: Optional[str] = None) -> None:
        serve = ["serve", "--port", "0", "--state-dir", state_dir]
        if trace_path:
            cmd = [sys.executable, "-u", os.path.join(BENCH_DIR, "serve_launcher.py"),
                   trace_path] + serve
        else:
            cmd = [sys.executable, "-u", "-m", "repro"] + serve
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=program_env(), text=True,
        )
        self.port = self._await_port()

    def _await_port(self) -> int:
        deadline = time.monotonic() + START_TIMEOUT
        for line in self.proc.stdout:
            if line.startswith("repro-serve listening on "):
                return int(line.rsplit(":", 1)[1])
            if time.monotonic() > deadline:
                break
        stop(self.proc)
        raise RuntimeError("daemon did not report its port")

    def cpu_s(self) -> float:
        """CPU seconds used so far by the daemon's live threads (ns resolution)."""
        total = 0
        task_dir = f"/proc/{self.proc.pid}/task"
        for task in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, task, "schedstat"), encoding="ascii") as handle:
                    total += int(handle.read().split()[0])
            except FileNotFoundError:  # the thread exited meanwhile
                pass
        return total / 1e9

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def drain(self) -> None:
        """SIGTERM (graceful drain) and wait for the daemon to exit."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                pass
        stop(self.proc)


def stop_all(procs: List) -> None:
    for item in procs:
        stop(item.proc)
