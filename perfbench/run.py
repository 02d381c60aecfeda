#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Builds perfbench/main.exe with dune from the sources in this checkout, then
runs it with the given arguments; the last line of output is the JSON
result. A traced run (--trace 1) writes its spans and per-layer table to
perfbench/out/.
`--workload all` runs every workload of BENCHMARK.json, untraced and then
traced, prints one table of every metric and writes
perfbench/out/results.json.
"""

import json
import os
import resource
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, "perfbench", "out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "main.exe")


def build():
    cmd = ["dune", "build", "--root", ROOT, "./perfbench/main.exe"]
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr).returncode == 0
    except OSError as e:
        print("cannot run dune: %s" % e, file=sys.stderr)
        return False


def ring_bytes(log_words):
    """Size of the runtime_events file for rings of 2^log_words words: OCaml
    5.1 sizes it for 128 domains whether they run or not, plus ~1 MiB of
    headers."""
    return 128 * (8 << log_words) + (2 << 20)


def ring_log_words():
    """The largest ring, up to 2^16 words per domain (a 66 MiB file, enough
    for nemesis-lin's longest Lin search between two polls), whose file fits
    the file-size limit the benchmark runs under. Past the limit the kernel
    kills the process with SIGXFSZ. 2^10 words (a 3 MiB file) is the floor:
    a limit below that would already have stopped dune writing main.exe
    (about 5 MB). A smaller ring only loses GC events, which a traced run
    counts in gc.lost_events."""
    limit = resource.getrlimit(resource.RLIMIT_FSIZE)[0]
    for log_words in range(16, 10, -1):
        if limit == resource.RLIM_INFINITY or ring_bytes(log_words) <= limit:
            return log_words
    return 10


def run(args):
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    # The runtime_events ring lives in perfbench/out; the runtime removes
    # its file when the process exits.
    env["OCAML_RUNTIME_EVENTS_DIR"] = OUT
    env["OCAMLRUNPARAM"] = ",".join(
        p for p in [env.get("OCAMLRUNPARAM", ""), "e=%d" % ring_log_words()]
        if p)
    # A write past the file-size limit then fails with an error message
    # instead of a silent SIGXFSZ.
    return subprocess.run(
        [EXE] + args + ["--out", OUT], cwd=ROOT, env=env,
        stdout=subprocess.PIPE, text=True,
        preexec_fn=lambda: signal.signal(signal.SIGXFSZ, signal.SIG_IGN))


def option(args, name, default):
    return args[args.index(name) + 1] if name in args else default


def last_json(lines):
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        return None


def measure(args):
    """Runs one workload; returns (exit code, result dict or None)."""
    p = run(args)
    sys.stdout.write(p.stdout)
    return p.returncode, last_json(p.stdout.strip().splitlines())


def run_all(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seed = option(args, "--seed", "1")
    seconds = option(args, "--seconds", str(bench["run_seconds"]))
    results, ok = {}, True
    for w in bench["workloads"]:
        for trace in ("0", "1"):
            code, res = measure(["--workload", w["name"], "--seed", seed,
                                 "--seconds", seconds, "--trace", trace])
            res = res or {"correct": False, "metrics": {}}
            ok = ok and code == 0 and res["correct"]
            results.setdefault(w["name"], {})["trace" + trace] = res
    names = [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    width = max(len(n) for n in names)
    print("%-*s %s" % (width, "metric",
                       " ".join("%16s" % w for w in results)))
    for n in names:
        row = []
        for r in results.values():
            m = r["trace0"]["metrics"].get(n) or r["trace1"]["metrics"].get(n)
            row.append("%16.6g" % m["value"] if m else "%16s" % "-")
        print("%-*s %s" % (width, n, " ".join(row)))
    for name, r in results.items():
        print("%s: correct=%s attempted=%s failed=%s" % (
            name, r["trace0"].get("correct") and r["trace1"].get("correct"),
            r["trace0"].get("attempted"), r["trace0"].get("failed")))
    with open(os.path.join(OUT, "results.json"), "w") as f:
        json.dump({"seed": int(seed), "seconds": float(seconds),
                   "results": results}, f, indent=1)
    return 0 if ok else 1


def main():
    args = sys.argv[1:]
    if not build():
        print("build failed", file=sys.stderr)
        return 1
    if option(args, "--workload", "") == "all":
        return run_all(args)
    return measure(args)[0]


if __name__ == "__main__":
    sys.exit(main())
