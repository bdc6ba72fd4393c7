#!/usr/bin/env python3
"""Reproduces the netsim_cli --shards divergence that keeps the sharded
kernel out of the benchmark (perfbench/NOTES.md, "Why no sharded workload").

    python3 perfbench/shards_repro.py <out_dir> [--netsim <path to netsim_cli>]

Writes three k=8 fat-tree scenarios into <out_dir>: both.pds (8 cross-pod
open-loop mix routes plus 4 cross-pod RPC services), mix.pds (the mix routes
alone) and rpc.pds (the RPC services alone). With --netsim it runs each
serially and with --shards=2 and --shards=4 and reports whether stdout is
byte-identical to the serial run.
"""

import argparse
import pathlib
import subprocess

HEADER = "topology fat_tree k=8 capacity=39.375 sched=wtp sdp=1,2,4"
RUN = "run until=200000 seed=21"


def mix_lines():
    out = []
    for i in range(8):
        out.append(f"route m{i} from=p{i}edge0 to=p{(i + 1) % 8}edge0")
        out.append(f"source mix m{i} fractions=60,30,10 gap=30 size=441 "
                   "pareto=1.9")
    return out


def rpc_lines():
    out = []
    for i in range(4):
        out.append(f"route r{i} from=p{i}edge1 to=p{i + 4}edge1")
        out.append(f"flows r{i} class=2 users=24 size=441 think=1500 "
                   "request=2 response=2 deadline=450 rto=900 retries=2 "
                   "backoff=2 throttle=50 throttle_ratio=0.2")
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("out_dir")
    parser.add_argument("--netsim")
    args = parser.parse_args()
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    scenarios = {
        "both": [HEADER, *mix_lines(), *rpc_lines(), RUN],
        "mix": [HEADER, *mix_lines(), RUN],
        "rpc": [HEADER, *rpc_lines(), RUN],
    }
    for name, lines in scenarios.items():
        (out / f"{name}.pds").write_text("\n".join(lines) + "\n")
    if not args.netsim:
        return
    for name in scenarios:
        runs = {}
        for shards in (1, 2, 4):
            runs[shards] = subprocess.run(
                [args.netsim, f"--file={out / (name + '.pds')}",
                 f"--shards={shards}"],
                stdout=subprocess.PIPE, check=True).stdout
        verdict = ["same" if runs[s] == runs[1] else "DIFFERS"
                   for s in (2, 4)]
        print(f"{name}: shards=2 {verdict[0]}, shards=4 {verdict[1]}")


if __name__ == "__main__":
    main()
