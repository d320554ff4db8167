#!/usr/bin/env python3
"""Name the PCs a pc_profile run sampled.

    python3 tools/pc_profile/report.py pc_profile.<pid>.txt [--top N]
                                       [--require FUNCTION ...]

PCs in the executable are named with `addr2line -i -f -C`, so a PC inside
inlined code lists its whole inline chain; the report ranks functions by
the innermost frame (where the time is spent) and by the outermost one (the
real function the code was inlined into).  PCs in shared objects take the
nearest exported symbol at or below them (`nm -D`), plus the run-time IFUNC
targets the sampler recorded: glibc's libm selects its `log`, `exp` and
`pow` implementations (and libc its `memcpy` and `memset`) through IFUNCs
whose code has no name in the library's symbol table, so a plain
nearest-symbol lookup would charge it to an unrelated neighbour.  The
report flags libm's `log` region by name.

`--require FUNCTION` exits 1 unless some ranked function name contains
FUNCTION (a smoke check that the profile can see into the program).
"""
from __future__ import annotations

import argparse
import bisect
import collections
import re
import signal
import struct
import subprocess
import sys


def read_profile(path):
    prof = {"maps": [], "syms": [], "pcs": [], "exe": "", "cpu_s": 0.0, "dropped": 0}
    with open(path, encoding="utf-8") as f:
        for line in f:
            parts = line.rstrip("\n").split(" ", 4)
            kind = parts[0]
            if kind == "map":
                start, end, offset = (int(p, 16) for p in parts[1:4])
                name = parts[4] if len(parts) > 4 else ""
                prof["maps"].append((start, end, offset, name))
            elif kind == "sym":
                prof["syms"].append((int(parts[1], 16), " ".join(parts[2:])))
            elif kind == "pc":
                prof["pcs"].append((int(parts[1], 16), int(parts[2])))
            elif kind == "exe":
                prof["exe"] = line[4:].rstrip("\n")
            elif kind == "cpu_s":
                prof["cpu_s"] = float(parts[1])
            elif kind == "dropped":
                prof["dropped"] = int(parts[1])
    prof["maps"].sort()
    return prof


def load_segments(path):
    """The PT_LOAD (p_offset, p_vaddr, p_filesz) triples of an ELF64 file."""
    try:
        with open(path, "rb") as f:
            ident = f.read(64)
            if ident[:4] != b"\x7fELF" or ident[4] != 2:
                return []
            endian = "<" if ident[5] == 1 else ">"
            phoff = struct.unpack_from(endian + "Q", ident, 0x20)[0]
            phentsize, phnum = struct.unpack_from(endian + "HH", ident, 0x36)
            f.seek(phoff)
            table = f.read(phentsize * phnum)
    except OSError:
        return []
    segs = []
    for i in range(phnum):
        p_type, _, p_offset, p_vaddr, _, p_filesz = struct.unpack_from(
            endian + "IIQQQQ", table, i * phentsize)
        if p_type == 1:
            segs.append((p_offset, p_vaddr, p_filesz))
    return segs


def to_vaddr(pc, mapping, segs):
    """The link-time address of run-time `pc` inside `mapping`."""
    start, _, offset, _ = mapping
    file_off = pc - start + offset
    for p_offset, p_vaddr, p_filesz in segs:
        if p_offset <= file_off < p_offset + p_filesz:
            return file_off - p_offset + p_vaddr
    return file_off


def exe_frames(exe, vaddrs):
    """addr2line's inline chain (innermost first) for each address."""
    if not vaddrs:
        return {}
    out = subprocess.run(
        ["addr2line", "-a", "-i", "-f", "-C", "-e", exe],
        input="\n".join(f"{a:#x}" for a in vaddrs), capture_output=True, text=True,
        check=True).stdout.splitlines()
    frames, current, want_function = {}, None, True
    for line in out:
        if re.fullmatch(r"0x[0-9a-f]+", line):
            current, want_function = int(line, 16), True
            frames[current] = []
            continue
        if current is not None and want_function:
            frames[current].append(line)  # the next line is its file:line
        want_function = not want_function
    return frames


def dynamic_symbols(path):
    try:
        out = subprocess.run(["nm", "-D", "--defined-only", path], capture_output=True,
                             text=True, check=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return []
    syms = []
    for line in out.splitlines():
        parts = line.split()
        if len(parts) == 3 and parts[1] in "TtWwi":
            syms.append((int(parts[0], 16), parts[2].split("@")[0]))
    return sorted(syms)


def main():
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)  # quiet when piped into `head`
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--require", action="append", default=[])
    args = ap.parse_args()

    prof = read_profile(args.profile)
    maps = prof["maps"]
    starts = [m[0] for m in maps]
    total = sum(c for _, c in prof["pcs"])
    rate = total / prof["cpu_s"] if prof["cpu_s"] > 0 else 0.0
    print(f"pc_profile: {total} samples over {prof['cpu_s']:.2f} CPU s "
          f"({rate:.0f} samples/CPU-s), {prof['dropped']} dropped")
    if total == 0:
        return 1 if args.require else 0

    by_object = collections.defaultdict(list)  # mapping -> [(pc, count)]
    unmapped = 0
    for pc, count in prof["pcs"]:
        k = bisect.bisect_right(starts, pc) - 1
        if k >= 0 and maps[k][0] <= pc < maps[k][1]:
            by_object[maps[k]].append((pc, count))
        else:
            unmapped += count

    inner = collections.Counter()
    outer = collections.Counter()
    flagged = collections.Counter()
    seg_cache = {}
    exe_pcs = []  # (vaddr, count)
    for mapping, pcs in by_object.items():
        name = mapping[3]
        segs = seg_cache.setdefault(name, load_segments(name))
        if name == prof["exe"]:
            exe_pcs += [(to_vaddr(pc, mapping, segs), c) for pc, c in pcs]
            continue
        base = name.rsplit("/", 1)[-1] or "[anon]"
        syms = dynamic_symbols(name) if name.startswith("/") else []
        for addr, label in prof["syms"]:
            if mapping[0] <= addr < mapping[1]:
                syms.append((to_vaddr(addr, mapping, segs), label))
        syms.sort()
        keys = [s[0] for s in syms]
        for pc, c in pcs:
            v = to_vaddr(pc, mapping, segs)
            k = bisect.bisect_right(keys, v) - 1
            fn = syms[k][1] if k >= 0 else "??"
            label = f"{fn} [{base}]"
            inner[label] += c
            outer[label] += c
            if any(fn == label for _, label in prof["syms"]):
                flagged[fn] += c

    frames = exe_frames(prof["exe"], sorted({v for v, _ in exe_pcs}))
    exe_base = prof["exe"].rsplit("/", 1)[-1]
    for v, c in exe_pcs:
        chain = [f for f in frames.get(v, []) if f] or ["??"]
        inner[f"{chain[0]} [{exe_base}]"] += c
        outer[f"{chain[-1]} [{exe_base}]"] += c
    if unmapped:
        inner["[unmapped]"] += unmapped
        outer["[unmapped]"] += unmapped

    for title, counter in (("innermost frame (inlined code named)", inner),
                           ("containing function (outermost inline frame)", outer)):
        print(f"\n== by {title} ==")
        for label, c in counter.most_common(args.top):
            print(f"{100.0 * c / total:6.2f} % {c:9d}  {label}")
    print("\n== IFUNC targets (unnamed in their library's symbol table) ==")
    if not prof["syms"]:
        print("none recorded")
    for _, label in prof["syms"]:
        c = flagged[label]
        note = "  <- `log`, and `log10` through it" if label == "libm internal log" else ""
        print(f"{100.0 * c / total:6.2f} % {c:9d}  {label}{note}")

    missing = [r for r in args.require
               if not any(r in label for label in list(inner) + list(outer))]
    for r in missing:
        print(f"pc_profile report: no sampled function names {r!r}", file=sys.stderr)
    return 1 if missing else 0


if __name__ == "__main__":
    sys.exit(main())
