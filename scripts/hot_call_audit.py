#!/usr/bin/env python3
"""Hot-path call audit: the engine's per-edge helpers must inline.

`Machine<T>` is generic, so its event loop is compiled in whichever crate
names `T`. A non-generic helper it calls from mcd-sim, mcd-power or
mcd-workloads crosses that crate boundary as an opaque call unless the
helper is `#[inline]` (the release profile has no LTO). This script
disassembles a release binary, lists every call the engine's hot
functions make, resolves GOT-indirect calls to symbol names through the
dynamic relocations, and fails if any of them lands on a helper in the
deny-list below: accessor-sized helpers that must never be out of line.

Usage:
    scripts/hot_call_audit.py [BINARY]      # default: target/release/repro
    scripts/hot_call_audit.py BINARY -v     # also list every call target

Needs binutils (`nm`, `readelf`, `objdump`) and python3.
"""

import re
import subprocess
import sys
from collections import Counter

# The per-edge and per-event functions of `Machine<T>`. Any of them may
# itself be inlined into `try_advance_traced`; at least one must exist.
HOT = ("tick_backend", "tick_frontend", "try_advance_traced", "wake_domain")

# Helpers that must be inlined into the hot functions, as demangled-name
# prefixes. Each is a few instructions, or a short branch to a cached value.
DENY = (
    "mcd_sim::clock::DomainClock::frequency_at",
    "mcd_sim::clock::DomainClock::cycles_to_time",
    "mcd_sim::clock::DomainClock::steady_ro",
    "mcd_sim::clock::DomainClock::moving_at",
    "mcd_sim::config::DomainId::backend_index",
    "mcd_sim::engine::FuPool::try_issue",
    "mcd_sim::engine::FuPool::busy_count",
    "mcd_sim::engine::FuPool::next_free_after",
    "mcd_sim::queue::IssueQueue::push",
    "mcd_sim::rob::Rob::push",
    "mcd_sim::rob::Rob::retire_head",
    "mcd_sim::regfile::FreeList::release",
    "mcd_sim::bpred::Counter2::update",
    "mcd_sim::scheduler::pick_next",
    "mcd_power::vf_curve::VfCurve::max",
    "mcd_power::vf_curve::VfCurve::point",
    "mcd_power::types::Frequency::period_ps",
    "mcd_power::types::Voltage::from_volts",
    "mcd_workloads::uop::MicroOp::sources",
)


def run(*cmd):
    return subprocess.run(cmd, check=True, capture_output=True, text=True).stdout


def symbols(binary):
    """(address, size, demangled name) of every sized text symbol."""
    out = []
    for line in run("nm", "-S", "-C", "--defined-only", binary).splitlines():
        parts = line.split(None, 3)
        if len(parts) == 4 and parts[2] in "tTwW":
            out.append((int(parts[0], 16), int(parts[1], 16), parts[3]))
    return out


def got_targets(binary, by_addr):
    """GOT slot address -> the symbol its dynamic relocation points at."""
    slots = {}
    for line in run("readelf", "-rW", binary).splitlines():
        parts = line.split()
        if len(parts) < 4 or not re.fullmatch(r"[0-9a-f]+", parts[0]):
            continue
        slot = int(parts[0], 16)
        if parts[2] == "R_X86_64_RELATIVE":
            slots[slot] = by_addr.get(int(parts[3], 16), "0x" + parts[3])
        elif parts[2] in ("R_X86_64_GLOB_DAT", "R_X86_64_JUMP_SLOT"):
            slots[slot] = parts[4] if len(parts) > 4 else "?"
    return slots


DIRECT = re.compile(r"\bcall\s+[0-9a-f]+ <(.+)>$")
INDIRECT = re.compile(r"\bcall\s+\*0x[0-9a-f]+\(%rip\)\s+# ([0-9a-f]+)")


def calls(binary, start, size, slots):
    """Resolved targets of the direct and GOT-indirect calls in a function."""
    text = run(
        "objdump", "-d", "-C", "--no-show-raw-insn",
        f"--start-address={start:#x}", f"--stop-address={start + size:#x}", binary,
    )
    targets = []
    for line in text.splitlines():
        m = DIRECT.search(line)
        if m:
            targets.append(re.sub(r"\+0x[0-9a-f]+$", "", m.group(1)))
            continue
        m = INDIRECT.search(line)
        if m:
            targets.append(slots.get(int(m.group(1), 16), "GOT+" + m.group(1)))
    return targets


def main():
    args = [a for a in sys.argv[1:] if a != "-v"]
    verbose = "-v" in sys.argv[1:]
    binary = args[0] if args else "target/release/repro"
    syms = symbols(binary)
    by_addr = {}
    for addr, _, name in syms:
        by_addr.setdefault(addr, name)
    slots = got_targets(binary, by_addr)

    hot = [
        (addr, size, name)
        for addr, size, name in syms
        if re.search(r"mcd_sim::engine::Machine<.*>::(%s)$" % "|".join(HOT), name)
    ]
    if not hot:
        print(f"hot-call audit: no Machine hot function found in {binary}", file=sys.stderr)
        return 2

    bad = 0
    for addr, size, name in sorted(hot, key=lambda s: s[2]):
        targets = calls(binary, addr, size, slots)
        denied = Counter(t for t in targets if t.startswith(DENY))
        # Calls into the workspace crates other than Machine's own methods.
        helpers = [t for t in targets if re.match(r"<?mcd_", t) and "::Machine<" not in t]
        short = name.rsplit("::", 1)[1]
        print(f"{short:<20} @{addr:#x}: {len(targets)} out-of-line calls, "
              f"{len(helpers)} into workspace helpers, "
              f"{sum(denied.values())} to deny-listed ones")
        for t, n in sorted(denied.items()):
            print(f"    DENIED {n:>3} x {t}")
        if verbose:
            for t, n in Counter(targets).most_common():
                print(f"           {n:>3} x {t}")
        bad += sum(denied.values())
    if bad:
        print(f"hot-call audit: FAILED, {bad} out-of-line calls to helpers that must inline")
        return 1
    print("hot-call audit: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
