#!/usr/bin/env python3
"""ISA confinement check for the lane kernels.

Only two translation units are built with vector ISA flags:
field/montgomery_avx2.cpp (-mavx2) and field/montgomery_avx512.cpp
(-mavx512f -mavx512dq). FieldOps dispatch keeps hosts without those
ISAs off their entry points, which is only safe if every VEX/EVEX
instruction in a binary belongs to code reached through those entry
points: the batch members of MontgomeryLaneField and the lane kernel's
own helpers (namespace camelot::lanes). A function anywhere else that holds
such an instruction (an inline or template function whose ISA-flagged
copy the linker happened to keep, or a file built with the wrong flags)
runs on every host, whatever the dispatch decided, and faults on one
without the ISA.

Usage: check_isa_confinement.py BINARY...

Disassembles each binary with objdump and lists every function outside
the allowed set that contains a VEX/EVEX instruction (a v-prefixed
mnemonic, or a ymm/zmm/mask register operand). Exits 0 when there is
none, 1 when there is, and 77 (skipped, reason printed) off x86-64 or
without objdump.
"""
import platform
import re
import shutil
import subprocess
import sys

SKIP = 77

# Functions allowed to hold VEX/EVEX code, matched at the start of their
# own qualified name (not of a template argument or a parameter type):
# the batch members, which run only after dispatch chose their ISA (the
# constructor runs before, so it must stay baseline code), and the lane
# kernel's internal helpers.
ALLOWED = re.compile(
    r"camelot::MontgomeryLaneField<[^<>]*>::(mul_vec|scale_vec|"
    r"addmul_inplace|submul_inplace|add_inplace|sub_from_scalar|dot|"
    r"lagrange_block|yates_level|ntt_dif|ntt_dit)\(|camelot::lanes::")

FUNC_RE = re.compile(r"^[0-9a-f]+ <(.+)>:$")
INSN_RE = re.compile(r"^\s+[0-9a-f]+:\t(\S+)\s*(.*)$")
VEC_OPERAND_RE = re.compile(r"%[yz]mm\d|%k[0-7]\b")
# Operator names whose angle brackets are not template brackets.
OPERATOR_RE = re.compile(r"operator(<<=|>>=|<=>|<<|>>|<=|>=|->\*|->|<|>)")


def is_vex(mnemonic, operands):
    if mnemonic.startswith("v") and mnemonic not in ("verr", "verw"):
        return True
    return VEC_OPERAND_RE.search(operands) is not None


def allowed(name):
    """True iff the function's own name starts with an allowed name.

    A demangled template function name carries its return type first,
    so the prefix may follow a space; any nesting (template arguments,
    parameter lists) means the match names some other function's
    argument, not the function itself.
    """
    name = OPERATOR_RE.sub("operator@", name)
    depth = 0
    for i, ch in enumerate(name):
        if depth == 0 and (i == 0 or name[i - 1] == " "):
            if ALLOWED.match(name, i):
                return True
        if ch in "<([{":
            depth += 1
        elif ch in ">)]}":
            depth = max(depth - 1, 0)
    return False


def scan(binary):
    """Returns (functions seen, {leaking function: (count, sample)})."""
    out = subprocess.run(
        ["objdump", "-d", "-C", "--no-show-raw-insn", binary],
        check=True, capture_output=True, text=True).stdout
    seen = 0
    leaks = {}
    name = None
    ok = True
    for line in out.splitlines():
        m = FUNC_RE.match(line)
        if m:
            name = m.group(1)
            ok = allowed(name)
            seen += 1
            continue
        if name is None or ok:
            continue
        m = INSN_RE.match(line)
        if m and is_vex(m.group(1), m.group(2)):
            count, sample = leaks.get(name, (0, None))
            leaks[name] = (count + 1, sample or f"{m.group(1)} {m.group(2)}")
    return seen, leaks


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    if platform.machine().lower() not in ("x86_64", "amd64"):
        print(f"SKIP: not an x86-64 host ({platform.machine()}); "
              "there are no VEX/EVEX encodings to confine")
        return SKIP
    if shutil.which("objdump") is None:
        print("SKIP: objdump not found; cannot disassemble the binaries")
        return SKIP
    failed = False
    for binary in argv[1:]:
        seen, leaks = scan(binary)
        if seen == 0:
            print(f"FAIL {binary}: objdump listed no functions")
            failed = True
            continue
        if leaks:
            failed = True
            print(f"FAIL {binary}: {len(leaks)} function(s) outside the "
                  "lane kernels hold VEX/EVEX instructions:")
            for fn, (count, sample) in sorted(leaks.items()):
                print(f"  {count:5d}  {fn}\n         e.g. {sample}")
        else:
            print(f"ok   {binary}: {seen} functions, VEX/EVEX code only in "
                  "the lane kernels")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
