#!/usr/bin/env python3
"""Codegen check for the x86 GEMM micro-kernels.

Every GEMM tile of every local-SGD step runs one `kloop_*` call, so a fixed
cost per call is paid millions of times per sweep.  The kernels keep their
C tile in vector registers (the init/store loops carry `#pragma GCC unroll
<MR>`, see src/tensor/gemm_kernel.hpp).  When the compiler instead keeps the
accumulator array in memory, each call clears it with `rep stos` and moves
every accumulator through the stack on the way in and out; the arithmetic
and its bits stay the same, only the speed drops.  This check disassembles
the avx2 and avx512 kernel objects with objdump and fails on:

  rep-stos    any `rep stos` inside a kloop_* function;
  vec-stack   any ymm/zmm load or store addressed off %rsp or %rbp inside a
              kloop_* function (a spilled or stack-resident accumulator).

Usage:

  python3 tools/check_kernel_codegen.py --build-dir build
  python3 tools/check_kernel_codegen.py path/to/gemm_kernels_avx512.cpp.o ...

With --build-dir, the two kernel objects are looked up under the build tree
(CMake names them gemm_kernels_avx2.cpp.o and gemm_kernels_avx512.cpp.o).
The check is meant for an optimised GCC x86-64 build; a Debug build keeps
everything on the stack and fails it by design.

Exit codes: 0 clean, 1 violations (or self-test failure), 2 usage error.

`--self-test` runs the parser against canned objdump listings — one violation
per rule, plus register-only and non-kernel lines that must stay clean — and
asserts the exact findings.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

KERNEL_OBJECTS = ("gemm_kernels_avx2.cpp.o", "gemm_kernels_avx512.cpp.o")

FUNCTION_HEADER = re.compile(r"^[0-9a-f]+ <(?P<name>[^>]+)>:$")
REP_STOS = re.compile(r"\brep\s+stos")
VECTOR_REG = re.compile(r"%[yz]mm\d+")
STACK_OPERAND = re.compile(r"\(%r[sb]p[,)]")


def scan_listing(text):
    """Returns {function: [(rule, instruction), ...]} for every kloop_*
    function in an objdump -d listing, clean functions included."""
    findings = {}
    current = None
    for raw in text.splitlines():
        header = FUNCTION_HEADER.match(raw.strip())
        if header:
            name = header.group("name")
            current = name if "kloop_" in name else None
            if current is not None:
                findings[current] = []
            continue
        if current is None or ":" not in raw:
            continue
        instruction = raw.split(":", 1)[1].strip()
        if REP_STOS.search(instruction):
            findings[current].append(("rep-stos", instruction))
        elif VECTOR_REG.search(instruction) and STACK_OPERAND.search(instruction):
            findings[current].append(("vec-stack", instruction))
    return findings


def disassemble(path):
    objdump = shutil.which("objdump")
    if objdump is None:
        raise SystemExit("check_kernel_codegen: objdump not found on PATH")
    result = subprocess.run(
        [objdump, "-d", "-w", "--no-show-raw-insn", path],
        capture_output=True,
        text=True,
        check=False,
    )
    if result.returncode != 0:
        raise SystemExit(f"check_kernel_codegen: objdump failed on {path}:\n{result.stderr}")
    return result.stdout


def find_objects(build_dir):
    found = {}
    for directory, _, files in sorted(os.walk(build_dir)):
        for name in files:
            if name in KERNEL_OBJECTS and name not in found:
                found[name] = os.path.join(directory, name)
    missing = [name for name in KERNEL_OBJECTS if name not in found]
    if missing:
        raise SystemExit(
            f"check_kernel_codegen: {', '.join(missing)} not found under {build_dir} "
            "(build the library first)"
        )
    return [found[name] for name in KERNEL_OBJECTS]


def run(paths):
    total = 0
    kernels = 0
    for path in paths:
        for function, hits in scan_listing(disassemble(path)).items():
            kernels += 1
            total += len(hits)
            counts = {}
            for rule, _ in hits:
                counts[rule] = counts.get(rule, 0) + 1
            summary = ", ".join(f"{rule} {n}" for rule, n in sorted(counts.items()))
            print(f"{os.path.basename(path)}: {function}: {summary or 'clean'}")
            for rule, instruction in hits:
                print(f"  [{rule}] {instruction}")
    if kernels == 0:
        print("check_kernel_codegen: no kloop_* function found (wrong objects?)")
        return 1
    if total:
        print(f"check_kernel_codegen: {total} violation(s) in {kernels} kernel(s)")
        return 1
    print(f"check_kernel_codegen: clean ({kernels} kernels)")
    return 0


# ------------------------------------------------------------- self-test --

SELF_TEST_LISTING = """
0000000000000000 <_ZN8fedhisyn5gemmk12_GLOBAL__N_116avx512_supportedEv>:
   0:\tvmovups %zmm0,0x40(%rsp)
   8:\trep stos %rax,%es:(%rdi)
0000000000000020 <_ZN8fedhisyn5gemmk12_GLOBAL__N_110kloop_8x16EPKPKflS3_llPflb>:
  20:\tvxorps %xmm0,%xmm0,%xmm0
  24:\tvmovups (%r9),%zmm1
  2a:\tvaddps %zmm2,%zmm1,%zmm1
  30:\tmov    0x8(%rsp),%rax
  35:\tvmovups %zmm1,(%r9,%r10,4)
  3c:\tret
0000000000000440 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflb>:
 440:\trep stos %rax,%es:(%rdi)
 444:\tvmovaps %zmm3,0x80(%rsp)
 44c:\tvmovups -0x40(%rbp),%ymm4
 451:\tvmovups (%rsp,%rax,4),%zmm5
 456:\tret
"""

SELF_TEST_EXPECTED = {
    "_ZN8fedhisyn5gemmk12_GLOBAL__N_110kloop_8x16EPKPKflS3_llPflb": [],
    "_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflb": [
        "rep-stos",
        "vec-stack",
        "vec-stack",
        "vec-stack",
    ],
}


def self_test():
    got = {
        function: [rule for rule, _ in hits]
        for function, hits in scan_listing(SELF_TEST_LISTING).items()
    }
    if got != SELF_TEST_EXPECTED:
        print(f"self-test FAIL: expected {SELF_TEST_EXPECTED}, got {got}")
        return 1
    print("self-test OK: both rules fire inside kloop_*; register and non-kernel lines stay clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("objects", nargs="*", help="kernel object files to check")
    parser.add_argument("--build-dir", help="build tree holding the kernel objects")
    parser.add_argument(
        "--self-test",
        action="store_true",
        help="run the canned-listing self-test and exit",
    )
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    paths = list(args.objects)
    if args.build_dir:
        if not os.path.isdir(args.build_dir):
            parser.error(f"--build-dir {args.build_dir} is not a directory")
        paths += find_objects(args.build_dir)
    if not paths:
        parser.error("give kernel object files or --build-dir (or use --self-test)")
    return run(paths)


if __name__ == "__main__":
    sys.exit(main())
