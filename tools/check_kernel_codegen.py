#!/usr/bin/env python3
"""Codegen check for the x86 GEMM micro-kernels, the vector plane and the FP contract.

Every GEMM tile of every local-SGD step runs one `kloop_*` call, so a fixed
cost per call is paid millions of times per sweep.  The kernels keep their
C tile in vector registers (the init/store loops carry `#pragma GCC unroll
<MR>`, see src/tensor/gemm_kernel.hpp).  When the compiler instead keeps the
accumulator array in memory, each call clears it with `rep stos` and moves
every accumulator through the stack on the way in and out; the arithmetic
and its bits stay the same, only the speed drops.  This check disassembles
the generic, avx2 and avx512 kernel objects with objdump and fails a
kloop_* function on:

  rep-stos    any `rep stos`;
  vec-stack   any full-width ymm/zmm load or store addressed off %rsp or
              %rbp (a spilled or stack-resident accumulator).  A broadcast
              of a stack scalar of at most 8 bytes (`vpbroadcastd
              0x20(%rbp),%zmm1`, or an EVEX {1toN} operand) reads an
              argument, not a tile, and passes;
  mask-stack  any kmov to or from a stack slot: GCC 12 keeps a loop-invariant
              AVX-512 k-mask in a general register, and with every general
              register taken by the row pointers it spills the mask and
              reloads it every k step (`kmovw -0x4(%rsp),%k2`);
  jcc-32b     a conditional jump that, together with the
              cmp/test/add/sub/and/inc/dec it macro-fuses with, crosses or
              ends on a 32-byte boundary.  On Skylake-family cores (the JCC
              erratum) the code around such a jump runs from the legacy
              decoders instead of the micro-op cache; a k-loop back-edge
              there slows every k step.  CMakeLists.txt assembles the kernel
              TUs with -mbranches-within-32B-boundaries, which pads every
              jump clear.  Offsets are section-relative; the library's
              32-byte function alignment keeps them mod 32 through the link.

It checks the vector plane (src/tensor/gemm_plane.inc) built into the
avx2 and avx512 kernel objects, and fails a plane_* function on:

  scalar-plane  no loop (a backward conditional jump and the code it
              repeats) that runs a ymm/zmm instruction: the plane exists to
              run each loop at the ISA's full width, and a scalarised build
              keeps the bits while losing the speed;

and the max-pool backward plane entry, whose argmax must be found with
comparison masks because a branch on the data mispredicts on every other
window, in every kernel object:

  fp-branch   a conditional jump whose flags come from comiss/ucomiss.

Finally it disassembles the whole library (libfedhisyn.a) and fails any
function on:

  fma         a vfmadd/vfmsub/vfnmadd/vfnmsub instruction.  The library
              builds with -ffp-contract=off (CMakeLists.txt) because a fused
              multiply-add skips the product's rounding and changes result
              bytes; this is the static twin of that flag.

Usage:

  python3 tools/check_kernel_codegen.py --build-dir build
  python3 tools/check_kernel_codegen.py path/to/gemm_kernels_avx512.cpp.o ...

With --build-dir, the objects are looked up under the build tree (CMake
names them gemm_kernels_generic.cpp.o, gemm_kernels_avx2.cpp.o and
gemm_kernels_avx512.cpp.o), and so is libfedhisyn.a for the fma rule.  The check is meant for an
optimised GCC x86-64 build; a Debug build keeps everything on the stack and
fails it by design.

Exit codes: 0 clean, 1 violations (or self-test failure), 2 usage error.

`--self-test` runs the parser against canned objdump listings — one violation
per rule, plus register-only, forward-jump and non-checked lines that must
stay clean — and asserts the exact findings.
"""

import argparse
import os
import re
import shutil
import subprocess
import sys

CHECKED_OBJECTS = (
    "gemm_kernels_generic.cpp.o",
    "gemm_kernels_avx2.cpp.o",
    "gemm_kernels_avx512.cpp.o",
)
LIBRARY = "libfedhisyn.a"

FUNCTION_HEADER = re.compile(r"^[0-9a-f]+ <(?P<name>[^>]+)>:$")
INSTRUCTION = re.compile(r"^\s*(?P<addr>[0-9a-f]+):\s*(?P<text>.*)$")
REP_STOS = re.compile(r"\brep\s+stos")
VECTOR_REG = re.compile(r"%[yz]mm\d+")
STACK_OPERAND = re.compile(r"\(%r[sb]p[,)]")
# A load of one scalar of at most 8 bytes into every lane.
SCALAR_BROADCAST = re.compile(r"^v(p?broadcast(ss|sd|[bwdq])\b)|\{1to\d+\}")
FMA = re.compile(r"^vf(n?madd|n?msub|maddsub|msubadd)")
MASK_MOVE = re.compile(r"^kmov[bwdq]\b")
# A conditional jump (objdump prints `jne    1cf <sym+0x..>`).
CONDITIONAL_JUMP = re.compile(r"^j(?!mp\b)[a-z]+\s")
# Instructions that macro-fuse with a following conditional jump.
FUSIBLE = re.compile(r"^(cmp|test|add|sub|and|inc|dec)[bwlq]?\s")
FP_COMPARE = re.compile(r"^v?u?comis[sd]\s")
# Integer instructions that overwrite the flags a comiss left.
FLAG_WRITER = re.compile(
    r"^(cmp|test|add|sub|and|or|xor|neg|inc|dec|shl|shr|sal|sar|rol|ror|imul|"
    r"adc|sbb|bt[crs]?|bsf|bsr|popcnt|lzcnt|tzcnt)[bwlq]?\s|^call"
)


def is_kernel(name):
    return "kloop_" in name


def is_pool_backward(name):
    return "maxpool2_backward" in name


def is_plane(name):
    return "plane_" in name


def parse_functions(text, wanted=lambda name: is_kernel(name) or is_plane(name)):
    """Returns {function: [(address, instruction), ...]} for every function
    `wanted` selects (by default kloop_* and plane_*) in an objdump -d
    listing."""
    functions = {}
    current = None
    for raw in text.splitlines():
        header = FUNCTION_HEADER.match(raw.strip())
        if header:
            name = header.group("name")
            current = name if wanted(name) else None
            if current is not None:
                functions[current] = []
            continue
        match = INSTRUCTION.match(raw) if current is not None else None
        if match:
            functions[current].append((int(match.group("addr"), 16), match.group("text").strip()))
    return functions


def fuses(instruction):
    """True when `instruction` macro-fuses with a following conditional
    jump: a cmp/test/add/sub/and/inc/dec without both an immediate and a
    memory operand (`cmpq $0x1,-0x8(%rsp)` does not fuse)."""
    return bool(FUSIBLE.match(instruction)) and not ("$" in instruction and "(" in instruction)


def crosses_32b(start, end):
    """True when the bytes [start, end) cross or end on a 32-byte boundary."""
    return start // 32 != (end - 1) // 32 or end % 32 == 0


def kernel_findings(instructions):
    findings = []
    for index, (address, instruction) in enumerate(instructions):
        if REP_STOS.search(instruction):
            findings.append(("rep-stos", instruction))
        elif (
            VECTOR_REG.search(instruction)
            and STACK_OPERAND.search(instruction)
            and not SCALAR_BROADCAST.search(instruction)
        ):
            findings.append(("vec-stack", instruction))
        elif MASK_MOVE.match(instruction) and STACK_OPERAND.search(instruction):
            findings.append(("mask-stack", instruction))
        if not CONDITIONAL_JUMP.match(instruction):
            continue
        if index + 1 >= len(instructions):
            continue  # the length of a function's last instruction is unknown
        start = address
        end = instructions[index + 1][0]
        previous = instructions[index - 1] if index > 0 else None
        if previous is not None and fuses(previous[1]):
            start = previous[0]
        if crosses_32b(start, end):
            findings.append(("jcc-32b", f"{start:x}-{end - 1:x}: {instruction}"))
    return findings


def pool_findings(instructions):
    findings = []
    flags_from_fp = False
    for _, instruction in instructions:
        if FP_COMPARE.match(instruction):
            flags_from_fp = True
        elif FLAG_WRITER.match(instruction):
            flags_from_fp = False
        elif CONDITIONAL_JUMP.match(instruction) and flags_from_fp:
            findings.append(("fp-branch", instruction))
    return findings


JUMP_TARGET = re.compile(r"^j[a-z]+\s+(?P<target>[0-9a-f]+)\b")


def plane_findings(instructions):
    """scalar-plane: no backward conditional jump whose loop body runs a
    ymm/zmm instruction."""
    for address, instruction in instructions:
        target = JUMP_TARGET.match(instruction)
        if not CONDITIONAL_JUMP.match(instruction) or target is None:
            continue
        start = int(target.group("target"), 16)
        if start <= address and any(
            VECTOR_REG.search(text) for at, text in instructions if start <= at <= address
        ):
            return []
    return [("scalar-plane", "no loop runs a ymm/zmm instruction")]


def fma_findings(instructions):
    return [("fma", instruction) for _, instruction in instructions if FMA.match(instruction)]


def scan_listing(text, vector_isa=True):
    """Returns {function: [(rule, instruction), ...]} for every checked
    function in an objdump -d listing of a kernel object, clean functions
    included.  `vector_isa` is false for the generic object, whose plane is
    built for the baseline ISA."""
    found = {}
    for name, instructions in parse_functions(text).items():
        if is_kernel(name):
            found[name] = kernel_findings(instructions)
        elif is_pool_backward(name):
            found[name] = pool_findings(instructions)
            if vector_isa:
                found[name] += plane_findings(instructions)
        elif vector_isa:
            found[name] = plane_findings(instructions)
    return found


def scan_library(text):
    """Returns {function: [("fma", instruction), ...]} for every function of
    a library listing that holds an FMA instruction."""
    found = {}
    for name, instructions in parse_functions(text, wanted=lambda _: True).items():
        hits = fma_findings(instructions)
        if hits:
            found[name] = hits
    return found


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
    wanted = CHECKED_OBJECTS + (LIBRARY,)
    found = {}
    for directory, _, files in sorted(os.walk(build_dir)):
        for name in files:
            if name in wanted and name not in found:
                found[name] = os.path.join(directory, name)
    missing = [name for name in wanted if name not in found]
    if missing:
        raise SystemExit(
            f"check_kernel_codegen: {', '.join(missing)} not found under {build_dir} "
            "(build the library first)"
        )
    return [found[name] for name in wanted]


def scan_path(path):
    listing = disassemble(path)
    if path.endswith(".a"):
        return scan_library(listing)
    return scan_listing(listing, vector_isa="generic" not in os.path.basename(path))


def run(paths):
    total = 0
    checked = 0
    for path in paths:
        scanned = scan_path(path)
        if path.endswith(".a"):
            print(f"{os.path.basename(path)}: fma {sum(len(h) for h in scanned.values()) or 'clean'}")
        for function, hits in scanned.items():
            checked += 1
            total += len(hits)
            counts = {}
            for rule, _ in hits:
                counts[rule] = counts.get(rule, 0) + 1
            summary = ", ".join(f"{rule} {n}" for rule, n in sorted(counts.items()))
            print(f"{os.path.basename(path)}: {function}: {summary or 'clean'}")
            for rule, instruction in hits:
                print(f"  [{rule}] {instruction}")
    if checked == 0 and not any(path.endswith(".a") for path in paths):
        print("check_kernel_codegen: no kloop_* or plane_* found (wrong objects?)")
        return 1
    if total:
        print(f"check_kernel_codegen: {total} violation(s) in {checked} function(s)")
        return 1
    print(f"check_kernel_codegen: clean ({checked} functions)")
    return 0


# ------------------------------------------------------------- self-test --

SELF_TEST_LISTING = """
0000000000000000 <_ZN8fedhisyn5gemmk12_GLOBAL__N_116avx512_supportedEv>:
   0:\tvmovups %zmm0,0x40(%rsp)
   8:\trep stos %rax,%es:(%rdi)
   b:\tkmovw  -0x4(%rsp),%k2
  11:\tcmp    %rax,%rdi
  14:\tjne    0 <_ZN8fedhisyn5gemmk12_GLOBAL__N_116avx512_supportedEv>
  1a:\tret
0000000000000020 <_ZN8fedhisyn5gemmk12_GLOBAL__N_110kloop_8x16EPKPKflS3_llPflllNS0_9StoreModeE>:
  20:\tvxorps %xmm0,%xmm0,%xmm0
  24:\tvmovups (%r9),%zmm1
  2a:\tkmovw  %eax,%k1
  2e:\tvmovups (%r9),%zmm1{%k1}{z}
  34:\tvaddps %zmm2,%zmm1,%zmm1
  3a:\tmov    0x8(%rsp),%rax
  3f:\tvpbroadcastd 0x20(%rbp),%zmm3
  44:\tcmp    %rax,%rdi
  47:\tjne    24 <_ZN8fedhisyn5gemmk12_GLOBAL__N_110kloop_8x16EPKPKflS3_llPflllNS0_9StoreModeE+0x4>
  4d:\tvmovups %zmm1,(%r9,%r10,4)
  53:\tcmp    $0x1,%r12
  57:\tje     70 <_ZN8fedhisyn5gemmk12_GLOBAL__N_110kloop_8x16EPKPKflS3_llPflllNS0_9StoreModeE+0x50>
  5d:\tjmp    100 <_ZN8fedhisyn5gemmk12_GLOBAL__N_110kloop_8x16EPKPKflS3_llPflllNS0_9StoreModeE+0xe0>
  62:\tvaddps 0x8(%rsp){1to16},%zmm1,%zmm1
  68:\tvbroadcastss 0x4(%rsp),%ymm2
  6e:\tret
0000000000000440 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflllNS0_9StoreModeE>:
 440:\trep stos %rax,%es:(%rdi)
 444:\tvmovaps %zmm3,0x80(%rsp)
 44c:\tvmovups -0x40(%rbp),%ymm4
 451:\tvmovups (%rsp,%rax,4),%zmm5
 456:\tvaddps 0x40(%rsp),%zmm1,%zmm1
 458:\tkmovw  -0x4(%rsp),%k2
 55c:\tcmp    %rax,%rdi
 55f:\tjne    4e0 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflllNS0_9StoreModeE+0xa0>
 565:\tmov    %rax,%rbx
 568:\tjle    4e0 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflllNS0_9StoreModeE+0xa0>
 56e:\tmov    %rax,%rbx
 5ba:\tjne    580 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflllNS0_9StoreModeE+0x140>
 5c0:\tmov    %rax,%rbx
 5dd:\tcmp    %rax,%rdi
 5e0:\tjne    5a0 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflllNS0_9StoreModeE+0x160>
 5e2:\tmov    %rax,%rbx
 5fc:\tje     640 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflllNS0_9StoreModeE+0x200>
 602:\tmov    %rax,%rbx
 61a:\tcmpq   $0x1,-0x8(%rsp)
 620:\tjne    5a0 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflllNS0_9StoreModeE+0x160>
 626:\tret
0000000000000600 <_ZNK8fedhisyn2nn8MaxPool27forwardERKNS0_6Shape3E>:
 600:\tcomiss %xmm0,%xmm1
 603:\tja     640 <_ZNK8fedhisyn2nn8MaxPool27forwardERKNS0_6Shape3E+0x40>
0000000000000640 <_ZN8fedhisyn5gemmk12_GLOBAL__N_123plane_maxpool2_backwardEPKfS3_Pflll>:
 640:\tcomiss %xmm0,%xmm3
 643:\tmaxss  %xmm0,%xmm3
 647:\tseta   %bl
 64a:\tvcmpltps %ymm1,%ymm6,%ymm6
 64e:\tja     600 <_ZNK8fedhisyn2nn8MaxPool27forwardERKNS0_6Shape3E>
 650:\tucomiss %xmm3,%xmm1
 653:\txor    %edx,%edx
 655:\tjne    640 <_ZN8fedhisyn5gemmk12_GLOBAL__N_123plane_maxpool2_backwardEPKfS3_Pflll>
 657:\tcmp    %rax,%rdi
 65a:\tjne    640 <_ZN8fedhisyn5gemmk12_GLOBAL__N_123plane_maxpool2_backwardEPKfS3_Pflll>
 65c:\tret
0000000000000700 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19plane_sgdEPfPKffl>:
 700:\tvbroadcastss %xmm0,%zmm2
 706:\tvmulps (%rsi,%rax,4),%zmm2,%zmm1
 70d:\tvsubps %zmm1,%zmm3,%zmm1
 713:\tadd    $0x10,%rax
 717:\tcmp    %rdx,%rax
 71a:\tjne    706 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19plane_sgdEPfPKffl+0x6>
 71c:\tret
0000000000000740 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19plane_mixEPKflPfPd>:
 740:\tvmulss (%rsi,%rax,4),%xmm0,%xmm1
 745:\tvcvtss2sd %xmm1,%xmm1,%xmm1
 749:\tadd    $0x1,%rax
 74d:\tcmp    %rax,%rdx
 750:\tjne    740 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19plane_mixEPKflPfPd>
 752:\tje     760 <_ZN8fedhisyn5gemmk12_GLOBAL__N_19plane_mixEPKflPfPd+0x20>
 754:\tvaddpd %zmm1,%zmm2,%zmm2
 75a:\tret
"""

SELF_TEST_EXPECTED = {
    # Clean: register-only mask moves and masked loads, broadcasts of stack
    # scalars (vpbroadcastd, vbroadcastss, an EVEX {1to16} operand), a fused
    # back-edge and a fused forward jump each inside one 32-byte chunk, and
    # an unconditional jmp across 0x60.
    "_ZN8fedhisyn5gemmk12_GLOBAL__N_110kloop_8x16EPKPKflS3_llPflllNS0_9StoreModeE": [],
    "_ZN8fedhisyn5gemmk12_GLOBAL__N_19kloop_8x8EPKPKflS3_llPflllNS0_9StoreModeE": [
        "rep-stos",
        "vec-stack",
        "vec-stack",
        "vec-stack",
        "vec-stack",  # a full-width stack operand of an add is still a tile
        "mask-stack",
        "jcc-32b",  # the fused cmp+jne at 0x55c-0x564 crosses 0x560
        "jcc-32b",  # the jne at 0x5ba-0x5bf ends on 0x5c0
        "jcc-32b",  # only the fused pair 0x5dd-0x5e1 crosses 0x5e0
        "jcc-32b",  # the forward je at 0x5fc-0x601 crosses 0x600
        # (the jne at 0x620 is clean: a cmp of memory with an immediate
        # does not fuse, so 0x61a-0x625 is not one unit)
    ],
    # The first comiss feeds a seta and is overwritten by nothing before
    # the ja: a branch on the comparison.  The ucomiss is overwritten by the
    # xor before the jne.  Its loop runs a ymm compare, so it is no
    # scalar-plane.  MaxPool2::forward is not checked.
    "_ZN8fedhisyn5gemmk12_GLOBAL__N_123plane_maxpool2_backwardEPKfS3_Pflll": ["fp-branch"],
    # A zmm loop.
    "_ZN8fedhisyn5gemmk12_GLOBAL__N_19plane_sgdEPfPKffl": [],
    # Its only loop is scalar; the zmm add after it repeats nothing.
    "_ZN8fedhisyn5gemmk12_GLOBAL__N_19plane_mixEPKflPfPd": ["scalar-plane"],
}

SELF_TEST_LIBRARY = """
0000000000000000 <_ZN8fedhisyn2nn8sgd_stepESt4spanIfLm18446744073709551615EE>:
   0:\tvmulps %ymm1,%ymm2,%ymm2
   4:\tvaddps %ymm2,%ymm3,%ymm3
   8:\tret
0000000000000040 <_ZN8fedhisyn4data8generateERKNS0_13SyntheticSpecEllRNS_3RngE>:
  40:\tvfmadd231ps %zmm1,%zmm2,%zmm3
  46:\tvfnmsub132sd %xmm1,%xmm2,%xmm3
  4b:\tvfixupimmps $0x0,%zmm1,%zmm2,%zmm3
  51:\tret
"""

SELF_TEST_LIBRARY_EXPECTED = {
    "_ZN8fedhisyn4data8generateERKNS0_13SyntheticSpecEllRNS_3RngE": ["fma", "fma"],
}


def self_test():
    got = {
        function: [rule for rule, _ in hits]
        for function, hits in scan_listing(SELF_TEST_LISTING).items()
    }
    if got != SELF_TEST_EXPECTED:
        print(f"self-test FAIL: expected {SELF_TEST_EXPECTED}, got {got}")
        return 1
    got = {
        function: [rule for rule, _ in hits]
        for function, hits in scan_library(SELF_TEST_LIBRARY).items()
    }
    if got != SELF_TEST_LIBRARY_EXPECTED:
        print(f"self-test FAIL: expected {SELF_TEST_LIBRARY_EXPECTED}, got {got}")
        return 1
    print(
        "self-test OK: every rule fires; register-only, scalar-broadcast, "
        "forward-jump and unchecked-function lines stay clean"
    )
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
