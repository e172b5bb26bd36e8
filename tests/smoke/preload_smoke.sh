#!/bin/sh
#===------------------------------------------------------------------------===#
# LD_PRELOAD smoke harness: runs ordinary processes with libmesh.so
# interposed as their allocator. This is a regression fence for the
# shim + runtime bring-up path (early TLS setup, fork, exec, atexit),
# not a correctness suite — the binaries just have to run and produce
# their normal output.
#
# Usage: preload_smoke.sh <path-to-libmesh.so> <repo-source-dir>
#
# Everything here is a hard expected-pass. Fork-without-exec
# (subshells, command substitution, pipelines to builtins) and python3
# — whose historical startup segfault was the fork gap in disguise —
# are requirements since the copy-to-fresh-memfd fork protocol landed.
#===------------------------------------------------------------------------===#
set -u

LIB="$1"
SRCDIR="$2"
FAILURES=0

if [ ! -r "$LIB" ]; then
  echo "FAIL: libmesh.so not found at $LIB"
  exit 1
fi

run_case() {
  NAME="$1"
  shift
  if LD_PRELOAD="$LIB" "$@" >/dev/null 2>&1; then
    echo "PASS: $NAME"
  else
    echo "FAIL: $NAME (exit $? under LD_PRELOAD=$LIB)"
    FAILURES=$((FAILURES + 1))
  fi
}

# Like run_case, but bounded by timeout(1): these cases' historical
# failure mode is cross-process heap corruption, which can hang (a
# wedged lock in the corrupted parent) rather than crash.
run_case_bounded() {
  NAME="$1"
  shift
  if timeout 30 env LD_PRELOAD="$LIB" "$@" >/dev/null 2>&1; then
    echo "PASS: $NAME"
  else
    echo "FAIL: $NAME (exit $? under LD_PRELOAD=$LIB)"
    FAILURES=$((FAILURES + 1))
  fi
}

run_case "ls"         ls /
run_case "bash -c"    bash -c 'echo preload-ok && true'
if command -v git >/dev/null 2>&1 && [ -d "$SRCDIR/.git" ]; then
  run_case "git status" git -C "$SRCDIR" status --porcelain
else
  echo "SKIP: git status (no git or no repo at $SRCDIR)"
fi

# Fork-without-exec (subshell, command substitution, pipe-to-builtin):
# hard expected-pass since the copy-to-fresh-memfd fork protocol. The
# child's atfork handler rebuilds the arena on a private memfd, so a
# forked bash child that keeps allocating no longer shares (and
# corrupts) the parent's span pages. Historically these corrupted the
# *parent* bash — any regression here is a fork-protocol regression.
run_case_bounded "bash fork-without-exec: subshell" \
  bash -c '(echo hi)'
run_case_bounded "bash fork-without-exec: comsub" \
  bash -c 'x=$(echo hi); test "$x" = hi'
run_case_bounded "bash fork-without-exec: pipeline" \
  bash -c 'echo hi | { read x; test "$x" = hi; }'
run_case_bounded "bash fork-without-exec: nested chain" \
  bash -c 'for i in 1 2 3; do x=$( (echo hi | { read y; echo "$y"; }) ); test "$x" = hi || exit 1; done'

# python3: a hard expected-pass since the fork protocol landed. The
# long-standing "python3 startup segfault" turned out to be the fork
# gap wearing a different hat: interpreter startup forks (a shim call
# trace plus a fork-logging preload pinned it), and
# those children allocate between fork and exec, which corrupted the
# parent through the shared arena. Bounded like the bash fork cases —
# the historical failure mode can hang, not just crash.
if command -v python3 >/dev/null 2>&1; then
  run_case_bounded "python3 startup" python3 -c 'print("ok")'
  run_case_bounded "python3 fork-without-exec" \
    python3 -c 'import os,sys; pid=os.fork()
if pid == 0:
    data=[bytes([i % 251]) * 64 for i in range(20000)]
    os._exit(0 if all(b[0] == i % 251 for i, b in enumerate(data)) else 1)
st=os.waitpid(pid, 0)[1]
junk=[bytearray(64) for _ in range(20000)]
sys.exit(0 if st == 0 else 1)'

  # MESH_NO_MESH is a boolean knob: "0" and "false" keep meshing on,
  # "1" and "on" turn it off. The preloaded process reads the result
  # back through the mesh.enabled mallctl leaf (argv[1] = expected).
  ENABLED_PY='import ctypes,sys
v=ctypes.c_uint64(); n=ctypes.c_size_t(8)
rc=ctypes.CDLL(None).mesh_mallctl(b"mesh.enabled", ctypes.byref(v),
                                  ctypes.byref(n), None, ctypes.c_size_t(0))
sys.exit(0 if rc == 0 and v.value == int(sys.argv[1]) else 1)'
  run_case_bounded "MESH_NO_MESH=0 keeps meshing on" \
    env MESH_NO_MESH=0 python3 -c "$ENABLED_PY" 1
  run_case_bounded "MESH_NO_MESH=false keeps meshing on" \
    env MESH_NO_MESH=false python3 -c "$ENABLED_PY" 1
  run_case_bounded "MESH_NO_MESH=1 turns meshing off" \
    env MESH_NO_MESH=1 python3 -c "$ENABLED_PY" 0
  run_case_bounded "MESH_NO_MESH=on turns meshing off" \
    env MESH_NO_MESH=on python3 -c "$ENABLED_PY" 0
else
  echo "SKIP: python3 (not installed)"
fi

if [ "$FAILURES" -ne 0 ]; then
  echo "$FAILURES preload smoke case(s) regressed"
  exit 1
fi
echo "preload smoke green"
exit 0
