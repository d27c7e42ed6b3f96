#!/usr/bin/env bash
# Reproduces the paper's injection-sweep evidence -- Figs. 3 and 4 and
# the two sweep ablations -- as one example_sdc_run call per cell.
#
# Usage: bench/paper.sh OUTDIR [key=value ...]
#
#   bench/paper.sh out threads=0                     # reduced scale, all cores
#   bench/paper.sh out n=100 nodes=25187 stride=1    # the paper's scale
#
# Every extra key=value token is appended to every cell's spec, so it
# overrides that cell's defaults (n= sizes the Poisson cells, nodes= the
# circuit cells).  Each cell prints its figure series and summary line
# and writes OUTDIR/<cell>.json; the Fig. 3/4 cells also write
# OUTDIR/fig{3,4}_{first,last}_{1,2,3}.csv (one row per injection site).
#
# example_sdc_run is taken from the current directory when it is there
# (run the script from a build tree), else from build/ under the repo.

set -euo pipefail

if [ $# -lt 1 ]; then
  echo "usage: $0 OUTDIR [key=value ...]" >&2
  exit 1
fi
out=$1
shift
extra=("$@")

sdc_run=./example_sdc_run
if [ ! -x "$sdc_run" ]; then
  sdc_run="$(cd "$(dirname "$0")/.." && pwd)/build/example_sdc_run"
fi
if [ ! -x "$sdc_run" ]; then
  echo "$0: example_sdc_run not found (build the repo first)" >&2
  exit 1
fi
mkdir -p "$out"

# cell NAME [sdc_run flags] key=value ...: one sweep, the extras last.
cell() {
  local name=$1
  shift
  echo "=== $name: $*"
  "$sdc_run" --json "$out/$name.json" "$@" "${extra[@]}"
  echo
}

# figure F key=value ...: the six cells of Fig. F, fault classes 1-3 on
# the first (a) and last (b) MGS step, each also written as CSV.
figure() {
  local fig=$1
  shift
  for position in first last; do
    for c in 1 2 3; do
      local name="fig${fig}_${position}_$c"
      cell "$name" --csv "$out/$name.csv" inner=25 tol=1e-8 sweep=1 \
        fault="class$c" position="$position" "$@"
    done
  done
}

# Fig. 3: Poisson (SPD), a single SDC at every aggregate inner iteration.
# Paper shape (full scale, failure-free = 9 outer x 25 inner):
#  * 3a, class 1 (x1e+150): large spikes -- entries of the tridiagonal H
#    that should be zero become huge; up to ~2x outer iterations.
#  * 3a, classes 2/3: at most ~2 extra outer iterations, most runs
#    unchanged.
#  * 3b (last MGS step): worst case ~1 extra outer iteration.
# The detector (|h| <= ||A||_F) would catch every class-1 event, making
# the top plot impossible (see the detector ablation below).
figure 3 matrix=poisson n=40 max_iters=300

# Fig. 4: the nonsymmetric ill-conditioned circuit problem (b = A*1, the
# circuit's default rhs=consistent), every 4th site.
# Paper shape (full scale, failure-free = 28 outer x 25 inner):
#  * 4a, class 1: at most ~2 extra outer iterations (all h may be
#    nonzero, so the relative damage of a large fault is bounded).
#  * 4a, classes 2/3: the first few inner iterations of the FIRST inner
#    solve are extremely vulnerable (up to ~4 extra outer iterations);
#    elsewhere at most ~1.
#  * 4b: extra iterations in more sites, but no sharp early spike.
figure 4 matrix=circuit nodes=2000 max_iters=500 stride=4

# Detector ablation (Secs. V and VII-E-2): the class-1 sweeps with the
# invariant detector |h| <= ||A||_F off and on (abort the inner solve).
# Paper finding: with the detector the class-1 plots "would not be
# possible" -- the worst-case increase drops to ~1-2 outer iterations,
# and every fired class-1 fault whose value escapes the bound is caught.
detector() {
  local name=$1
  shift
  for position in first last; do
    for detector in none bound; do
      cell "detector_${name}_${position}_$detector" inner=25 tol=1e-8 \
        max_iters=500 sweep=1 fault=class1 position="$position" \
        detector="$detector" "$@"
    done
  done
}
detector poisson matrix=poisson n=40 stride=2
detector circuit matrix=circuit nodes=2000 stride=8

# Robust-first-inner ablation (Sec. VII-E-1, the paper's future work):
# does CGS2 re-orthogonalization in the first inner solve remove its
# vulnerability?  Faults hit the FIRST inner solve only (site_limit=25),
# comparing MGS everywhere (the paper's baseline), MGS with CGS2 in inner
# solve 0 only, and CGS2 in every inner solve.
# Reading: CGS2's second pass heals *moderate* multiplicative faults
# (class 2/3): the re-projection restores both the basis vector and the
# total coefficient, removing the first-solve penalty.  For class-1
# (1e150x) faults the correction cancels catastrophically (the healed
# vector is ~1e134*eps garbage), so re-orthogonalization does NOT replace
# the invariant detector -- CGS2 heals what the detector cannot see, the
# detector catches what CGS2 cannot heal.
ortho() {
  local name=$1
  shift
  local first_solve=(inner=25 tol=1e-8 max_iters=400 sweep=1 position=first
                     site_limit=25 "$@")
  cell "ortho_${name}_mgs" inner_ortho=mgs "${first_solve[@]}"
  cell "ortho_${name}_robust_first" inner_ortho=mgs robust_first_inner=1 \
    "${first_solve[@]}"
  cell "ortho_${name}_cgs2" inner_ortho=cgs2 "${first_solve[@]}"
}
ortho circuit_class1 matrix=circuit nodes=2000 fault=class1
ortho circuit_class2 matrix=circuit nodes=2000 fault=class2
ortho poisson_class1 matrix=poisson n=40 fault=class1
