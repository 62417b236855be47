#!/usr/bin/env bash
# Byte-identity check between two versions of the program.
#
#   tools/same_outputs.sh REV
#
# Runs one fixed command set with the sources of git revision REV and with
# the working tree's sources, then compares every output file, stdout,
# stderr and exit code. REV's src/ is exported with `git archive`, so
# nothing is checked out or registered in the repository. The inputs are
# made once, by the working tree's perfbench/inputs.py and the generator
# below, and both versions read the same files. BLAS runs on one thread.
#
# The command set: fit with all four families, a lasso fit with one
# unpenalized covariate and path on a fit-wide input; truncated scad,
# adaptive lasso and mcp on a fit-tall input; the t2-small campaign, with
# metrics and impute on its files; a campaign that fits nothing, and one that fits
# unstandardized replicates on one worker; a pure-noise input whose adaptive
# stage degenerates; an input with constant covariates only; malformed CSVs,
# plus well-formed ones with quotes, blank lines and CRLF line ends; and
# rejected runs: scad with alpha 2, one covariate, covariates of +-1e154 too
# large to standardize and, unstandardized, too large to fit, and a campaign
# of zero replicates.
#
# numpy warnings on stderr name the source file and line that raised them.
# Before the comparison, each run's source directory becomes SRC and the line
# number after SRC/...py: becomes N, so moved code compares equal.
#
# Prints one line per command and exits 0 when every output is identical,
# 1 otherwise. Takes about a minute.
set -euo pipefail

rev=${1:?usage: tools/same_outputs.sh REV}
root=$(git rev-parse --show-toplevel)
work=$(mktemp -d "${TMPDIR:-/tmp}/same_outputs.XXXXXX")
trap 'rm -rf "$work"' EXIT
mkdir -p "$work/ref" "$work/in"
git -C "$root" archive "$rev" src | tar -x -C "$work/ref"
export OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1

inputs=$work/in
python3 "$root/perfbench/inputs.py" fit-wide 101 0 "$inputs/wide.csv" >/dev/null
python3 "$root/perfbench/inputs.py" fit-tall 101 0 "$inputs/tall.csv" >/dev/null
python3 - "$inputs" <<'PY'
import math
import sys

import numpy as np

out = sys.argv[1]


def write(name, text):
    with open(f"{out}/{name}", "w", newline="") as fh:
        fh.write(text)


# pure noise, n=60, p=25: the lasso path selects nothing, so the adaptive
# stage degenerates to a one-row path
rng = np.random.default_rng(1)
n, p = 60, 25
Z = rng.normal(size=(n, p))
T = rng.exponential(size=n)
V = np.cumsum(rng.uniform(0.1, 0.6, size=(n, 6)), axis=1)
k = (V < T[:, None]).sum(axis=1)
left = np.where(k == 0, 0.0, V[np.arange(n), np.maximum(k - 1, 0)])
right = np.where(k == 6, math.inf, V[np.arange(n), np.minimum(k, 5)])
rows = ["left,right," + ",".join(f"z{j + 1}" for j in range(p))]
for i in range(n):
    cells = [left[i], right[i], *Z[i]]
    rows.append(",".join("inf" if math.isinf(c) else repr(float(c)) for c in cells))
write("noise.csv", "\n".join(rows) + "\n")

good = "left,right,z1,z2\n0.5,1.0,0.5,1\n0.5,2.0,1.0,0\n1.0,3.0,0.0,1\n0.2,inf,2.0,0\n"
write("quoted.csv", good.replace("0.5,1.0,", '"0.5","1.0",'))
write("crlf_blank.csv", "\n" + good.replace("\n", "\r\n").replace("1.0,3.0", "\r\n  \r\n1.0,3.0"))
write("const.csv", "left,right,z1,z2\n0.5,1.0,1,2\n0.5,2.0,1,2\n1.0,3.0,1,2\n0.2,inf,1,2\n")
write("bad_cell.csv", good.replace("0.5,2.0,1.0,0", "0.5,2.0,1.0x,0"))
write("bad_missing.csv", good.replace("1.0,3.0,0.0,1", "1.0,3.0,na,1"))
write("bad_width.csv", good.replace("1.0,3.0,0.0,1", "1.0,3.0,0.0"))
write("bad_trailing.csv", good.replace("0.2,inf,2.0,0", "0.2,inf,2.0,0,"))
write("bad_header.csv", good.replace("left,right", "lft,right"))
write("bad_empty_body.csv", "left,right,z1,z2\n\n")
write("one.csv", "left,right,z1\n0.5,1.0,0.5\n0.5,2.0,1.0\n1.0,3.0,0.0\n0.2,inf,2.0\n")
write("overflow.csv", "left,right,z1,z2\n" + "".join(
    f"{0.5 * (i % 4)},{'inf' if i % 3 == 0 else 0.5 * (i % 4) + 1.0},"
    f"{'-' if i % 2 == 0 else ''}1e154,{(i % 5) * 0.5 - 1.0}\n"
    for i in range(12)
))
write("truth.csv", "-1.4,-0.83,-1.64,0.69,1.39,1.65\n")
write("genotypes.csv", "g1,g2,g3\n0,1,2\nna,1,\n2,nan,1\n1,0,0\n")
PY

fit="--output-model model.json --output-path path.csv"
cases=(
  "fit-lasso|fit --input $inputs/wide.csv --family lasso $fit"
  "fit-adaptive|fit --input $inputs/wide.csv --family adaptive-lasso $fit"
  "fit-scad|fit --input $inputs/wide.csv --family scad $fit"
  "fit-mcp|fit --input $inputs/wide.csv --family mcp $fit"
  "path-lasso|path --input $inputs/wide.csv --family lasso --output-path path.csv"
  "tall-scad|fit --input $inputs/tall.csv --family scad --truncation $fit"
  "tall-adaptive|fit --input $inputs/tall.csv --family adaptive-lasso --truncation $fit"
  "tall-mcp|fit --input $inputs/tall.csv --family mcp --truncation $fit"
  "unpenalized-lasso|fit --input $inputs/wide.csv --family lasso --unpenalized z1 $fit"
  "campaign|simulate --preset t2-small --p 100 --replicates 4 --seed 101 --fit lasso,adaptive-lasso,scad,mcp --threads 2 --emit-data --midpoint --output-dir out"
  "campaign-nofit|simulate --preset t2-small --p 100 --replicates 4 --seed 101 --threads 2 --emit-data --output-dir out"
  "campaign-raw|simulate --preset t2-small --p 100 --replicates 3 --seed 101 --fit lasso,adaptive-lasso,scad,mcp --no-standardize --threads 1 --output-dir out"
  "metrics|metrics --estimates ../campaign/out/estimates_mcp.csv --truth $inputs/truth.csv --output report.csv"
  "impute-midpoint|impute --mode midpoint --input ../campaign/out/data_rep0000.csv --output imputed.csv"
  "impute-genotype|impute --mode genotype --input $inputs/genotypes.csv --seed 7 --output imputed.csv"
  "degenerate-adaptive|fit --input $inputs/noise.csv --family adaptive-lasso $fit"
  "quoted|fit --input $inputs/quoted.csv --family lasso $fit"
  "crlf-blank|fit --input $inputs/crlf_blank.csv --family lasso $fit"
  "const-covariates|fit --input $inputs/const.csv --family lasso $fit"
  "bad-cell|fit --input $inputs/bad_cell.csv --family lasso $fit"
  "bad-missing|fit --input $inputs/bad_missing.csv --family lasso $fit"
  "bad-width|fit --input $inputs/bad_width.csv --family lasso $fit"
  "bad-trailing|fit --input $inputs/bad_trailing.csv --family lasso $fit"
  "bad-header|fit --input $inputs/bad_header.csv --family lasso $fit"
  "bad-empty-body|fit --input $inputs/bad_empty_body.csv --family lasso $fit"
  "bad-missing-file|fit --input $inputs/absent.csv --family lasso $fit"
  "scad-alpha-2|fit --input $inputs/noise.csv --family scad --alpha 2 $fit"
  "one-covariate|fit --input $inputs/one.csv --family lasso $fit"
  "overflow|fit --input $inputs/overflow.csv --family scad $fit"
  "overflow-raw|fit --input $inputs/overflow.csv --family scad --no-standardize $fit"
  "zero-replicates|simulate --n 40 --p 12 --rho 0 --replicates 0 --seed 1 --fit lasso --output-dir out"
)

run_all() {  # run_all SRC_DIR OUT_DIR
  local case name args rc
  for case in "${cases[@]}"; do
    name=${case%%|*}
    args=${case#*|}
    mkdir -p "$2/$name"
    rc=0
    # shellcheck disable=SC2086  # args is a word list
    (cd "$2/$name" && PYTHONPATH=$1 python3 -m icsel.cli $args >stdout 2>stderr) || rc=$?
    echo "$rc" >"$2/$name/rc"
    SRC_DIR=$1 python3 - "$2/$name/stderr" <<'PY'
import os
import re
import sys

path = sys.argv[1]
with open(path) as fh:
    text = fh.read().replace(os.environ["SRC_DIR"] + "/", "SRC/")
with open(path, "w") as fh:
    fh.write(re.sub(r"^(SRC/\S+\.py):\d+:", r"\1:N:", text, flags=re.M))
PY
  done
}

run_all "$work/ref/src" "$work/out-ref"
run_all "$root/src" "$work/out-new"

status=0
for case in "${cases[@]}"; do
  name=${case%%|*}
  if diff -r "$work/out-ref/$name" "$work/out-new/$name" >"$work/diff" 2>&1; then
    echo "same     $name (exit $(cat "$work/out-new/$name/rc"))"
  else
    status=1
    echo "DIFFERS  $name"
    sed 's/^/    /' "$work/diff" | head -n 20
  fi
done
exit "$status"
